"""The projected pair, factored once per iteration for the λ search and the solve.

At every outer iteration the solver holds small triangular factors R_F and
R_M of the projected forward and regularization operators, plus the projected
whitened data.  ``ProjectedPair`` factors that pair once, by its generalized
SVD obtained from the CS decomposition of the stacked QR factor,

    [F; M] = [Q1; Q2] R,   Q1 = U C W^T,   Q2 W = V S,

and both consumers read that one factorization.  The generalized cross
validation functional

    G(lam) = d * || (I - R_F T_lam) rhs ||^2 / trace(I - R_F T_lam)^2,
    T_lam  = (R_F^T R_F + lam R_M^T R_M)^{-1} R_F^T,

costs O(d) per evaluation, so a grid sweep plus a golden-section refinement
is cheap even inside the outer loop.  The minimizer of
||R_F y - rhs||^2 + lam ||R_M y||^2 at the chosen lam is
y = R^{-1} W c beta / (c^2 + lam s^2), beta = U^T rhs: one triangular solve.
"""

from __future__ import annotations

import numpy as np

from .exceptions import SingularSystemError

__all__ = ["ProjectedPair", "select_lambda"]

# Golden-section refinement runs until the bracket has this relative width.
REFINE_RELATIVE_WIDTH = 1e-3
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class ProjectedPair:
    """Projected pair (R_F, R_M) and projected whitened data, factored once.

    R_F is p x d with p <= d (p < d once the basis outgrows the data) and is
    padded square with zero rows, rhs with zeros.  The factorization is of a
    balanced copy: R_F and rhs scaled by 2^-e_f, R_M by 2^-e_m, so that both
    factors have norms in [1/2, 1).  On that copy lam reads lam * 2^shift,
    shift = 2 (e_m - e_f), and G is 2^(-2 e_f) times G of the original pair.
    All of these scalings are exact, which makes the choice of lam and the
    solve exactly equivariant under rescaling of the noise covariance.
    Raises SingularSystemError when the stacked pair is rank deficient, i.e.
    the two operators share a null direction.
    """

    def __init__(self, r_f, r_m, rhs):
        self.r_f = np.atleast_2d(np.asarray(r_f, dtype=float))
        self.r_m = np.atleast_2d(np.asarray(r_m, dtype=float))
        self.rhs = np.asarray(rhs, dtype=float).ravel()
        p, d = self.r_f.shape
        if p > d or self.r_m.shape != (d, d):
            raise ValueError("R_F must be p x d with p <= d, and R_M d x d")
        if self.rhs.size != p:
            raise ValueError("projected data length must match the rows of R_F")
        r_f = np.vstack([self.r_f, np.zeros((d - p, d))])
        e_f, e_m = _norm_exponent(r_f), _norm_exponent(self.r_m)
        self.dim, self.e_f, self.shift = d, e_f, 2 * (e_m - e_f)
        q, self._r = np.linalg.qr(np.vstack([np.ldexp(r_f, -e_f), np.ldexp(self.r_m, -e_m)]))
        diag = np.abs(np.diag(self._r))
        if diag.size == 0 or diag.min() <= 2 * d * np.finfo(float).eps * diag.max():
            raise SingularSystemError(
                "projected forward and regularization operators share a null direction"
            )
        u, c, self._wt = np.linalg.svd(q[:d])
        c = np.clip(c, 0.0, 1.0)
        # Sines computed from the lower block directly; sqrt(1 - c^2) would lose
        # all accuracy for generalized singular values near 1.
        s = np.linalg.norm(q[d:] @ self._wt.T, axis=0)
        beta = u.T @ np.ldexp(np.concatenate([self.rhs, np.zeros(d - p)]), -e_f)
        self._c_beta = c * beta
        # c², s² and β², squared once for every evaluation of G
        self.factors = c**2, s**2, beta**2

    def solve(self, lam):
        """Minimizer y of ||R_F y - rhs||^2 + lam ||R_M y||^2; lam >= 0 is not checked."""
        c2, s2, _ = self.factors
        z = self._c_beta / (c2 + np.ldexp(lam, self.shift) * s2)
        return np.linalg.solve(self._r, self._wt.T @ z)


def _norm_exponent(a):
    """Exponent e of ||a||_F = f 2^e, f in [1/2, 1), read on a copy scaled by
    a power of 2 to a largest entry in [1/2, 1), whose squared norm is finite."""
    k = np.frexp(np.abs(a).max(initial=0.0))[1]
    return np.frexp(np.linalg.norm(np.ldexp(a, -k)))[1] + k


def _gcv(c2, s2, beta2, lam):
    """G at lam, a positive scalar or a column of them, from the squared factors.

    Unchecked, and run under the callers' errstate: the solver's grid is a
    positive constant.  Each value depends only on its own lam, so a scalar and
    the same lam inside a column give bitwise equal results.
    """
    # 1 - filter factor: lam*s^2 / (c^2 + lam*s^2), written to stay finite
    # for every positive lambda.
    ls2 = lam * s2
    one_minus_f = ls2 / (c2 + ls2)
    num = c2.size * (one_minus_f**2 * beta2).sum(axis=-1)
    return num / one_minus_f.sum(axis=-1) ** 2


def select_lambda(pair, grid):
    """Grid minimizer of G plus golden-section refinement around it.

    ``grid`` is used as given: sorted, positive and finite, with at least two
    points, as the solver's constant ``_LAMBDA_GRID`` is.  Ties on the grid
    are broken toward the larger lambda, and the refined candidate is only
    kept when it strictly improves on the grid minimum, so a flat curve yields
    the largest grid point.  The search runs on the balanced factors: the
    grid is scaled by 2^shift and the chosen lambda scaled back.  Raises
    SingularSystemError when a scaled grid point overflows, or G is undefined
    on the whole grid.
    """
    grid = np.asarray(grid, dtype=float)
    scaled = _scaled_grid(pair, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _gcv(*pair.factors, scaled[:, None])
    finite = np.isfinite(values)
    if not finite.any():
        raise SingularSystemError("GCV curve is undefined on the whole grid")
    masked = np.where(finite, values, np.inf)
    # last occurrence of the minimum = largest lambda among ties
    idx = masked.size - 1 - int(np.argmin(masked[::-1]))
    best_grid = float(grid[idx])
    best_value = float(masked[idx])
    lo = scaled[max(idx - 1, 0)]
    hi = scaled[min(idx + 1, grid.size - 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        cand, cand_value = _golden_section(
            lambda t: _gcv(*pair.factors, np.exp(t)), np.log(lo), np.log(hi)
        )
    if np.isfinite(cand_value) and cand_value < best_value:
        return float(np.ldexp(np.exp(cand), -pair.shift))
    return best_grid


def _scaled_grid(pair, grid):
    """``grid`` on the balanced pair's scale, lam * 2^shift.

    Raises SingularSystemError when a point overflows: GCV would pick from
    the finite part alone, and a fixed lam on such a pair, however finite
    its own scaled value, moves the solve nowhere.
    """
    with np.errstate(over="ignore"):
        scaled = np.ldexp(grid, pair.shift)
    if np.isinf(scaled).any():
        raise SingularSystemError(
            f"GCV grid overflows on the balanced projected pair, whose lambda scale is "
            f"2^{pair.shift}; rescale the scene intensities"
        )
    return scaled


def _golden_section(f, a, b):
    """Minimize f on [a, b] (log-lambda axis) down to a narrow bracket."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > REFINE_RELATIVE_WIDTH:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)
