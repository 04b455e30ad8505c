"""Automatic choice of the regularization parameter on the projected problem.

At every outer iteration the solver holds small triangular factors R_F and
R_M of the projected forward and regularization operators, plus the projected
whitened data.  The generalized cross validation functional

    G(lam) = d * || (I - R_F T_lam) rhs ||^2 / trace(I - R_F T_lam)^2,
    T_lam  = (R_F^T R_F + lam R_M^T R_M)^{-1} R_F^T,

is evaluated in closed form through the generalized SVD of the pair
(R_F, R_M), obtained from the CS decomposition of the stacked QR factor.
That reduces every evaluation to O(d) once the pair is factored, so a grid
sweep plus a local refinement is cheap even inside the outer loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SingularSystemError

__all__ = ["ProjectedPair", "gcv_curve", "select_lambda", "default_lambda_grid"]

# Golden-section refinement runs until the bracket has this relative width.
REFINE_RELATIVE_WIDTH = 1e-3
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def default_lambda_grid(n_points=40, low=1e-6, high=1e2):
    """Logarithmic default search grid for the regularization parameter."""
    if int(n_points) < 1 or not (0 < low < np.inf and 0 < high < np.inf):
        raise ValueError("lambda_grid needs n_points >= 1 and finite positive low and high")
    return np.logspace(np.log10(low), np.log10(high), int(n_points))


@dataclass(eq=False)
class ProjectedPair:
    """Projected triangular pair (R_F, R_M) and projected whitened data."""

    r_f: np.ndarray
    r_m: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.r_f = np.atleast_2d(np.asarray(self.r_f, dtype=float))
        self.r_m = np.atleast_2d(np.asarray(self.r_m, dtype=float))
        self.rhs = np.asarray(self.rhs, dtype=float).ravel()
        d = self.r_f.shape[1]
        if self.r_f.shape[0] != d or self.r_m.shape != (d, d):
            raise ValueError("projected factors must be square and of equal size")
        if self.rhs.size != d:
            raise ValueError("projected data length must match the factors")

    @property
    def dim(self):
        return self.r_f.shape[1]


def _pair_factors(pair):
    """Generalized singular values of (R_F, R_M) via the CS decomposition.

    Returns (c, s, beta): cosines, sines with c^2 + s^2 = 1, and the data
    rotated into the left basis of the forward part.  Raises when the stacked
    pair is rank deficient, i.e. the two operators share a null direction.
    """
    d = pair.dim
    stacked = np.vstack([pair.r_f, pair.r_m])
    q, r = np.linalg.qr(stacked)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag.min() <= 2 * d * np.finfo(float).eps * diag.max():
        raise SingularSystemError(
            "projected forward and regularization operators share a null direction"
        )
    u, c, wt = np.linalg.svd(q[:d])
    c = np.clip(c, 0.0, 1.0)
    # Sines computed from the lower block directly; sqrt(1 - c^2) would lose
    # all accuracy for generalized singular values near 1.
    s = np.linalg.norm(q[d:] @ wt.T, axis=0)
    beta = u.T @ pair.rhs
    return c, s, beta


def _candidates(lambdas):
    """Candidate lambdas as a flat array; raises unless all are positive and finite."""
    lambdas = np.asarray(lambdas, dtype=float).ravel()
    if lambdas.size == 0:
        raise ValueError("need at least one candidate lambda")
    if np.any(lambdas <= 0) or not np.all(np.isfinite(lambdas)):
        raise ValueError("candidate lambdas must be positive and finite")
    return lambdas


def _squared_factors(pair):
    """c², s² and β² of the pair, squared once for every evaluation of G."""
    c, s, beta = _pair_factors(pair)
    return c**2, s**2, beta**2


def _gcv(c2, s2, beta2, lam):
    """G at lam, a positive scalar or a column of them, from the squared factors.

    Unchecked, and run under the callers' errstate: they validate the
    candidates once.  Each value depends only on its own lam, so a scalar and
    the same lam inside a column give bitwise equal results.
    """
    # 1 - filter factor: lam*s^2 / (c^2 + lam*s^2), written to stay finite
    # for every positive lambda.
    ls2 = lam * s2
    one_minus_f = ls2 / (c2 + ls2)
    num = c2.size * (one_minus_f**2 * beta2).sum(axis=-1)
    return num / one_minus_f.sum(axis=-1) ** 2


def gcv_curve(pair, lambdas):
    """Evaluate G on the given positive candidates (ascending or not)."""
    factors = _squared_factors(pair)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _gcv(*factors, _candidates(lambdas)[:, None])


def select_lambda(pair, grid=None):
    """Grid minimizer of G plus golden-section refinement around it.

    Ties on the grid are broken toward the larger lambda, and the refined
    candidate is only kept when it strictly improves on the grid minimum, so
    a flat curve yields the largest grid point.

    The search runs on a balanced pair: R_F and the data scaled by one power
    of two, R_M by another, so that both factors have norms in [1/2, 1).
    With R_F = 2^e_f F and R_M = 2^e_m M, G(lam) on the original pair is
    2^(2 e_f) times G on (F, M) at lam * 2^(2 (e_m - e_f)), so the grid is
    scaled by that power of two and the chosen lambda scaled back.  All of
    these scalings are exact, which makes the choice exactly equivariant
    under rescaling of the noise covariance.
    """
    if grid is None:
        grid = default_lambda_grid()
    grid = np.sort(_candidates(grid))
    e_f = np.frexp(np.linalg.norm(pair.r_f))[1]
    e_m = np.frexp(np.linalg.norm(pair.r_m))[1]
    balanced = ProjectedPair(
        np.ldexp(pair.r_f, -e_f), np.ldexp(pair.r_m, -e_m), np.ldexp(pair.rhs, -e_f)
    )
    shift = 2 * (e_m - e_f)
    scaled = np.ldexp(grid, shift)
    factors = _squared_factors(balanced)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _gcv(*factors, scaled[:, None])
    finite = np.isfinite(values)
    if not finite.any():
        raise SingularSystemError("GCV curve is undefined on the whole grid")
    masked = np.where(finite, values, np.inf)
    # last occurrence of the minimum = largest lambda among ties
    idx = masked.size - 1 - int(np.argmin(masked[::-1]))
    best_grid = float(grid[idx])
    best_value = float(masked[idx])
    if grid.size == 1:
        return best_grid

    lo = scaled[max(idx - 1, 0)]
    hi = scaled[min(idx + 1, grid.size - 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        cand, cand_value = _golden_section(
            lambda t: _gcv(*factors, np.exp(t)), np.log(lo), np.log(hi)
        )
    if np.isfinite(cand_value) and cand_value < best_value:
        return float(np.ldexp(np.exp(cand), -shift))
    return best_grid


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
