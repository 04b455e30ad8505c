"""Majorization-minimization solver on adaptively expanded Krylov-type subspaces.

The outer iteration minimizes

    J_eps(u) = 0.5 * ||F u - d||^2_{Gamma^{-1}} + lam * R_eps(u)

by repeatedly solving the quadratic majorant's normal equations

    (F^T Gamma^{-1} F + lam * M^T M) u = F^T Gamma^{-1} d,     M = W(u_k) D,

restricted to a low-dimensional search space.  The space is seeded with 5
Golub-Kahan bidiagonalization steps of the whitened operator and grows by one
direction per iteration: the normal-equations residual of the current iterate,
orthogonalized against the basis, with a second Gram-Schmidt pass only where
the first cancels most of it.  Where n allows, the basis is capped at as many
columns as V and Q_F fit in 16 MiB, at least 8 and at most 30, so a small
problem keeps 30 and a 128x128x8 deblur gets 8: an expansion that would pass
the cap first restarts the basis on the span of the last 3 iterates, the
current one included, as in the limited-memory restarted and recycled GKS of
Buccini & Reichel (2023) and Pasha, de Sturler & Kilmer (2023), so the
subspace drops to 4 columns and grows again.  The current iterate stays in
the span, so under a fixed lam the objective still cannot rise, and the forward
factors follow from the kept ones without a forward apply.  Thin QR factors of
the projected operators keep every inner step at the cost of small dense linear
algebra.  Each refresh factors the projected pair once, by its generalized SVD
(``paramselect.ProjectedPair``), and both the GCV search for lam and the
projected solve read that one factorization; a fixed lam takes the same path.
The whitened forward applied to the basis, A V, enters only through its thin QR
factors Q_F, R_F and is not kept; the factors grow by one column at a time,
since the noise covariance is fixed.  The penalty factor is
refactored every iteration, because the weights change, by Gram sweeps over row
blocks of the weighted block W D V.  D V is never stored: each sweep applies
the stencil of D to the basis one frame range at a time, so no array with a row
per row of D and a column per basis vector outlives a block; only the
Householder fallback stacks the blocks.  One sweep (Cholesky of the Gram
matrix) suffices while its factor has condition number at most 1e3, since the
factor enters every later step only through RᵀR; up to 1e7 a second sweep makes
it CholeskyQR2; a wide, rank deficient or more ill conditioned block falls back
to Householder QR.  The two arrays that grow with the basis, the basis V and
the forward factor Q_F, are written one column at a time into column-major
buffers that ``init_state`` alone sizes, once, at the cap.
The seed is copied into the basis buffer once; a restart writes V C and Q_F Q'
over the first columns of the same buffers one row block at a time, with no
temporary as tall as a column; the state's public fields are views of their
filled columns, and no buffer is ever regrown.

Each iterate u = V y is the minimizer of its projected majorant and is reported
as it is, so every step is a majorize-minimize step.  It is formed once, and so
are the vectors that several steps share.  Its whitened residual A u - b comes
from the kept factors as Q_F R_F y - b, without a forward apply, and serves the
discrepancy test, the objective and the expansion.  z = D u serves the
expansion and the penalty sums, the smoothed squared group norms that give both
R_eps(u) for the objective and the next refresh's weights; the first weights,
at u = 0, take the sums of a zero z.  Past the seed, the forward is thus
applied once per expansion and D once per iterate, besides the stencil passes
of the Gram sweeps.  The weights are formed in place on the sums, the old
weights are dropped first, and W² D x takes one buffer, so no step holds more
than one rows(D) temporary besides z, the sums and the weights.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .exceptions import SolverError
from .metrics import rre
from .operators import LinearOperator
from .paramselect import ProjectedPair, select_lambda
from .regularization import (RegularizerSpec, as_float, as_int, build_D, penalty_sums,
                             regularizer_value, update_weights)

__all__ = [
    "ReconstructionProblem",
    "white_noise_model",
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "mm_gks_solve",
]


@dataclass(eq=False)
class ReconstructionProblem:
    """Dynamic data-fit problem: forward operator, stacked data, noise model.

    ``noise_cov_diag`` is the diagonal of the noise covariance (defaults to
    white noise); ``delta`` is the whitened noise magnitude used by the
    discrepancy principle, 0 disables that stop.  ``truth`` is optional and
    only used for error reporting: the RRE of each iterate, which needs it
    finite and not all zero.
    """

    forward: LinearOperator
    data: np.ndarray
    noise_cov_diag: np.ndarray | None = None
    delta: float = 0.0
    truth: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.forward, LinearOperator):
            raise ValueError(f"forward must be a LinearOperator, got {type(self.forward)}")
        self.data = np.asarray(self.data, dtype=float).ravel()
        if self.data.size != self.forward.rows:
            raise ValueError(
                f"data length {self.data.size} does not match operator rows {self.forward.rows}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data must be finite (found NaN or infinity)")
        if self.noise_cov_diag is None:
            self.noise_cov_diag = np.ones(self.data.size)
        else:
            self.noise_cov_diag = np.asarray(self.noise_cov_diag, dtype=float).ravel()
            if self.noise_cov_diag.size != self.data.size:
                raise ValueError("noise covariance diagonal must match the data length")
            if not np.all(np.isfinite(self.noise_cov_diag)):
                raise ValueError("noise covariance diagonal must be finite")
            if not np.all(self.noise_cov_diag > 0):
                raise ValueError("noise covariance diagonal must be strictly positive")
        self.delta = as_float(self.delta, "delta")
        if not 0 <= self.delta < np.inf:
            raise ValueError("delta must be nonnegative and finite")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float).ravel()
            if self.truth.size != self.forward.cols:
                raise ValueError("truth length must match operator columns")
            with np.errstate(over="ignore"):  # an overflowing norm is not zero
                zero_norm = np.linalg.norm(self.truth) == 0
            if not np.all(np.isfinite(self.truth)) or zero_norm:
                raise ValueError("truth must be finite and not all zero, nor of zero norm")
        self._inv_sqrt_cov = 1.0 / np.sqrt(self.noise_cov_diag)
        # the seed basis starts from b / ||b||, which an overflowing ||b||² leaves empty
        with np.errstate(over="ignore"):
            b = self._inv_sqrt_cov * self.data
            if not np.isfinite(b @ b):
                raise ValueError("squared norm of the whitened data is not finite")
        b.flags.writeable = False
        self._whitened_data = b

    # Whitened pieces: A = Gamma^{-1/2} F, b = Gamma^{-1/2} d.
    def whiten_apply(self, x):
        y = self.forward.apply(x)
        return self._inv_sqrt_cov[:, None] * y if y.ndim == 2 else self._inv_sqrt_cov * y

    def whiten_adjoint(self, y):
        y = np.asarray(y, dtype=float)
        y = self._inv_sqrt_cov[:, None] * y if y.ndim == 2 else self._inv_sqrt_cov * y
        return self.forward.apply_adjoint(y)

    @property
    def whitened_data(self):
        """b = Gamma^{-1/2} d, formed once (read-only)."""
        return self._whitened_data

    def residual_norm(self, u):
        """Whitened data misfit ||F u - d||_{Gamma^{-1}}."""
        return float(np.linalg.norm(self.whiten_apply(u) - self.whitened_data))


def white_noise_model(noise):
    """``(noise_cov_diag, delta)`` of data that carry the white noise e = ``noise``.

    Γ = (‖e‖²/m)·I, e's per-entry variance, makes the whitened noise norm √m
    exactly.  A variance of 0, or one that underflows, gives ``(None, 0.0)``: Γ = I
    and no discrepancy stop; one that overflows, an infinite Γ the problem refuses.
    An empty e has no variance and is refused.
    """
    noise = np.asarray(noise, dtype=float).ravel()
    m = noise.size
    if m == 0:
        raise ValueError("noise vector is empty")
    with np.errstate(over="ignore"):
        variance = float(np.dot(noise, noise)) / m
    if variance == 0.0:
        return None, 0.0
    return np.full(m, variance), float(np.sqrt(m))


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the outer iteration.

    ``lam`` fixes the regularization parameter; when None it is chosen by GCV
    on the projected problem at every iteration, over a fixed grid of 40
    log-spaced values from 1e-6 to 1e2 (``_LAMBDA_GRID``).  ``eta`` is the
    discrepancy principle's safety factor: the solve stops once
    ||F u - d||_{Gamma^{-1}} <= eta * delta.  It is fixed, not a field, since
    a different factor is a different ``delta``.
    """

    eta: ClassVar[float] = 1.01
    regularizer: RegularizerSpec
    max_iters: int = 150
    rel_change_tol: float = 1e-6
    lam: float | None = None

    def __post_init__(self):
        if not isinstance(self.regularizer, RegularizerSpec):
            raise ValueError(f"regularizer must be a RegularizerSpec, got {self.regularizer!r}")
        kinds = {"max_iters": as_int, "rel_change_tol": as_float, "lam": as_float}
        for name, kind in kinds.items():
            value = getattr(self, name)
            if name != "lam" or value is not None:
                object.__setattr__(self, name, kind(value, name))
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 <= self.rel_change_tol < np.inf:
            raise ValueError("rel_change_tol must be nonnegative and finite")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ValueError("fixed lam must be positive and finite")


@dataclass(eq=False)
class SolverState:
    """Search basis and the projected factors kept in sync with it."""

    basis: np.ndarray  # n x d, orthonormal columns
    q_f: np.ndarray  # thin Q of the whitened forward applied to the basis, m x min(m, d)
    r_f: np.ndarray  # thin R of the same, min(m, d) x d; A V itself is not kept
    rhs_hat: np.ndarray  # q_f^T (whitened data)
    # the column-major buffers whose first columns basis and q_f view, sized
    # once by init_state
    basis_buf: np.ndarray
    q_f_buf: np.ndarray
    weights: np.ndarray | None = None  # diagonal of W(u_k), one entry per row of D
    # (r_f, R_M, rhs_hat) as factored by the last refresh; R_M is the square
    # R of W D V, d x d, and D V is not kept
    pair: ProjectedPair | None = None
    y: np.ndarray | None = None

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def max_dim(self):
        """Columns the basis can grow to: the width of its buffer."""
        return self.basis_buf.shape[1]


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    lam: float
    objective: float
    dp_residual: float
    rre: float | None
    subspace_dim: int


@dataclass(eq=False)
class SolveResult:
    u: np.ndarray
    history: list[IterationRecord]
    stop_reason: str

    @property
    def iterations(self):
        return len(self.history)


def seed_subspace(problem, n_steps):
    """Golub-Kahan bidiagonalization basis for the whitened normal equations.

    Returns ``(V, breakdown)``: up to ``n_steps`` orthonormal columns spanning
    the Krylov space generated by F^T Gamma^{-1} d, with one
    reorthogonalization pass per step.  ``breakdown`` flags an early stop
    (the space is invariant before ``n_steps`` vectors were produced).  V is
    column-major, the filled columns of one array of min(n, n_steps) columns,
    each written in place as its step makes it.
    """
    n = problem.forward.cols
    b = problem.whitened_data
    beta = np.linalg.norm(b)
    if beta == 0:
        return np.zeros((n, 0)), True
    u = b / beta
    v = problem.whiten_adjoint(u)
    alpha = np.linalg.norm(v)
    tol = 1e-12 * max(alpha, 1e-300)
    if alpha <= tol:
        return np.zeros((n, 0)), True
    steps = max(min(int(n_steps), n), 1)
    basis = np.empty((n, steps), order="F")
    basis[:, 0] = v / alpha
    for j in range(1, steps):
        v = basis[:, j - 1]
        p = problem.whiten_apply(v) - alpha * u
        beta = np.linalg.norm(p)
        if beta <= tol:
            return basis[:, :j], True
        u = p / beta
        w = problem.whiten_adjoint(u) - beta * v
        w -= basis[:, :j] @ (basis[:, :j].T @ w)
        alpha = np.linalg.norm(w)
        if alpha <= tol:
            return basis[:, :j], True
        basis[:, j] = w / alpha
    return basis, False


def init_state(problem, basis):
    """Project the whitened forward operator onto a basis; only the thin QR of A V is kept.

    The basis can hold as many columns as its n rows and Q_F's m rows fit
    in ``_BASIS_BYTES`` (16 MiB), clamped to
    ``_MIN_BASIS_COLS``-``_MAX_BASIS_COLS`` (8-30; n if fewer, d if more):
    30 for every n + m up to 69,905, 8 from 233,017 on.  The basis and Q_F
    live in column-major buffers of that many columns (at most m for Q_F),
    which expansions fill in place.  Both are allocated here and the basis
    and Q_F copied in once, so an iterate does not depend on how far the run
    may grow, and the caller's basis is never written.  Columns an
    early-stopping run never fills are never written, so they never become
    resident; numpy's huge-page advice adds at most one partly filled 2 MB
    page per buffer.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != problem.forward.cols:
        raise ValueError("basis must be n x d")
    n, d = basis.shape
    if d == 0:
        raise ValueError("basis must have at least one column")
    m = problem.forward.rows
    cols = min(_MAX_BASIS_COLS, max(_MIN_BASIS_COLS, _BASIS_BYTES // (8 * (n + m))))
    max_dim = max(d, min(n, cols))
    q_f, r_f = np.linalg.qr(problem.whiten_apply(basis), mode="reduced")
    rhs_hat = q_f.T @ problem.whitened_data
    basis_buf = _buffer(basis, max_dim)
    q_f_buf = _buffer(q_f, min(q_f.shape[0], max_dim))
    return SolverState(
        basis=basis_buf[:, :d], q_f=q_f_buf[:, : q_f.shape[1]], r_f=r_f, rhs_hat=rhs_hat,
        basis_buf=basis_buf, q_f_buf=q_f_buf,
    )


def _buffer(a, cols):
    """A column-major array of a's rows and `cols` columns that starts with a."""
    buf = np.empty((a.shape[0], cols), order="F")
    buf[:, : a.shape[1]] = a
    return buf


def refresh_penalty(state, spec, sums):
    """Recompute the weights, R_M and the pair from the ``penalty_sums`` at u_k (spent)."""
    state.weights = None  # the old weights are not read again; free them first
    w = state.weights = update_weights(spec, sums)
    d_op = build_D(spec)

    def weighted_rows():
        for first, z in d_op.row_blocks(state.basis, _GRAM_BLOCK_ELEMS):
            z *= w[first : first + z.shape[0], None]
            yield z

    r_m = _penalty_r(weighted_rows, d_op.rows, state.dim)
    state.pair = ProjectedPair(state.r_f, r_m, state.rhs_hat)


def solve_projected(state, lam):
    """Exact minimizer of the projected majorant, from the pair the last refresh factored."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if state.pair is None or state.pair.dim != state.dim:
        raise ValueError("projected pair not factored at this basis; call refresh_penalty first")
    state.y = state.pair.solve(lam)
    return state.y


def expand_subspace(state, problem, d_op, lam, x, res_w, dx):
    """Append the orthogonalized normal-equations residual at x to the basis.

    x = V y is the iterate of the last projected solve, ``res_w`` its whitened
    residual A x - b and ``dx`` = D x, all as the outer loop already holds
    them.  Returns True when a direction was added; False when the basis
    already has ``state.max_dim`` columns (at most n) or the residual has
    converged to zero.
    """
    if state.y is None or state.weights is None:
        raise ValueError("expand_subspace needs a solved state")
    if state.dim >= state.max_dim:
        return False
    w2dx = np.square(state.weights)  # W² D x in one rows(D) buffer
    w2dx *= dx
    r = lam * d_op.apply_adjoint(w2dx)
    del w2dx  # before the forward's adjoint allocates
    r += problem.whiten_adjoint(res_w)
    _, norm = _orthogonalize(state.basis, r)
    if norm <= 1e-14 * max(1.0, float(np.linalg.norm(x))):
        return False
    r /= norm
    state.basis_buf[:, state.dim] = r
    state.basis = state.basis_buf[:, : state.dim + 1]
    _append_forward_qr(state, problem, problem.whiten_apply(r))
    return True


def mm_gks_solve(problem, config):
    """Run the outer iteration; returns the final iterate and its history.

    Stops on the discrepancy principle (when delta > 0), on relative change
    of the iterate, or at max_iters.  Weights are refreshed at the start of
    every outer iteration from the last iterate u = V y, the minimizer of the
    last projected majorant, so under a fixed lam the objective cannot rise.
    A SolverError raised in the loop carries the records so far in ``history``.
    """
    spec = config.regularizer
    n = problem.forward.cols
    if spec.n != n:
        raise ValueError(
            f"regularizer dims {spec.dims} do not match operator columns {n}"
        )
    d_op = build_D(spec)
    basis, _ = seed_subspace(problem, _SEED_STEPS)
    if basis.shape[1] == 0:
        raise SolverError("seed basis is empty; data has no signal to start from")
    state = init_state(problem, basis)
    del basis  # the seed now lives in the state's buffer; do not hold it through the loop

    b = problem.whitened_data
    iterates = deque(maxlen=_RESTART_ITERATES)  # coefficients of the last iterates
    u_prev = np.zeros(n)
    sums = penalty_sums(spec, np.zeros(d_op.rows))  # D u_prev is zero: no apply
    history = []
    stop_reason = "max_iters"
    try:
        for k in range(1, config.max_iters + 1):
            refresh_penalty(state, spec, sums)
            if config.lam is not None:
                lam = float(config.lam)
            else:
                lam = select_lambda(state.pair, _LAMBDA_GRID)
            y = solve_projected(state, lam)
            u = state.basis @ y
            if not np.all(np.isfinite(u)):
                raise SolverError(f"non-finite iterate at iteration {k}")
            res_w = state.q_f @ (state.r_f @ y) - b
            dp_residual = float(np.linalg.norm(res_w))
            z = d_op.apply(u)
            sums = penalty_sums(spec, z)
            objective = 0.5 * dp_residual**2 + lam * regularizer_value(spec, sums)
            history.append(
                IterationRecord(
                    iteration=k,
                    lam=lam,
                    objective=float(objective),
                    dp_residual=dp_residual,
                    rre=None if problem.truth is None else rre(u, problem.truth),
                    subspace_dim=state.dim,
                )
            )
            if problem.delta > 0 and dp_residual <= config.eta * problem.delta:
                stop_reason = "discrepancy"
                break
            norm_prev = np.linalg.norm(u_prev)
            if (
                k > 1
                and norm_prev > 0
                and np.linalg.norm(u - u_prev) < config.rel_change_tol * norm_prev
            ):
                stop_reason = "rel_change"
                break
            u_prev = u
            if k < config.max_iters:
                iterates.append(y)
                if state.dim == state.max_dim < n:
                    _restart(state, problem, iterates)
                expand_subspace(state, problem, d_op, lam, u, res_w, z)
            del z  # the next refresh reads only the sums
    except SolverError as exc:  # a singular projected system, say
        exc.history = history
        raise
    return SolveResult(u=u, history=history, stop_reason=stop_reason)


# --- projected QR bookkeeping --------------------------------------------------

# One Gram sweep R1 = chol(AᵀA) gives R1ᵀR1 = AᵀA with a relative error of
# about cond(R1)² u.  The one consumer of R_M, the generalized SVD of the
# projected pair that GCV and the solve share, sees it only through R_MᵀR_M,
# so while cond(R1) <= 1e3 that error, at most 1.1e-10, is already below the
# accuracy the refresh promises, and R1 is returned as it is.  Between 1e3 and
# 1e7 (about u^(-1/2)) a second sweep over Q1 = A R1⁻¹ restores Householder
# accuracy (CholeskyQR2); beyond that the Gram matrix loses the smallest
# directions and Householder takes over.
_ONE_PASS_MAX_COND = 1e3
_CHOLQR_MAX_COND = 1e7
# Elements per row block of the Gram sweeps and the restart (256 KB).  A Gram
# row block holds the rows of one block of D for as many whole frames as fit,
# so W D V is never held at full size, but never less than one frame, so this
# is no bound on it: one frame of the v block at 128x128 is 16,256 x 8 values,
# 1.0 MB, at the 8 columns a 128x128x8 deblur reaches, and 3.9 MB at d = 30.
# Splitting frames into row ranges was dropped: such a block does not set a
# solve's peak, and it saved under 1 MB.
_GRAM_BLOCK_ELEMS = 1 << 15
# Golub-Kahan steps of the seed, below the cap so that the seed leaves room
# for an expansion; the budget, floor and ceiling of the columns the basis may
# reach before a restart (where n is larger): as many as the n-row V and the
# m-row Q_F fit in the budget, clamped to [floor, ceiling]; the number of last
# iterates whose span the restart keeps; and the GCV search grid, sorted,
# positive and finite, which select_lambda uses as it is.  An iteration costs
# about (n + m + rows(D)) d, so 3 kept iterates rather than 10 lower Σd of a
# 40-iteration capped run by 14%, while the distance to the minimizer after
# 200 fixed-λ iterations stays within 2% (keeping 1 took 1.7-2.2x).
# On a large problem the outer MM rate, not d, limits convergence: on the
# 128x128x8 deblur (n + m = 262,144, which 16 MiB sizes at the floor) 8
# columns instead of 16 took a 40-iteration fixed-λ solve from 0.98 to 0.73 s
# and its peak RSS from 121 to 107 MB (medians of 10 runs, 2 vCPUs), at RRE
# +0.2% and SSIM -0.01%; after 200 iterations its RRE, and that of a
# 128x128x16 CT, moved by under 0.1%.  On a 16x16x4 deblur, after 200
# iterations, 8 columns left the iterate 8% (AnisoTV) and 3% (GS) farther from
# the minimizer than 30 did, as 16 had.  6 columns left it 11% and 10% farther
# and cost the 128x128x8 deblur +0.9% RRE at 40 iterations, against +0.2% at 8.
# A small problem keeps 30: below 27 columns the cap restarts the short GCV
# runs, whose λ picks then fall to the grid floor (16 took 64x64x8 tomography
# from 68 to 75 iterations and its SSIM from 0.2305 to 0.2154).  16 MiB keeps
# every n + m up to 69,905 at 30, above that of the largest problem the tests
# solve, a 64x64x8 deblur (65,536).
_SEED_STEPS = 5
_BASIS_BYTES = 16 << 20
_MIN_BASIS_COLS = 8
_MAX_BASIS_COLS = 30
_RESTART_ITERATES = 3
_LAMBDA_GRID = np.logspace(-6, 2, 40)
_LAMBDA_GRID.flags.writeable = False


def _penalty_r(blocks, rows, d):
    """Square triangular factor R_M of the rows x d matrix A given as row blocks.

    Every call of ``blocks()`` yields the row blocks of A afresh, in order.
    The first sweep over them gives R1 = chol(AᵀA).  When cond(R1) <= 1e3
    that is R_M: one pass over A.  Otherwise CholeskyQR2 takes a second
    sweep, R2 = chol(Q1ᵀQ1) with Q1 = A R1⁻¹, and returns R_M = R2 R1.
    Falls back to Householder on the stacked blocks when A is wide, a
    Cholesky factorization fails, or cond(R1) >= 1e7, where the second sweep
    can no longer restore accuracy.
    """
    try:
        if rows < d:
            raise np.linalg.LinAlgError("penalty block is wide")
        r1 = _gram_cholesky(blocks, d)
        cond = np.linalg.cond(r1)
        if cond <= _ONE_PASS_MAX_COND:
            return r1
        if not cond < _CHOLQR_MAX_COND:
            raise np.linalg.LinAlgError("penalty block too ill conditioned")
        r2 = _gram_cholesky(blocks, d, np.linalg.inv(r1))
    except np.linalg.LinAlgError:
        r = np.linalg.qr(np.vstack(list(blocks())), mode="r")
        return np.vstack([r, np.zeros((d - r.shape[0], d))])  # square when A is wide
    return r2 @ r1


def _gram_cholesky(blocks, d, right=None):
    """Upper Cholesky factor of BᵀB, B = A @ right, summed over the row blocks of A."""
    gram = np.zeros((d, d))
    for b in blocks():
        if right is not None:
            b = b @ right
        gram += b.T @ b
    return np.linalg.cholesky(gram).T


def _restart(state, problem, iterates):
    """Shrink the basis to the span of the kept iterates, in the same buffers.

    ``iterates`` holds the coefficient vectors of the last iterates, the
    current one last, each as long as the basis was when it was solved; C is
    the thin Q of them, zero-padded to the basis's d columns.  V C replaces
    V and, since A V C = Q_F (R_F C), the QR Q'R' of R_F C gives the forward
    factors Q_F Q' and R' without a forward apply.  Both products are written
    over the first columns of their own buffers one row block of at most
    ``_GRAM_BLOCK_ELEMS`` read elements at a time, so no temporary of a full
    column's length is made.  The kept coefficients,
    the current y among them, become Cᵀ y_j: every iterate V y_j stays in
    the span, so under a fixed λ the next majorant cannot raise the
    objective.  The pair must be refactored.
    """
    ys = np.zeros((state.dim, len(iterates)))
    for j, y in enumerate(iterates):
        ys[: y.size, j] = y
    c = np.linalg.qr(ys)[0]
    q, state.r_f = np.linalg.qr(state.r_f @ c)
    state.basis = _write_product(state.basis_buf, state.basis, c)
    state.q_f = _write_product(state.q_f_buf, state.q_f, q)
    state.rhs_hat = state.q_f.T @ problem.whitened_data
    kept = c.T @ ys
    iterates.clear()
    iterates.extend(kept.T)
    state.y = iterates[-1]
    state.pair = None


def _write_product(buf, old, right):
    """Write old @ right over the first columns of buf, whose first columns old views.

    A row block of the product reads only its own rows, so each block is
    written over the rows it was formed from.  Returns the written columns.
    """
    k = right.shape[1]
    step = max(1, _GRAM_BLOCK_ELEMS // old.shape[1])
    for first in range(0, old.shape[0], step):
        buf[first : first + step, :k] = old[first : first + step] @ right
    return buf[:, :k]


def _orthogonalize(q, a):
    """Remove from `a`, in place, its part in the span of q's orthonormal columns.

    Returns (qᵀa, ‖a‖ after).  One Gram-Schmidt pass suffices while it leaves
    at least 1/√2 of the norm; below that, its rounding may weigh in what is
    left, and a second pass restores orthogonality to rounding (the DGKS rule
    of Daniel, Gragg, Kaufman & Stewart 1976).
    """
    norm0 = np.linalg.norm(a)
    coef = q.T @ a
    a -= q @ coef
    norm = np.linalg.norm(a)
    if norm < norm0 / np.sqrt(2):
        again = q.T @ a
        a -= q @ again
        coef += again
        norm = np.linalg.norm(a)
    return coef, float(norm)


def _append_forward_qr(state, problem, a):
    """Grow the thin QR of the projected whitened forward by its new column `a` (overwritten)."""
    m, p = state.q_f.shape
    if p < m:
        col, rho = _orthogonalize(state.q_f, a)
        q = a / rho if rho > 0 else np.zeros_like(a)
        state.q_f_buf[:, p] = q
        state.q_f = state.q_f_buf[:, : p + 1]
        state.r_f = np.block(
            [[state.r_f, col[:, None]], [np.zeros((1, state.r_f.shape[1])), rho]]
        )
        state.rhs_hat = np.concatenate(
            [state.rhs_hat, [q @ problem.whitened_data]]
        )
    else:
        # q_f already spans the data space; the new column only adds
        # coefficients, not a new left direction
        state.r_f = np.column_stack([state.r_f, state.q_f.T @ a])
