"""Majorization-minimization solver on adaptively expanded Krylov-type subspaces.

The outer iteration minimizes

    J_eps(u) = 0.5 * ||F u - d||^2_{Gamma^{-1}} + lam * R_eps(u)

by repeatedly solving the quadratic majorant's normal equations

    (F^T Gamma^{-1} F + lam * M^T M) u = F^T Gamma^{-1} d,     M = W(u_k) D,

restricted to a low-dimensional search space.  The space is seeded with a few
Golub-Kahan bidiagonalization steps of the whitened operator and grows by one
direction per iteration: the normal-equations residual of the current iterate,
orthogonalized against the basis.  Thin QR factors of the projected operators
keep every inner solve and the GCV parameter search at the cost of small dense
linear algebra.  The whitened forward applied to the basis, A V, enters only
through its thin QR factors Q_F, R_F and is not kept; the factors grow by one
column at a time, since the noise covariance is fixed.  The penalty factor is
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
buffers that ``init_state`` sizes once for the run's largest subspace,
min(n, gk_steps + max_iters - 1) columns, since each outer iteration adds at
most one; the state's public fields are views of their filled columns, and no
buffer is ever copied or regrown.

Each iterate x = V y is formed once, and so are the two vectors that several
steps share.  Its whitened residual A x - b comes from the kept factors as
Q_F R_F y - b, without a forward apply, and serves the discrepancy test, the
objective and the expansion.  z = D u serves the objective, the weights of the
next refresh (taken at the same u) and the expansion's D x.  Only with
nonnegativity, where u = max(x, 0) differs from x, does the residual of u take
a forward apply and the expansion its own D x.  Past the seed, the forward is
thus applied once per expansion and D once per iterate, besides the stencil
passes of the Gram sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import SingularSystemError, SolverError
from .operators import MAX_DENSE_COLS
from .paramselect import ProjectedPair, default_lambda_grid, select_lambda
from .regularization import (
    build_D,
    regularizer_value,
    update_weights,
)

__all__ = [
    "ReconstructionProblem",
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "SolveResult",
    "seed_subspace",
    "init_state",
    "refresh_penalty",
    "projected_pair",
    "solve_projected",
    "expand_subspace",
    "mm_gks_solve",
]


@dataclass(eq=False)
class ReconstructionProblem:
    """Dynamic data-fit problem: forward operator, stacked data, noise model.

    ``noise_cov_diag`` is the diagonal of the noise covariance (defaults to
    white noise); ``delta`` is the whitened noise magnitude used by the
    discrepancy principle, 0 disables that stop.  ``truth`` is optional and
    only used for error reporting.
    """

    forward: object
    data: np.ndarray
    noise_cov_diag: np.ndarray | None = None
    delta: float = 0.0
    truth: np.ndarray | None = None

    def __post_init__(self):
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
        if not 0 <= self.delta < np.inf:
            raise ValueError("delta must be nonnegative and finite")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float).ravel()
            if self.truth.size != self.forward.cols:
                raise ValueError("truth length must match operator columns")
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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the outer iteration.

    ``lam`` fixes the regularization parameter; when None it is chosen by GCV
    on the projected problem at every iteration.  ``full_space`` replaces the
    adaptive basis by the identity, so every inner solve is exact (test and
    reference use; small problems only).
    """

    regularizer: object
    eta: float = 1.01
    max_iters: int = 150
    gk_steps: int = 5
    rel_change_tol: float = 1e-6
    nonneg: bool = False
    lam: float | None = None
    lambda_grid: np.ndarray | None = None
    full_space: bool = False

    def __post_init__(self):
        if not 1.0 < self.eta < np.inf:
            raise ValueError("discrepancy safety factor eta must be finite and > 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.gk_steps < 1:
            raise ValueError("gk_steps must be at least 1")
        if not 0 <= self.rel_change_tol < np.inf:
            raise ValueError("rel_change_tol must be nonnegative and finite")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ValueError("fixed lam must be positive and finite")
        if self.lambda_grid is not None:
            grid = np.asarray(self.lambda_grid, dtype=float).ravel()
            if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
                raise ValueError("lambda_grid must be a non-empty list of finite positive values")
            object.__setattr__(self, "lambda_grid", grid)


@dataclass(eq=False)
class SolverState:
    """Search basis and the projected factors kept in sync with it."""

    basis: np.ndarray  # n x d, orthonormal columns
    q_f: np.ndarray  # thin Q of the whitened forward applied to the basis, m x min(m, d)
    r_f: np.ndarray  # thin R of the same, min(m, d) x d; A V itself is not kept
    rhs_hat: np.ndarray  # q_f^T (whitened data)
    weights: np.ndarray | None = None  # diagonal of W(u_k), one entry per row of D
    r_m: np.ndarray | None = None  # square-padded R of W D V, d x d; D V is not kept
    y: np.ndarray | None = None
    # field name (basis, q_f) -> the column-major buffer, sized once by
    # init_state, whose first columns the field views
    _buffers: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def max_dim(self):
        """Columns the basis can grow to: the width of its buffer."""
        return self._buffers.get("basis", self.basis).shape[1]


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
    a view of the filled columns of one column-major array, each column
    written in place as its step makes it.
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
    basis = np.empty((n, max(min(int(n_steps), n), 1)), order="F")
    basis[:, 0] = v / alpha
    for j in range(1, basis.shape[1]):
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


def init_state(problem, basis, max_dim):
    """Project the whitened forward operator onto a basis; only the thin QR of A V is kept.

    ``max_dim`` is the most columns the basis will hold (capped at n); the
    basis and Q_F are copied once into column-major buffers of min(n, max_dim)
    and min(m, max_dim) columns, which expansions fill in place.  A basis or
    Q_F that is already column-major with all its columns is kept as it is.
    Either way both are column-major from the start, so an iterate does not
    depend on how far the run may grow.  Columns an early-stopping run never
    fills are never written, so they never become resident; numpy's huge-page
    advice adds at most one partly filled 2 MB page per buffer.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != problem.forward.cols:
        raise ValueError("basis must be n x d")
    n, d = basis.shape
    if d == 0:
        raise ValueError("basis must have at least one column")
    if max_dim < d:
        raise ValueError(f"max_dim {max_dim} is below the basis's {d} columns")
    max_dim = min(int(max_dim), n)
    q_f, r_f = np.linalg.qr(problem.whiten_apply(basis), mode="reduced")
    rhs_hat = q_f.T @ problem.whitened_data
    state = SolverState(basis=basis, q_f=q_f, r_f=r_f, rhs_hat=rhs_hat)
    for name, cols in (("basis", max_dim), ("q_f", min(q_f.shape[0], max_dim))):
        view = getattr(state, name)
        buf = view
        if view.shape[1] < cols or not view.flags.f_contiguous:
            buf = np.empty((view.shape[0], cols), order="F")
            buf[:, : view.shape[1]] = view
            setattr(state, name, buf[:, : view.shape[1]])
        state._buffers[name] = buf
    return state


def refresh_penalty(state, spec, u_k, z=None):
    """Recompute the weights at u_k and the projected penalty factor; ``z`` = D u_k if known."""
    w = update_weights(spec, u_k, z=z)
    d_op = build_D(spec)

    def weighted_rows():
        for first, z in d_op.row_blocks(state.basis, _GRAM_BLOCK_ELEMS):
            z *= w[first : first + z.shape[0], None]
            yield z

    state.weights = w
    state.r_m = _penalty_r(weighted_rows, d_op.rows, state.dim)
    return w


def projected_pair(state):
    """Square-padded projected factors for parameter selection."""
    if state.r_m is None:
        raise ValueError("penalty factor missing; call refresh_penalty first")
    p, d = state.r_f.shape
    # R_F has fewer rows than columns once the basis outgrows the data
    r_f = np.vstack([state.r_f, np.zeros((d - p, d))])
    return ProjectedPair(r_f, state.r_m, np.concatenate([state.rhs_hat, np.zeros(d - p)]))


def solve_projected(state, lam):
    """Exact minimizer of the projected majorant via a stacked least-squares solve."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if state.r_m is None:
        raise ValueError("penalty factor missing; call refresh_penalty first")
    d = state.dim
    stacked = np.vstack([state.r_f, np.sqrt(lam) * state.r_m])
    target = np.concatenate([state.rhs_hat, np.zeros(d)])
    y, _, rank, _ = np.linalg.lstsq(stacked, target, rcond=None)
    if rank < d:
        raise SingularSystemError(
            "projected system is rank deficient; forward and regularization "
            "operators share a null direction"
        )
    state.y = y
    return y


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
    r = problem.whiten_adjoint(res_w) + lam * d_op.apply_adjoint(state.weights**2 * dx)
    # two orthogonalization passes keep the basis orthonormal to rounding
    r = r - state.basis @ (state.basis.T @ r)
    r = r - state.basis @ (state.basis.T @ r)
    u_scale = float(np.linalg.norm(x))
    if np.linalg.norm(r) <= 1e-14 * max(1.0, u_scale):
        return False
    v_new = r / np.linalg.norm(r)
    _append_column(state, "basis", v_new)
    _append_forward_qr(state, problem, problem.whiten_apply(v_new))
    return True


def mm_gks_solve(problem, config):
    """Run the outer iteration; returns the final iterate and its history.

    Stops on the discrepancy principle (when delta > 0), on relative change
    of the iterate, or at max_iters.  Weights are refreshed at the start of
    every outer iteration from the last reported iterate, so with
    nonnegativity enabled they are computed from the projected iterate.
    """
    spec = config.regularizer
    n = problem.forward.cols
    if spec.n != n:
        raise ValueError(
            f"regularizer dims {spec.dims} do not match operator columns {n}"
        )
    d_op = build_D(spec)
    if config.full_space:
        if n > MAX_DENSE_COLS:
            raise ValueError("full_space mode is limited to small problems")
        basis, max_dim = np.eye(n, order="F"), n
    else:
        basis, _ = seed_subspace(problem, config.gk_steps)
        if basis.shape[1] == 0:
            raise SolverError("seed basis is empty; data has no signal to start from")
        # the seed has at most gk_steps columns, and every iteration but the
        # last adds at most one
        max_dim = config.gk_steps + config.max_iters - 1
    state = init_state(problem, basis, max_dim)
    grid = config.lambda_grid if config.lambda_grid is not None else default_lambda_grid()

    b = problem.whitened_data
    u_prev = np.zeros(n)
    u = u_prev
    z = None  # D u_prev; the first weights, at u = 0, apply D themselves
    history = []
    stop_reason = "max_iters"
    for k in range(1, config.max_iters + 1):
        refresh_penalty(state, spec, u_prev, z)
        if config.lam is not None:
            lam = float(config.lam)
        else:
            lam = select_lambda(projected_pair(state), grid)
        y = solve_projected(state, lam)
        x = state.basis @ y
        if not np.all(np.isfinite(x)):
            raise SolverError(f"non-finite iterate at iteration {k}", history=history)
        res_w = state.q_f @ (state.r_f @ y) - b
        if config.nonneg:
            u = np.maximum(x, 0.0)
            dp_residual = problem.residual_norm(u)
        else:
            u = x
            dp_residual = float(np.linalg.norm(res_w))
        z = d_op.apply(u)
        objective = 0.5 * dp_residual**2 + lam * regularizer_value(spec, u, smoothed=True, z=z)
        rre = None
        if problem.truth is not None:
            rre = float(np.linalg.norm(u - problem.truth) / np.linalg.norm(problem.truth))
        history.append(
            IterationRecord(
                iteration=k,
                lam=lam,
                objective=float(objective),
                dp_residual=dp_residual,
                rre=rre,
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
        if not config.full_space and k < config.max_iters:
            dx = d_op.apply(x) if config.nonneg else z
            expand_subspace(state, problem, d_op, lam, x, res_w, dx)
    return SolveResult(u=u, history=history, stop_reason=stop_reason)


# --- projected QR bookkeeping --------------------------------------------------

# One Gram sweep R1 = chol(AᵀA) gives R1ᵀR1 = AᵀA with a relative error of
# about cond(R1)² u.  Every consumer of R_M (the stacked solve and the GSVD in
# GCV) sees it only through R_MᵀR_M, so while cond(R1) <= 1e3 that error,
# at most 1.1e-10, is already below the accuracy the refresh promises, and R1
# is returned as it is.  Between 1e3 and 1e7 (about u^(-1/2)) a second sweep
# over Q1 = A R1⁻¹ restores Householder accuracy (CholeskyQR2); beyond that
# the Gram matrix loses the smallest directions and Householder takes over.
_ONE_PASS_MAX_COND = 1e3
_CHOLQR_MAX_COND = 1e7
# Elements per row block of the Gram sweeps (256 KB).  A row block holds the
# rows of one block of D for as many whole frames as fit, at least one, so
# W D V is never held at full size.
_GRAM_BLOCK_ELEMS = 1 << 15


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


def _append_column(state, name, col):
    """Append `col` to the rows x d field `name` (basis or q_f), in place.

    The field is a view of the first d columns of the column-major buffer
    that ``init_state`` sized for the run; the column is written into the
    buffer and the view widened by one, with no copy.
    """
    d = getattr(state, name).shape[1]
    buf = state._buffers[name]
    buf[:, d] = col
    setattr(state, name, buf[:, : d + 1])


def _append_forward_qr(state, problem, a):
    """Grow the thin QR of the projected whitened forward by its new column `a`."""
    m, p = state.q_f.shape
    if p < m:
        r1 = state.q_f.T @ a
        q = a - state.q_f @ r1
        r2 = state.q_f.T @ q
        q = q - state.q_f @ r2
        rho = float(np.linalg.norm(q))
        q = q / rho if rho > 0 else np.zeros_like(q)
        col = r1 + r2
        _append_column(state, "q_f", q)
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
