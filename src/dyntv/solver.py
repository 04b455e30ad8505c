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
linear algebra.  The forward factor is updated one column at a time, since the
noise covariance is fixed.  The penalty factor is refactored every iteration,
because the weights change: by CholeskyQR2 on row blocks of the weighted
block W D V (two Gram products, no full-size temporary), falling back to
Householder QR when the block is wide, rank deficient or too ill conditioned
for the Gram route.  The n-row arrays that grow with the basis (the basis,
its images under the whitened forward and D, and the forward Q factor) are
written one column at a time into column-major buffers whose capacity
doubles; the state's public fields are views of their filled columns.
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
    "check_dp",
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
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float).ravel()
            if self.truth.size != self.forward.cols:
                raise ValueError("truth length must match operator columns")
        self._inv_sqrt_cov = 1.0 / np.sqrt(self.noise_cov_diag)

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
        return self._inv_sqrt_cov * self.data

    def residual_norm(self, u):
        """Whitened data misfit ||F u - d||_{Gamma^{-1}}."""
        return float(np.linalg.norm(self.whiten_apply(u) - self.whitened_data))

    def misfit(self, u):
        return 0.5 * self.residual_norm(u) ** 2

    def misfit_gradient(self, u):
        return self.whiten_adjoint(self.whiten_apply(u) - self.whitened_data)


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
        if not self.eta > 1.0:
            raise ValueError("discrepancy safety factor eta must be > 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.gk_steps < 1:
            raise ValueError("gk_steps must be at least 1")
        if self.rel_change_tol < 0:
            raise ValueError("rel_change_tol must be nonnegative")
        if self.lam is not None and not self.lam > 0:
            raise ValueError("fixed lam must be positive")


@dataclass(eq=False)
class SolverState:
    """Search basis and the projected factors kept in sync with it."""

    basis: np.ndarray  # n x d, orthonormal columns
    av: np.ndarray  # whitened forward applied to the basis, m x d
    dv: np.ndarray  # penalty differences applied to the basis, rows(D) x d
    q_f: np.ndarray  # thin Q of av, m x min(m, d)
    r_f: np.ndarray  # thin R of av, min(m, d) x d
    rhs_hat: np.ndarray  # q_f^T (whitened data)
    weights: np.ndarray | None = None
    r_m: np.ndarray | None = None  # square-padded R of (weights * dv), d x d
    y: np.ndarray | None = None
    # field name -> (column-major buffer, the view of it last stored in the field)
    _buffers: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self):
        return self.basis.shape[1]


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
    (the space is invariant before ``n_steps`` vectors were produced).
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
    v = v / alpha
    cols = [v]
    n_steps = min(int(n_steps), n)
    for _ in range(n_steps - 1):
        p = problem.whiten_apply(v) - alpha * u
        beta = np.linalg.norm(p)
        if beta <= tol:
            return np.column_stack(cols), True
        u = p / beta
        w = problem.whiten_adjoint(u) - beta * v
        basis = np.column_stack(cols)
        w = w - basis @ (basis.T @ w)
        alpha = np.linalg.norm(w)
        if alpha <= tol:
            return np.column_stack(cols), True
        v = w / alpha
        cols.append(v)
    return np.column_stack(cols), False


def init_state(problem, d_op, basis):
    """Project the whitened forward operator and the differences onto a basis."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != problem.forward.cols:
        raise ValueError("basis must be n x d")
    av = problem.whiten_apply(basis)
    dv = d_op.apply(basis)
    q_f, r_f = np.linalg.qr(av, mode="reduced")
    rhs_hat = q_f.T @ problem.whitened_data
    return SolverState(basis=basis, av=av, dv=dv, q_f=q_f, r_f=r_f, rhs_hat=rhs_hat)


def refresh_penalty(state, spec, u_k):
    """Recompute the weights at u_k and the projected penalty factor."""
    w = update_weights(spec, u_k)
    state.weights = w.weights
    state.r_m = _penalty_r(w.weights, state.dv)
    return w


def projected_pair(state):
    """Square-padded projected factors for parameter selection."""
    if state.r_m is None:
        raise ValueError("penalty factor missing; call refresh_penalty first")
    d = state.dim
    r_f, rhs = _pad_square(state.r_f, state.rhs_hat, d)
    return ProjectedPair(r_f, state.r_m, rhs)


def solve_projected(state, lam):
    """Exact minimizer of the projected majorant via a stacked least-squares solve."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if state.r_m is None:
        raise ValueError("penalty factor missing; call refresh_penalty first")
    d = state.dim
    r_f, rhs = _pad_square(state.r_f, state.rhs_hat, d)
    stacked = np.vstack([r_f, np.sqrt(lam) * state.r_m])
    target = np.concatenate([rhs, np.zeros(d)])
    y, _, rank, _ = np.linalg.lstsq(stacked, target, rcond=None)
    if rank < d:
        raise SingularSystemError(
            "projected system is rank deficient; forward and regularization "
            "operators share a null direction"
        )
    state.y = y
    return y


def expand_subspace(state, problem, d_op, lam):
    """Append the orthogonalized normal-equations residual to the basis.

    Returns True when a direction was added; False when the basis already
    spans the whole space or the residual has converged to zero.
    """
    if state.y is None or state.weights is None:
        raise ValueError("expand_subspace needs a solved state")
    n, d = state.basis.shape
    if d >= n:
        return False
    y = state.y
    res_w = state.av @ y - problem.whitened_data
    r = problem.whiten_adjoint(res_w) + lam * d_op.apply_adjoint(
        state.weights**2 * (state.dv @ y)
    )
    # two orthogonalization passes keep the basis orthonormal to rounding
    r = r - state.basis @ (state.basis.T @ r)
    r = r - state.basis @ (state.basis.T @ r)
    u_scale = float(np.linalg.norm(state.basis @ y))
    if np.linalg.norm(r) <= 1e-14 * max(1.0, u_scale):
        return False
    v_new = r / np.linalg.norm(r)
    _append_column(state, "basis", v_new)
    _append_column(state, "av", problem.whiten_apply(v_new))
    _append_column(state, "dv", d_op.apply(v_new))
    _append_forward_qr(state, problem)
    return True


def check_dp(problem, u, eta=1.01):
    """Discrepancy principle: whitened residual within eta * delta (inclusive)."""
    return problem.residual_norm(u) <= eta * problem.delta


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
        basis = np.eye(n)
    else:
        basis, _ = seed_subspace(problem, config.gk_steps)
        if basis.shape[1] == 0:
            raise SolverError("seed basis is empty; data has no signal to start from")
    state = init_state(problem, d_op, basis)
    grid = config.lambda_grid if config.lambda_grid is not None else default_lambda_grid()

    u_prev = np.zeros(n)
    u = u_prev
    history = []
    stop_reason = "max_iters"
    for k in range(1, config.max_iters + 1):
        refresh_penalty(state, spec, u_prev)
        if config.lam is not None:
            lam = float(config.lam)
        else:
            lam = select_lambda(projected_pair(state), grid)
        y = solve_projected(state, lam)
        u = state.basis @ y
        if config.nonneg:
            u = np.maximum(u, 0.0)
        if not np.all(np.isfinite(u)):
            raise SolverError(f"non-finite iterate at iteration {k}", history=history)
        dp_residual = problem.residual_norm(u)
        objective = 0.5 * dp_residual**2 + lam * regularizer_value(spec, u, smoothed=True)
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
            expand_subspace(state, problem, d_op, lam)
    return SolveResult(u=u, history=history, stop_reason=stop_reason)


# --- projected QR bookkeeping --------------------------------------------------

# CholeskyQR2 is as accurate as Householder QR while the block's condition
# number stays below about u^(-1/2) in double precision; beyond that the Gram
# matrix loses the smallest directions and the Householder path takes over.
_CHOLQR_MAX_COND = 1e7
# Elements per row block of the Gram products (256 KB).  Blocks this small
# keep every temporary far below the size of the block itself, which keeps
# peak memory flat on small problems, and cost no time on large ones.
_GRAM_BLOCK_ELEMS = 1 << 15


def _penalty_r(weights, dv):
    """Square triangular factor R_M of (weights * dv) by CholeskyQR2.

    R1 = chol(AᵀA) and R2 = chol(Q1ᵀQ1) with Q1 = A R1⁻¹ give R_M = R2 R1.
    Both Gram matrices are accumulated over row blocks of A = weights * dv, so
    neither A nor Q1 is ever held at full size.  Falls back to Householder on
    the whole block when A is wide, a Cholesky factorization fails, or R1 is
    too ill conditioned for the second pass to restore accuracy.
    """
    rows, d = dv.shape
    if rows < d:
        return _qr_r_square(weights[:, None] * dv, d)
    try:
        r1 = _gram_cholesky(weights, dv)
        if not np.linalg.cond(r1) < _CHOLQR_MAX_COND:
            raise np.linalg.LinAlgError("penalty block too ill conditioned")
        r2 = _gram_cholesky(weights, dv, np.linalg.inv(r1))
    except np.linalg.LinAlgError:
        return _qr_r_square(weights[:, None] * dv, d)
    return r2 @ r1


def _gram_cholesky(weights, dv, right=None):
    """Upper Cholesky factor of BᵀB, B = (weights * dv) @ right, by row blocks."""
    rows, d = dv.shape
    step = max(1, _GRAM_BLOCK_ELEMS // max(d, 1))
    gram = np.zeros((d, d))
    for i in range(0, rows, step):
        b = weights[i : i + step, None] * dv[i : i + step]
        if right is not None:
            b = b @ right
        gram += b.T @ b
    return np.linalg.cholesky(gram).T


def _qr_r_square(mat, d):
    """Square d x d triangular factor of a tall-or-wide matrix with d columns."""
    r = np.linalg.qr(mat, mode="r")
    if r.shape[0] < d:
        r = np.vstack([r, np.zeros((d - r.shape[0], d))])
    return r


def _pad_square(r_f, rhs_hat, d):
    p = r_f.shape[0]
    if p == d:
        return r_f, rhs_hat
    return (
        np.vstack([r_f, np.zeros((d - p, d))]),
        np.concatenate([rhs_hat, np.zeros(d - p)]),
    )


def _append_column(state, name, col):
    """Append `col` to the rows x d field `name` of the state, in place.

    The field is a view of the first d columns of a column-major buffer; the
    buffer doubles its capacity when full, and is (re)created from the field
    when the field was set from outside since the last append.
    """
    view = getattr(state, name)
    rows, d = view.shape
    buf, last = state._buffers.get(name, (None, None))
    if last is not view or buf.shape[1] == d:
        buf = np.empty((rows, max(2 * d, 1)), order="F")
        buf[:, :d] = view
    buf[:, d] = col
    view = buf[:, : d + 1]
    state._buffers[name] = (buf, view)
    setattr(state, name, view)


def _append_forward_qr(state, problem):
    """Grow the thin QR of the projected whitened forward by one column."""
    a = state.av[:, -1]
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
