"""Dense reference implementations used as independent oracles.

Everything here is built from numpy primitives (np.kron, np.diff, explicit
loops) rather than the package's code, so tests that compare the two are
genuine dual-route checks: the package applies the difference operator D as
a stencil on slices of the volume, while ``d_matrix`` and ``ls_matrix``
assemble it from Kronecker products of one-dimensional difference matrices,
as the paper writes it.  The exceptions are test helpers that take package
objects as they are: ``DenseOperator`` wraps an explicit array as a package
operator and ``dense`` materializes a small package operator, ``mode_product``
accepts any package operator, ``spec_for`` builds a package regularizer, and
the majorant helpers evaluate Q and J_eps from the package's D, weights and
penalty, which ``sums_at`` takes at an iterate, so that the tests can check
the majorization conditions the solver relies on (``quadratic_misfit`` gives
them a dense misfit), and ``expand_at_solve`` hands the solver's expansion
the inputs its outer loop would.  ``state_on`` builds a solver state on any
orthonormal basis, and ``full_space_mm_iterates`` runs the solver's steps on
the identity basis, where every projected solve is exact, and ``gcv_curve``
evaluates G from the factors of a package ``ProjectedPair``.
``newton_minimizer`` finds the minimizer of J_eps by damped Newton on the
dense D of ``d_matrix``, grouped by ``penalty_groups``.  ``check_dp``
states the discrepancy principle on a package problem, and ``read_pgm16``
reads back the frames the CLI writes.
"""

import math
from pathlib import Path

import numpy as np

import dyntv as dv
from dyntv import paramselect
from dyntv.operators import SparseOperator
from dyntv.regularization import build_D, penalty_sums, regularizer_value, update_weights
from dyntv.solver import (SolverState, _append_forward_qr, expand_subspace, refresh_penalty,
                          solve_projected)


# --- dense operators ------------------------------------------------------------

# Most columns `dense` materializes; a larger operator stays matrix-free.
MAX_DENSE_COLS = 4096


def dense(op):
    """The matrix of a small package operator.

    A ``SparseOperator`` scatters its stored entries, repeats adding; any
    other operator is applied to the identity.
    """
    if op.cols > MAX_DENSE_COLS:
        raise ValueError(
            f"refusing to densify an operator with {op.cols} columns (limit {MAX_DENSE_COLS})"
        )
    if isinstance(op, SparseOperator):
        mat = np.zeros(op.shape)
        rows = np.repeat(np.arange(op.rows), op._counts)
        np.add.at(mat, (rows, op._indices), op._values)
        return mat
    return op.apply(np.eye(op.cols))


def nnz(op):
    """Entries a ``SparseOperator`` stores, repeats counted."""
    return op._values.size


class DenseOperator(dv.LinearOperator):
    """A 2-d array as a package operator, for tests that need a small explicit map."""

    kind = "dense"

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError("dense operator needs a 2-d array")
        super().__init__(*mat.shape)
        self.mat = mat

    def _apply(self, x):
        return self.mat @ x

    def _apply_adjoint(self, y):
        return self.mat.T @ y


def diff_matrix(n):
    return np.eye(n - 1, n) - np.eye(n - 1, n, k=1)


def kron3(a, b, c):
    return np.kron(a, np.kron(b, c))


def ls_matrix(n_v, n_h):
    return np.vstack(
        [
            np.kron(np.eye(n_h), diff_matrix(n_v)),
            np.kron(diff_matrix(n_h), np.eye(n_v)),
        ]
    )


def d_matrix(method, dims):
    """Dense D: the v, h and t differences (GS's the first two), or the mixed one."""
    n_v, n_h, n_t = dims
    i_v, i_h, i_t = np.eye(n_v), np.eye(n_h), np.eye(n_t)
    l_v, l_h, l_t = diff_matrix(n_v), diff_matrix(n_h), diff_matrix(n_t)
    if method == "Aniso3DTV":
        return kron3(l_t, l_h, l_v)
    blocks = [kron3(i_t, i_h, l_v), kron3(i_t, l_h, i_v), kron3(l_t, i_h, i_v)]
    if method == "GS":
        return np.vstack(blocks[:2])
    if method in ("AnisoTV", "TVplusTikhonov", "Iso3DTV", "IsoTV"):
        return np.vstack(blocks)
    raise ValueError(method)


# --- mode unfoldings -----------------------------------------------------------


def unfold(t, mode):
    """Mode-``mode`` unfolding (modes are 1, 2, 3)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError("unfold expects a third-order tensor")
    n1, n2, n3 = t.shape
    if mode == 1:
        return t.reshape(n1, n2 * n3, order="F")
    if mode == 2:
        return t.transpose(1, 0, 2).reshape(n2, n1 * n3, order="F")
    if mode == 3:
        return t.transpose(2, 0, 1).reshape(n3, n1 * n2, order="F")
    raise ValueError("mode must be 1, 2 or 3")


def fold(x, mode, dims):
    """Inverse of :func:`unfold` into a tensor of shape ``dims``."""
    x = np.asarray(x, dtype=float)
    n1, n2, n3 = dims
    if mode == 1:
        return x.reshape(n1, n2, n3, order="F")
    if mode == 2:
        return x.reshape(n2, n1, n3, order="F").transpose(1, 0, 2)
    if mode == 3:
        return x.reshape(n3, n1, n2, order="F").transpose(1, 2, 0)
    raise ValueError("mode must be 1, 2 or 3")


def mode_product(t, m, mode):
    """Multiply a tensor along one mode: unfold, apply the operator ``m``, fold back.

    ``m`` is a package operator, ``DenseOperator`` for an explicit factor; its
    column count must match the extent of the chosen mode.
    """
    t = np.asarray(t, dtype=float)
    y = m.apply(unfold(t, mode))
    dims = list(t.shape)
    dims[mode - 1] = m.rows
    return fold(y, mode, tuple(dims))


# --- regularizer values from tensor differences ---------------------------------


def tensor(u, dims):
    """Inverse of ``dv.vec``: the (n_v, n_h, n_t) volume of a stacked vector."""
    return np.asarray(u, dtype=float).reshape(dims, order="F")


def _diffs(t):
    """Unpadded forward differences along the three axes (x_i - x_{i+1})."""
    zv = t[:-1, :, :] - t[1:, :, :]
    zh = t[:, :-1, :] - t[:, 1:, :]
    zt = t[:, :, :-1] - t[:, :, 1:]
    return zv, zh, zt


def _pad(z, dims):
    out = np.zeros(dims)
    out[: z.shape[0], : z.shape[1], : z.shape[2]] = z
    return out


def reg_value(method, dims, eps, u, smoothed):
    """R_eps(u) through the tensor route, or R(u), its value at eps = 0, unless smoothed."""
    t = tensor(u, dims)
    zv, zh, zt = _diffs(t)
    e2 = eps**2 if smoothed else 0.0
    if method == "AnisoTV":
        return sum(np.sum(np.sqrt(z**2 + e2)) for z in (zv, zh, zt))
    if method == "TVplusTikhonov":
        tv = np.sum(np.sqrt(zv**2 + e2)) + np.sum(np.sqrt(zh**2 + e2))
        return tv + 0.5 * np.sum(zt**2)
    if method == "Aniso3DTV":
        z = zv[:, :-1, :-1] - zv[:, 1:, :-1] - (zv[:, :-1, 1:] - zv[:, 1:, 1:])
        return np.sum(np.sqrt(z**2 + e2))
    if method == "Iso3DTV":
        pv, ph, pt = (_pad(z, dims) for z in (zv, zh, zt))
        return np.sum(np.sqrt(pv**2 + ph**2 + pt**2 + e2))
    if method == "IsoTV":
        pv, ph = _pad(zv, dims), _pad(zh, dims)
        return np.sum(np.sqrt(pv**2 + ph**2 + e2)) + np.sum(np.sqrt(zt**2 + e2))
    if method == "GS":
        gv = np.sum(zv**2, axis=2)
        gh = np.sum(zh**2, axis=2)
        return np.sum(np.sqrt(gv + e2)) + np.sum(np.sqrt(gh + e2))
    raise ValueError(method)


def weights_vec(method, dims, eps, u):
    """Expanded diagonal of W(u) computed through the tensor route."""
    t = tensor(u, dims)
    zv, zh, zt = _diffs(t)
    e2 = eps**2

    def flat(z):
        return z.reshape(-1, order="F")

    if method == "AnisoTV":
        z = np.concatenate([flat(zv), flat(zh), flat(zt)])
        return (z**2 + e2) ** -0.25
    if method == "TVplusTikhonov":
        z_s = np.concatenate([flat(zv), flat(zh)])
        return np.concatenate([(z_s**2 + e2) ** -0.25, np.ones(zt.size)])
    if method == "Aniso3DTV":
        z = zv[:, :-1, :-1] - zv[:, 1:, :-1] - (zv[:, :-1, 1:] - zv[:, 1:, 1:])
        return (flat(z) ** 2 + e2) ** -0.25
    # the isotropic weight of each voxel, gathered by the rows that difference at it
    if method == "Iso3DTV":
        pv, ph, pt = (_pad(z, dims) for z in (zv, zh, zt))
        w = (pv**2 + ph**2 + pt**2 + e2) ** -0.25
        return np.concatenate([flat(w[:-1]), flat(w[:, :-1]), flat(w[:, :, :-1])])
    if method == "IsoTV":
        pv, ph = _pad(zv, dims), _pad(zh, dims)
        w = (pv**2 + ph**2 + e2) ** -0.25
        return np.concatenate([flat(w[:-1]), flat(w[:, :-1]), (flat(zt) ** 2 + e2) ** -0.25])
    if method == "GS":
        w_v = (np.sum(zv**2, axis=2) + e2) ** -0.25
        w_h = (np.sum(zh**2, axis=2) + e2) ** -0.25
        return np.concatenate([np.tile(flat(w_v), dims[2]), np.tile(flat(w_h), dims[2])])
    raise ValueError(method)


# --- quadratic tangent majorant of the package's penalty --------------------------


def spec_for(method, dims):
    """The package's regularizer of the named method on a volume of ``dims``."""
    return dv.RegularizerSpec(method=dv.Method(method), dims=dims)


def quadratic_misfit(f_dense, data):
    """The misfit 0.5 ||F u - d||² and its gradient, for the majorant helpers."""

    def misfit(u):
        r = f_dense @ u - data
        return 0.5 * float(r @ r)

    def gradient(u):
        return f_dense.T @ (f_dense @ u - data)

    return misfit, gradient


def sums_at(spec, u):
    """The package's ``penalty_sums`` at the iterate u, which the value and weights read."""
    return penalty_sums(spec, build_D(spec).apply(np.asarray(u, dtype=float)))


def majorant_value(spec, u, u_k, lam, misfit):
    """Quadratic tangent majorant Q(u; u_k) of misfit(u) + lam * R_eps(u)."""
    d_op = build_D(spec)
    w = update_weights(spec, sums_at(spec, u_k))
    m_u = w * d_op.apply(u)
    m_uk = w * d_op.apply(u_k)
    c = lam * (regularizer_value(sums_at(spec, u_k)) - 0.5 * (m_uk @ m_uk))
    return float(misfit(u) + 0.5 * lam * (m_u @ m_u) + c)


def majorant_gradient(spec, u, u_k, lam, misfit_gradient):
    """Gradient of Q(.; u_k) at u; at u = u_k this equals the gradient of J_eps."""
    d_op = build_D(spec)
    w = update_weights(spec, sums_at(spec, u_k))
    return misfit_gradient(u) + lam * d_op.apply_adjoint(w**2 * d_op.apply(u))


def smoothed_objective(spec, u, lam, misfit):
    """J_eps(u) = misfit(u) + lam * R_eps(u)."""
    return float(misfit(u) + lam * regularizer_value(sums_at(spec, u)))


def expand_at_solve(state, problem, d_op, weights, lam, y):
    """``expand_subspace`` at x = V y, y the coefficients of the last projected solve.

    Forms x, its whitened residual from the kept factors and D x as the
    outer loop of ``mm_gks_solve`` does, for tests that drive the solver's
    steps one by one; ``weights`` are those the refresh before that solve
    returned, which the expansion spends.
    """
    x = state.basis @ y
    res_w = state.q_f @ (state.r_f @ y) - problem.whitened_data
    return expand_subspace(state, problem, d_op, weights, lam, x, res_w, d_op.apply(x))


def state_on(problem, basis):
    """A solver state on the orthonormal columns of `basis`, as wide as it is.

    Unlike the solver's own states it may pass the cap, up to the full space;
    A V is formed at once and each column enters by the solver's append.
    """
    n, d = basis.shape
    m = problem.forward.rows
    p = min(m, d)
    state = SolverState(np.array(basis, dtype=float, order="F"), np.empty((m, p), order="F"),
                        np.empty((p, d), order="F"), np.empty(p))
    av = problem.whiten_apply(basis)
    for j in range(d):
        _append_forward_qr(state, problem, av[:, j])
    return state


def full_space_mm_iterates(problem, spec, lam, n_iters):
    """The solver's MM iterates at fixed lam on the identity basis.

    With V = I every projected solve is the exact minimizer of the majorant,
    so the iterates are those of the full-dimension MM iteration; each refresh
    takes its weights at the last iterate, as ``mm_gks_solve`` does.
    """
    n = problem.forward.cols
    state = state_on(problem, np.eye(n))
    u = np.zeros(n)
    iterates = []
    for _ in range(n_iters):
        _, pair = refresh_penalty(state, spec, sums_at(spec, u))
        u = state.basis @ solve_projected(pair, lam)
        iterates.append(u)
    return iterates


# --- GCV, direct dense formula ---------------------------------------------------


def gcv_curve(pair, lambdas):
    """G of a package ``ProjectedPair`` at each lambda, from its balanced factors.

    The same formula and scaling as the grid sweep of ``select_lambda``,
    for tests that compare the curve against ``gcv_dense``.
    """
    scaled = np.ldexp(np.asarray(lambdas, dtype=float).ravel(), pair.shift)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.ldexp(paramselect._gcv(*pair.factors, scaled[:, None]), 2 * pair.e_f)


def gcv_dense(r_f, r_m, rhs, lam):
    """Dense GCV via regularized normal-equation solves.

    With E = R_FᵀR_F + λR_MᵀR_M and invertible R_F the influence residual
    I − R_F E⁻¹R_Fᵀ equals λ·R_F E⁻¹R_MᵀR_M R_F⁻¹ and its trace equals
    λ·tr(E⁻¹R_MᵀR_M); both forms avoid the small-λ cancellation of the
    subtractive formula.
    """
    d = r_f.shape[0]
    mtm = r_m.T @ r_m
    e_mat = r_f.T @ r_f + lam * mtm
    resid = lam * (r_f @ np.linalg.solve(e_mat, mtm @ np.linalg.solve(r_f, rhs)))
    denom = lam * np.trace(np.linalg.solve(e_mat, mtm))
    return d * float(resid @ resid) / denom**2


# --- Krylov and penalty factor references ------------------------------------------


def krylov_basis(a, b, k):
    """Orthonormal basis, by Householder QR, of [Aᵀb, (AᵀA)Aᵀb, ...], k columns.

    Each power is normalized before the next, so the columns stay in range.
    """
    v, cols = a.T @ b, []
    for _ in range(k):
        v = v / np.linalg.norm(v)
        cols.append(v)
        v = a.T @ (a @ v)
    return np.linalg.qr(np.column_stack(cols))[0]


def householder_r(mat, d):
    """Square d x d Householder R of a matrix with d columns (zero rows pad a wide one)."""
    r = np.linalg.qr(mat, mode="r")
    return np.vstack([r, np.zeros((d - r.shape[0], d))])


# --- dense penalized solves -------------------------------------------------------


def dense_penalized_solve(f_dense, data, gamma_diag, d_dense, w, lam):
    """Exact solution of the weighted normal equations at fixed weights."""
    inv_sqrt = 1.0 / np.sqrt(gamma_diag)
    aw = inv_sqrt[:, None] * f_dense
    bw = inv_sqrt * data
    m = w[:, None] * d_dense
    return np.linalg.solve(aw.T @ aw + lam * (m.T @ m), aw.T @ bw)


def dense_mm_iterates(f_dense, data, gamma_diag, method, dims, eps, lam, n_iters):
    """Full-dimension majorize-minimize iteration, dense linear algebra."""
    d_dense = d_matrix(method, dims)
    u = np.zeros(f_dense.shape[1])
    iterates = []
    for _ in range(n_iters):
        w = weights_vec(method, dims, eps, u)
        u = dense_penalized_solve(f_dense, data, gamma_diag, d_dense, w, lam)
        iterates.append(u.copy())
    return iterates


def penalty_groups(method, dims):
    """Group of each row of ``d_matrix(method, dims)``, -1 for a quadratic row; group count.

    An isotropic row's group is the voxel it differences at, the column of
    its +1 entry; a voxel on the far edge of every block has a group but no row.
    """
    n_v, n_h, n_t = dims
    n = n_v * n_h * n_t
    rows_v, rows_h = (n_v - 1) * n_h * n_t, n_v * (n_h - 1) * n_t
    rows_t = n_v * n_h * (n_t - 1)
    voxel = np.argmax(d_matrix(method, dims) == 1, axis=1)
    if method in ("AnisoTV", "Aniso3DTV"):
        return np.arange(voxel.size), voxel.size
    if method == "TVplusTikhonov":
        return np.concatenate([np.arange(rows_v + rows_h), np.full(rows_t, -1)]), rows_v + rows_h
    if method == "Iso3DTV":
        return voxel, n
    if method == "IsoTV":
        return np.concatenate([voxel[: rows_v + rows_h], n + np.arange(rows_t)]), n + rows_t
    if method == "GS":
        pix_v, pix_h = rows_v // n_t, rows_h // n_t
        v, h = np.tile(np.arange(pix_v), n_t), pix_v + np.tile(np.arange(pix_h), n_t)
        return np.concatenate([v, h]), pix_v + pix_h
    raise ValueError(method)


def newton_minimizer(f_dense, data, gamma_diag, method, dims, eps, lam):
    """Minimizer u* of J_eps(u) = ½‖F u − d‖²_{Γ⁻¹} + λ R_eps(u), by damped Newton.

    Dense throughout: D from ``d_matrix``, its groups from ``penalty_groups``.
    The Hessian of √(‖z_g‖² + ε²) in z_g is (I − z_g z_gᵀ/s)/√s, s = ‖z_g‖² + ε²,
    and that of ½‖z_quad‖² is I.  Each Newton step is halved until J_eps falls
    (Armijo); the iteration stops once ‖∇J_eps‖ ≤ 1e-10·‖Aᵀb‖, where u is
    within about 1e-13 of u* relative (runs to 1e-12 and 1e-13 agree).
    """
    inv_sqrt = 1.0 / np.sqrt(gamma_diag)
    a, b = inv_sqrt[:, None] * f_dense, inv_sqrt * data
    d = d_matrix(method, dims)
    group, n_groups = penalty_groups(method, dims)
    quad = group < 0
    same = (group[:, None] == group[None, :]) & ~quad[:, None]

    def at(u):
        z, r = d @ u, a @ u - b
        s = np.bincount(group[~quad], z[~quad] ** 2, minlength=n_groups) + eps**2
        value = 0.5 * r @ r + lam * (np.sum(np.sqrt(s)) + 0.5 * z[quad] @ z[quad])
        return value, z, np.where(quad, 1.0, s[np.maximum(group, 0)]), r

    u = np.zeros(d.shape[1])
    value, z, s_row, r = at(u)
    target = 1e-10 * np.linalg.norm(a.T @ b)
    for _ in range(200):
        root = np.where(quad, 1.0, np.sqrt(s_row))
        grad = a.T @ r + lam * d.T @ (z / root)
        if np.linalg.norm(grad) <= target:
            return u
        v = np.where(quad, 0.0, z / s_row**0.75)
        h_z = np.diag(1.0 / root) - same * np.outer(v, v)
        step = np.linalg.solve(a.T @ a + lam * d.T @ h_z @ d, -grad)
        t = 1.0
        while True:
            trial = at(u + t * step)
            if trial[0] <= value + 1e-4 * t * (grad @ step) or t < 1e-8:
                break
            t /= 2
        u = u + t * step
        value, z, s_row, r = trial
    raise RuntimeError("Newton did not reach the gradient tolerance in 200 steps")


def check_dp(problem, u, eta=1.01):
    """Discrepancy principle: whitened residual within eta * delta (inclusive)."""
    return problem.residual_norm(u) <= eta * problem.delta


# --- forward-model references -----------------------------------------------------


def blur_matrix_1d(n, sigma, bandwidth):
    """Periodic convolution matrix of a truncated, normalized Gaussian kernel."""
    offsets = np.arange(-bandwidth, bandwidth + 1)
    kernel = np.exp(-(offsets.astype(float) ** 2) / (2.0 * sigma**2))
    kernel = kernel / kernel.sum()
    mat = np.zeros((n, n))
    for i in range(n):
        for off, weight in zip(offsets, kernel):
            mat[i, (i + off) % n] += weight
    return mat


def sparse_apply_by_fancy_index(op, x):
    """SparseOperator.apply as it gathered before np.take: x[indices, c] per column."""
    x = np.asarray(x, dtype=float)
    cols = x.reshape(x.shape[0], -1)
    out = np.zeros((op.rows, cols.shape[1]))
    for c in range(cols.shape[1]):
        gathered = cols[op._indices, c]
        gathered *= op._values
        out[op._nonempty, c] = np.add.reduceat(gathered, op._starts)
    return out if x.ndim == 2 else out[:, 0]


def radon_matrix(n, angles_deg, n_det):
    """Dense ray-transform block, one ray at a time (the pre-sparse build).

    Row a * n_det + j holds the intersection lengths of detector ray j at
    angles_deg[a] with the n x n unit pixels, vectorized column-major.
    """
    offsets = np.arange(n_det) - (n_det - 1) / 2.0
    mat = np.zeros((len(angles_deg) * n_det, n * n))
    for a_idx, angle in enumerate(angles_deg):
        phi = math.radians(angle)
        mat[a_idx * n_det : (a_idx + 1) * n_det] = _radon_angle_block(n, phi, offsets)
    return mat


def _radon_angle_block(n, phi, offsets):
    half = n / 2.0
    nx, ny = math.cos(phi), math.sin(phi)
    dx, dy = -math.sin(phi), math.cos(phi)
    grid = np.arange(n + 1) - half
    block = np.zeros((offsets.size, n * n))
    for j, s in enumerate(offsets):
        x0, y0 = s * nx, s * ny
        taus = []
        if abs(dx) > 1e-12:
            tx = (grid - x0) / dx
            taus.append(tx)
            t_enter_x, t_exit_x = min(tx[0], tx[-1]), max(tx[0], tx[-1])
        else:
            if not -half <= x0 <= half:
                continue
            t_enter_x, t_exit_x = -np.inf, np.inf
        if abs(dy) > 1e-12:
            ty = (grid - y0) / dy
            taus.append(ty)
            t_enter_y, t_exit_y = min(ty[0], ty[-1]), max(ty[0], ty[-1])
        else:
            if not -half <= y0 <= half:
                continue
            t_enter_y, t_exit_y = -np.inf, np.inf
        t_enter = max(t_enter_x, t_enter_y)
        t_exit = min(t_exit_x, t_exit_y)
        if t_exit <= t_enter:
            continue
        t_all = np.concatenate([np.concatenate(taus), [t_enter, t_exit]])
        t_all = np.unique(t_all[(t_all >= t_enter) & (t_all <= t_exit)])
        if t_all.size < 2:
            continue
        lengths = np.diff(t_all)
        mids = 0.5 * (t_all[:-1] + t_all[1:])
        xm = x0 + mids * dx
        ym = y0 + mids * dy
        cols_j = np.clip(np.floor(xm + half).astype(int), 0, n - 1)
        rows_i = np.clip(np.floor(ym + half).astype(int), 0, n - 1)
        keep = lengths > 1e-14
        np.add.at(block[j], rows_i[keep] + n * cols_j[keep], lengths[keep])
    return block


# --- SSIM by explicit window loops ------------------------------------------------


def ssim_brute(a, b, dynamic_range, window=11, sigma=1.5):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g = np.arange(window) - window // 2
    w1 = np.exp(-(g.astype(float) ** 2) / (2.0 * sigma**2))
    w = np.outer(w1, w1)
    w /= w.sum()
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    vals = []
    for i in range(a.shape[0] - window + 1):
        for j in range(a.shape[1] - window + 1):
            wa = a[i : i + window, j : j + window]
            wb = b[i : i + window, j : j + window]
            mu_a = float(np.sum(w * wa))
            mu_b = float(np.sum(w * wb))
            var_a = float(np.sum(w * wa * wa)) - mu_a**2
            var_b = float(np.sum(w * wb * wb)) - mu_b**2
            cov = float(np.sum(w * wa * wb)) - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(vals))


# --- 16-bit binary PGM reader ---------------------------------------------------


def read_pgm16(path):
    """Read back a 16-bit binary PGM written by the reconstruct command."""
    raw = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path} is not a binary PGM")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 65535:
        raise ValueError("expected a 16-bit PGM")
    data = np.frombuffer(raw[pos + 1 :], dtype=">u2", count=width * height)
    return data.reshape(height, width).astype(np.uint16)
