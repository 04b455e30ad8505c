"""Subspace seeding, projected solves, expansion, stopping rules, outer loop."""

import copy
import dataclasses
import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv.paramselect import ProjectedPair
from dyntv.regularization import build_D, update_weights
from dyntv.solver import (
    expand_subspace,
    init_state,
    refresh_penalty,
    seed_subspace,
    solve_projected,
)
from oracles import DenseOperator


def random_forward(rng, rows, cols):
    return DenseOperator(rng.standard_normal((rows, cols)) / np.sqrt(cols))


def blur_problem(dims, sigma_blur, bw, noise_sigma, scene_seed, noise_seed, objects=3):
    """Dynamic deblurring problem on a moving-disk scene with 1-percent-style noise."""
    n_v, n_h, n_t = dims
    model = dv.BlurModel(sigma_psf=sigma_blur, bandwidth=bw)
    op = dv.assemble_dynamic_forward(dv.build_blur_operator(model, n_v, n_h), n_t)
    scene = dv.moving_disks_scene(n_v, n_h, n_t, n_objects=objects, seed=scene_seed)
    truth = dv.vec(dv.render_scene(scene))
    clean = op.apply(truth)
    data, _ = dv.add_noise(clean, dv.NoiseSpec(sigma=noise_sigma, seed=noise_seed))
    gamma, delta = dv.white_noise_model(data - clean)
    return dv.ReconstructionProblem(
        forward=op, data=data, noise_cov_diag=gamma, delta=delta, truth=truth
    )


# --- Krylov seeding ----------------------------------------------------------------


def test_seed_identity_first_unit_vector():
    problem = dv.ReconstructionProblem(forward=DenseOperator(np.eye(4)), data=[1.0, 0, 0, 0])
    state, breakdown = seed_subspace(problem, 1)
    np.testing.assert_array_equal(state.basis, np.array([[1.0], [0.0], [0.0], [0.0]]))
    assert not breakdown


def test_seed_identity_breaks_down_after_one_vector():
    rng = np.random.default_rng(3)
    problem = dv.ReconstructionProblem(
        forward=DenseOperator(np.eye(6)), data=rng.standard_normal(6)
    )
    state, breakdown = seed_subspace(problem, 3)
    assert state.basis.shape == (6, 1)
    assert breakdown
    np.testing.assert_allclose(np.linalg.norm(state.basis[:, 0]), 1.0, rtol=1e-14)


def test_seed_random_operator_orthonormal_columns():
    # each column past the first is the least-squares residual on the span so
    # far, the next Golub-Kahan direction, so the seed spans the Krylov space
    # [Aᵀb, AᵀA Aᵀb, ...] of a dense QR; its forward factors are those of A V
    rng = np.random.default_rng(5)
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, 20, 12), data=rng.standard_normal(20)
    )
    state, breakdown = seed_subspace(problem, 5)
    basis = state.basis
    assert basis.shape == (12, 5)
    assert basis.flags.f_contiguous  # the layout of the solver's basis buffer
    assert not breakdown
    np.testing.assert_allclose(basis.T @ basis, np.eye(5), atol=1e-12)
    krylov = oracles.krylov_basis(oracles.dense(problem.forward), problem.data, 5)
    np.testing.assert_allclose(basis @ basis.T, krylov @ krylov.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(state.q_f.T @ state.q_f, np.eye(5), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        state.q_f @ state.r_f, problem.whiten_apply(basis), rtol=0, atol=1e-12
    )


def test_seed_step_count_capped_by_dimension():
    rng = np.random.default_rng(6)
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, 8, 6), data=rng.standard_normal(8)
    )
    state, _ = seed_subspace(problem, 40)
    basis = state.basis
    assert basis.shape[1] <= 6
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)


def test_seed_zero_data_is_empty_with_breakdown():
    problem = dv.ReconstructionProblem(forward=DenseOperator(np.eye(5)), data=np.zeros(5))
    state, breakdown = seed_subspace(problem, 4)
    assert state is None
    assert breakdown


def test_seed_of_data_in_the_null_space_of_the_adjoint_is_empty_with_breakdown():
    # b != 0 but Aᵀb = 0: the first Krylov vector is zero, so there is none
    forward = DenseOperator(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    problem = dv.ReconstructionProblem(forward=forward, data=[1.0, 1.0])
    state, breakdown = seed_subspace(problem, 4)
    assert state is None
    assert breakdown


def test_init_state_only_sizes_the_buffers(monkeypatch):
    # init_state allocates the four buffers at the cap, min(n, cap) columns
    # (at most m for Q_F), column-major, and fills none of them: dim is 0 and
    # the forward is not applied, since every column enters by _add_direction
    rng = np.random.default_rng(7)
    counts = Counter()
    for rows, cap, want in ((20, 2, 2), (20, 7, 7), (20, 40, 12), (5, 7, 7)):
        problem = dv.ReconstructionProblem(
            forward=random_forward(rng, rows, 12), data=rng.standard_normal(rows)
        )
        problem.forward = CountingOperator(problem.forward, counts, "F")  # past the type check
        monkeypatch.setattr(dv.solver, "_MAX_BASIS_COLS", cap)
        state = init_state(problem)
        p = min(rows, want)
        assert state.dim == 0 and state.max_dim == want
        for buf, shape in ((state.basis_buf, (12, want)), (state.q_f_buf, (rows, p)),
                           (state.r_f_buf, (p, want)), (state.rhs_buf, (p,))):
            assert buf.shape == shape and buf.flags.f_contiguous
        assert state.basis.shape == (12, 0) and state.q_f.shape == (rows, 0)
    assert not counts


def test_init_state_sizes_the_basis_by_its_byte_budget(monkeypatch):
    # as many columns as the n-row basis and the m-row Q_F fit in the
    # budget, but at least the floor and at most the ceiling, with Q_F's
    # buffer as wide
    rng = np.random.default_rng(7)
    m, n = 40, 36
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, m, n), data=rng.standard_normal(m)
    )
    floor, ceiling = dv.solver._MIN_BASIS_COLS, dv.solver._MAX_BASIS_COLS
    column = 8 * (n + m)
    for budget, want in (
        (20 * column, 20), (21 * column - 1, 20), (5 * column, floor), (100 * column, ceiling),
    ):
        monkeypatch.setattr(dv.solver, "_BASIS_BYTES", budget)
        state = init_state(problem)
        assert state.max_dim == want and state.q_f_buf.shape == (m, want)
    # at the real budget a 128x128x8 deblur (n + m = 262,144) restarts at 8
    # columns, and a 64x64x8 one, the largest the other tests solve, at 30
    monkeypatch.undo()
    for side, want in ((128, 8), (64, 30)):
        blur = dv.build_blur_operator(dv.BlurModel(sigma_psf=1.0, bandwidth=2), side, side)
        forward = dv.assemble_dynamic_forward(blur, 8)
        problem = dv.ReconstructionProblem(forward=forward, data=np.ones(forward.rows))
        assert init_state(problem).max_dim == want


# --- projected solves --------------------------------------------------------------


def test_solve_projected_identity_pair_halves_rhs():
    rhs = np.array([2.0, -4.0, 6.0])
    y = solve_projected(ProjectedPair(np.eye(3), np.eye(3), rhs), 1.0)
    np.testing.assert_allclose(y, rhs / 2.0, atol=1e-14)


def test_solve_projected_zero_penalty_factor_returns_rhs():
    rhs = np.array([1.0, 3.0])
    y = solve_projected(ProjectedPair(np.eye(2), np.zeros((2, 2)), rhs), 1.0)
    np.testing.assert_allclose(y, rhs, atol=1e-14)


def test_solve_projected_matches_dense_normal_equations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        r_f = np.linalg.qr(rng.standard_normal((d + 3, d)), mode="r")
        r_m = np.linalg.qr(rng.standard_normal((d + 3, d)), mode="r")
        rhs = rng.standard_normal(d)
        lam = float(rng.uniform(0.05, 5.0))
        y = solve_projected(ProjectedPair(r_f, r_m, rhs), lam)
        want = np.linalg.solve(r_f.T @ r_f + lam * (r_m.T @ r_m), r_f.T @ rhs)
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)


def test_solve_projected_shared_null_direction_raises():
    # the factorization refuses the pair, before any lam is tried
    with pytest.raises(dv.SingularSystemError):
        solve_projected(ProjectedPair(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.ones(2)), 0.7)


def test_solve_projected_rejects_negative_lam():
    with pytest.raises(ValueError):
        solve_projected(ProjectedPair(np.eye(2), np.eye(2), np.ones(2)), -1.0)


def test_projected_pair_pads_wide_factor_square():
    rng = np.random.default_rng(13)
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, 2, 8), data=rng.standard_normal(2)
    )
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 2))
    state = oracles.state_on(problem, np.linalg.qr(rng.standard_normal((8, 3)))[0])
    _, pair = refresh_penalty(state, spec, oracles.sums_at(spec, np.zeros(8)))
    # the refresh factors the 2 x 3 R_F, padded square inside the pair
    r_f, r_m, rhs = state.r_f, pair.r_m, state.rhs_hat
    assert r_f.shape == (2, 3) and r_m.shape == (3, 3) and pair.dim == 3
    y = solve_projected(pair, 0.5)
    want = np.linalg.solve(r_f.T @ r_f + 0.5 * (r_m.T @ r_m), r_f.T @ rhs)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)


# --- penalty factor refresh --------------------------------------------------------


def crafted_block(rows, cond, d, seed):
    """rows x d matrix A = U diag(s) Qᵀ with condition number `cond`."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((rows, d)))[0]
    right = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (left * np.logspace(0.0, -np.log10(cond), d)) @ right.T


def row_blocks(a, n_blocks=7):
    """A as the source of row blocks that the penalty factor sweeps over."""
    return lambda: np.array_split(a, n_blocks)


@pytest.mark.parametrize("cond", [1e0, 1e2, 1e4, 1e6])
def test_refresh_penalty_gram_matches_householder(cond):
    a = crafted_block(286, cond, 12, seed=int(np.log10(cond)) + 50)
    r = dv.solver._penalty_r(row_blocks(a), *a.shape)
    r_hh = oracles.householder_r(a, 12)
    gram = r_hh.T @ r_hh
    np.testing.assert_array_equal(np.tril(r, -1), np.zeros((12, 12)))
    # Gram sweeps (one below cond 1e3, two above), not the fallback: a
    # positive diagonal, and not the Householder R
    assert np.all(np.diag(r) > 0)
    assert not np.array_equal(r, r_hh)
    assert np.linalg.norm(r.T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
    # the second pass matters: R1 = chol(AᵀA) alone is off by about cond² u in
    # the smallest singular values (8e-6 at cond 1e6)
    np.testing.assert_allclose(
        np.linalg.svd(r, compute_uv=False), np.linalg.svd(r_hh, compute_uv=False), rtol=1e-10
    )


@pytest.mark.parametrize(
    "cond, one_sweep", [(3e2, True), (9e2, True), (1.1e3, False), (3e3, False)]
)
def test_refresh_penalty_one_sweep_up_to_cond_1e3(cond, one_sweep):
    # R1 = chol(AᵀA) is kept as it is while cond(R1) <= 1e3; above that the
    # second CholeskyQR sweep runs.  Either way RᵀR and the singular values
    # match Householder.
    a = crafted_block(286, cond, 12, seed=int(cond) % 97 + 70)
    r = dv.solver._penalty_r(row_blocks(a), *a.shape)
    r1 = dv.solver._gram_cholesky(row_blocks(a), 12)
    assert np.array_equal(r, r1) == one_sweep
    r_hh = oracles.householder_r(a, 12)
    gram = r_hh.T @ r_hh
    assert np.linalg.norm(r.T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
    np.testing.assert_allclose(
        np.linalg.svd(r, compute_uv=False), np.linalg.svd(r_hh, compute_uv=False), rtol=1e-10
    )


@pytest.mark.parametrize("method", list(dv.Method))
def test_refresh_penalty_rank_deficient_block_falls_back_to_householder(method):
    # the full-space identity basis: D maps constants (or, for Aniso3DTV, a
    # wider space) to zero, so W D V is rank deficient or wide
    spec = dv.RegularizerSpec(method=method, dims=(4, 4, 3))
    rng = np.random.default_rng(61)
    u = rng.standard_normal(spec.n)
    a = update_weights(spec, oracles.sums_at(spec, u))[:, None] * oracles.dense(build_D(spec))
    want = oracles.householder_r(a, spec.n)
    np.testing.assert_array_equal(dv.solver._penalty_r(row_blocks(a), *a.shape), want)
    # the refresh builds the same W D V from the stencil, frame range by range
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, 60, spec.n), data=rng.standard_normal(60)
    )
    state = oracles.state_on(problem, np.eye(spec.n))
    _, pair = refresh_penalty(state, spec, oracles.sums_at(spec, u))
    np.testing.assert_array_equal(pair.r_m, want)


def test_refresh_penalty_duplicate_column_falls_back_to_householder():
    a = crafted_block(286, 1e2, 8, seed=62)
    a = np.column_stack([a, a[:, 3]])
    want = oracles.householder_r(a, 9)
    np.testing.assert_array_equal(dv.solver._penalty_r(row_blocks(a), *a.shape), want)


# --- subspace expansion ------------------------------------------------------------


def test_expand_full_basis_returns_false():
    rng = np.random.default_rng(21)
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, 10, 8), data=rng.standard_normal(10)
    )
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 2))
    d_op = build_D(spec)
    state = oracles.state_on(problem, np.eye(8))
    weights, pair = refresh_penalty(state, spec, oracles.sums_at(spec, np.zeros(8)))
    y = solve_projected(pair, 0.5)
    assert not oracles.expand_at_solve(state, problem, d_op, weights, 0.5, y)
    assert state.dim == 8


def test_expand_stalls_when_solution_is_in_span():
    # constant data under the identity: the first Krylov vector already solves
    # the problem exactly and its difference image vanishes, so the expansion
    # residual is zero to rounding and no direction is added
    n = 8
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 2))
    d_op = build_D(spec)
    problem = dv.ReconstructionProblem(forward=DenseOperator(np.eye(n)), data=np.ones(n))
    state, breakdown = seed_subspace(problem, 5)
    assert breakdown and state.basis.shape == (n, 1)
    weights, pair = refresh_penalty(state, spec, oracles.sums_at(spec, np.zeros(n)))
    y = solve_projected(pair, 1e-3)
    np.testing.assert_allclose(state.basis @ y, problem.data, rtol=1e-12)
    assert not oracles.expand_at_solve(state, problem, d_op, weights, 1e-3, y)
    assert state.dim == 1


def test_expansions_fill_the_buffers_init_state_allocated(monkeypatch):
    # init_state sizes the buffers of V, Q_F, R_F and Q_Fᵀb once, at the cap
    # (lowered here to max_dim columns), and the seed appends its columns
    # one at a time; every expansion writes into the same buffers, so
    # the fields keep sharing memory with the first views, and a full basis
    # stops growing.  Five data rows: q_f fills its five columns after two
    # expansions and then stays put.
    rng = np.random.default_rng(26)
    dims, rows, lam, max_dim = (3, 3, 2), 5, 0.3, 7
    n = int(np.prod(dims))
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, rows, n), data=rng.standard_normal(rows)
    )
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=dims)
    d_op = build_D(spec)
    monkeypatch.setattr(dv.solver, "_MAX_BASIS_COLS", max_dim)
    state, _ = seed_subspace(problem, 3)
    names = ("basis", "q_f", "r_f", "rhs_hat")
    first = {name: getattr(state, name) for name in names}
    assert state.max_dim == max_dim and first["q_f"].shape == (rows, 3)
    np.testing.assert_allclose(state.q_f.T @ state.q_f, np.eye(3), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        state.q_f @ state.r_f, problem.whiten_apply(state.basis), rtol=0, atol=1e-12
    )
    u = np.zeros(n)
    for d in range(4, max_dim + 2):
        weights, pair = refresh_penalty(state, spec, oracles.sums_at(spec, u))
        y = solve_projected(pair, lam)
        u = state.basis @ y
        assert oracles.expand_at_solve(state, problem, d_op, weights, lam, y) == (d <= max_dim)
        assert state.dim == min(d, max_dim)
        for name in names:
            assert np.shares_memory(getattr(state, name), first[name]), name
    assert state.q_f.shape == (rows, rows)
    np.testing.assert_allclose(state.basis.T @ state.basis, np.eye(max_dim), atol=1e-10)
    np.testing.assert_allclose(
        state.q_f @ state.r_f, problem.whiten_apply(state.basis), atol=1e-10
    )


@pytest.mark.parametrize(
    "rows, dims, n_expand",
    [(30, (3, 3, 2), 6), (60, (3, 3, 4), 20)],
    ids=["six-expansions", "twenty-expansions"],
)
def test_expand_keeps_basis_orthonormal_and_factors_consistent(rows, dims, n_expand):
    rng = np.random.default_rng(23)
    n = int(np.prod(dims))
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, rows, n), data=rng.standard_normal(rows)
    )
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=dims)
    d_op = build_D(spec)
    state, _ = seed_subspace(problem, 4)
    u = np.zeros(n)
    for _ in range(n_expand):
        weights, pair = refresh_penalty(state, spec, oracles.sums_at(spec, u))
        y = solve_projected(pair, 0.3)
        u = state.basis @ y
        assert oracles.expand_at_solve(state, problem, d_op, weights, 0.3, y)
    d = 4 + n_expand
    assert state.dim == d
    np.testing.assert_allclose(state.basis.T @ state.basis, np.eye(d), atol=1e-10)
    aw = problem.whiten_apply(state.basis)
    np.testing.assert_allclose(state.q_f @ state.r_f, aw, atol=1e-10)


def test_expand_appends_dense_normal_equations_residual(monkeypatch):
    # the new column is the normal-equations residual of the majorant at
    # u = V y, A^T Γ^-1 (A u - d) + λ D^T W² D u, orthogonalized against V
    rng = np.random.default_rng(25)
    dims, rows, lam = (3, 3, 3), 40, 0.7
    n = int(np.prod(dims))
    gamma = rng.uniform(0.5, 2.0, rows)
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, rows, n), data=rng.standard_normal(rows), noise_cov_diag=gamma
    )
    monkeypatch.setattr(dv.RegularizerSpec, "epsilon", 1e-2)
    spec = dv.RegularizerSpec(method=dv.Method.ISO_TV, dims=dims)
    d_op = build_D(spec)
    state, _ = seed_subspace(problem, 4)
    basis = state.basis
    weights, pair = refresh_penalty(state, spec, oracles.sums_at(spec, rng.standard_normal(n)))
    y = solve_projected(pair, lam)
    w = weights.copy()  # the expansion forms W² D u in the weights
    assert oracles.expand_at_solve(state, problem, d_op, weights, lam, y)

    a, d = oracles.dense(problem.forward), oracles.dense(d_op)
    u = basis @ y
    r = a.T @ ((a @ u - problem.data) / gamma) + lam * d.T @ (w**2 * (d @ u))
    r -= basis @ (basis.T @ r)
    np.testing.assert_allclose(state.basis[:, -1], r / np.linalg.norm(r), rtol=0, atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_data_and_covariance(bad):
    # a NaN datum used to pass here and fail much later, inside the GCV SVD
    data = np.array([1.0, bad, 0.5])
    with pytest.raises(ValueError, match="data must be finite"):
        dv.ReconstructionProblem(forward=DenseOperator(np.eye(3)), data=data)
    cov = np.array([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="covariance"):
        dv.ReconstructionProblem(
            forward=DenseOperator(np.eye(3)), data=np.ones(3), noise_cov_diag=cov
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("data", np.ones(4), "data length 4 does not match operator rows 3"),
        ("noise_cov_diag", np.ones(2), "covariance diagonal must match the data length"),
        ("noise_cov_diag", np.array([1.0, 0.0, 2.0]), "covariance diagonal must be strictly"),
        ("truth", np.ones(4), "truth length must match operator columns"),
    ],
    ids=["data-length", "covariance-length", "zero-covariance", "truth-length"],
)
def test_problem_rejects_inputs_that_do_not_fit_the_forward(field, value, message):
    fields = {"forward": DenseOperator(np.eye(3)), "data": np.ones(3), field: value}
    with pytest.raises(ValueError, match=message):
        dv.ReconstructionProblem(**fields)


def test_problem_rejects_a_forward_that_is_not_an_operator():
    # an array used to fail with an AttributeError on its missing .rows
    with pytest.raises(ValueError, match="forward must be a LinearOperator, got .*ndarray"):
        dv.ReconstructionProblem(forward=np.eye(3), data=np.ones(3))


@pytest.mark.parametrize("delta", [np.inf, np.nan])
def test_problem_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
        dv.ReconstructionProblem(forward=DenseOperator(np.eye(3)), data=np.ones(3), delta=delta)


@pytest.mark.parametrize(
    "truth", [np.zeros(3), np.array([1.0, np.nan, 0.5]), np.full(3, 1e-170)],
    ids=["zero", "nan", "underflow"],
)
def test_problem_rejects_an_all_zero_or_non_finite_truth(truth):
    # each iterate's RRE divides by ||truth||: an all-zero truth gave inf,
    # with a RuntimeWarning at every iteration, and a NaN one gave NaN; one
    # whose norm underflows to 0 let metrics.rre's ValueError escape the solve
    with pytest.raises(ValueError, match="truth must be finite and not all zero"):
        dv.ReconstructionProblem(forward=DenseOperator(np.eye(3)), data=np.ones(3), truth=truth)


def test_problem_rejects_data_whose_squared_norm_overflows():
    # finite data of this size used to pass here and stop the solve with an
    # empty seed basis; a small covariance can push the whitened data over too
    with pytest.raises(ValueError, match="squared norm of the whitened data"):
        dv.ReconstructionProblem(forward=DenseOperator(np.eye(3)), data=np.full(3, 1e200))
    with pytest.raises(ValueError, match="squared norm of the whitened data"):
        dv.ReconstructionProblem(
            forward=DenseOperator(np.eye(3)), data=np.full(3, 1e100),
            noise_cov_diag=np.full(3, 1e-250),
        )
    big = dv.ReconstructionProblem(forward=DenseOperator(np.eye(3)), data=np.full(3, 1e150))
    assert np.isfinite(big.whitened_data @ big.whitened_data)


def test_whitened_data_is_formed_once_and_read_only():
    # every append, the seed, the expansions and residual_norm read b; it is
    # the one array formed at construction, with the values of Γ^{-1/2} d
    rng = np.random.default_rng(27)
    data, cov = rng.standard_normal(6), rng.uniform(0.5, 2.0, 6)
    problem = dv.ReconstructionProblem(
        forward=DenseOperator(np.eye(6)), data=data, noise_cov_diag=cov
    )
    b = problem.whitened_data
    assert problem.whitened_data is b
    np.testing.assert_array_equal(b, (1.0 / np.sqrt(cov)) * data)
    with pytest.raises(ValueError, match="read-only"):
        b[0] = 0.0


def test_white_noise_model_of_a_random_realization():
    rng = np.random.default_rng(31)
    e = 0.3 * rng.standard_normal(50)
    gamma, delta = dv.white_noise_model(e)
    np.testing.assert_array_equal(gamma, np.full(50, float(e @ e) / 50))
    assert delta == float(np.sqrt(50))
    # δ is the whitened norm of e itself, so the DP target fits the noise
    assert np.linalg.norm(e / np.sqrt(gamma)) == pytest.approx(delta, rel=1e-14)


def test_white_noise_model_without_a_variance_is_noiseless():
    # at 1e-160 the one nonzero entry's square is a subnormal 1e-320, and the
    # variance 1e-320 / m underflows to 0, which no positive Γ can carry
    tiny = np.zeros(10_000)
    tiny[0] = 1e-160
    assert tiny @ tiny > 0
    for e in (np.zeros(7), tiny):
        assert dv.white_noise_model(e) == (None, 0.0)


def test_white_noise_model_of_an_empty_realization_is_refused():
    # m = 0 leaves no variance to divide out
    with pytest.raises(ValueError, match="noise vector is empty"):
        dv.white_noise_model([])


def test_white_noise_model_of_an_overflowing_variance_is_refused_by_the_problem():
    gamma, _ = dv.white_noise_model(np.full(3, 1e200))  # no overflow warning
    assert np.isinf(gamma).all()
    with pytest.raises(ValueError, match="noise covariance diagonal must be finite"):
        dv.ReconstructionProblem(DenseOperator(np.eye(3)), np.ones(3), gamma)


# --- discrepancy principle ---------------------------------------------------------


def test_check_dp_exact_fit_passes_even_with_zero_delta():
    data = np.array([1.0, -2.0, 3.0])
    problem = dv.ReconstructionProblem(forward=DenseOperator(np.eye(3)), data=data, delta=0.0)
    assert oracles.check_dp(problem, data)


def test_check_dp_fails_on_misfit_with_zero_delta():
    problem = dv.ReconstructionProblem(
        forward=DenseOperator(np.eye(3)), data=[1.0, 0, 0], delta=0.0
    )
    assert not oracles.check_dp(problem, np.zeros(3))


def test_check_dp_boundary_is_inclusive():
    data = np.array([0.3, -1.2, 0.7, 2.1])
    resid = float(np.linalg.norm(data))
    problem = dv.ReconstructionProblem(forward=DenseOperator(np.eye(4)), data=data, delta=resid)
    assert oracles.check_dp(problem, np.zeros(4), eta=1.0)
    tight = dv.ReconstructionProblem(
        forward=DenseOperator(np.eye(4)), data=data, delta=resid * (1 - 1e-12)
    )
    assert not oracles.check_dp(tight, np.zeros(4), eta=1.0)


# --- outer loop --------------------------------------------------------------------


def test_solve_identity_noiseless_recovers_truth():
    scene = dv.moving_disks_scene(6, 6, 2, n_objects=2, seed=1)
    truth = dv.vec(dv.render_scene(scene))
    problem = dv.ReconstructionProblem(forward=DenseOperator(np.eye(72)), data=truth, truth=truth)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(6, 6, 2))
    config = dv.SolverConfig(regularizer=spec, lam=1e-8, max_iters=60)
    result = dv.mm_gks_solve(problem, config)
    assert result.stop_reason == "rel_change"
    assert result.history[-1].rre <= 1e-3


def test_solve_deblurring_dp_stop_beats_unregularized():
    problem = blur_problem((16, 16, 3), 1.2, 4, 0.01, scene_seed=2, noise_seed=4)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(16, 16, 3))
    result = dv.mm_gks_solve(problem, dv.SolverConfig(regularizer=spec))
    assert result.stop_reason == "discrepancy"
    assert result.iterations <= 150
    assert result.history[-1].dp_residual <= 1.01 * problem.delta

    raw = dv.ReconstructionProblem(
        forward=problem.forward,
        data=problem.data,
        noise_cov_diag=problem.noise_cov_diag,
        delta=0.0,
        truth=problem.truth,
    )
    unreg = dv.mm_gks_solve(
        raw,
        dv.SolverConfig(regularizer=spec, lam=1e-12, max_iters=60, rel_change_tol=0.0),
    )
    assert result.history[-1].rre < unreg.history[-1].rre


def test_solve_fixed_lambda_objective_never_increases():
    # 40 iterations take the basis past its 30-column cap, so the descent
    # holds across a restart too
    problem = blur_problem((8, 8, 2), 1.0, 3, 0.0, scene_seed=5, noise_seed=0)
    spec = dv.RegularizerSpec(method=dv.Method.ISO_TV, dims=(8, 8, 2))
    config = dv.SolverConfig(regularizer=spec, lam=0.2, max_iters=40, rel_change_tol=0.0)
    result = dv.mm_gks_solve(problem, config)
    dims = np.array([rec.subspace_dim for rec in result.history])
    assert result.iterations == 40 and np.any(np.diff(dims) < 0)
    objectives = np.array([rec.objective for rec in result.history])
    assert np.all(np.diff(objectives) <= 1e-12)


def restarting_run():
    """Fixed-λ 8×8×2 deblur whose 60 iterations pass the 30-column cap twice."""
    problem = blur_problem((8, 8, 2), 1.0, 3, 0.0, scene_seed=5, noise_seed=0)
    spec = dv.RegularizerSpec(method=dv.Method.ISO_TV, dims=(8, 8, 2))
    config = dv.SolverConfig(regularizer=spec, lam=0.2, max_iters=60, rel_change_tol=0.0)
    return dv.mm_gks_solve(problem, config)


def test_restart_bounds_the_basis_and_the_objective_keeps_descending():
    # from the 5 seed columns the basis grows by one per iteration to the
    # 30-column cap; the next expansion restarts on the last 3 iterates and
    # appends one direction, so the dimension drops to 4
    result = restarting_run()
    dims = np.array([rec.subspace_dim for rec in result.history])
    cap, keep = dv.solver._MAX_BASIS_COLS, dv.solver._RESTART_ITERATES
    assert result.iterations == 60 and dims.max() == cap
    drops = np.flatnonzero(np.diff(dims) != 1)
    assert drops.size == 2 and np.all(dims[drops] == cap) and np.all(dims[drops + 1] == keep + 1)
    objectives = np.array([rec.objective for rec in result.history])
    assert np.all(np.diff(objectives) <= 1e-12 * objectives[1:])


def test_restart_keeps_the_iterate_and_the_factors_in_the_first_buffers(monkeypatch):
    # V C, Q_F Q', R' and (Q_F Q')ᵀb are written over the buffers init_state
    # allocated; the iterate V y is unchanged, the last iterates stay in the
    # span, V stays orthonormal and Q_F R_F = A V holds without a forward apply
    first, restarts = {}, []
    init_state_fn, restart_fn = dv.solver.init_state, dv.solver._restart

    def init_state(*args):
        state = init_state_fn(*args)
        first.update(basis=state.basis_buf, q_f=state.q_f_buf, r_f=state.r_f_buf,
                     rhs_hat=state.rhs_buf)
        return state

    def restart(state, problem, iterates):
        # the current iterate's coefficients come last
        x = state.basis @ iterates[-1]
        kept = [state.basis[:, : y.size] @ y for y in iterates]
        restart_fn(state, problem, iterates)
        restarts.append(state.dim)
        np.testing.assert_allclose(
            state.basis @ iterates[-1], x, rtol=0, atol=1e-12 * np.linalg.norm(x)
        )
        for x_j in kept:
            in_span = state.basis @ (state.basis.T @ x_j)
            np.testing.assert_allclose(in_span, x_j, rtol=0, atol=1e-12 * np.linalg.norm(x_j))
        np.testing.assert_allclose(state.basis.T @ state.basis, np.eye(state.dim), atol=1e-12)
        aw = problem.whiten_apply(state.basis)
        np.testing.assert_allclose(state.q_f @ state.r_f, aw, atol=1e-12 * np.linalg.norm(aw))
        for name, buf in first.items():
            assert np.shares_memory(getattr(state, name), buf), name

    monkeypatch.setattr(dv.solver, "init_state", init_state)
    monkeypatch.setattr(dv.solver, "_restart", restart)
    restarting_run()
    assert restarts == [dv.solver._RESTART_ITERATES] * 2


@pytest.mark.parametrize("method", list(dv.Method))
def test_restart_peaks_below_the_expansion_that_follows(method, monkeypatch):
    # the restart forms V C whole, n x 3 values, and writes it over the first
    # columns of its buffer before it forms Q_F Q', m x 3; the expansion that
    # follows holds more (W² D x, its image under Dᵀ, the forward's adjoint
    # of the residual), so the restart never sets a solve's peak.  On this
    # 64x64x8 blur (m = n), whose 8-column cap restarts it twice in 14
    # iterations, the margin is one n-vector for every method; a restart
    # that formed both products before writing either would hold 6
    # n-vectors and pass every expansion
    problem = blur_problem((64, 64, 8), 1.0, 2, 0.0, scene_seed=1, noise_seed=0)
    spec = dv.RegularizerSpec(method=method, dims=(64, 64, 8))
    config = dv.SolverConfig(regularizer=spec, lam=1.0, max_iters=14, rel_change_tol=0.0)
    build_D(spec)  # the cached stencil, built outside the traces
    monkeypatch.setattr(dv.solver, "_MAX_BASIS_COLS", 8)
    peaks = {"_restart": [], "expand_subspace": []}

    def traced(name):
        fn = getattr(dv.solver, name)

        def wrapper(*args):
            tracemalloc.start()
            try:
                return fn(*args)
            finally:
                peaks[name].append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(dv.solver, name, wrapper)

    traced("_restart")
    traced("expand_subspace")
    dv.mm_gks_solve(problem, config)
    assert len(peaks["_restart"]) == 2 and len(peaks["expand_subspace"]) == 13
    assert max(peaks["_restart"]) < min(peaks["expand_subspace"])


@functools.lru_cache(maxsize=None)
def restart_convergence_case(method):
    """Fixed-λ 16x16x4 deblur: its ``solve(max_iters)`` and its minimizer.

    The minimizer is a 1,000-iteration run with 10 iterates kept at each
    restart, within 2e-6 of a 3-kept one relative to its norm, against 2e-2
    for the 200th iterates.
    """
    n_v, n_t = 16, 4
    blur = dv.build_blur_operator(dv.BlurModel(sigma_psf=1.5, bandwidth=4), n_v, n_v)
    forward = dv.assemble_dynamic_forward(blur, n_t)
    truth = dv.vec(dv.render_scene(dv.moving_disks_scene(n_v, n_v, n_t, n_objects=3, seed=1)))
    data, _ = dv.add_noise(forward.apply(truth), dv.NoiseSpec(sigma=0.02, seed=2))
    problem = dv.ReconstructionProblem(forward=forward, data=data)
    spec = dv.RegularizerSpec(method=method, dims=(n_v, n_v, n_t))

    def solve(max_iters):
        config = dv.SolverConfig(
            regularizer=spec, lam=0.05, max_iters=max_iters, rel_change_tol=0.0
        )
        return dv.mm_gks_solve(problem, config).u

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dv.solver, "_RESTART_ITERATES", 10)
        return solve, solve(1000)


@pytest.mark.parametrize("method", [dv.Method.ANISO_TV, dv.Method.GROUP_SPARSITY])
def test_narrow_restart_converges_as_fast_as_a_10_iterate_one(method, monkeypatch):
    # a restart keeps only the span of the last few iterates, so it throws
    # away search directions; after 200 fixed-λ iterations and several
    # restarts the iterate must still lie as near the minimizer as with the
    # last 10 kept.  Keeping 3 or 2 measured within 3% of keeping 10; keeping
    # 1 took 1.7x (AnisoTV) and 2.2x (GS) the distance
    solve, minimizer = restart_convergence_case(method)
    got = solve(200)
    monkeypatch.setattr(dv.solver, "_RESTART_ITERATES", 10)
    want = solve(200)
    assert np.linalg.norm(got - minimizer) <= 1.2 * np.linalg.norm(want - minimizer)


@pytest.mark.parametrize("method", [dv.Method.ANISO_TV, dv.Method.GROUP_SPARSITY])
def test_basis_at_the_floor_converges_as_fast_as_a_30_column_one(method, monkeypatch):
    # a large problem's basis is sized at the floor and restarts about five
    # times as often as at the 30-column ceiling; after 200 fixed-λ
    # iterations its iterate must still lie as near the minimizer.  The floor
    # of 8 measured 1.08x (AnisoTV) and 1.03x (GS) the ceiling's distance
    solve, minimizer = restart_convergence_case(method)
    want = solve(200)
    monkeypatch.setattr(dv.solver, "_MAX_BASIS_COLS", dv.solver._MIN_BASIS_COLS)
    got = solve(200)
    assert np.linalg.norm(got - minimizer) <= 1.2 * np.linalg.norm(want - minimizer)


def test_restarting_run_keeps_the_basis_orthonormal(monkeypatch):
    # the expansion takes a second Gram-Schmidt pass only when the first
    # leaves less than 1/√2 of the norm; across 60 iterations and two
    # restarts the basis stays orthonormal to rounding all the same, and so
    # does Q_F, which the residual Q_F R_F y - b takes for orthonormal
    errors, expand_fn = [], dv.solver.expand_subspace

    def expand_subspace(state, *args):
        added = expand_fn(state, *args)
        errors.append([
            np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2) for q in (state.basis, state.q_f)
        ])
        return added

    monkeypatch.setattr(dv.solver, "expand_subspace", expand_subspace)
    result = restarting_run()
    dims = [rec.subspace_dim for rec in result.history]
    assert len(errors) == 59 and sum(b < a for a, b in zip(dims, dims[1:])) == 2
    assert np.max(errors) <= 1e-13


def test_orthogonalization_takes_the_second_pass_when_the_first_cancels():
    # a new direction that lies mostly in the span of the basis (or of Q_F)
    # loses all but 1e-8 of its norm to the first pass, whose rounding is
    # then 1e-8 of what is left; the second pass makes it orthogonal again
    rng = np.random.default_rng(29)
    dims = (4, 4, 2)
    n = int(np.prod(dims))
    problem = dv.ReconstructionProblem(
        forward=DenseOperator(np.eye(n)), data=rng.standard_normal(n)
    )
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=dims)
    d_op = build_D(spec)
    state = init_state(problem)
    for v in rng.standard_normal((5, n)):
        assert dv.solver._add_direction(state, problem, v, 0.0)
    spare = copy.deepcopy(state)  # five columns, for the Q_F append below
    weights, _ = refresh_penalty(state, spec, oracles.sums_at(spec, np.zeros(n)))
    basis, q_f = state.basis.copy(), state.q_f.copy()
    nearly_in_span = basis @ rng.standard_normal(5) + 1e-8 * rng.standard_normal(n)
    # under the identity and with D x = 0 the expansion's residual is res_w itself
    assert expand_subspace(
        state, problem, d_op, weights, 0.5, np.zeros(n), nearly_in_span, np.zeros(d_op.rows)
    )
    v_new = state.basis[:, -1]
    assert np.abs(basis.T @ v_new).max() <= 1e-14
    assert abs(np.linalg.norm(v_new) - 1) <= 1e-14

    a = q_f @ rng.standard_normal(5) + 1e-8 * rng.standard_normal(n)
    dv.solver._append_forward_qr(spare, problem, a.copy())
    assert np.abs(q_f.T @ spare.q_f[:, -1]).max() <= 1e-14
    np.testing.assert_allclose(spare.q_f @ spare.r_f[:, -1], a, rtol=0, atol=1e-15)


def test_full_space_matches_dense_mm_iterates(monkeypatch):
    # the solver's refresh and projected solve on the identity basis
    rng = np.random.default_rng(31)
    dims, lam = (2, 3, 2), 0.3
    f_dense = rng.standard_normal((14, 12)) / np.sqrt(12.0)
    data = rng.standard_normal(14)
    problem = dv.ReconstructionProblem(forward=DenseOperator(f_dense), data=data)
    monkeypatch.setattr(dv.RegularizerSpec, "epsilon", 1e-2)
    spec = dv.RegularizerSpec(method=dv.Method.TV_PLUS_TIKHONOV, dims=dims)
    want = oracles.dense_mm_iterates(
        f_dense, data, np.ones(14), "TVplusTikhonov", dims, 1e-2, lam, 8
    )
    got = oracles.full_space_mm_iterates(problem, spec, lam, 8)
    for k in (1, 4, 8):
        np.testing.assert_allclose(got[k - 1], want[k - 1], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "method", [dv.Method.GROUP_SPARSITY, dv.Method.ANISO_TV, dv.Method.ANISO_3D_TV]
)
def test_whitening_consistency_under_covariance_rescaling(method, monkeypatch):
    problem = blur_problem((8, 8, 3), 1.0, 3, 0.01, scene_seed=8, noise_seed=9)
    spec = dv.RegularizerSpec(method=method, dims=(8, 8, 3))
    config = dv.SolverConfig(regularizer=spec, max_iters=40)
    grid = dv.solver._LAMBDA_GRID
    base = dv.mm_gks_solve(problem, config)

    c = 4.0
    scaled_problem = dv.ReconstructionProblem(
        forward=problem.forward,
        data=problem.data,
        noise_cov_diag=problem.noise_cov_diag * c**2,
        delta=problem.delta / c,
        truth=problem.truth,
    )
    monkeypatch.setattr(dv.solver, "_LAMBDA_GRID", grid / c**2)
    scaled = dv.mm_gks_solve(scaled_problem, config)
    assert scaled.stop_reason == base.stop_reason
    assert scaled.iterations == base.iterations
    np.testing.assert_allclose(scaled.u, base.u, rtol=1e-10, atol=1e-12)
    lam_base = np.array([rec.lam for rec in base.history])
    lam_scaled = np.array([rec.lam for rec in scaled.history])
    np.testing.assert_allclose(lam_scaled * c**2, lam_base, rtol=1e-10)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("rule", ["gcv", "fixed-lambda"])
def test_solve_is_exactly_equivariant_under_noise_rescaling(rule, k, monkeypatch):
    # Γ -> 4^k Γ, δ -> δ / 2^k and λ (or its grid) -> λ / 4^k scale the
    # whitened data and R_F by 2^-k, which the balanced pair absorbs exactly:
    # every λ is divided by 4^k and the iterates do not move by one bit
    problem = blur_problem((16, 16, 3), 1.2, 4, 0.01, scene_seed=2, noise_seed=4)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(16, 16, 3))
    scaled_problem = dv.ReconstructionProblem(
        forward=problem.forward,
        data=problem.data,
        noise_cov_diag=problem.noise_cov_diag * 4.0**k,
        delta=problem.delta / 2.0**k,
        truth=problem.truth,
    )
    grid = dv.solver._LAMBDA_GRID
    runs = []
    for prob, scale in ((problem, 1.0), (scaled_problem, 4.0**-k)):
        if rule == "gcv":
            monkeypatch.setattr(dv.solver, "_LAMBDA_GRID", grid * scale)
            options = {}
        else:
            options = {"lam": 0.05 * scale}
        config = dv.SolverConfig(regularizer=spec, max_iters=40, **options)
        runs.append(dv.mm_gks_solve(prob, config))
    base, scaled = runs
    assert scaled.stop_reason == base.stop_reason
    assert [rec.lam for rec in scaled.history] == [rec.lam / 4.0**k for rec in base.history]
    np.testing.assert_array_equal(scaled.u, base.u)


@pytest.mark.parametrize("method", list(dv.Method))
def test_solve_matches_householder_refresh(method, monkeypatch):
    # the Gram-sweep refresh changes R_M only up to a left orthogonal factor
    # and rounding, so whole solves must track a Householder-only refresh
    problem = blur_problem((16, 16, 3), 1.0, 2, 0.01, scene_seed=4, noise_seed=7)
    spec = dv.RegularizerSpec(method=method, dims=(16, 16, 3))
    config = dv.SolverConfig(regularizer=spec)
    got = dv.mm_gks_solve(problem, config)
    monkeypatch.setattr(
        dv.solver,
        "_penalty_r",
        lambda blocks, rows, d: oracles.householder_r(np.vstack(list(blocks())), d),
    )
    want = dv.mm_gks_solve(problem, config)
    assert got.stop_reason == want.stop_reason
    assert got.iterations == want.iterations
    assert np.linalg.norm(got.u - want.u) <= 1e-7 * np.linalg.norm(want.u)


@pytest.mark.parametrize(
    "experiment, max_iters",
    # tomography has m << n, so the penalty rows dominate (rows(D) is 2.8 n);
    # blurring has m = n, so the m-row forward arrays weigh as much as the basis
    [("tomography", 40), ("blur", 37)],
    ids=["tomography", "blur"],
)
def test_solve_peak_memory_holds_no_copy_of_d_v(experiment, max_iters):
    # The solve keeps two tall arrays, the n-row basis and the m-row q_f, in
    # buffers that init_state sizes once at the 30-column cap and that are
    # never copied: (n + m) 30 values.  Both runs pass the cap once, so the
    # restart shrinks the basis to the kept iterates and d ends below it.  The
    # refresh, the objective and the expansion add rows(D)-vectors (D u of
    # this iterate and, while it forms, of the last; the weights, which the
    # expansion turns into W² D x; the penalty sums, held from the objective
    # to the next refresh) and the one-frame row blocks of the Gram sweep:
    # 6.5 rows(D) values leave room for them, and the peaks sit at 4.9
    # (tomography) and 5.2 (blur).  The restart's n x 3 and m x 3 products
    # stay below the expansion's peak
    # (test_restart_peaks_below_the_expansion_that_follows).  An expansion
    # that kept two copies of W² D x through the forward's adjoint does not
    # fit: it takes the excess to 6.9 and 7.2.  A second copy of the basis
    # buffer fits even less: it would take the peaks of 12.4 MB (tomography,
    # bound 13.6 MB) and 19.6 MB (blur, bound 20.6 MB) to 20.2 and 27.5 MB.
    n_v, n_t = 64, 8
    if experiment == "tomography":
        model = dv.RadonModel(image_side=n_v, n_time_steps=n_t, n_angles_per_step=5)
        forward = dv.assemble_dynamic_forward(
            [dv.build_radon_operator(model, t) for t in range(1, n_t + 1)], n_t
        )
    else:
        blur = dv.build_blur_operator(dv.BlurModel(sigma_psf=1.0, bandwidth=2), n_v, n_v)
        forward = dv.assemble_dynamic_forward(blur, n_t)
    truth = dv.vec(dv.render_scene(dv.moving_disks_scene(n_v, n_v, n_t, n_objects=3, seed=1)))
    data, _ = dv.add_noise(forward.apply(truth), dv.NoiseSpec(sigma=0.01, seed=2))
    problem = dv.ReconstructionProblem(forward=forward, data=data)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(n_v, n_v, n_t))
    config = dv.SolverConfig(
        regularizer=spec, lam=1.0, max_iters=max_iters, rel_change_tol=0.0
    )
    rows = build_D(spec).rows  # also builds the cached stencil outside the trace
    tracemalloc.start()
    try:
        result = dv.mm_gks_solve(problem, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the seed fills _SEED_STEPS columns at iteration 1 and each iteration
    # adds one, so the basis reaches the cap at iteration cap - _SEED_STEPS + 1
    # and restarts to keep + 1 columns at the next
    cap, keep = dv.solver._MAX_BASIS_COLS, dv.solver._RESTART_ITERATES
    want_d = keep + 1 + max_iters - (cap - dv.solver._SEED_STEPS + 2)
    assert keep < want_d < cap
    m, n, d = forward.rows, forward.cols, result.history[-1].subspace_dim
    assert result.iterations == max_iters and d == want_d
    assert peak <= 8 * ((n + m) * 30 + 6.5 * rows)


class CountingOperator:
    """Proxy that counts the applies, applied columns, adjoints and row-block passes."""

    def __init__(self, op, counts, name):
        self._op, self._counts, self._name = op, counts, name

    def __getattr__(self, attr):
        return getattr(self._op, attr)

    def apply(self, x):
        self._counts[self._name + ".apply"] += 1
        self._counts[self._name + ".cols"] += 1 if np.ndim(x) == 1 else np.shape(x)[1]
        return self._op.apply(x)

    def apply_adjoint(self, y):
        self._counts[self._name + ".adjoint"] += 1
        return self._op.apply_adjoint(y)

    def row_blocks(self, *args, **kwargs):
        self._counts[self._name + ".row_blocks"] += 1
        return self._op.row_blocks(*args, **kwargs)


def test_solve_applies_forward_once_per_expansion_and_d_once_per_iterate(monkeypatch):
    # The residual of u = V y comes from the kept factors Q_F R_F y, and
    # init_state only sizes the buffers, so every basis column, the seed's
    # first included, enters by _add_direction (this run never restarts), and
    # each that it adds takes one forward apply, to it alone.  z = D u is
    # formed once per iterate and serves the expansion and the penalty sums,
    # which give the objective and the next weights; the first weights, at
    # u = 0, take the sums of a zero z, with no D apply.
    # The Gram sweeps of the refresh reach D through row_blocks, counted apart.
    counts = Counter()
    build_d, sums = dv.regularization.build_D, dv.solver.penalty_sums
    add_direction = dv.solver._add_direction
    for module in (dv.solver, dv.regularization):
        monkeypatch.setattr(
            module, "build_D", lambda spec: CountingOperator(build_d(spec), counts, "D")
        )

    def counted_sums(spec, z):
        counts["sums"] += 1
        return sums(spec, z)

    def counted_add(*args):
        added = add_direction(*args)
        counts["added"] += added
        return added

    monkeypatch.setattr(dv.solver, "penalty_sums", counted_sums)
    monkeypatch.setattr(dv.solver, "_add_direction", counted_add)
    blurred = blur_problem((8, 8, 2), 1.0, 3, 0.0, scene_seed=5, noise_seed=0)
    problem = dv.ReconstructionProblem(forward=blurred.forward, data=blurred.data)
    problem.forward = CountingOperator(blurred.forward, counts, "F")  # past the type check
    spec = dv.RegularizerSpec(method=dv.Method.ISO_TV, dims=(8, 8, 2))
    seed, iters = dv.solver._SEED_STEPS, 10
    config = dv.SolverConfig(regularizer=spec, lam=0.1, max_iters=iters, rel_change_tol=0.0)
    result = dv.mm_gks_solve(problem, config)
    expansions = iters - 1
    assert result.iterations == iters
    assert result.history[-1].subspace_dim == seed + expansions
    assert counts["added"] == counts["F.cols"] == counts["F.apply"] == seed + expansions
    assert counts["F.adjoint"] == seed + expansions
    assert counts["D.apply"] == iters
    assert counts["sums"] == iters + 1  # at u = 0 and at each iterate
    assert counts["D.adjoint"] == expansions
    assert counts["D.row_blocks"] >= iters  # one Gram sweep or more per refresh


@pytest.mark.parametrize("lam", [None, 0.1], ids=["gcv", "fixed-lambda"])
def test_solve_factors_the_projected_pair_once_per_iteration(lam, monkeypatch):
    # the refresh factors the pair once; the GCV search and the projected
    # solve both read that factorization, and no stacked least-squares solve
    # is left
    counts = Counter()
    pair_cls = dv.paramselect.ProjectedPair

    def counted(*args, **kwargs):
        counts["factor"] += 1
        return pair_cls(*args, **kwargs)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    for module in (dv.solver, dv.paramselect):
        monkeypatch.setattr(module, "ProjectedPair", counted)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    problem = blur_problem((8, 8, 2), 1.0, 3, 0.01, scene_seed=9, noise_seed=5)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(8, 8, 2))
    config = dv.SolverConfig(regularizer=spec, lam=lam, max_iters=12, rel_change_tol=0.0)
    result = dv.mm_gks_solve(problem, config)
    assert result.iterations > 1
    assert counts["factor"] == result.iterations


def test_history_dp_residual_is_the_residual_of_each_iterate():
    # the k-th iterate is the final one of a run cut at k iterations
    problem = blur_problem((8, 8, 2), 1.0, 3, 0.01, scene_seed=9, noise_seed=5)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_3D_TV, dims=(8, 8, 2))
    result = dv.mm_gks_solve(problem, dv.SolverConfig(regularizer=spec, max_iters=40))
    # from the kept factors; the DP stop must hold for the iterate itself
    assert result.stop_reason == "discrepancy"
    assert oracles.check_dp(problem, result.u, 1.01)
    for rec in result.history:
        config = dv.SolverConfig(regularizer=spec, max_iters=rec.iteration)
        want = problem.residual_norm(dv.mm_gks_solve(problem, config).u)
        assert abs(rec.dp_residual - want) <= 1e-12 * want


def test_truncated_rerun_reproduces_history_prefix():
    problem = blur_problem((8, 8, 2), 1.0, 3, 0.01, scene_seed=7, noise_seed=2)
    spec = dv.RegularizerSpec(method=dv.Method.ISO_3D_TV, dims=(8, 8, 2))
    full = dv.mm_gks_solve(
        problem, dv.SolverConfig(regularizer=spec, max_iters=8, rel_change_tol=0.0)
    )
    short = dv.mm_gks_solve(
        problem, dv.SolverConfig(regularizer=spec, max_iters=3, rel_change_tol=0.0)
    )
    for got, want in zip(short.history, full.history[:3]):
        assert got.iteration == want.iteration
        assert got.lam == want.lam
        assert got.objective == want.objective
        assert got.dp_residual == want.dp_residual
        assert got.subspace_dim == want.subspace_dim


def test_zero_data_raises_solver_error_with_empty_history():
    rng = np.random.default_rng(41)
    problem = dv.ReconstructionProblem(forward=random_forward(rng, 10, 8), data=np.zeros(10))
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 2))
    with pytest.raises(dv.SolverError) as err:
        dv.mm_gks_solve(problem, dv.SolverConfig(regularizer=spec))
    assert err.value.history == []


def test_singular_system_error_carries_the_history_so_far(monkeypatch):
    # GCV is made undefined at iteration 3; noiseless data and no change
    # tolerance keep the first two iterations from stopping the solve
    select, calls = dv.solver.select_lambda, []

    def failing_select(pair, grid):
        calls.append(grid)
        if len(calls) == 3:
            raise dv.SingularSystemError("GCV curve is undefined on the whole grid")
        return select(pair, grid)

    monkeypatch.setattr(dv.solver, "select_lambda", failing_select)
    problem = blur_problem((8, 8, 2), 1.0, 3, 0.0, scene_seed=7, noise_seed=2)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(8, 8, 2))
    config = dv.SolverConfig(regularizer=spec, max_iters=5, rel_change_tol=0.0)
    with pytest.raises(dv.SolverError) as err:
        dv.mm_gks_solve(problem, config)
    assert isinstance(err.value, dv.SingularSystemError)
    assert [rec.iteration for rec in err.value.history] == [1, 2]


def test_solve_rejects_mismatched_regularizer_dims():
    rng = np.random.default_rng(42)
    problem = dv.ReconstructionProblem(
        forward=random_forward(rng, 10, 8), data=rng.standard_normal(10)
    )
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(3, 3, 2))
    with pytest.raises(ValueError):
        dv.mm_gks_solve(problem, dv.SolverConfig(regularizer=spec))


def test_config_validation():
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 2))
    with pytest.raises(ValueError):
        dv.SolverConfig(regularizer=spec, max_iters=0)
    with pytest.raises(ValueError):
        dv.SolverConfig(regularizer=spec, rel_change_tol=-1e-6)
    with pytest.raises(ValueError):
        dv.SolverConfig(regularizer=spec, lam=0.0)
    # each was accepted, and the solve then failed on an attribute of it
    for regularizer in ("AnisoTV", None):
        with pytest.raises(ValueError, match="regularizer must be a RegularizerSpec"):
            dv.SolverConfig(regularizer=regularizer)
    # a config compares and hashes by its fields
    config, same = dv.SolverConfig(spec), dv.SolverConfig(spec)
    assert config == same and hash(config) == hash(same)


@pytest.mark.parametrize(
    "build",
    [
        lambda spec: dv.SolverConfig(spec, max_iters=2.5),
        lambda spec: dv.SolverConfig(spec, max_iters=True),
        lambda spec: dv.RegularizerSpec(dims=(4.7, 4, 2)),
        lambda spec: dv.RegularizerSpec(dims=(4, 4, "3")),
        lambda spec: dv.RegularizerSpec(dims=(4.5, 4, 1)),
        lambda spec: dv.RegularizerSpec(dims=(4, np.float64(3.5), 1)),
    ],
    ids=["max_iters-2.5", "max_iters-True", "dims-4.7", "dims-string", "n_v-4.5", "n_h-3.5"],
)
def test_integer_fields_refuse_bools_and_fractions(build):
    # each was accepted: a fractional max_iters failed later inside the
    # solve, max_iters True ran 1 iteration,
    # and dims (4.7, 4, 2) became (4, 4, 2)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 2))
    with pytest.raises(ValueError, match="must be an integer"):
        build(spec)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda spec: dv.SolverConfig(spec, lam=True), "lam"),
        (lambda spec: dv.SolverConfig(spec, rel_change_tol=True), "rel_change_tol"),
        (lambda spec: dv.SolverConfig(spec, max_iters=10**400), "max_iters"),
        (lambda spec: dv.RegularizerSpec(dims=(10**400, 4, 2)), "each of dims"),
        (lambda spec: dv.ReconstructionProblem(DenseOperator(np.eye(3)), np.ones(3), delta=True),
         "delta"),
        (lambda spec: dv.ReconstructionProblem(DenseOperator(np.eye(3)), np.ones(3), delta="1"),
         "delta"),
    ],
    ids=["lam-True", "rel_change_tol-True", "max_iters-10**400", "dims-10**400", "delta-True",
         "delta-string"],
)
def test_float_and_flag_fields_refuse_other_kinds(build, field):
    # each was accepted or failed deep inside: lam True ran with λ = 1,
    # delta "1" raised a bare TypeError from the range check, and max_iters
    # 10**400 ran without bound
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 2))
    with pytest.raises(ValueError, match=f"^{field} must be"):
        build(spec)


def test_float_and_flag_fields_keep_numpy_scalars():
    spec = dv.RegularizerSpec(dims=(2, 2, 2))
    config = dv.SolverConfig(spec, rel_change_tol=np.float32(0.5), lam=np.int64(2))
    assert (config.rel_change_tol, config.lam) == (0.5, 2.0)
    assert all(type(v) is float for v in (config.rel_change_tol, config.lam))


def test_removed_nonneg_field_is_refused():
    # the nonnegativity clipping is gone, and the seed size, the discrepancy
    # factor and the GCV grid are solver constants, so a caller that still
    # sets one fails at once instead of running without it
    spec = dv.RegularizerSpec(dims=(2, 2, 2))
    for field, value in (("nonneg", 2), ("gk_steps", 2), ("eta", 2), ("lambda_grid", [1.0])):
        with pytest.raises(TypeError, match=field):
            dv.SolverConfig(spec, **{field: value})
    assert [f.name for f in dataclasses.fields(dv.SolverConfig)] == [
        "regularizer", "max_iters", "rel_change_tol", "lam",
    ]
    assert dv.SolverConfig(spec).eta == 1.01


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("field", ["lam", "rel_change_tol"])
def test_config_rejects_non_finite_values(field, bad):
    # an infinite lam used to fail inside the projected least-squares solve
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 2))
    with pytest.raises(ValueError, match="finite"):
        dv.SolverConfig(regularizer=spec, **{field: bad})


def test_history_records_are_well_formed():
    problem = blur_problem((8, 8, 2), 1.0, 3, 0.01, scene_seed=9, noise_seed=5)
    spec = dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(8, 8, 2))
    result = dv.mm_gks_solve(problem, dv.SolverConfig(regularizer=spec, max_iters=20))
    iters = [rec.iteration for rec in result.history]
    assert iters == list(range(1, len(iters) + 1))
    # the dimension grows by at most one, or drops to one past the kept
    # iterates at a restart
    dims = [rec.subspace_dim for rec in result.history]
    restarted = dv.solver._RESTART_ITERATES + 1
    assert all(a <= b <= a + 1 or b == restarted for a, b in zip(dims, dims[1:]))
    assert all(rec.rre is not None for rec in result.history)
    assert all(rec.dp_residual >= 0 for rec in result.history)

    blind = dv.ReconstructionProblem(
        forward=problem.forward,
        data=problem.data,
        noise_cov_diag=problem.noise_cov_diag,
        delta=problem.delta,
    )
    result = dv.mm_gks_solve(blind, dv.SolverConfig(regularizer=spec, max_iters=5))
    assert all(rec.rre is None for rec in result.history)
