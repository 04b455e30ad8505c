"""Regularizer operators, functional values, IRLS weights and majorants."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv.regularization import build_D, penalty_sums, regularizer_value, update_weights
from oracles import quadratic_misfit, spec_for, sums_at

METHODS = list(dv.METHOD_NAMES)


def test_build_d_shapes_2x2x2():
    assert build_D(spec_for("AnisoTV", (2, 2, 2))).shape == (12, 8)
    assert build_D(spec_for("TVplusTikhonov", (2, 2, 2))).shape == (12, 8)
    assert build_D(spec_for("Aniso3DTV", (2, 2, 2))).shape == (1, 8)
    assert build_D(spec_for("Iso3DTV", (2, 2, 2))).shape == (24, 8)


def test_build_d_rejects_short_axis():
    with pytest.raises(ValueError):
        dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 1, 2))
    with pytest.raises(ValueError, match="Aniso3DTV"):
        dv.RegularizerSpec(method=dv.Method.ANISO_3D_TV, dims=(2, 2, 1))


def test_unknown_method_lists_all_six():
    with pytest.raises(ValueError) as err:
        dv.Method.from_name("NotAMethod")
    for name in METHODS:
        assert name in str(err.value)


# (8, 3, 2): slices strided by 8 elements, which numpy 2.4's np.negative misreads
@pytest.mark.parametrize("dims", [(3, 4, 2), (4, 3, 3), (5, 2, 3), (8, 3, 2)])
@pytest.mark.parametrize("method", METHODS)
def test_build_d_matches_dense_oracle(method, dims):
    op = build_D(spec_for(method, dims))
    want = oracles.d_matrix(method, dims)
    np.testing.assert_array_equal(oracles.dense(op), want)
    np.testing.assert_array_equal(op.apply_adjoint(np.eye(op.rows)), want.T)


# frames per range: one (budget 1), all (None), and two on (16, 16, 4) for
# every block but GS's at 1600 elements of k = 3 columns
@pytest.mark.parametrize("elems", [1, 1600, None], ids=["one-frame", "some-frames", "whole"])
@pytest.mark.parametrize("dims", [(8, 3, 2), (5, 2, 3), (2, 2, 2), (16, 16, 4)])
@pytest.mark.parametrize("method", METHODS + ["static"])
def test_row_blocks_concatenate_to_apply(method, dims, elems):
    spec = spec_for("AnisoTV", dims[:2] + (1,)) if method == "static" else spec_for(method, dims)
    op = build_D(spec)
    x = np.random.default_rng(18).standard_normal((spec.n, 3))
    firsts, blocks = zip(*op.row_blocks(x, elems))
    assert firsts == tuple(np.cumsum([0] + [len(b) for b in blocks[:-1]]))
    np.testing.assert_array_equal(np.concatenate(blocks), op.apply(x))
    if elems == 1:
        frames = [parts[0].shape[2] for _, _, parts in op.blocks]
        assert len(blocks) == sum(frames)


def test_build_d_maps_constants_to_zero():
    specs = [spec_for(m, (4, 3, 2)) for m in METHODS] + [spec_for("AnisoTV", (3, 5, 1))]
    for spec in specs:
        op = build_D(spec)
        np.testing.assert_array_equal(op.apply(np.full(spec.n, 2.5)), np.zeros(op.rows))


def test_build_d_rejects_wrong_length():
    op = build_D(spec_for("AnisoTV", (3, 3, 2)))
    with pytest.raises(ValueError):
        op.apply(np.ones(17))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.ones(op.rows + 1))


@pytest.mark.parametrize("method", METHODS)
def test_regularizer_value_zero_at_zero(method, monkeypatch):
    # R(0) = 0: every group norm of D 0 is zero, so the sums hold eps² alone
    # and R_eps(0) is the smoothing floor, eps per group (exact at eps = 0.5)
    monkeypatch.setattr(dv.RegularizerSpec, "epsilon", 0.5)
    spec = spec_for(method, (3, 3, 2))
    s, quad = sums_at(spec, np.zeros(18))
    assert quad == 0.0 and np.all(s == 0.25)
    assert regularizer_value((s, quad)) == 0.5 * s.size


def test_anisotv_two_frame_worked_example(monkeypatch):
    # two identical frames of U = [[1,0],[1,0]]: spatial TV 2 per frame, no
    # temporal differences; at eps = 1e-150 each zero difference adds only eps
    monkeypatch.setattr(dv.RegularizerSpec, "epsilon", 1e-150)
    u = np.tile(np.array([1.0, 1.0, 0.0, 0.0]), 2)
    spec = spec_for("AnisoTV", (2, 2, 2))
    assert abs(regularizer_value(sums_at(spec, u)) - 4.0) < 1e-14


def test_gs_two_frame_worked_example(monkeypatch):
    monkeypatch.setattr(dv.RegularizerSpec, "epsilon", 1e-150)
    u = np.tile(np.array([1.0, 1.0, 0.0, 0.0]), 2)
    spec = spec_for("GS", (2, 2, 2))
    assert abs(regularizer_value(sums_at(spec, u)) - 2.0 * np.sqrt(2.0)) < 1e-14


@pytest.mark.parametrize("method", METHODS)
def test_regularizer_value_matches_oracle(method):
    rng = np.random.default_rng(12)
    for dims in ((3, 4, 2), (4, 3, 3)):
        n = dims[0] * dims[1] * dims[2]
        spec = spec_for(method, dims)
        for _ in range(3):
            u = rng.standard_normal(n)
            got = regularizer_value(sums_at(spec, u))
            want = oracles.reg_value(method, dims, 1e-3, u, smoothed=True)
            np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_oracle_groups_of_the_dense_d_give_the_tensor_value(method):
    # the Newton oracle's penalty: the rows of d_matrix grouped by
    # penalty_groups, a second dense route to R_eps
    rng = np.random.default_rng(16)
    dims = (4, 3, 3)
    u = rng.standard_normal(36)
    z = oracles.d_matrix(method, dims) @ u
    group = oracles.penalty_groups(method, dims)
    quad = group < 0
    value = np.sum(np.sqrt(np.bincount(group[~quad], z[~quad] ** 2) + 1e-6))
    value += 0.5 * z[quad] @ z[quad]
    want = oracles.reg_value(method, dims, 1e-3, u, smoothed=True)
    np.testing.assert_allclose(value, want, rtol=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_smoothing_monotonicity(method, monkeypatch):
    rng = np.random.default_rng(13)
    dims = (4, 4, 3)
    u = rng.standard_normal(48)
    exact = oracles.reg_value(method, dims, 0.0, u, smoothed=False)
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        monkeypatch.setattr(dv.RegularizerSpec, "epsilon", eps)
        spec = spec_for(method, dims)
        smoothed = regularizer_value(sums_at(spec, u))
        assert smoothed >= exact
        gaps.append(smoothed - exact)
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("method", [m for m in METHODS if m != "TVplusTikhonov"])
def test_one_homogeneous_scaling_exact(method, monkeypatch):
    rng = np.random.default_rng(14)
    dims = (3, 3, 3)
    u = rng.standard_normal(27)
    spec = spec_for(method, dims)
    value = regularizer_value(sums_at(spec, u))
    # R_4eps(4u) = 4 R_eps(u); a power-of-two scalar keeps it exact in floating point
    monkeypatch.setattr(dv.RegularizerSpec, "epsilon", 4e-3)
    assert regularizer_value(sums_at(spec, 4.0 * u)) == 4.0 * value


def test_tv_plus_tikhonov_mixed_scaling(monkeypatch):
    rng = np.random.default_rng(15)
    dims = (3, 3, 3)
    u = rng.standard_normal(27)
    spec = spec_for("TVplusTikhonov", dims)
    l_t = oracles.diff_matrix(3)
    z_t = oracles.kron3(l_t, np.eye(3), np.eye(3)) @ u
    tik = 0.5 * float(z_t @ z_t)
    tv = regularizer_value(sums_at(spec, u)) - tik
    monkeypatch.setattr(dv.RegularizerSpec, "epsilon", 4e-3)
    got = regularizer_value(sums_at(spec, 4.0 * u))
    np.testing.assert_allclose(got, 4.0 * tv + 16.0 * tik, rtol=1e-12)


def test_weights_at_zero_anisotv():
    spec = spec_for("AnisoTV", (3, 3, 2))
    w = update_weights(spec, sums_at(spec, np.zeros(18)))
    np.testing.assert_allclose(w, 10.0**1.5, rtol=1e-14)


def test_weights_at_zero_tv_plus_tikhonov():
    spec = spec_for("TVplusTikhonov", (3, 3, 2))
    w = update_weights(spec, sums_at(spec, np.zeros(18)))
    n_spatial = 2 * ((3 - 1) * 3 + (3 - 1) * 3)
    np.testing.assert_allclose(w[:n_spatial], 10.0**1.5, rtol=1e-14)
    np.testing.assert_array_equal(w[n_spatial:], 1.0)


def test_iso3dtv_weight_blocks_replicated():
    rng = np.random.default_rng(16)
    dims = (3, 3, 2)
    spec = spec_for("Iso3DTV", dims)
    u = rng.standard_normal(18)
    w = update_weights(spec, sums_at(spec, u))
    block = len(w) // 3
    np.testing.assert_array_equal(w[:block], w[block : 2 * block])
    np.testing.assert_array_equal(w[:block], w[2 * block :])
    # each entry recomputed from the padded difference vectors directly
    d4 = oracles.d_matrix("Iso3DTV", dims)
    z = d4 @ u
    zv, zh, zt = np.split(z, 3)
    want = (zv**2 + zh**2 + zt**2 + 1e-6) ** (-0.25)
    np.testing.assert_allclose(w[:block], want, rtol=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_weights_match_oracle_and_rows(method):
    rng = np.random.default_rng(17)
    for dims in ((3, 4, 2), (4, 3, 3)):
        n = dims[0] * dims[1] * dims[2]
        u = rng.standard_normal(n)
        spec = spec_for(method, dims)
        w = update_weights(spec, sums_at(spec, u))
        assert w.shape == (build_D(spec).rows,)
        assert np.all(w > 0)
        np.testing.assert_allclose(w, oracles.weights_vec(method, dims, 1e-3, u),
                                   rtol=1e-12)


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("smoothed", [False, True], ids=["plain", "smoothed"])
@pytest.mark.parametrize("method", METHODS)
def test_value_and_weights_work_in_place_on_the_group_sums(method, smoothed, monkeypatch):
    # the sums add eps² to the squared group norms s in place; the value
    # sum sqrt(s + eps²) leaves them as they are, since the next weights read
    # them, and the weights (s + eps²)^(-1/4) are formed in place on them.  Both
    # are bitwise those of the out-of-place formulas, the caller's z = D u is
    # left as it was, and neither allocates more than the group sums
    # themselves and the weights.  The plain case runs at eps = 1e-150, whose
    # square is below half an ulp of every s here, so R_eps is bitwise R
    if not smoothed:
        monkeypatch.setattr(dv.RegularizerSpec, "epsilon", 1e-150)
    spec = spec_for(method, (32, 32, 4))
    _, group, n_quad = dv.regularization._penalty(spec.method, spec.dims)
    u = np.random.default_rng(19).standard_normal(spec.n)
    z = build_D(spec).apply(u)
    z_before = z.copy()
    m = z.size - n_quad
    s = z[:m] ** 2
    if group is not None:
        s = np.bincount(group, s)
    eps2 = spec.epsilon**2
    want_value = float(np.sum(np.sqrt(s + (eps2 if smoothed else 0.0))) + 0.5 * (z[m:] @ z[m:]))
    want_w = (s + eps2) ** -0.25
    if group is not None:
        want_w = want_w[group]
    want_w = np.concatenate([want_w, np.ones(n_quad)])

    sums, sums_peak = traced_peak(penalty_sums, spec, z)
    sums_before = sums[0].copy(), sums[1]
    value, value_peak = traced_peak(regularizer_value, sums)
    assert sums[0].tobytes() == sums_before[0].tobytes() and sums[1] == sums_before[1]
    w, w_peak = traced_peak(update_weights, spec, sums)
    assert value == want_value
    assert w.tobytes() == want_w.tobytes()
    assert z.tobytes() == z_before.tobytes()
    slack = 4096  # array headers and views
    assert value_peak <= sums_peak + slack
    assert w_peak <= sums_peak + w.nbytes + slack


@pytest.mark.parametrize("method", METHODS)
def test_majorant_tangency_and_domination(method):
    rng = np.random.default_rng(18)
    dims = (4, 4, 2)
    n = 32
    f_dense = rng.standard_normal((40, n)) / np.sqrt(n)
    data = rng.standard_normal(40)
    misfit, _ = quadratic_misfit(f_dense, data)
    spec = spec_for(method, dims)
    lam = 0.7
    u_k = rng.standard_normal(n)
    j_k = oracles.smoothed_objective(spec, u_k, lam, misfit)
    q_k = oracles.majorant_value(spec, u_k, u_k, lam, misfit)
    np.testing.assert_allclose(q_k, j_k, rtol=1e-10)
    for _ in range(50):
        u = u_k + rng.standard_normal(n) * rng.uniform(0.01, 3.0)
        q = oracles.majorant_value(spec, u, u_k, lam, misfit)
        j = oracles.smoothed_objective(spec, u, lam, misfit)
        assert q >= j - 1e-10 * max(1.0, abs(j))


@pytest.mark.parametrize("method", METHODS)
def test_majorant_gradient_matches_finite_differences(method):
    rng = np.random.default_rng(19)
    dims = (3, 3, 2)
    n = 18
    f_dense = rng.standard_normal((20, n)) / np.sqrt(n)
    data = rng.standard_normal(20)
    misfit, gradient = quadratic_misfit(f_dense, data)
    spec = spec_for(method, dims)
    lam = 0.3
    u_k = rng.standard_normal(n)
    grad = oracles.majorant_gradient(spec, u_k, u_k, lam, gradient)
    h = 1e-6
    fd = np.empty(n)
    for i in range(n):
        up, dn = u_k.copy(), u_k.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (oracles.smoothed_objective(spec, up, lam, misfit)
                 - oracles.smoothed_objective(spec, dn, lam, misfit)) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("method", METHODS)
def test_half_weighted_norm_reproduces_smoothed_value(method):
    # (1/2)||M u_k||^2 + (R_eps(u_k) - (1/2)||M u_k||^2) = R_eps(u_k): the
    # additive constant restores the smoothed functional at the expansion point
    rng = np.random.default_rng(20)
    dims = (3, 4, 2)
    spec = spec_for(method, dims)
    u_k = rng.standard_normal(24)
    d_op = build_D(spec)
    r_eps = regularizer_value(sums_at(spec, u_k))
    w = update_weights(spec, sums_at(spec, u_k))
    m_u = w * d_op.apply(u_k)
    c_tilde = r_eps - 0.5 * float(m_u @ m_u)
    np.testing.assert_allclose(0.5 * float(m_u @ m_u) + c_tilde, r_eps, rtol=1e-12)


def test_static_spec_builds_spatial_operator():
    spec = spec_for("AnisoTV", (3, 4, 1))
    op = build_D(spec)
    assert op.shape == ((3 - 1) * 4 + (4 - 1) * 3, 12)
    want = oracles.ls_matrix(3, 4)
    np.testing.assert_array_equal(oracles.dense(op), want)
    np.testing.assert_array_equal(op.apply_adjoint(np.eye(op.rows)), want.T)


def test_static_spec_value_and_weights():
    rng = np.random.default_rng(21)
    spec = spec_for("AnisoTV", (3, 3, 1))
    u = rng.standard_normal(9)
    z = oracles.ls_matrix(3, 3) @ u
    np.testing.assert_allclose(
        regularizer_value(sums_at(spec, u)), np.sqrt(z**2 + 1e-6).sum(), rtol=1e-12)
    w = update_weights(spec, sums_at(spec, u))
    np.testing.assert_allclose(w, (z**2 + 1e-6) ** (-0.25), rtol=1e-12)


def test_regularizer_value_rejects_wrong_length():
    # the sums that the value and the weights read take z = D u, one entry per row of D
    spec = spec_for("AnisoTV", (3, 3, 2))
    rows = build_D(spec).rows
    for z in (np.zeros(rows - 1), np.zeros(rows + 1), np.zeros((rows, 1)), np.zeros(18)):
        with pytest.raises(ValueError, match="is not D u"):
            penalty_sums(spec, z)


def test_epsilon_is_a_constant_not_a_field():
    # the smoothing constant is fixed, as the discrepancy factor is, so a
    # caller that still passes one fails at once instead of running without it
    with pytest.raises(TypeError, match="epsilon"):
        dv.RegularizerSpec(dims=(3, 3, 2), epsilon=1e-3)
    assert [f.name for f in dataclasses.fields(dv.RegularizerSpec)] == ["dims", "method"]
    assert dv.RegularizerSpec(dims=(3, 3, 1)).epsilon == dv.RegularizerSpec.epsilon == 1e-3
