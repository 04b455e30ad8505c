"""Regularizer operators, functional values, IRLS weights and majorants."""

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv.regularization import build_D, regularizer_value, update_weights

METHODS = list(dv.METHOD_NAMES)


def spec_for(method, dims, eps=1e-3):
    return dv.RegularizerSpec(method=dv.Method(method), dims=dims, epsilon=eps)


def test_build_d_shapes_2x2x2():
    assert build_D(spec_for("AnisoTV", (2, 2, 2))).shape == (12, 8)
    assert build_D(spec_for("TVplusTikhonov", (2, 2, 2))).shape == (12, 8)
    assert build_D(spec_for("Aniso3DTV", (2, 2, 2))).shape == (1, 8)
    assert build_D(spec_for("Iso3DTV", (2, 2, 2))).shape == (24, 8)


def test_build_d_rejects_short_axis():
    with pytest.raises(ValueError):
        dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(2, 2, 1))


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
    np.testing.assert_array_equal(op.to_dense(), want)
    np.testing.assert_array_equal(op.apply_adjoint(np.eye(op.rows)), want.T)


# frames per range: one (budget 1), all (None), and two on (16, 16, 4) for
# every block but GS's at 1600 elements of k = 3 columns
@pytest.mark.parametrize("elems", [1, 1600, None], ids=["one-frame", "some-frames", "whole"])
@pytest.mark.parametrize("dims", [(8, 3, 2), (5, 2, 3), (2, 2, 2), (16, 16, 4)])
@pytest.mark.parametrize("method", METHODS + ["static"])
def test_row_blocks_concatenate_to_apply(method, dims, elems):
    spec = dv.StaticTVSpec(*dims[:2]) if method == "static" else spec_for(method, dims)
    op = build_D(spec)
    x = np.random.default_rng(18).standard_normal((spec.n, 3))
    firsts, blocks = zip(*op.row_blocks(x, elems))
    assert firsts == tuple(np.cumsum([0] + [len(b) for b in blocks[:-1]]))
    np.testing.assert_array_equal(np.concatenate(blocks), op.apply(x))
    if elems == 1:
        frames = [parts[0].shape[2] for _, _, parts in op.blocks]
        assert len(blocks) == sum(frames)


def test_build_d_maps_constants_to_zero():
    specs = [spec_for(m, (4, 3, 2)) for m in METHODS] + [dv.StaticTVSpec(n_v=3, n_h=5)]
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
def test_regularizer_value_zero_at_zero(method):
    spec = spec_for(method, (3, 3, 2))
    assert regularizer_value(spec, np.zeros(18)) == 0.0


def test_anisotv_two_frame_worked_example():
    # two identical frames of U = [[1,0],[1,0]]: spatial TV 2 per frame, no
    # temporal differences
    u = np.tile(np.array([1.0, 1.0, 0.0, 0.0]), 2)
    spec = spec_for("AnisoTV", (2, 2, 2))
    assert abs(regularizer_value(spec, u) - 4.0) < 1e-14


def test_gs_two_frame_worked_example():
    u = np.tile(np.array([1.0, 1.0, 0.0, 0.0]), 2)
    spec = spec_for("GS", (2, 2, 2))
    assert abs(regularizer_value(spec, u) - 2.0 * np.sqrt(2.0)) < 1e-14


@pytest.mark.parametrize("method", METHODS)
def test_regularizer_value_matches_oracle(method):
    rng = np.random.default_rng(12)
    for dims in ((3, 4, 2), (4, 3, 3)):
        n = dims[0] * dims[1] * dims[2]
        for _ in range(3):
            u = rng.standard_normal(n)
            for smoothed in (False, True):
                got = regularizer_value(spec_for(method, dims), u, smoothed=smoothed)
                want = oracles.reg_value(method, dims, 1e-3, u, smoothed)
                np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_smoothing_monotonicity(method):
    rng = np.random.default_rng(13)
    dims = (4, 4, 3)
    u = rng.standard_normal(48)
    exact = regularizer_value(spec_for(method, dims), u)
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        smoothed = regularizer_value(spec_for(method, dims, eps), u, smoothed=True)
        assert smoothed >= exact
        gaps.append(smoothed - exact)
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("method", [m for m in METHODS if m != "TVplusTikhonov"])
def test_one_homogeneous_scaling_exact(method):
    rng = np.random.default_rng(14)
    dims = (3, 3, 3)
    u = rng.standard_normal(27)
    spec = spec_for(method, dims)
    # power-of-two scalar keeps the identity exact in floating point
    assert regularizer_value(spec, 4.0 * u) == 4.0 * regularizer_value(spec, u)


def test_tv_plus_tikhonov_mixed_scaling():
    rng = np.random.default_rng(15)
    dims = (3, 3, 3)
    u = rng.standard_normal(27)
    spec = spec_for("TVplusTikhonov", dims)
    l_t = oracles.diff_matrix(3)
    z_t = oracles.kron3(l_t, np.eye(3), np.eye(3)) @ u
    tik = 0.5 * float(z_t @ z_t)
    tv = regularizer_value(spec, u) - tik
    got = regularizer_value(spec, 4.0 * u)
    np.testing.assert_allclose(got, 4.0 * tv + 16.0 * tik, rtol=1e-12)


def test_weights_at_zero_anisotv():
    spec = spec_for("AnisoTV", (3, 3, 2))
    w = update_weights(spec, np.zeros(18))
    np.testing.assert_allclose(w, 10.0**1.5, rtol=1e-14)


def test_weights_at_zero_tv_plus_tikhonov():
    spec = spec_for("TVplusTikhonov", (3, 3, 2))
    w = update_weights(spec, np.zeros(18))
    n_spatial = 2 * ((3 - 1) * 3 + (3 - 1) * 3)
    np.testing.assert_allclose(w[:n_spatial], 10.0**1.5, rtol=1e-14)
    np.testing.assert_array_equal(w[n_spatial:], 1.0)


def test_iso3dtv_weight_blocks_replicated():
    rng = np.random.default_rng(16)
    dims = (3, 3, 2)
    spec = spec_for("Iso3DTV", dims)
    u = rng.standard_normal(18)
    w = update_weights(spec, u)
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
        w = update_weights(spec, u)
        assert w.shape == (build_D(spec).rows,)
        assert np.all(w > 0)
        np.testing.assert_allclose(w, oracles.weights_vec(method, dims, 1e-3, u),
                                   rtol=1e-12)


def quadratic_misfit(f_dense, data):
    def misfit(u):
        r = f_dense @ u - data
        return 0.5 * float(r @ r)

    def gradient(u):
        return f_dense.T @ (f_dense @ u - data)

    return misfit, gradient


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
    w = update_weights(spec, u_k)
    m_u = w * d_op.apply(u_k)
    r_eps = regularizer_value(spec, u_k, smoothed=True)
    c_tilde = r_eps - 0.5 * float(m_u @ m_u)
    np.testing.assert_allclose(0.5 * float(m_u @ m_u) + c_tilde, r_eps, rtol=1e-12)


def test_static_spec_builds_spatial_operator():
    spec = dv.StaticTVSpec(n_v=3, n_h=4)
    op = build_D(spec)
    assert op.shape == ((3 - 1) * 4 + (4 - 1) * 3, 12)
    want = oracles.ls_matrix(3, 4)
    np.testing.assert_array_equal(op.to_dense(), want)
    np.testing.assert_array_equal(op.apply_adjoint(np.eye(op.rows)), want.T)


def test_static_spec_value_and_weights():
    rng = np.random.default_rng(21)
    spec = dv.StaticTVSpec(n_v=3, n_h=3)
    u = rng.standard_normal(9)
    z = oracles.ls_matrix(3, 3) @ u
    np.testing.assert_allclose(regularizer_value(spec, u), np.abs(z).sum(), rtol=1e-12)
    w = update_weights(spec, u)
    np.testing.assert_allclose(w, (z**2 + 1e-6) ** (-0.25), rtol=1e-12)


def test_regularizer_value_rejects_wrong_length():
    spec = spec_for("AnisoTV", (3, 3, 2))
    with pytest.raises(ValueError):
        regularizer_value(spec, np.zeros(17))


@pytest.mark.parametrize("eps", [np.inf, np.nan])
def test_epsilon_must_be_finite(eps):
    # an infinite epsilon used to pass here and stop the solve with "weights
    # must be strictly positive": its weights (eps²)^(-1/4) are all zero
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(3, 3, 2), epsilon=eps)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        dv.StaticTVSpec(n_v=3, n_h=3, epsilon=eps)


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        dv.RegularizerSpec(method=dv.Method.ANISO_TV, dims=(3, 3, 2), epsilon=0.0)
