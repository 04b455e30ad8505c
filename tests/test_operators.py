"""Operators: shapes, applies, adjoints, frame stacks, the sparse matrix and mode products."""

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv.operators import SparseOperator
from dyntv.regularization import build_D
from oracles import DenseOperator


def test_kron_apply_worked_example():
    # a shared frame operator stacks to I_2 (x) A
    op = dv.assemble_dynamic_forward(DenseOperator(oracles.diff_matrix(2)), 2)
    np.testing.assert_array_equal(op.apply(np.array([3.0, 1.0, 5.0, 2.0])), [2.0, 3.0])


def test_blockdiag_apply_worked_example():
    # per-step frame operators stack to their block diagonal
    frames = [DenseOperator(np.eye(2)), DenseOperator(2.0 * np.eye(2))]
    op = dv.assemble_dynamic_forward(frames, 2)
    np.testing.assert_array_equal(op.apply(np.ones(4)), [1.0, 1.0, 2.0, 2.0])


def test_apply_rejects_wrong_length():
    op = DenseOperator(oracles.diff_matrix(4))
    with pytest.raises(ValueError):
        op.apply(np.ones(5))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.ones(5))


def test_operator_refuses_a_negative_dimension_and_a_3d_input():
    with pytest.raises(ValueError, match="dimensions must be nonnegative"):
        SparseOperator(-1, 2, [], [], [])
    op = SparseOperator(3, 2, [], [], [])
    for apply, n in ((op.apply, 2), (op.apply_adjoint, 3)):
        with pytest.raises(ValueError, match="must be a vector or a matrix"):
            apply(np.ones((n, 1, 1)))


def test_kron_matches_dense_kron():
    # a shared rectangular frame stacks to I_{n_t} (x) A
    rng = np.random.default_rng(0)
    for n_t in (2, 3, 5):
        a = rng.standard_normal((3, 4))
        op = dv.assemble_dynamic_forward(DenseOperator(a), n_t)
        want = np.kron(np.eye(n_t), a)
        x = rng.standard_normal(4 * n_t)
        np.testing.assert_allclose(op.apply(x), want @ x, atol=1e-12)
        y = rng.standard_normal(3 * n_t)
        np.testing.assert_allclose(op.apply_adjoint(y), want.T @ y, atol=1e-12)


def test_kron3_matches_dense():
    # the blur stack is I_t (x) A_h (x) A_v; n_v != n_h catches a swapped factor
    rng = np.random.default_rng(1)
    n_v, n_h, n_t = 5, 4, 3
    frame = dv.build_blur_operator(dv.BlurModel(sigma_psf=1.0, bandwidth=2), n_v, n_h)
    op = dv.assemble_dynamic_forward(frame, n_t)
    want = oracles.kron3(
        np.eye(n_t), oracles.blur_matrix_1d(n_h, 1.0, 2), oracles.blur_matrix_1d(n_v, 1.0, 2)
    )
    x = rng.standard_normal((op.cols, 2))
    np.testing.assert_allclose(op.apply(x), want @ x, atol=1e-12)
    np.testing.assert_allclose(op.apply_adjoint(x), want.T @ x, atol=1e-12)


def test_vec_tensor_round_trip():
    rng = np.random.default_rng(2)
    for dims in ((2, 3, 4), (3, 3, 2), (4, 2, 2)):
        t = rng.standard_normal(dims)
        np.testing.assert_array_equal(oracles.tensor(dv.vec(t), dims), t)


def test_vec_is_column_major():
    t = np.arange(8.0).reshape(2, 2, 2, order="F")
    np.testing.assert_array_equal(dv.vec(t), np.arange(8.0))


def test_unfold_fold_round_trip():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 2))
    for mode in (1, 2, 3):
        m = oracles.unfold(t, mode)
        np.testing.assert_array_equal(oracles.fold(m, mode, t.shape), t)


def test_unfold_shapes():
    t = np.zeros((3, 4, 2))
    assert oracles.unfold(t, 1).shape == (3, 8)
    assert oracles.unfold(t, 2).shape == (4, 6)
    assert oracles.unfold(t, 3).shape == (2, 12)


def test_mode_product_identity_is_noop():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 2))
    np.testing.assert_allclose(oracles.mode_product(t, DenseOperator(np.eye(3)), 1), t, atol=0)


def test_mode_product_matches_unfolding_identity():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((3, 4, 2))
    mats = {1: rng.standard_normal((5, 3)), 2: rng.standard_normal((6, 4)),
            3: rng.standard_normal((2, 2))}
    for mode, mat in mats.items():
        out = oracles.mode_product(t, DenseOperator(mat), mode)
        np.testing.assert_allclose(oracles.unfold(out, mode), mat @ oracles.unfold(t, mode), atol=1e-12)


def test_mode_product_all_three_matches_kron():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((3, 3, 2))
    l_v = oracles.diff_matrix(3)
    l_h = oracles.diff_matrix(3)
    l_t = oracles.diff_matrix(2)
    out = oracles.mode_product(t, DenseOperator(l_v), 1)
    out = oracles.mode_product(out, DenseOperator(l_h), 2)
    out = oracles.mode_product(out, DenseOperator(l_t), 3)
    expected = oracles.kron3(l_t, l_h, l_v) @ dv.vec(t)
    np.testing.assert_allclose(dv.vec(out), expected, atol=1e-12)


def test_mode_product_order_swap_commutes():
    rng = np.random.default_rng(8)
    t = rng.standard_normal((4, 3, 2))
    a = DenseOperator(rng.standard_normal((2, 4)))
    b = DenseOperator(rng.standard_normal((5, 3)))
    one_two = oracles.mode_product(oracles.mode_product(t, a, 1), b, 2)
    two_one = oracles.mode_product(oracles.mode_product(t, b, 2), a, 1)
    np.testing.assert_allclose(one_two, two_one, atol=1e-12)


def test_mode_product_rejects_bad_mode():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        oracles.mode_product(t, DenseOperator(np.eye(2)), 4)


def spatial_gradient(n_v, n_h):
    """L_s, the spatial gradient of one frame: D of AnisoTV on a single frame."""
    return build_D(dv.RegularizerSpec(dims=(n_v, n_h, 1)))


def test_build_diff_rejects_short_axis():
    # a difference along a spatial axis of one sample has no rows, so every
    # method refuses it; one frame (n_t = 1) is refused only by a method that
    # keeps no block there, and no frame at all by every method
    for method in dv.Method:
        for dims in ((1, 3, 2), (3, 1, 2), (1, 3, 1), (3, 1, 1), (3, 2, 0)):
            with pytest.raises(ValueError, match="dims must be"):
                dv.RegularizerSpec(method=method, dims=dims)
    with pytest.raises(ValueError, match="Aniso3DTV has no difference block at n_t = 1"):
        dv.RegularizerSpec(method=dv.Method.ANISO_3D_TV, dims=(3, 2, 1))
    for method in set(dv.Method) - {dv.Method.ANISO_3D_TV}:
        assert dv.RegularizerSpec(method=method, dims=(3, 2, 1)).n == 6


def test_build_ls_shape():
    op = spatial_gradient(2, 2)
    assert op.shape == (4, 4)
    op = spatial_gradient(3, 4)
    assert op.shape == ((3 - 1) * 4 + (4 - 1) * 3, 12)


def test_build_ls_worked_example():
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    out = spatial_gradient(2, 2).apply(u.ravel(order="F"))
    assert abs(np.abs(out).sum() - 2.0) < 1e-14


def test_build_ls_constant_nullspace():
    op = spatial_gradient(3, 5)
    np.testing.assert_array_equal(op.apply(np.ones(15)), np.zeros(op.rows))


def test_build_ls_matches_oracle():
    for n_v, n_h in ((2, 2), (3, 4), (4, 3)):
        np.testing.assert_array_equal(oracles.dense(spatial_gradient(n_v, n_h)),
                                      oracles.ls_matrix(n_v, n_h))


def test_diff_rank_is_full_minus_one():
    # the null space of the spatial differences is the constants
    for n_v, n_h in ((2, 2), (4, 3), (7, 2)):
        dense = oracles.dense(spatial_gradient(n_v, n_h))
        assert np.linalg.matrix_rank(dense) == n_v * n_h - 1


def test_blockdiag_matches_dense_assembly():
    # per-step frames with unequal row counts stack to their block diagonal
    rng = np.random.default_rng(10)
    blocks = [rng.standard_normal((2, 3)), rng.standard_normal((4, 3))]
    op = dv.assemble_dynamic_forward([DenseOperator(b) for b in blocks], 2)
    dense = np.zeros((6, 6))
    dense[:2, :3] = blocks[0]
    dense[2:, 3:] = blocks[1]
    x = rng.standard_normal(6)
    np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-12)
    y = rng.standard_normal(6)
    np.testing.assert_allclose(op.apply_adjoint(y), dense.T @ y, atol=1e-12)


def test_sparse_matches_dense_with_empty_and_repeated_rows():
    # rows 0, 2 and 5 are empty (first, middle, last); (3, 1) is listed twice
    rows = [4, 1, 3, 3, 1, 4, 3]
    cols = [0, 2, 1, 1, 0, 3, 3]
    vals = [1.5, -2.0, 0.25, 0.5, 3.0, -1.0, 4.0]
    op = SparseOperator(6, 4, rows, cols, vals)
    want = np.zeros((6, 4))
    np.add.at(want, (rows, cols), vals)
    np.testing.assert_array_equal(oracles.dense(op), want)
    assert oracles.nnz(op) == 7
    rng = np.random.default_rng(51)
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal((6, 3))
    np.testing.assert_allclose(op.apply(x), want @ x, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(op.apply_adjoint(y), want.T @ y, rtol=1e-14, atol=1e-14)
    assert np.all(op.apply(x)[[0, 2, 5]] == 0.0)


@pytest.mark.parametrize("k", [1, 5])
def test_sparse_apply_equals_the_fancy_index_gather_exactly(k):
    # the gather by np.take reads the same entries as x[indices, c] in the
    # same order, so the product is bitwise equal, for a vector and a block
    model = dv.RadonModel(image_side=16, n_time_steps=4, n_angles_per_step=5)
    op = dv.build_radon_operator(model, 2)
    x = np.random.default_rng(52).standard_normal((op.cols, k))
    if k == 1:
        x = x[:, 0]
    got = op.apply(x)
    assert got.shape == (op.rows, k)[: x.ndim]
    np.testing.assert_array_equal(got, oracles.sparse_apply_by_fancy_index(op, x))


def test_sparse_without_entries_is_zero():
    op = SparseOperator(3, 2, [], [], [])
    np.testing.assert_array_equal(op.apply(np.ones(2)), np.zeros(3))
    np.testing.assert_array_equal(op.apply_adjoint(np.ones(3)), np.zeros(2))
    np.testing.assert_array_equal(oracles.dense(op), np.zeros((3, 2)))


def test_sparse_rejects_bad_triples():
    with pytest.raises(ValueError):
        SparseOperator(2, 2, [0, 1], [0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SparseOperator(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError):
        SparseOperator(2, 2, [0], [-1], [1.0])
    with pytest.raises(ValueError):
        SparseOperator(2, 2, [0], [0], [np.nan])
    # more columns than int32 indices can name; rows is 1, so nothing large is made
    with pytest.raises(ValueError, match="int32"):
        SparseOperator(1, 2**31, [], [], [])


def test_apply_two_dimensional_blocks():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3))
    op = DenseOperator(a)
    x = rng.standard_normal((3, 5))
    np.testing.assert_allclose(op.apply(x), a @ x, atol=1e-12)
