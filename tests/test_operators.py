"""Operator classes: shapes, applies, adjoints, Kronecker and mode products."""

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv.operators import (
    BlockDiagOperator,
    DenseOperator,
    IdentityOperator,
    KronOperator,
    SparseOperator,
)
from dyntv.regularization import build_D


def test_identity_apply():
    op = IdentityOperator(4)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(op.apply(x), x)
    np.testing.assert_array_equal(op.apply_adjoint(x), x)


def test_kron_apply_worked_example():
    op = KronOperator(IdentityOperator(2), DenseOperator(oracles.diff_matrix(2)))
    np.testing.assert_array_equal(op.apply(np.array([3.0, 1.0, 5.0, 2.0])), [2.0, 3.0])


def test_blockdiag_apply_worked_example():
    op = BlockDiagOperator([IdentityOperator(2), DenseOperator(2.0 * np.eye(2))])
    np.testing.assert_array_equal(op.apply(np.ones(4)), [1.0, 1.0, 2.0, 2.0])


def test_apply_rejects_wrong_length():
    op = DenseOperator(oracles.diff_matrix(4))
    with pytest.raises(ValueError):
        op.apply(np.ones(5))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.ones(5))


def test_kron_matches_dense_kron():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((5, 2))
        op = KronOperator(DenseOperator(a), DenseOperator(b))
        x = rng.standard_normal(8)
        np.testing.assert_allclose(op.apply(x), np.kron(a, b) @ x, atol=1e-12)
        y = rng.standard_normal(15)
        np.testing.assert_allclose(op.apply_adjoint(y), np.kron(a, b).T @ y, atol=1e-12)


def test_kron3_matches_dense():
    rng = np.random.default_rng(1)
    a, b, c = (rng.standard_normal((3, 2)) for _ in range(3))
    op = KronOperator(DenseOperator(a), KronOperator(DenseOperator(b), DenseOperator(c)))
    x = rng.standard_normal(8)
    np.testing.assert_allclose(op.apply(x), oracles.kron3(a, b, c) @ x, atol=1e-12)


def test_adjoint_consistency_random_compositions():
    # depth <= 3 trees of kron / blockdiag over identity and dense leaves
    rng = np.random.default_rng(7)

    def leaf(rows, cols):
        if rng.integers(2) == 0 and rows == cols:
            return IdentityOperator(rows)
        return DenseOperator(rng.standard_normal((rows, cols)))

    def build(depth):
        if depth == 0:
            return leaf(int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        a = build(depth - 1)
        if rng.integers(2) == 0:
            return KronOperator(a, build(depth - 1))
        b = leaf(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        return BlockDiagOperator([a, b])

    for _ in range(100):
        op = build(int(rng.integers(1, 4)))
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        lhs = float(np.dot(op.apply(x), y))
        rhs = float(np.dot(x, op.apply_adjoint(y)))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_vec_tensor_round_trip():
    rng = np.random.default_rng(2)
    for dims in ((2, 3, 4), (3, 3, 2), (4, 2, 2)):
        t = rng.standard_normal(dims)
        np.testing.assert_array_equal(dv.tensor(dv.vec(t), dims), t)


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
    np.testing.assert_allclose(oracles.mode_product(t, IdentityOperator(3), 1), t, atol=0)


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
        oracles.mode_product(t, IdentityOperator(2), 4)


def spatial_gradient(n_v, n_h):
    """L_s, the spatial gradient of one frame: D of the static spec."""
    return build_D(dv.StaticTVSpec(n_v=n_v, n_h=n_h))


def test_build_diff_rejects_short_axis():
    # a difference along an axis of one sample has no rows; every spec refuses it
    for dims in ((1, 3, 2), (3, 1, 2), (3, 2, 1)):
        with pytest.raises(ValueError):
            dv.RegularizerSpec(method=dv.Method.ISO_3D_TV, dims=dims)
    for n_v, n_h in ((1, 3), (3, 1)):
        with pytest.raises(ValueError):
            dv.StaticTVSpec(n_v=n_v, n_h=n_h)


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
        np.testing.assert_array_equal(spatial_gradient(n_v, n_h).to_dense(),
                                      oracles.ls_matrix(n_v, n_h))


def test_diff_rank_is_full_minus_one():
    # the null space of the spatial differences is the constants
    for n_v, n_h in ((2, 2), (4, 3), (7, 2)):
        dense = spatial_gradient(n_v, n_h).to_dense()
        assert np.linalg.matrix_rank(dense) == n_v * n_h - 1


def test_blockdiag_matches_dense_assembly():
    rng = np.random.default_rng(10)
    blocks = [rng.standard_normal((2, 3)), rng.standard_normal((4, 2))]
    op = BlockDiagOperator([DenseOperator(b) for b in blocks])
    dense = np.zeros((6, 5))
    dense[:2, :3] = blocks[0]
    dense[2:, 3:] = blocks[1]
    x = rng.standard_normal(5)
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
    np.testing.assert_array_equal(op.to_dense(), want)
    assert op.nnz == 7
    rng = np.random.default_rng(51)
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal((6, 3))
    np.testing.assert_allclose(op.apply(x), want @ x, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(op.apply_adjoint(y), want.T @ y, rtol=1e-14, atol=1e-14)
    assert np.all(op.apply(x)[[0, 2, 5]] == 0.0)


def test_sparse_without_entries_is_zero():
    op = SparseOperator(3, 2, [], [], [])
    np.testing.assert_array_equal(op.apply(np.ones(2)), np.zeros(3))
    np.testing.assert_array_equal(op.apply_adjoint(np.ones(3)), np.zeros(2))
    np.testing.assert_array_equal(op.to_dense(), np.zeros((3, 2)))


def test_sparse_rejects_bad_triples():
    with pytest.raises(ValueError):
        SparseOperator(2, 2, [0, 1], [0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SparseOperator(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError):
        SparseOperator(2, 2, [0], [-1], [1.0])
    with pytest.raises(ValueError):
        SparseOperator(2, 2, [0], [0], [np.nan])


def test_to_dense_cap():
    op = KronOperator(IdentityOperator(100), IdentityOperator(100))
    with pytest.raises(ValueError):
        op.to_dense()


def test_apply_two_dimensional_blocks():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3))
    op = DenseOperator(a)
    x = rng.standard_normal((3, 5))
    np.testing.assert_allclose(op.apply(x), a @ x, atol=1e-12)
