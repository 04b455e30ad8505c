"""GCV curve evaluation and regularization-parameter selection."""

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv import paramselect
from dyntv.paramselect import ProjectedPair, select_lambda
from dyntv.solver import _LAMBDA_GRID


def random_pair(rng, d):
    # triangular factors drawn as thin-QR R's of tall Gaussian matrices, the
    # same shape the solver produces
    r_f = np.linalg.qr(rng.standard_normal((d + 4, d)), mode="r")
    r_m = np.linalg.qr(rng.standard_normal((d + 4, d)), mode="r")
    rhs = rng.standard_normal(d)
    return ProjectedPair(r_f=r_f, r_m=r_m, rhs=rhs)


def test_flat_curve_scalar_identity():
    pair = ProjectedPair(r_f=np.eye(1), r_m=np.eye(1), rhs=np.array([1.0]))
    lambdas = _LAMBDA_GRID
    np.testing.assert_allclose(oracles.gcv_curve(pair, lambdas), 1.0, rtol=1e-12)


def test_select_lambda_flat_curve_returns_largest():
    pair = ProjectedPair(r_f=np.eye(1), r_m=np.eye(1), rhs=np.array([1.0]))
    grid = _LAMBDA_GRID
    assert select_lambda(pair, grid) == grid[-1]


def test_curve_matches_dense_formula_diag_pair():
    rng = np.random.default_rng(30)
    pair = ProjectedPair(r_f=np.diag([2.0, 1.0]), r_m=np.eye(2),
                         rhs=rng.standard_normal(2))
    for lam in _LAMBDA_GRID:
        got = oracles.gcv_curve(pair, np.array([lam]))[0]
        want = oracles.gcv_dense(pair.r_f, pair.r_m, pair.rhs, lam)
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_curve_matches_dense_formula_random_pairs():
    rng = np.random.default_rng(31)
    lambdas = _LAMBDA_GRID
    for _ in range(10):
        d = int(rng.integers(2, 12))
        pair = random_pair(rng, d)
        curve = oracles.gcv_curve(pair, lambdas)
        for i in (0, 7, 19, 33, 39):
            want = oracles.gcv_dense(pair.r_f, pair.r_m, pair.rhs, lambdas[i])
            np.testing.assert_allclose(curve[i], want, rtol=1e-10, atol=1e-13)


def test_large_lambda_limit():
    rng = np.random.default_rng(32)
    d = 6
    pair = random_pair(rng, d)
    limit = d * float(pair.rhs @ pair.rhs) / d**2
    got = oracles.gcv_curve(pair, np.array([1e14]))[0]
    np.testing.assert_allclose(got, limit, rtol=1e-6)


def test_curve_nonnegative():
    rng = np.random.default_rng(33)
    lambdas = _LAMBDA_GRID
    for _ in range(20):
        pair = random_pair(rng, int(rng.integers(1, 10)))
        curve = oracles.gcv_curve(pair, lambdas)
        finite = curve[np.isfinite(curve)]
        assert np.all(finite >= 0)


def test_shared_null_space_raises():
    # refused when the pair is factored, before any lambda is tried
    r = np.diag([1.0, 0.0])
    with pytest.raises(dv.SingularSystemError):
        ProjectedPair(r_f=r, r_m=r.copy(), rhs=np.array([1.0, 1.0]))


def test_all_nan_curve_raises_in_selection():
    # R_M = 0 leaves no filtering at all: trace degenerates to 0/0 everywhere
    pair = ProjectedPair(r_f=np.eye(3), r_m=np.zeros((3, 3)),
                         rhs=np.array([1.0, 2.0, 3.0]))
    curve = oracles.gcv_curve(pair, _LAMBDA_GRID)
    assert np.all(np.isnan(curve))
    with pytest.raises(dv.SingularSystemError):
        select_lambda(pair, _LAMBDA_GRID)


def test_grid_that_overflows_on_the_balanced_pair_raises():
    # R_M 2^520 times R_F puts the balanced grid at 2^1040 times the grid, so
    # its top points overflow; GCV used to pick from the finite rest, with
    # an overflow warning, and the solve went nowhere.  At 2^500 the scaled
    # grid is finite and the selection runs
    rng = np.random.default_rng(36)
    r, rhs = np.triu(rng.standard_normal((3, 3))) + 3 * np.eye(3), rng.standard_normal(3)
    for half, shift in ((260, 1040), (250, 1000)):
        pair = ProjectedPair(r_f=np.ldexp(r, -half), r_m=np.ldexp(r, half), rhs=rhs)
        assert pair.shift == shift
        with np.errstate(over="raise"):
            if shift > 1020:
                with pytest.raises(dv.SingularSystemError, match=r"2\^1040; rescale the scene"):
                    select_lambda(pair, _LAMBDA_GRID)
            else:
                assert _LAMBDA_GRID[0] <= select_lambda(pair, _LAMBDA_GRID) <= _LAMBDA_GRID[-1]


def test_pair_balances_a_factor_whose_squared_norm_overflows():
    # ||R_M||² past the float range read inf, so frexp gave exponent 0 and
    # the pair was left unbalanced, with an overflow warning
    rng = np.random.default_rng(36)
    r, rhs = np.triu(rng.standard_normal((3, 3))) + 3 * np.eye(3), rng.standard_normal(3)
    plain = ProjectedPair(r_f=r, r_m=r, rhs=rhs)
    with np.errstate(over="raise"):
        big = ProjectedPair(r_f=r, r_m=np.ldexp(r, 520), rhs=rhs)
    assert big.shift == plain.shift + 1040
    np.testing.assert_array_equal(big.solve(1e-300), plain.solve(np.ldexp(1e-300, 1040)))


def test_select_lambda_refines_within_bracket():
    rng = np.random.default_rng(35)
    grid = _LAMBDA_GRID
    fine = np.logspace(-6, 2, 4000)
    checked = 0
    for _ in range(20):
        pair = random_pair(rng, int(rng.integers(3, 12)))
        curve = oracles.gcv_curve(pair, grid)
        if np.all(np.isnan(curve)):
            continue
        lam = select_lambda(pair, grid)
        idx = int(np.nanargmin(curve))
        if idx in (0, len(grid) - 1):
            continue
        lo, hi = grid[idx - 1], grid[idx + 1]
        assert lo <= lam <= hi
        g_lam = oracles.gcv_curve(pair, np.array([lam]))[0]
        assert g_lam <= np.nanmin(curve) + 1e-12
        # close to the best value on a very fine reference grid
        g_fine = np.nanmin(oracles.gcv_curve(pair, fine))
        assert g_lam <= g_fine * (1 + 1e-3) + 1e-12
        checked += 1
    assert checked >= 5


def test_selected_lambda_orthogonal_invariance():
    rng = np.random.default_rng(36)
    for _ in range(10):
        d = int(rng.integers(2, 10))
        pair = random_pair(rng, d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = ProjectedPair(r_f=q @ pair.r_f, r_m=pair.r_m, rhs=q @ pair.rhs)
        grid = _LAMBDA_GRID
        c1 = oracles.gcv_curve(pair, grid)
        c2 = oracles.gcv_curve(rotated, grid)
        if np.all(np.isnan(c1)):
            continue
        np.testing.assert_allclose(c1, c2, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(select_lambda(pair, grid), select_lambda(rotated, grid),
                                   rtol=1e-6)


def test_gcv_formula_gives_a_scalar_the_value_of_its_grid_entry():
    # the golden-section steps evaluate G at one scalar lambda and the grid
    # sweep at a column of them, through one formula; each value must not
    # depend on which, down to the last bit (d past 128 also crosses a block
    # of numpy's pairwise summation)
    rng = np.random.default_rng(38)
    for d in (1, 2, 7, 8, 9, 25, 64, 130, 200):
        factors = random_pair(rng, d).factors
        lambdas = np.exp(rng.uniform(-16.0, 6.0, 24))
        with np.errstate(divide="ignore", invalid="ignore"):
            column = paramselect._gcv(*factors, lambdas[:, None])
            scalars = np.array([paramselect._gcv(*factors, lam) for lam in lambdas])
        assert column.shape == scalars.shape == (24,)
        np.testing.assert_array_equal(scalars, column)


@pytest.mark.parametrize("k, j", [(1, 0), (3, 2), (-2, 5)])
def test_lambda_choice_and_solve_are_exactly_equivariant(k, j):
    # R_F and rhs scaled by 2^-k and R_M by 2^j move only the balancing
    # exponents: the pair at lam is the scaled pair at lam / 4^(j + k), so the
    # search on the scaled grid picks exactly that and the solves agree bitwise
    rng = np.random.default_rng(40)
    grid = _LAMBDA_GRID
    for _ in range(10):
        pair = random_pair(rng, int(rng.integers(2, 12)))
        scaled = ProjectedPair(
            np.ldexp(pair.r_f, -k), np.ldexp(pair.r_m, j), np.ldexp(pair.rhs, -k)
        )
        lam = select_lambda(pair, grid)
        lam_scaled = select_lambda(scaled, np.ldexp(grid, -2 * (j + k)))
        assert lam_scaled == np.ldexp(lam, -2 * (j + k))
        np.testing.assert_array_equal(scaled.solve(lam_scaled), pair.solve(lam))


def test_gcv_rejects_nonpositive_lambda():
    # select_lambda takes the solver's grid unchecked, so that constant must
    # stay positive and finite, and no caller can change it
    assert np.all((_LAMBDA_GRID > 0) & np.isfinite(_LAMBDA_GRID))
    assert not _LAMBDA_GRID.flags.writeable


def test_pair_requires_square_matching_factors():
    # R_M square and as wide as R_F; R_F no taller than wide, and the data as
    # long as R_F is tall.  A wide R_F is padded square with zero rows.
    with pytest.raises(ValueError):
        ProjectedPair(r_f=np.eye(3), r_m=np.eye(2), rhs=np.ones(3))
    with pytest.raises(ValueError):
        ProjectedPair(r_f=np.ones((4, 3)), r_m=np.eye(3), rhs=np.ones(4))
    with pytest.raises(ValueError):
        ProjectedPair(r_f=np.eye(2, 3), r_m=np.eye(3), rhs=np.ones(3))
    wide = ProjectedPair(r_f=np.eye(2, 3), r_m=np.eye(3), rhs=np.ones(2))
    padded = ProjectedPair(r_f=np.eye(3) - np.diag([0, 0, 1.0]), r_m=np.eye(3),
                           rhs=np.array([1.0, 1.0, 0.0]))
    for got, want in zip(wide.factors, padded.factors):
        np.testing.assert_array_equal(got, want)


def test_default_grid_shape():
    grid = _LAMBDA_GRID
    assert len(grid) == 40
    assert grid[0] == pytest.approx(1e-6)
    assert grid[-1] == pytest.approx(1e2)
    assert np.all(np.diff(grid) > 0)
