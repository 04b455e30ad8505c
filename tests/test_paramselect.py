"""GCV curve evaluation and regularization-parameter selection."""

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv import paramselect
from dyntv.paramselect import ProjectedPair, default_lambda_grid, select_lambda


def random_pair(rng, d):
    # triangular factors drawn as thin-QR R's of tall Gaussian matrices, the
    # same shape the solver produces
    r_f = np.linalg.qr(rng.standard_normal((d + 4, d)), mode="r")
    r_m = np.linalg.qr(rng.standard_normal((d + 4, d)), mode="r")
    rhs = rng.standard_normal(d)
    return ProjectedPair(r_f=r_f, r_m=r_m, rhs=rhs)


def test_flat_curve_scalar_identity():
    pair = ProjectedPair(r_f=np.eye(1), r_m=np.eye(1), rhs=np.array([1.0]))
    lambdas = default_lambda_grid()
    np.testing.assert_allclose(oracles.gcv_curve(pair, lambdas), 1.0, rtol=1e-12)


def test_select_lambda_flat_curve_returns_largest():
    pair = ProjectedPair(r_f=np.eye(1), r_m=np.eye(1), rhs=np.array([1.0]))
    grid = default_lambda_grid()
    assert select_lambda(pair, grid) == grid[-1]


def test_curve_matches_dense_formula_diag_pair():
    rng = np.random.default_rng(30)
    pair = ProjectedPair(r_f=np.diag([2.0, 1.0]), r_m=np.eye(2),
                         rhs=rng.standard_normal(2))
    for lam in default_lambda_grid():
        got = oracles.gcv_curve(pair, np.array([lam]))[0]
        want = oracles.gcv_dense(pair.r_f, pair.r_m, pair.rhs, lam)
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_curve_matches_dense_formula_random_pairs():
    rng = np.random.default_rng(31)
    lambdas = default_lambda_grid()
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
    lambdas = default_lambda_grid()
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
    curve = oracles.gcv_curve(pair, default_lambda_grid())
    assert np.all(np.isnan(curve))
    with pytest.raises(dv.SingularSystemError):
        select_lambda(pair, default_lambda_grid())


@pytest.mark.parametrize(
    "bad", [{"n_points": 0}, {"low": 0.0}, {"low": np.nan}, {"high": np.inf}]
)
def test_default_lambda_grid_validation(bad):
    # a grid is a list of values; the object of n_points, low and high that
    # default_lambda_grid used to take is refused, by it and by SolverConfig
    with pytest.raises(TypeError):
        default_lambda_grid(**bad)
    spec = dv.RegularizerSpec(dims=(2, 2, 2))
    with pytest.raises(ValueError, match="each of lambda_grid must be a number"):
        dv.SolverConfig(spec, lambda_grid=bad)


def test_select_lambda_single_element_grid():
    rng = np.random.default_rng(34)
    pair = random_pair(rng, 4)
    assert select_lambda(pair, np.array([0.37])) == 0.37


def test_select_lambda_refines_within_bracket():
    rng = np.random.default_rng(35)
    grid = default_lambda_grid()
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
        grid = default_lambda_grid()
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
    grid = default_lambda_grid()
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
    # select_lambda takes its grid as SolverConfig, its one owner, checked it
    spec = dv.RegularizerSpec(dims=(2, 2, 2))
    with pytest.raises(ValueError, match="finite positive values"):
        dv.SolverConfig(spec, lambda_grid=[0.0, 1.0])


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
    grid = default_lambda_grid()
    assert len(grid) == 40
    assert grid[0] == pytest.approx(1e-6)
    assert grid[-1] == pytest.approx(1e2)
    assert np.all(np.diff(grid) > 0)
