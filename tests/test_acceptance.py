"""End-to-end acceptance checks, one numbered verdict line per scenario.

Run with `pytest -s tests/test_acceptance.py` to see the scoreboard:
majorization conditions, dense-solve equivalence at full subspace dimension,
monotone descent, the two scaled reconstruction studies (moving-scene
deblurring and limited-angle tomography), GCV agreement and selection range,
the operator-algebra identities, and the distance of the restarted solver's
iterate to the minimizer of J_eps, found by dense Newton.
"""

import time

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv.paramselect import ProjectedPair
from dyntv.regularization import build_D, regularizer_value
from dyntv.solver import refresh_penalty, seed_subspace, solve_projected
from oracles import DenseOperator, quadratic_misfit, spec_for

METHODS = list(dv.METHOD_NAMES)


def verdict(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def whitened_problem(forward, truth, sigma, seed):
    """1%-style synthetic problem with the white-noise model of its own noise."""
    clean = forward.apply(truth)
    data, _ = dv.add_noise(clean, dv.NoiseSpec(sigma=sigma, seed=seed))
    gamma, delta = dv.white_noise_model(data - clean)
    problem = dv.ReconstructionProblem(
        forward=forward, data=data, noise_cov_diag=gamma, delta=delta, truth=truth,
    )
    return problem, data, clean, gamma


# --- scaled moving-scene deblurring (shared by scenarios 4 and 6) --------------

EX1_DIMS = (32, 32, 4)


def busy_scene(seed, n_obj=14):
    """Mixed disks and rectangles drifting inside a 32x32x4 frame stack."""
    n_v, n_h, n_t = EX1_DIMS
    rng = np.random.default_rng(seed)
    objs = []
    for i in range(n_obj):
        r = float(rng.uniform(1.5, 5.0))
        c0 = np.array([rng.uniform(r + 1, n_v - r - 2), rng.uniform(r + 1, n_h - r - 2)])
        vel = rng.uniform(-1.2, 1.2, size=2)
        c1 = c0 + vel * (n_t - 1)
        if not (r < c1[0] < n_v - r - 1 and r < c1[1] < n_h - r - 1):
            vel = -vel
        shape = "disk" if i % 2 == 0 else "rectangle"
        objs.append(dv.SceneObject(
            shape=shape, intensity=float(rng.uniform(0.5, 2.0)),
            centers=dv.linear_trajectory(tuple(c0), tuple(vel), n_t),
            radii=(r,) * n_t,
        ))
    return dv.SceneSpec(n_v=n_v, n_h=n_h, n_t=n_t, objects=tuple(objs))


@pytest.fixture(scope="module")
def deblur_example():
    """All six reconstructions of one blurred moving scene, plus the lam -> 0
    projected least-squares comparator on the same data."""
    n_v, n_h, n_t = EX1_DIMS
    blur = dv.build_blur_operator(dv.BlurModel(sigma_psf=2.0, bandwidth=6), n_v, n_h)
    forward = dv.assemble_dynamic_forward(blur, n_t)
    truth = dv.vec(dv.render_scene(busy_scene(seed=26)))
    problem, data, _, gamma = whitened_problem(forward, truth, 0.01, seed=11)

    runs, seconds = {}, {}
    for name in METHODS:
        config = dv.SolverConfig(regularizer=spec_for(name, EX1_DIMS))
        t0 = time.monotonic()
        runs[name] = dv.mm_gks_solve(problem, config)
        seconds[name] = time.monotonic() - t0

    # comparator: same data, discrepancy stop disabled, vanishing penalty
    ls_problem = dv.ReconstructionProblem(
        forward=forward, data=data, noise_cov_diag=gamma, delta=0.0, truth=truth,
    )
    ls_config = dv.SolverConfig(
        regularizer=spec_for("AnisoTV", EX1_DIMS),
        lam=1e-12, max_iters=150, rel_change_tol=0.0,
    )
    ls_run = dv.mm_gks_solve(ls_problem, ls_config)
    return {
        "truth": truth,
        "runs": runs,
        "seconds": seconds,
        "ls_rre": dv.rre(ls_run.u, truth),
    }


# --- scaled limited-angle study (scenario 5) -----------------------------------


@pytest.fixture(scope="module")
def limited_angle():
    """Sparse per-step Radon views of six moving disks, 1% noise."""
    dims = (32, 32, 8)
    model = dv.RadonModel(
        image_side=32, n_time_steps=8, n_angles_per_step=4, angle_stride_deg=45.0,
    )
    step_ops = [dv.build_radon_operator(model, t) for t in range(1, 9)]
    forward = dv.assemble_dynamic_forward(step_ops, 8)
    truth = dv.vec(dv.render_scene(
        dv.moving_disks_scene(32, 32, 8, n_objects=6, seed=7)
    ))
    problem, data, clean, _ = whitened_problem(forward, truth, 0.01, seed=13)
    return {
        "dims": dims,
        "step_ops": step_ops,
        "problem": problem,
        "data": data,
        "clean": clean,
        "truth": truth,
    }


# --- 1: majorization conditions -------------------------------------------------


def test_majorant_conditions_hold_across_methods():
    dims = (8, 8, 3)
    n = 8 * 8 * 3
    lam = 0.7
    h = 1e-6
    t0 = time.monotonic()
    worst_tan, worst_dom, worst_grad = 0.0, 0.0, 0.0
    for p in range(5):
        rng = np.random.default_rng(100 + p)
        f_dense = rng.standard_normal((n + 8, n)) / np.sqrt(n)
        data = rng.standard_normal(n + 8)
        misfit, gradient = quadratic_misfit(f_dense, data)
        u_k = rng.standard_normal(n)
        for name in METHODS:
            spec = spec_for(name, dims)
            j_k = oracles.smoothed_objective(spec, u_k, lam, misfit)
            q_k = oracles.majorant_value(spec, u_k, u_k, lam, misfit)
            worst_tan = max(worst_tan, abs(q_k - j_k) / max(1.0, abs(j_k)))
            for _ in range(100):
                u = u_k + rng.standard_normal(n) * rng.uniform(0.01, 3.0)
                q = oracles.majorant_value(spec, u, u_k, lam, misfit)
                j = oracles.smoothed_objective(spec, u, lam, misfit)
                worst_dom = max(worst_dom, (j - q) / max(1.0, abs(j)))
            grad = oracles.majorant_gradient(spec, u_k, u_k, lam, gradient)
            fd = np.empty(n)
            for i in range(n):
                up, dn = u_k.copy(), u_k.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (oracles.smoothed_objective(spec, up, lam, misfit)
                         - oracles.smoothed_objective(spec, dn, lam, misfit)) / (2 * h)
            worst_grad = max(
                worst_grad, np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            )
    elapsed = time.monotonic() - t0
    ok = (worst_tan <= 1e-10 and worst_dom <= 1e-10
          and worst_grad <= 1e-5 and elapsed < 30.0)
    verdict(
        1, ok,
        "tangent majorants on 5 random problems x 6 methods: "
        f"tangency {worst_tan:.1e} (<=1e-10), domination slack {worst_dom:.1e} "
        f"(<=1e-10), gradient-vs-FD {worst_grad:.1e} (<=1e-5), {elapsed:.1f}s (<30s)",
    )


# --- 2: full-subspace solves match the dense weighted normal equations ----------


def test_full_subspace_matches_dense_weighted_solve(monkeypatch):
    dims = (6, 6, 2)
    n = 72
    monkeypatch.setattr(dv.solver, "_MAX_BASIS_COLS", n)  # grow to the full space
    lam, eps = 0.05, dv.RegularizerSpec.epsilon
    rng = np.random.default_rng(7)
    f_dense = rng.standard_normal((80, n)) / np.sqrt(n)
    forward = DenseOperator(f_dense)
    truth = dv.vec(dv.render_scene(dv.moving_disks_scene(6, 6, 2, n_objects=2, seed=1)))
    data, delta = dv.add_noise(forward.apply(truth), dv.NoiseSpec(sigma=0.01, seed=5))
    problem = dv.ReconstructionProblem(forward=forward, data=data, delta=delta)

    worst, dims_reached = 0.0, []
    for name in METHODS:
        spec = spec_for(name, dims)
        d_op = build_D(spec)
        state, _ = seed_subspace(problem, 5)
        u_prev = np.zeros(n)
        for _ in range(200):
            weights, pair = refresh_penalty(state, spec, oracles.sums_at(spec, u_prev))
            y = solve_projected(pair, lam)
            u_prev = state.basis @ y
            if state.dim >= n:
                break
            oracles.expand_at_solve(state, problem, d_op, weights, lam, y)
        # one more sweep at full dimension, then compare against the dense
        # solve of the same weighted system (weights frozen at u_prev)
        _, pair = refresh_penalty(state, spec, oracles.sums_at(spec, u_prev))
        u_gks = state.basis @ solve_projected(pair, lam)
        w = oracles.weights_vec(name, dims, eps, u_prev)
        u_dense = oracles.dense_penalized_solve(
            f_dense, data, np.ones(forward.rows), oracles.d_matrix(name, dims), w, lam,
        )
        worst = max(worst, np.linalg.norm(u_gks - u_dense) / np.linalg.norm(u_dense))
        dims_reached.append(state.dim)
    ok = all(d == n for d in dims_reached) and worst <= 1e-8
    verdict(
        2, ok,
        f"subspace grown to {min(dims_reached)}/{n} for all 6 methods, "
        f"worst deviation from dense solve {worst:.1e} (<=1e-8)",
    )


# --- 3: fixed-lambda descent -----------------------------------------------------


def test_objective_descends_under_fixed_lambda():
    dims = (12, 12, 3)
    blur = dv.build_blur_operator(dv.BlurModel(sigma_psf=1.2, bandwidth=4), 12, 12)
    forward = dv.assemble_dynamic_forward(blur, 3)
    truth = dv.vec(dv.render_scene(
        dv.moving_disks_scene(12, 12, 3, n_objects=3, seed=2)
    ))
    _, data, _, gamma = whitened_problem(forward, truth, 0.01, seed=4)
    problem = dv.ReconstructionProblem(
        forward=forward, data=data, noise_cov_diag=gamma, delta=0.0, truth=truth,
    )
    worst_rise, restarts = -np.inf, []
    for name in METHODS:
        config = dv.SolverConfig(
            regularizer=spec_for(name, dims), lam=0.5, max_iters=30, rel_change_tol=0.0,
        )
        result = dv.mm_gks_solve(problem, config)
        objectives = np.array([rec.objective for rec in result.history])
        assert objectives.size == 30
        worst_rise = max(worst_rise, float(np.diff(objectives).max()))
        # the 5 seed columns grow past the 30-column cap, so the basis restarts
        sub_dims = np.array([rec.subspace_dim for rec in result.history])
        restarts.append(int(np.sum(np.diff(sub_dims) < 0)))
    ok = worst_rise <= 1e-12 and min(restarts) >= 1
    verdict(
        3, ok,
        "objective non-increasing over 30 adaptive-subspace iterations for all 6 "
        f"methods, {min(restarts)}+ restart(s) each, worst increase {worst_rise:.1e} (<=1e-12)",
    )


# --- 4: moving-scene deblurring study -------------------------------------------


def test_moving_scene_deblurring_meets_dp_and_beats_least_squares(deblur_example):
    runs = deblur_example["runs"]
    truth = deblur_example["truth"]
    ls_rre = deblur_example["ls_rre"]
    dp_ok = all(runs[name].stop_reason == "discrepancy" for name in ("AnisoTV", "GS"))
    dp_iters = {name: runs[name].iterations for name in ("AnisoTV", "GS")}
    ratios = {name: dv.rre(runs[name].u, truth) / ls_rre for name in METHODS}
    slowest = max(deblur_example["seconds"].values())
    ok = dp_ok and max(ratios.values()) < 0.9 and slowest < 120.0
    verdict(
        4, ok,
        f"32x32x4 deblurring: discrepancy stop for AnisoTV/GS at {dp_iters} "
        f"(within 150), RRE/least-squares ratios "
        f"{min(ratios.values()):.3f}..{max(ratios.values()):.3f} (<0.9), "
        f"slowest method {slowest:.1f}s (<120s)",
    )


# --- 5: temporal coupling vs per-frame baseline ----------------------------------


def test_temporal_coupling_beats_per_frame_baseline(limited_angle):
    dims = limited_angle["dims"]
    truth = limited_angle["truth"]
    lam = 30.0

    dyn_config = dv.SolverConfig(regularizer=spec_for("AnisoTV", dims), lam=lam)
    rre_dyn = dv.rre(dv.mm_gks_solve(limited_angle["problem"], dyn_config).u, truth)

    frames = []
    row = 0
    static_spec = dv.RegularizerSpec(dims=(32, 32, 1))
    for op in limited_angle["step_ops"]:
        m_t = op.rows
        sl = slice(row, row + m_t)
        row += m_t
        gamma_t, delta_t = dv.white_noise_model(
            limited_angle["data"][sl] - limited_angle["clean"][sl]
        )
        frame_problem = dv.ReconstructionProblem(
            forward=op, data=limited_angle["data"][sl], noise_cov_diag=gamma_t, delta=delta_t,
        )
        frame_config = dv.SolverConfig(regularizer=static_spec, lam=lam)
        frames.append(dv.mm_gks_solve(frame_problem, frame_config).u)
    rre_static = dv.rre(np.concatenate(frames), truth)

    ok = rre_dyn < 0.95 * rre_static
    verdict(
        5, ok,
        f"32x32x8 limited-angle tomography: coupled RRE {rre_dyn:.4f} vs "
        f"per-frame RRE {rre_static:.4f} (need < 0.95x = {0.95 * rre_static:.4f})",
    )


# --- 6: GCV against the dense formula, and its selection range -------------------


def test_gcv_matches_dense_formula_and_selects_moderate_lambda(deblur_example):
    rng = np.random.default_rng(60)
    probe = dv.solver._LAMBDA_GRID[[0, 9, 19, 29, 39]]
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 21))
        r_f = np.linalg.qr(rng.standard_normal((d + 4, d)), mode="r")
        r_m = np.linalg.qr(rng.standard_normal((d + 4, d)), mode="r")
        pair = ProjectedPair(r_f=r_f, r_m=r_m, rhs=rng.standard_normal(d))
        curve = oracles.gcv_curve(pair, probe)
        for got, lam in zip(curve, probe):
            ref = oracles.gcv_dense(pair.r_f, pair.r_m, pair.rhs, lam)
            worst = max(worst, abs(got - ref) / abs(ref))

    lam_final = {
        name: deblur_example["runs"][name].history[-1].lam for name in ("AnisoTV", "GS")
    }
    in_window = all(1e-3 <= lam <= 10.0 for lam in lam_final.values())
    # the picks made while each golden-section step still evaluated G as a
    # one-element grid; the grid sweep and the steps now share one formula,
    # which must not move them
    earlier = {"AnisoTV": 0.45469647160698695, "GS": 0.2979765480132044}
    same_pick = all(abs(lam_final[k] - v) <= 1e-9 * v for k, v in earlier.items())
    ok = worst <= 1e-10 and in_window and same_pick
    verdict(
        6, ok,
        f"GCV vs dense formula on 50 random pairs: {worst:.1e} (<=1e-10); "
        "selected lambda on the deblurring study "
        + ", ".join(f"{k}={v:.3f}" for k, v in lam_final.items())
        + f" (within [1e-3, 10]; {'equal to' if same_pick else 'moved from'} "
        "the earlier picks)",
    )


# --- 8: operator algebra ----------------------------------------------------------


def test_operator_algebra_identities():
    rng = np.random.default_rng(11)

    def dense_frame(cols):
        return DenseOperator(rng.standard_normal((int(rng.integers(2, 6)), cols)))

    # frame stacks of random dense frames, shared or per step (with unequal
    # row counts), then the blur stack and the ray-transform stack
    stacks = []
    for _ in range(60):
        n_t, cols = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        shared = rng.integers(2) == 0
        frames = dense_frame(cols) if shared else [dense_frame(cols) for _ in range(n_t)]
        stacks.append(dv.assemble_dynamic_forward(frames, n_t))
    n_v, n_h, n_t = 5, 4, 3
    blur = dv.build_blur_operator(dv.BlurModel(sigma_psf=1.0, bandwidth=2), n_v, n_h)
    blur = dv.assemble_dynamic_forward(blur, n_t)
    model = dv.RadonModel(image_side=8, n_time_steps=n_t, n_angles_per_step=2)
    radon = dv.assemble_dynamic_forward(
        [dv.build_radon_operator(model, t) for t in range(1, n_t + 1)], n_t
    )
    stacks += [blur] * 10 + [radon] * 10

    worst_adj = 0.0
    for op in stacks:
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        lhs = float(np.dot(op.apply(x), y))
        rhs = float(np.dot(x, op.apply_adjoint(y)))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

    kron = oracles.kron3(
        np.eye(n_t), oracles.blur_matrix_1d(n_h, 1.0, 2), oracles.blur_matrix_1d(n_v, 1.0, 2)
    )
    x = rng.standard_normal(blur.cols)
    worst_kron = max(np.abs(blur.apply(x) - kron @ x).max(),
                     np.abs(blur.apply_adjoint(x) - kron.T @ x).max())

    t = rng.standard_normal((3, 4, 3))
    out = oracles.mode_product(t, DenseOperator(oracles.diff_matrix(3)), 1)
    out = oracles.mode_product(out, DenseOperator(oracles.diff_matrix(4)), 2)
    out = oracles.mode_product(out, DenseOperator(oracles.diff_matrix(3)), 3)
    mode_ref = oracles.kron3(
        oracles.diff_matrix(3), oracles.diff_matrix(4), oracles.diff_matrix(3)
    ) @ dv.vec(t)
    worst_mode = np.abs(dv.vec(out) - mode_ref).max()

    dims = (3, 4, 3)
    u = rng.standard_normal(36)
    worst_d, worst_reg = 0.0, 0.0
    for name in METHODS:
        spec = spec_for(name, dims)
        d_dense = oracles.dense(build_D(spec))
        worst_d = max(worst_d, np.abs(d_dense - oracles.d_matrix(name, dims)).max())
        got_r = regularizer_value(oracles.sums_at(spec, u))
        ref_r = oracles.reg_value(name, dims, 1e-3, u, smoothed=True)
        worst_reg = max(worst_reg, abs(got_r - ref_r) / max(1.0, abs(ref_r)))

    ok = (worst_adj <= 1e-10 and worst_kron <= 1e-12 and worst_mode <= 1e-12
          and worst_d <= 1e-12 and worst_reg <= 1e-12)
    verdict(
        8, ok,
        f"operator algebra: adjoint pairing {worst_adj:.1e} (<=1e-10), "
        f"blur stack vs I_t (x) A_h (x) A_v {worst_kron:.1e}, "
        f"mode-product chain {worst_mode:.1e}, "
        f"difference stencil {worst_d:.1e}, penalty tensor-vs-matrix "
        f"{worst_reg:.1e} (<=1e-12)",
    )


# --- 9: the restarted solver reaches the minimizer of J_eps ------------------------

# Bounds on ‖u_k − u*‖/‖u*‖ after 100 fixed-λ iterations, per method, for the
# shipped restart (the last 3 iterates kept, at the 30-column cap) and for one
# that keeps 2 and comes every 8 iterations (cap 10), where the kept current
# iterate carries the convergence.  Each is 3x the measured distance, rounded
# up, and at least 1e-10: the Newton oracle is accurate to about 1e-13, and the
# projected solves round at about 1e-12.  Measured: 2.2e-12|2.5e-11,
# 5.5e-6|2.0e-5, 0.21|0.26, 1.1e-11|2.9e-9, 1.2e-11|2.0e-10 and 1.7e-3|7.5e-3.
# Aniso3DTV converges slowly under any restart; uncapped it reaches 4e-11 in
# 200 iterations.
NEWTON_BOUNDS = {
    "AnisoTV": (1e-10, 1e-10),
    "TVplusTikhonov": (2e-5, 6e-5),
    "Aniso3DTV": (0.7, 0.8),
    "Iso3DTV": (1e-10, 9e-9),
    "IsoTV": (1e-10, 7e-10),
    "GS": (6e-3, 3e-2),
}


def test_restarted_solver_reaches_the_newton_minimizer(monkeypatch):
    # a mild blur, so that every method's u* is well determined (at sigma_psf
    # 1.5 and bandwidth 4, Aniso3DTV's Newton system has condition 3e17);
    # Γ = I, and neither the discrepancy nor the relative-change stop
    dims, lam, iters = (8, 8, 3), 0.2, 100
    blur = dv.build_blur_operator(dv.BlurModel(sigma_psf=0.5, bandwidth=2), 8, 8)
    forward = dv.assemble_dynamic_forward(blur, 3)
    truth = dv.vec(dv.render_scene(dv.moving_disks_scene(*dims, n_objects=2, seed=3)))
    data, _ = dv.add_noise(forward.apply(truth), dv.NoiseSpec(sigma=0.02, seed=4))
    problem = dv.ReconstructionProblem(forward=forward, data=data)
    f_dense = oracles.dense(forward)

    dist, restarts = {}, []
    for name in METHODS:
        u_star = oracles.newton_minimizer(
            f_dense, data, np.ones(data.size), name, dims, dv.RegularizerSpec.epsilon, lam,
        )
        config = dv.SolverConfig(
            regularizer=spec_for(name, dims), lam=lam, max_iters=iters, rel_change_tol=0.0,
        )
        dist[name] = []
        for keep, cap in ((dv.solver._RESTART_ITERATES, dv.solver._MAX_BASIS_COLS), (2, 10)):
            monkeypatch.setattr(dv.solver, "_RESTART_ITERATES", keep)
            monkeypatch.setattr(dv.solver, "_MAX_BASIS_COLS", cap)
            result = dv.mm_gks_solve(problem, config)
            sub_dims = np.array([rec.subspace_dim for rec in result.history])
            restarts.append(int(np.sum(np.diff(sub_dims) < 0)))
            dist[name].append(np.linalg.norm(result.u - u_star) / np.linalg.norm(u_star))
        monkeypatch.undo()
    ok = min(restarts) >= 3 and all(
        d <= bound for name in METHODS for d, bound in zip(dist[name], NEWTON_BOUNDS[name])
    )
    verdict(
        9, ok,
        f"8x8x3 blur, fixed lambda {lam}, {iters} iterations, {min(restarts)}+ restarts: "
        "distance to the Newton minimizer, kept 3 at cap 30 | kept 2 at cap 10: "
        + ", ".join(f"{name} {d[0]:.1e}|{d[1]:.1e}" for name, d in dist.items())
        + " (bounds in NEWTON_BOUNDS)",
    )
