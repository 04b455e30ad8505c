"""Workloads, timed solve loop, correctness gate and metrics of the benchmark.

Import this module only after the BLAS thread variables are pinned (see
run.py): it imports numpy and the dyntv sources of the checkout it sits in.

Every workload renders a fixed scene and draws 1% Gaussian noise from the
seed given on the command line, then runs the same library calls
``dyntv.cli.run`` makes: scene, forward operator, noise, whitened noise
model, ``ReconstructionProblem``, ``SolverConfig``, ``mm_gks_solve``.
Workloads whose iteration count depends on the noise draw solve several
draws per sample, so that their figures do not swing with the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dyntv as dv  # noqa: E402

if not Path(dv.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"dyntv was imported from {dv.__file__}, not from {SRC}")

import layers  # noqa: E402  (bench/layers.py; bench/ is first on sys.path)

NOISE_SIGMA = 0.01
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0  # tiny set-ups are repeated until this much time has passed
MIN_SAMPLES = 2  # the bitwise repeatability check needs two samples


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple
    scene: object  # () -> dv.SceneSpec
    forward: object  # dims -> LinearOperator
    methods: tuple = ("AnisoTV",)
    draws: int = 1  # noise draws per sample; draw j uses noise seed 100 * seed + j
    options: dict = field(default_factory=dict)  # SolverConfig overrides
    discrepancy: bool = True  # False sets delta = 0, which turns the DP stop off


def busy_scene(seed=26, dims=(32, 32, 4), n_obj=14):
    """Mixed disks and rectangles drifting in a 32x32x4 stack (acceptance scene)."""
    n_v, n_h, n_t = dims
    rng = np.random.default_rng(seed)
    objs = []
    for i in range(n_obj):
        r = float(rng.uniform(1.5, 5.0))
        c0 = np.array([rng.uniform(r + 1, n_v - r - 2), rng.uniform(r + 1, n_h - r - 2)])
        vel = rng.uniform(-1.2, 1.2, size=2)
        c1 = c0 + vel * (n_t - 1)
        if not (r < c1[0] < n_v - r - 1 and r < c1[1] < n_h - r - 1):
            vel = -vel
        objs.append(dv.SceneObject(
            shape="disk" if i % 2 == 0 else "rectangle",
            intensity=float(rng.uniform(0.5, 2.0)),
            centers=dv.linear_trajectory(tuple(c0), tuple(vel), n_t),
            radii=(r,) * n_t,
        ))
    return dv.SceneSpec(n_v=n_v, n_h=n_h, n_t=n_t, objects=tuple(objs))


def blur_forward(dims):
    # sigma 2, bandwidth 6: the medium blur at side 128 and the acceptance blur
    n_v, n_h, n_t = dims
    step = dv.build_blur_operator(dv.BlurModel(sigma_psf=2.0, bandwidth=6), n_v, n_h)
    return dv.assemble_dynamic_forward(step, n_t)


def radon_forward(dims):
    n_v, _, n_t = dims
    model = dv.RadonModel(image_side=n_v, n_time_steps=n_t, n_angles_per_step=9)
    return dv.assemble_dynamic_forward(
        [dv.build_radon_operator(model, t) for t in range(1, n_t + 1)], n_t
    )


# Why these three: deblur-stress is a fixed-length large solve where the
# penalty refresh and subspace growth dominate and parameter selection is
# bypassed; tomo-gcv is dominated by the dense ray transform (apply/adjoint
# and its build in setup) and keeps the projected-GCV grid-edge defect
# visible; deblur-sweep runs many small solves of all six regularizers, where
# Python overhead, GCV and the regularizer dispatch weigh most.
WORKLOADS = {
    "deblur-stress": Workload(
        name="deblur-stress", dims=(128, 128, 8),
        scene=lambda: dv.moving_disks_scene(128, 128, 8, n_objects=6, seed=0),
        forward=blur_forward,
        options={"lam": 30.0, "rel_change_tol": 0.0, "max_iters": 40},
        discrepancy=False,
    ),
    "tomo-gcv": Workload(
        name="tomo-gcv", dims=(64, 64, 8),
        scene=lambda: dv.moving_disks_scene(64, 64, 8, n_objects=6, seed=7),
        forward=radon_forward,
        draws=3,
    ),
    "deblur-sweep": Workload(
        name="deblur-sweep", dims=(32, 32, 4),
        scene=busy_scene,
        forward=blur_forward,
        methods=tuple(dv.METHOD_NAMES),
        draws=4,
    ),
}


# --- process facts --------------------------------------------------------------


def _proc_status_mb(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{key} missing from /proc/self/status")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


def load_reference():
    """Reference RREs (bench/reference.json) and the rre bound (BENCHMARK.json)."""
    ref = json.loads((Path(__file__).parent / "reference.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "rre")
    # index every entry now, so that a missing one fails before any solve
    return {name: {m: float(ref[name][m]) for m in wl.methods}
            for name, wl in WORKLOADS.items()}, bound


# --- set-up -----------------------------------------------------------------------


def set_up(wl, seed):
    """Scene, forward operator, noisy data; returns one problem per draw and timings."""
    t0 = perf_counter()
    truth = dv.vec(dv.render_scene(wl.scene()))
    t1 = perf_counter()
    rss0 = _proc_status_mb("VmRSS")
    forward = wl.forward(wl.dims)
    build_rss = _proc_status_mb("VmRSS") - rss0
    t2 = perf_counter()
    clean = forward.apply(truth)
    problems = []
    for j in range(wl.draws):
        noise = dv.NoiseSpec(sigma=NOISE_SIGMA, seed=100 * seed + j)
        data, _ = dv.add_noise(clean, noise)
        # whitened noise model of dyntv.cli.run: Gamma = (|e|^2/m) I, delta = sqrt(m)
        e = data - clean
        m = e.size
        problems.append(dv.ReconstructionProblem(
            forward=forward, data=data,
            noise_cov_diag=np.full(m, float(e @ e) / m),
            delta=float(np.sqrt(m)) if wl.discrepancy else 0.0,
            truth=truth,
        ))
    t3 = perf_counter()
    phases = {
        "setup_s": t3 - t0,
        "phantom.render_s": t1 - t0,
        "forward.build_s": t2 - t1,
        "forward.build_rss_mb": build_rss,
        "phantom.noise_s": t3 - t2,
    }
    return problems, phases


# --- timed solves ------------------------------------------------------------------


@dataclass
class Solve:
    method: str
    draw: int
    sample: int
    result: object = None
    error: str | None = None
    digest: str = ""
    orth_err: float | None = None


def _configs(wl):
    return [
        dv.SolverConfig(regularizer=dv.RegularizerSpec(method=dv.Method(m), dims=wl.dims),
                        **wl.options)
        for m in wl.methods
    ]


def run_samples(wl, problems, seconds, tracer=None):
    """Repeat the workload's solve set until `seconds` have passed (>= MIN_SAMPLES).

    Returns the solves, the wall time of each sample and, when tracing, the
    tracer's per-sample snapshot.
    """
    configs = _configs(wl)
    solves, sample_walls, snapshots = [], [], []
    start = perf_counter()
    while len(sample_walls) < MIN_SAMPLES or perf_counter() - start < seconds:
        k = len(sample_walls)
        wall = 0.0
        for (draw, problem), (method, config) in itertools.product(
            enumerate(problems), zip(wl.methods, configs)
        ):
            s = Solve(method=method, draw=draw, sample=k)
            t0 = perf_counter()
            try:
                if tracer is None:
                    s.result = dv.mm_gks_solve(problem, config)
                else:
                    s.result = tracer.span(layers.ROOT_LAYER, dv.mm_gks_solve,
                                           problem, config)
            except (dv.SolverError, dv.SingularSystemError, ValueError) as exc:
                s.error = f"{type(exc).__name__}: {exc}"
            wall += perf_counter() - t0
            if s.result is not None:
                s.digest = hashlib.sha256(np.ascontiguousarray(s.result.u).tobytes()).hexdigest()
            if tracer is not None and tracer.states:
                s.orth_err = max(layers.basis_orth_err(st) for st in tracer.states)
                tracer.states.clear()
            solves.append(s)
        sample_walls.append(wall)
        if tracer is not None:
            snapshots.append({"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
                              "counts": dict(tracer.counts), "wall_s": wall})
            tracer.reset()
    return solves, sample_walls, snapshots


# --- correctness gate and quality (after timing) ------------------------------------


def gate(wl, configs, problems, solves, reference, rre_bound):
    """Check every solve.

    Returns the quality of sample 0's solves and a map from each failed solve
    (method, draw, sample) to what failed.  Nothing is dropped: a solve that raised
    or failed any check counts once.
    """
    eta = configs[0].eta
    fixed_lam = wl.options.get("lam") is not None
    first_digest = {}
    quality, failures = [], {}
    for s in solves:
        key = (s.method, s.draw, s.sample)
        if s.error is not None:
            failures[key] = [f"raised {s.error}"]
            continue
        res, problem = s.result, problems[s.draw]
        found = []
        if not np.all(np.isfinite(res.u)):
            found.append("non-finite iterate")
        if fixed_lam:
            obj = np.array([h.objective for h in res.history])
            if np.any(np.diff(obj) > 1e-12 * np.abs(obj[:-1])):
                found.append("objective increased under fixed lambda")
        # the discrepancy principle as dyntv.check_dp states it
        if res.stop_reason == "discrepancy" and not (
            problem.residual_norm(res.u) <= eta * problem.delta
        ):
            found.append("stopped on discrepancy but the residual exceeds eta*delta")
        err = dv.rre(res.u, problem.truth)
        limit = reference[wl.name][s.method] * (1.0 + rre_bound)
        if not err <= limit:
            found.append(f"rre {err:.4f} above the reference limit {limit:.4f}")
        if s.digest != first_digest.setdefault(key[:2], s.digest):
            found.append("iterate differs bitwise from the first sample")
        if found:
            failures[key] = found
        if s.sample == 0:
            report = dv.build_report(res.u, problem.truth, wl.dims)
            quality.append({
                "method": s.method, "draw": s.draw, "iters": res.iterations,
                "stop": res.stop_reason, "lam": res.history[-1].lam, "rre": err,
                "ssim": float(np.mean(report.ssim_per_frame)), "digest": s.digest[:16],
            })
    return quality, failures


# --- metrics --------------------------------------------------------------------------


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(wl, setup_phases, sample_walls, quality, failed, attempted):
    solve_s = statistics.median(sample_walls)
    iters = sum(q["iters"] for q in quality)
    return {
        "setup_s": _m(statistics.median(p["setup_s"] for p in setup_phases), "s"),
        "solve_s": _m(solve_s, "s"),
        "voxel_iters_per_s": _m(int(np.prod(wl.dims)) * iters / solve_s, "1/s"),
        "iters": _m(iters, "count"),
        # median over the sample's solves, so that one method whose GCV picks
        # vary strongly with the noise draw does not swing the workload's
        # figure (see README.md)
        "rre": _m(_median_or_zero(q["rre"] for q in quality), "1"),
        "ssim": _m(_median_or_zero(q["ssim"] for q in quality), "1"),
        "peak_rss_mb": _m(_proc_status_mb("VmHWM"), "MB"),
        "pass_frac": _m(1.0 - failed / attempted, "1"),
    }


def per_layer(setup_phases, snapshots, solves, span_cost):
    def med(fn):
        return statistics.median(fn(s) for s in snapshots)

    def self_s(layer):
        return med(lambda s: s["self_s"].get(layer, 0.0))

    def calls(layer):
        return med(lambda s: s["calls"].get(layer, 0))

    def count(key):
        return med(lambda s: s["counts"].get(key, 0))

    def share(key, layer):
        return med(lambda s: s["counts"].get(key, 0) / s["calls"][layer]
                   if s["calls"].get(layer) else 0.0)

    def setup(key):
        return statistics.median(p[key] for p in setup_phases)

    finished = [s for s in solves if s.sample == 0 and s.result is not None]
    orth = [s.orth_err for s in solves if s.orth_err is not None]
    return {
        "forward.build_s": _m(setup("forward.build_s"), "s"),
        "forward.build_rss_mb": _m(setup("forward.build_rss_mb"), "MB"),
        "forward.apply_calls": _m(calls("forward.apply"), "count"),
        "forward.apply_cols": _m(count("forward.apply_cols"), "count"),
        "forward.apply_s": _m(self_s("forward.apply"), "s"),
        "forward.adjoint_calls": _m(calls("forward.adjoint"), "count"),
        "forward.adjoint_s": _m(self_s("forward.adjoint"), "s"),
        "operators.D_apply_calls": _m(calls("operators.D_apply"), "count"),
        "operators.D_apply_s": _m(self_s("operators.D_apply"), "s"),
        "operators.D_adjoint_calls": _m(calls("operators.D_adjoint"), "count"),
        "operators.D_adjoint_s": _m(self_s("operators.D_adjoint"), "s"),
        "regularization.weights_calls": _m(calls("regularization.weights"), "count"),
        "regularization.weights_s": _m(self_s("regularization.weights"), "s"),
        "regularization.value_calls": _m(calls("regularization.value"), "count"),
        "regularization.value_s": _m(self_s("regularization.value"), "s"),
        "solver.refresh_s": _m(self_s("solver.refresh"), "s"),
        "solver.expand_s": _m(self_s("solver.expand"), "s"),
        "solver.loop_other_s": _m(self_s(layers.ROOT_LAYER), "s"),
        "solver.seed_s": _m(self_s("solver.seed"), "s"),
        "solver.init_s": _m(self_s("solver.init"), "s"),
        "solver.projected_solve_s": _m(self_s("solver.projected_solve"), "s"),
        "solver.seed_breakdown": _m(count("solver.seed_breakdown"), "count"),
        "solver.expand_added_frac": _m(share("solver.expand_added", "solver.expand"), "1"),
        "solver.subspace_dim": _m(_median_or_zero(
            s.result.history[-1].subspace_dim for s in finished), "count"),
        "solver.basis_orth_err": _m(max(orth, default=0.0), "1"),
        "paramselect.select_calls": _m(calls("paramselect.select"), "count"),
        "paramselect.select_s": _m(self_s("paramselect.select"), "s"),
        "paramselect.edge_frac": _m(share("paramselect.edge", "paramselect.select"), "1"),
        "phantom.render_s": _m(setup("phantom.render_s"), "s"),
        "phantom.noise_s": _m(setup("phantom.noise_s"), "s"),
        # calibrated cost of one wrapped call times the wrapped calls per sample
        "trace.overhead_frac": _m(med(lambda s: sum(s["calls"].values()) * span_cost
                                      / s["wall_s"]), "1"),
        # self times of all layers (solver.loop_other_s included) over solve wall
        "trace.accounted_frac": _m(med(lambda s: sum(s["self_s"].values())
                                       / s["wall_s"]), "1"),
    }


# --- one run ---------------------------------------------------------------------------


def run(name, seed, seconds, traced, reference, rre_bound, out=print):
    """Run one workload, print its report and return the result object.

    `reference` and `rre_bound` are what load_reference() returns.
    """
    wl = WORKLOADS[name]
    out(f"workload {name} seed {seed} seconds {seconds} trace {int(traced)}")
    out("env " + json.dumps(environment()))

    setup_phases = []
    started = perf_counter()
    while len(setup_phases) < SETUP_MIN_REPS or perf_counter() - started < SETUP_MIN_S:
        problems = None  # free the previous operator before building the next
        problems, phases = set_up(wl, seed)
        setup_phases.append(phases)

    tracer = None
    if traced:
        tracer = layers.Tracer()
        traced_forward = layers.TracedOperator(
            problems[0].forward, tracer, "forward.apply", "forward.adjoint")
        for problem in problems:
            problem.forward = traced_forward
        with layers.installed(tracer, dv):
            solves, walls, snapshots = run_samples(wl, problems, seconds, tracer)
    else:
        solves, walls, snapshots = run_samples(wl, problems, seconds)

    quality, failures = gate(wl, _configs(wl), problems, solves, reference, rre_bound)
    out(f"setups {len(setup_phases)}")
    for q in quality:
        out(f"solve {q['method']} draw {q['draw']} iters {q['iters']} stop {q['stop']} "
            f"lam {q['lam']:.4g} rre {q['rre']:.4f} ssim {q['ssim']:.4f} "
            f"sha256 {q['digest']}")
    for (method, draw, sample), found in failures.items():
        out(f"FAIL {method} draw {draw} sample {sample}: " + "; ".join(found))
    attempted, failed = len(solves), len(failures)
    out(f"samples {len(walls)} sample_s min {min(walls):.4f} median "
        f"{statistics.median(walls):.4f} max {max(walls):.4f}")
    out(f"solves {attempted} failed {failed} failed_frac {failed / attempted:.4f}")

    correct = not failures
    if not traced:
        metrics = end_to_end(wl, setup_phases, walls, quality, failed, attempted)
    else:
        metrics = per_layer(setup_phases, snapshots, solves, tracer.span_cost())
        if tracer.absent:
            out("absent layers (their metrics read 0): " + ", ".join(tracer.absent))
        accounted = metrics["trace.accounted_frac"]["value"]
        if abs(accounted - 1.0) > 0.02:
            correct = False
            out(f"FAIL layer self times cover {accounted:.4f} of the solve wall time")
    for key, m in metrics.items():
        out(f"metric {key} {m['value']:.6g} {m['unit']}")
    out(f"verdict {'correct' if correct else 'INCORRECT'}: "
        f"{failed} of {attempted} solves failed")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
