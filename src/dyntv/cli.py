"""Command-line entry points: run synthetic reconstructions, compare runs.

``reconstruct --config cfg.json --out dir`` renders a scene, simulates data,
runs the solver and writes frames (16-bit binary PGM plus a scaling sidecar),
an iteration history and a summary.  ``compare dir1 dir2 ...`` tabulates the
summaries of finished runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, SingularSystemError, SolverError
from .forward import (
    RadonModel,
    assemble_dynamic_forward,
    build_blur_operator,
    build_radon_operator,
    medium_blur,
)
from .metrics import SSIM_WINDOW, build_report
from .operators import vec
from .phantom import (
    NoiseSpec,
    SceneObject,
    SceneSpec,
    add_noise,
    moving_disks_scene,
    render_scene,
)
from .regularization import Method, RegularizerSpec, as_float, as_int
from .solver import ReconstructionProblem, SolverConfig, mm_gks_solve

HISTORY_COLUMNS = ("iter", "lambda", "objective", "dp_residual", "rre", "subspace_dim")
# Runs are bitwise reproducible only at a fixed BLAS thread count, so the
# summary records these variables as the run saw them (None when unset).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# --- configuration -------------------------------------------------------------

# The keys a config may give, section by section.  A dict is a JSON object read
# with that table and [table] a list of such objects; any other value (None
# here) goes unchanged to the library type that owns the key, which checks its
# kind and range.  Only the keys a config gives reach the library, whose
# defaults fill in the rest.
_SCENE_OBJECT = dict.fromkeys(("shape", "intensity", "centers", "radii"))
_BLUR = dict.fromkeys(("sigma_psf", "bandwidth"))
_RADON = dict.fromkeys(("n_angles_per_step", "angle_stride_deg", "n_detectors"))
FORWARD_KEYS = {"deblur": _BLUR, "radon-dynamic": _RADON, "radon-static-baseline": _RADON}
EXPERIMENTS = tuple(FORWARD_KEYS)
CONFIG_KEYS = {
    "experiment": None,
    "scene": {
        **dict.fromkeys(("n_v", "n_h", "n_t", "n_objects", "seed")),
        "objects": [_SCENE_OBJECT],
    },
    "noise": dict.fromkeys(("sigma", "seed")),
    "forward": {**_BLUR, **_RADON},  # narrowed to FORWARD_KEYS[experiment]
    "solver": dict.fromkeys((
        "method", "eta", "max_iters", "gk_steps", "rel_change_tol", "epsilon", "lambda",
        "lambda_grid",
    )),
    "output_dir": None,
}


def load_config(path):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _invalid(section, label, problem):
    return ConfigError(f"invalid {section} section: {' '.join((*label, problem))}")


def _read(obj, table, section, label=()):
    """A config object's entries, with its nested objects read by ``table``.

    ``label`` holds the keys from ``section`` down to ``obj``, for messages;
    every object at the top level is a section of its own.
    """
    if not isinstance(obj, dict):
        raise _invalid(section, label, f"must be a JSON object, got {obj!r}")
    out = {}
    for key, value in obj.items():
        if key not in table:
            raise ConfigError(
                f"unknown key {key!r} in {' '.join((section, *label))}; "
                f"valid keys are {', '.join(table)}"
            )
        inner, where = table[key], (section, (*label, key))
        if isinstance(inner, dict):
            value = _read(value, inner, *((key, ()) if section == "config" else where))
        elif isinstance(inner, list):
            if not isinstance(value, list):
                raise _invalid(*where, f"must be a list of JSON objects, got {value!r}")
            value = [_read(item, inner[0], *where) for item in value]
        out[key] = value
    return out


def _require(obj, keys, where):
    for key in keys:
        if key not in obj:
            raise ConfigError(f"{where} is missing required key {key!r}")


@contextmanager
def _config_errors(section):
    """What a library constructor refuses becomes a config error in ``section``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from exc


def build_run(cfg, seed_override=None, method_override=None):
    """Experiment, scene, per-step and space-time forward, noise and solver config."""
    _require(cfg, ("experiment", "scene"), "config")
    experiment = cfg["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; valid experiments are {', '.join(EXPERIMENTS)}"
        )
    values = _read(cfg, {**CONFIG_KEYS, "forward": FORWARD_KEYS[experiment]}, "config")
    scene = _scene(values["scene"])
    if min(scene.n_v, scene.n_h) < SSIM_WINDOW:
        # every run ends in a per-frame SSIM report, which needs a full window
        raise ConfigError(f"scene frames must be at least {SSIM_WINDOW} pixels per side")
    with _config_errors("forward"):
        step_ops, forward_op = _forward(experiment, scene, values.get("forward", {}))
    noise = values.get("noise", {})
    if seed_override is not None:
        noise["seed"] = seed_override
    with _config_errors("noise"):
        noise = NoiseSpec(**noise)
    solver = values.get("solver", {})
    if method_override:
        solver["method"] = method_override
    with _config_errors("solver"):
        config = _solver_config(experiment, scene, solver)
    return experiment, scene, step_ops, forward_op, noise, config


def _scene(scene):
    _require(scene, ("n_v", "n_h", "n_t"), "scene")
    n_v, n_h, n_t = (scene.pop(key) for key in ("n_v", "n_h", "n_t"))
    with _config_errors("scene"):
        if "objects" not in scene:
            return moving_disks_scene(n_v, n_h, n_t, **scene)
        objects = scene.pop("objects")
        if scene:
            raise ConfigError(
                f"scene objects cannot be given with {', '.join(scene)}; "
                "with objects the valid keys are n_v, n_h, n_t, objects"
            )
        for obj in objects:
            _require(obj, ("centers", "radii"), "scene object")
        objects = tuple(SceneObject(**obj) for obj in objects)
        return SceneSpec(n_v=n_v, n_h=n_h, n_t=n_t, objects=objects)


def _forward(experiment, scene, fwd):
    if scene.n_v != scene.n_h:
        kind = "deblur" if experiment == "deblur" else "tomography"
        raise ConfigError(f"{kind} scenes must be square")
    if experiment == "deblur":
        step_op = build_blur_operator(replace(medium_blur(scene.n_v), **fwd), scene.n_v, scene.n_h)
        return [step_op] * scene.n_t, assemble_dynamic_forward(step_op, scene.n_t)
    model = RadonModel(image_side=scene.n_v, n_time_steps=scene.n_t, **fwd)
    step_ops = [build_radon_operator(model, t) for t in range(1, scene.n_t + 1)]
    return step_ops, assemble_dynamic_forward(step_ops, scene.n_t)


def _solver_config(experiment, scene, solver):
    regularizer = {key: solver.pop(key) for key in ("method", "epsilon") if key in solver}
    if "lambda" in solver:
        solver["lam"] = solver.pop("lambda")
    if experiment == "radon-static-baseline":
        if "method" in regularizer:  # every frame takes spatial TV, but the name must exist
            Method.from_name(regularizer.pop("method"))
        spec = RegularizerSpec(dims=(scene.n_v, scene.n_h, 1), **regularizer)
    else:
        spec = RegularizerSpec(dims=(scene.n_v, scene.n_h, scene.n_t), **regularizer)
    return SolverConfig(regularizer=spec, **solver)


# --- outputs -------------------------------------------------------------------


def _write_pgm16(path, img):
    img = np.asarray(img)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.astype(">u2").tobytes())


def _scale_to_uint16(frame, vmin, vmax):
    scaled = (frame - vmin) / (vmax - vmin) if vmax > vmin else np.zeros_like(frame)
    return np.round(np.clip(scaled, 0.0, 1.0) * 65535.0).astype(np.uint16)


def _write_frames(out_dir, u, u_true, dims):
    n_v, n_h, n_t = dims
    recon = np.asarray(u, dtype=float).reshape(dims, order="F")
    truth = np.asarray(u_true, dtype=float).reshape(dims, order="F")
    vmin = float(min(recon.min(), truth.min()))
    vmax = float(max(recon.max(), truth.max()))
    meta = {"vmin": vmin, "vmax": vmax, "maxval": 65535}
    for key, prefix, vol in (("reconstruction", "frame", recon), ("truth", "truth", truth)):
        meta[key] = [f"{prefix}_{t:03d}.pgm" for t in range(n_t)]
        for t, name in enumerate(meta[key]):
            _write_pgm16(out_dir / name, _scale_to_uint16(vol[:, :, t], vmin, vmax))
    with open(out_dir / "frames_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)


def _write_history(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.iteration,
                    f"{rec.lam:.10g}",
                    f"{rec.objective:.10g}",
                    f"{rec.dp_residual:.10g}",
                    "" if rec.rre is None else f"{rec.rre:.10g}",
                    rec.subspace_dim,
                ]
            )


# --- running -------------------------------------------------------------------


def _whitened_noise_model(noise_vec):
    """Noise covariance diagonal and DP threshold for one noise realization.

    The injected noise is white with empirical per-entry variance ‖e‖²/m, so
    the problem carries Γ = (‖e‖²/m)·I and the whitened noise norm is √m
    exactly.  Noiseless data keeps Γ = I with a zero threshold.
    """
    m = noise_vec.size
    e_sq = float(np.dot(noise_vec, noise_vec))
    if e_sq == 0.0:
        return None, 0.0
    return np.full(m, e_sq / m), float(np.sqrt(m))


def run(cfg, out_dir, seed_override=None, method_override=None):
    """Execute one configured reconstruction; writes all artifacts to out_dir."""
    experiment, scene, step_ops, forward_op, noise, config = build_run(
        cfg, seed_override, method_override
    )
    static = experiment == "radon-static-baseline"
    dims = (scene.n_v, scene.n_h, scene.n_t)

    truth = vec(render_scene(scene))
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        clean = forward_op.apply(truth)
        if not np.any(clean):
            reason = "there is nothing to reconstruct"
            if noise.sigma > 0:
                reason = f"noise sigma {noise.sigma} has no scale"
            raise ConfigError(
                f"the scene renders to all-zero data, so {reason}; "
                "give it an object of nonzero intensity"
            )
        data, noise_norm = add_noise(clean, noise)
        gamma_diag, delta = _whitened_noise_model(data - clean)
    finite = np.isfinite(data).all() and (gamma_diag is None or np.isfinite(gamma_diag).all())
    if not finite:
        raise ConfigError(
            "simulated data or its noise variance is not finite; "
            "lower the scene intensities or the noise sigma"
        )
    # built before any output exists, so that data the solver rejects is a config error
    try:
        problem = ReconstructionProblem(
            forward=forward_op,
            data=data,
            noise_cov_diag=gamma_diag,
            delta=delta,
            truth=truth,
        )
    except ValueError as exc:
        raise ConfigError(f"{exc}; lower the scene intensities") from exc
    if static:  # each frame solved on its own with spatial TV, one history each
        problems = _frame_problems(step_ops, data, clean, truth)
        histories = [f"history_t{t:02d}.csv" for t in range(1, len(problems) + 1)]
    else:
        problems, histories = [problem], ["history.csv"]

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at out_dir or above it, say
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    results = [_solve(p, config, out_dir / name) for p, name in zip(problems, histories)]
    u = np.concatenate([result.u for result in results])
    last, lam = results[-1], results[-1].history[-1].lam
    at_dp = not static and last.stop_reason == "discrepancy"
    report = build_report(
        u,
        truth,
        dims,
        iters_at_dp=last.iterations if at_dp else None,
        lambda_at_dp=lam if at_dp else None,
    )

    summary = {
        "experiment": experiment,
        "method": "static-TV" if static else config.regularizer.method.value,
        "dims": list(dims),
        "noise_sigma": noise.sigma,
        "noise_seed": noise.seed,
        "noise_norm": noise_norm,
        "delta": delta,
        "eta": config.eta,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    if static:
        summary["frames"] = [
            {"step": t, "iterations": r.iterations, "stop_reason": r.stop_reason,
             "lambda_final": r.history[-1].lam}
            for t, r in enumerate(results, start=1)
        ]
    summary["iterations"] = sum(result.iterations for result in results)
    summary["stop_reason"] = "per-frame" if static else last.stop_reason
    if not static:
        summary["lambda_final"] = lam
    summary["report"] = report.as_dict()
    _write_frames(out_dir, u, truth, dims)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _solve(problem, config, history_path):
    """Solve; the iteration history is written even when the solve aborts."""
    try:
        result = mm_gks_solve(problem, config)
    except SolverError as exc:
        _write_history(history_path, exc.history)
        raise
    _write_history(history_path, result.history)
    return result


def _frame_problems(step_ops, data, clean, truth):
    """One problem per frame for the static baseline, each with its own noise model.

    Built before any output exists: a frame with all-zero data leaves its
    solve nothing to start from, which is a config error naming the frame.
    """
    row_splits = np.cumsum([op.rows for op in step_ops])[:-1]
    n_s = step_ops[0].cols
    problems = []
    for t, (op, data_t, noise_t) in enumerate(
        zip(step_ops, np.split(data, row_splits), np.split(data - clean, row_splits))
    ):
        if not np.any(data_t):
            raise ConfigError(
                f"frame {t + 1} of the static baseline has all-zero data, so there is "
                "nothing to reconstruct in it; keep an object in view at every step"
            )
        gamma_t, delta_t = _whitened_noise_model(noise_t)
        try:
            problems.append(
                ReconstructionProblem(
                    forward=op,
                    data=data_t,
                    noise_cov_diag=gamma_t,
                    delta=delta_t,
                    truth=truth[t * n_s : (t + 1) * n_s],
                )
            )
        except ValueError as exc:
            raise ConfigError(f"frame {t + 1} of the static baseline: {exc}") from exc
    return problems


# --- comparing -----------------------------------------------------------------


def compare(run_dirs):
    """Text table of finished runs, sorted by total RRE (best first)."""
    rows = []  # (total RRE, table line) per run
    for run_dir in map(Path, run_dirs):
        summary_path = run_dir / "summary.json"
        if not summary_path.is_file():
            raise FileNotFoundError(f"no summary.json in {run_dir}")
        if not list(run_dir.glob("history*.csv")):
            raise FileNotFoundError(f"no iteration history in {run_dir}")
        with open(summary_path) as fh:
            summary = json.load(fh)
        report = summary.get("report", {}) if isinstance(summary, dict) else None
        if not isinstance(report, dict):
            raise ValueError(f"{summary_path} is not a JSON object with a report object")
        try:
            rre_total = as_float(report.get("rre_total", np.nan), "report entry rre_total")
            iters = report.get("iters_at_dp")
            iters = None if iters is None else as_int(iters, "report entry iters_at_dp")
            rre_s = _per_frame(report, "rre_per_frame")
            ssim_s = _per_frame(report, "ssim_per_frame")
        except ValueError as exc:
            raise ValueError(f"{summary_path}: {exc}") from None
        rows.append((rre_total, (
            f"{str(run_dir):<28} {summary.get('method', '?'):<16} {rre_total:>10.5f} "
            f"{'-' if iters is None else str(iters):>9}  {rre_s:<40} {ssim_s:<40}"
        )))
    rows.sort(key=lambda row: row[0])
    header = (
        f"{'run':<28} {'method':<16} {'rre_total':>10} {'iters_dp':>9}  "
        f"{'rre/frame':<40} {'ssim/frame':<40}"
    )
    return "\n".join([header] + [line for _, line in rows])


def _per_frame(report, key):
    """A report's per-frame list as table text; ValueError unless it is a list of numbers."""
    values = report.get(key, [])
    if not isinstance(values, list):
        raise ValueError(f"report entry {key} must be a list of numbers, got {values!r}")
    return " ".join(f"{as_float(v, f'each value of report entry {key}'):.4f}" for v in values)


# --- entry points ----------------------------------------------------------------


def main_reconstruct(argv=None):
    parser = argparse.ArgumentParser(
        prog="reconstruct",
        description="Run a configured dynamic reconstruction experiment.",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the noise seed")
    parser.add_argument("--method", default=None, help="override the penalty method")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = cfg.get("output_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise _invalid("config", ("output_dir",), f"must be a string, got {out_dir!r}")
        if args.out is not None:
            out_dir = args.out
        if out_dir is None:
            raise ConfigError("no output directory (use --out or set output_dir)")
        summary = run(cfg, out_dir, args.seed, args.method)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, SingularSystemError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    report = summary["report"]
    print(
        f"{summary['method']}: rre {report['rre_total']:.5f}, "
        f"stopped by {summary['stop_reason']} after {summary['iterations']} iterations"
    )
    return 0


def main_compare(argv=None):
    parser = argparse.ArgumentParser(
        prog="compare", description="Tabulate finished reconstruction runs."
    )
    parser.add_argument("dirs", nargs="+", help="run directories with summary.json")
    args = parser.parse_args(argv)
    try:
        table = compare(args.dirs)
    except (FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"cannot compare runs: {exc}", file=sys.stderr)
        return 2
    print(table)
    return 0


def script_reconstruct():
    sys.exit(main_reconstruct())


def script_compare():
    sys.exit(main_compare())
