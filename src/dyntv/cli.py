"""Command-line entry points: run synthetic reconstructions, compare runs.

``reconstruct --config cfg.json --out dir`` renders a scene, simulates data,
runs the solver and writes frames (16-bit binary PGM plus a scaling sidecar),
an iteration history and a summary.  A config it cannot run exits 2 before
any output exists; a solver failure exits 1 after writing the iterations it
finished to the history.  ``compare dir1 dir2 ...`` tabulates the summaries
of finished runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, SolverError
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
from .solver import ReconstructionProblem, SolverConfig, mm_gks_solve, white_noise_model

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
    "solver": dict.fromkeys(("method", "max_iters", "rel_change_tol", "lambda")),
}


def load_config(path):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
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


def build_run(cfg):
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
    with _config_errors("noise"):
        noise = NoiseSpec(**values.get("noise", {}))
    with _config_errors("solver"):
        config = _solver_config(experiment, scene, values.get("solver", {}))
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
    method, n_t = solver.pop("method", Method.ANISO_TV), scene.n_t
    if "lambda" in solver:
        solver["lam"] = solver.pop("lambda")
    if experiment == "radon-static-baseline":
        Method.from_name(method)  # every frame takes spatial TV, but the name must exist
        method, n_t = Method.ANISO_TV, 1
    spec = RegularizerSpec(dims=(scene.n_v, scene.n_h, n_t), method=method)
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
            writer.writerow(map(_cell, astuple(rec)))


def _cell(value):
    """A history cell: empty for None, 10 significant digits for a float."""
    if value is None:
        return ""
    return f"{value:.10g}" if isinstance(value, (float, np.floating)) else value


# --- running -------------------------------------------------------------------


def run(cfg, out_dir):
    """Execute one configured reconstruction; writes all artifacts to out_dir."""
    experiment, scene, step_ops, forward_op, noise, config = build_run(cfg)
    static = experiment == "radon-static-baseline"
    dims = (scene.n_v, scene.n_h, scene.n_t)

    truth = vec(render_scene(scene))
    with np.errstate(over="ignore", invalid="ignore"):  # the problems refuse non-finite data
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
        error = data - clean
    # the report's per-frame RRE divides by each frame of the truth
    empty = np.flatnonzero(~truth.reshape((-1, scene.n_t), order="F").any(axis=0))
    if empty.size:
        raise ConfigError(
            f"frame {empty[0] + 1} of the scene is empty, so its RRE is undefined; "
            "keep an object in view at every step"
        )
    if static:  # each frame solved on its own with spatial TV, one history each
        cuts = np.cumsum([op.rows for op in step_ops])[:-1]
        slices = zip(step_ops, np.split(data, cuts), np.split(error, cuts),
                     np.split(truth, scene.n_t))
        labels = [f"frame {t} of the static baseline" for t in range(1, scene.n_t + 1)]
        histories = [f"history_t{t:02d}.csv" for t in range(1, scene.n_t + 1)]
    else:
        slices, labels, histories = [(forward_op, data, error, truth)], [""], ["history.csv"]
    problems = [_problem(*pieces, label) for pieces, label in zip(slices, labels)]

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at out_dir or above it, say
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    results = [_solve(p, config, out_dir / name) for p, name in zip(problems, histories)]
    u = np.concatenate([result.u for result in results])
    last, lam = results[-1], results[-1].history[-1].lam
    report = build_report(u, truth, dims)

    summary = {
        "experiment": experiment,
        "method": "static-TV" if static else config.regularizer.method.value,
        "dims": list(dims),
        "noise_sigma": noise.sigma,
        "noise_seed": noise.seed,
        "noise_norm": noise_norm,
        **({} if static else {"delta": problems[0].delta}),
        "eta": config.eta,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    if static:
        summary["frames"] = [
            {"step": t, "iterations": r.iterations, "stop_reason": r.stop_reason,
             "lambda_final": r.history[-1].lam, "delta": p.delta}
            for t, (r, p) in enumerate(zip(results, problems), start=1)
        ]
    summary["iterations"] = sum(result.iterations for result in results)
    summary["stop_reason"] = "per-frame" if static else last.stop_reason
    if not static:
        summary["lambda_final"] = lam
    summary["report"] = asdict(report)
    _write_frames(out_dir, u, truth, dims)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _problem(forward, data, noise_vec, truth, label):
    """One solve's problem from one slice of the stacked data and its own noise.

    Built before any output exists, so that data the solver cannot take is a
    config error; ``label`` names the slice in messages, "" the whole stack.
    """
    if not np.any(data):  # the solve would have nothing to start from
        raise ConfigError(
            f"{label or 'the stack'} has all-zero data, so there is nothing to reconstruct "
            "in it; keep an object in view at every step"
        )
    gamma_diag, delta = white_noise_model(noise_vec)
    try:
        return ReconstructionProblem(forward, data, gamma_diag, delta, truth)
    except ValueError as exc:
        prefix = f"{label}: " if label else ""
        if gamma_diag is None:
            hint = "lower the scene intensities"
        elif gamma_diag[0] < np.finfo(float).tiny:  # Γ^(-1/2) of a subnormal variance
            hint = "raise the noise sigma, or set it to 0 for noiseless data"
        else:
            hint = "lower the scene intensities or the noise sigma"
        raise ConfigError(f"{prefix}{exc}; {hint}") from exc


def _solve(problem, config, history_path):
    """Solve; the history of the iterations finished is written even if the solve fails."""
    try:
        result = mm_gks_solve(problem, config)
    except SolverError as exc:
        _write_history(history_path, exc.history)
        raise
    _write_history(history_path, result.history)
    return result


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
            rre_s = _per_frame(report, "rre_per_frame")
            ssim_s = _per_frame(report, "ssim_per_frame")
            iters = "-"
            if "iterations" in summary:
                iters = as_int(summary["iterations"], "summary entry iterations")
            method, stop = (_text(summary, key) for key in ("method", "stop_reason"))
        except ValueError as exc:
            raise ValueError(f"{summary_path}: {exc}") from None
        rows.append((rre_total, (
            f"{str(run_dir):<28} {method:<16} {rre_total:>10.5f} "
            f"{iters:>6} {stop:<12}  {rre_s:<40} {ssim_s:<40}"
        )))
    rows.sort(key=lambda row: (np.isnan(row[0]), row[0]))  # no total: last
    header = (
        f"{'run':<28} {'method':<16} {'rre_total':>10} {'iters':>6} {'stop':<12}  "
        f"{'rre/frame':<40} {'ssim/frame':<40}"
    )
    return "\n".join([header] + [line for _, line in rows])


def _text(summary, key):
    """A summary's text entry, "?" when missing; ValueError unless it is a string."""
    value = summary.get(key, "?")
    if not isinstance(value, str):
        raise ValueError(f"summary entry {key} must be a string, got {value!r}")
    return value


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
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        if not args.out:  # "" would write every artifact into the working directory
            raise ConfigError("no output directory (--out is empty)")
        summary = run(load_config(args.config), args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
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
