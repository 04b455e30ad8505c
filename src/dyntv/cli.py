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
import sys
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, SingularSystemError, SolverError
from .forward import (
    BlurModel,
    RadonModel,
    assemble_dynamic_forward,
    build_blur_operator,
    build_radon_operator,
    medium_blur,
)
from .metrics import SSIM_WINDOW, build_report
from .operators import vec
from .paramselect import default_lambda_grid
from .phantom import (
    NoiseSpec,
    SceneObject,
    SceneSpec,
    add_noise,
    moving_disks_scene,
    render_scene,
)
from .regularization import METHOD_NAMES, RegularizerSpec, StaticTVSpec
from .solver import ReconstructionProblem, SolverConfig, mm_gks_solve

EXPERIMENTS = ("deblur", "radon-dynamic", "radon-static-baseline")

HISTORY_COLUMNS = ("iter", "lambda", "objective", "dp_residual", "rre", "subspace_dim")


# --- configuration -------------------------------------------------------------


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


def _require(cfg, key, section="config"):
    if key not in cfg:
        raise ConfigError(f"{section} is missing required key {key!r}")
    return cfg[key]


def _integer(value, key, section):
    """An integral JSON number as an int; booleans and fractions are refused."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"invalid {section} section: {key} must be an integer, got {value!r}")
    return int(value)


def _section(cfg, key):
    """Optional sub-object of the config; an empty one when absent."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"invalid {key} section: must be a JSON object")
    return section


def _scene_from_config(cfg):
    scene = _require(cfg, "scene")
    try:
        n_v, n_h, n_t = (_integer(scene[key], key, "scene") for key in ("n_v", "n_h", "n_t"))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"scene needs integer extents n_v, n_h, n_t: {exc}") from exc
    if min(n_v, n_h) < SSIM_WINDOW:
        # every run ends in a per-frame SSIM report, which needs a full window
        raise ConfigError(f"scene frames must be at least {SSIM_WINDOW} pixels per side")
    try:
        if "objects" in scene:
            objects = tuple(
                SceneObject(
                    shape=obj.get("shape", "disk"),
                    intensity=float(obj.get("intensity", 1.0)),
                    centers=tuple(tuple(c) for c in obj["centers"]),
                    radii=tuple(obj["radii"]),
                )
                for obj in scene["objects"]
            )
            return SceneSpec(n_v=n_v, n_h=n_h, n_t=n_t, objects=objects)
        preset = scene.get("preset", "moving-disks")
        if preset != "moving-disks":
            raise ConfigError(f"unknown scene preset {preset!r}")
        return moving_disks_scene(
            n_v, n_h, n_t,
            n_objects=_integer(scene.get("n_objects", 6), "n_objects", "scene"),
            seed=_integer(scene.get("seed", 0), "seed", "scene"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid scene section: {exc}") from exc


def _noise_from_config(cfg, seed_override=None):
    noise = _section(cfg, "noise")
    seed = seed_override
    if seed is None:
        seed = _integer(noise.get("seed", 0), "seed", "noise")
    if seed < 0:
        raise ConfigError(f"noise seed must be nonnegative, got {seed}")
    try:
        spec = NoiseSpec(sigma=float(noise.get("sigma", 0.0)), seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise section: {exc}") from exc
    return spec


def _parse_lambda_grid(raw):
    if raw is None:
        return None
    if isinstance(raw, dict):
        n_points = _integer(raw.get("n_points", 40), "lambda_grid n_points", "solver")
        ends = np.array([raw.get("low", 1e-6), raw.get("high", 1e2)], dtype=float)
        if n_points < 1 or not np.all(np.isfinite(ends) & (ends > 0)):
            raise ConfigError(
                "lambda_grid needs n_points >= 1 and finite positive low and high"
            )
        return default_lambda_grid(n_points=n_points, low=ends[0], high=ends[1])
    grid = np.asarray(raw, dtype=float).ravel()
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ConfigError("lambda_grid must be a non-empty list of finite positive values")
    return grid


def _solver_from_config(cfg, scene, method_override=None, nonneg_override=False):
    solver = _section(cfg, "solver")
    method = method_override or solver.get("method", "AnisoTV")
    if method not in METHOD_NAMES:
        raise ConfigError(
            f"unknown method {method!r}; valid methods are {', '.join(METHOD_NAMES)}"
        )
    if not isinstance(solver.get("nonneg", False), bool):
        raise ConfigError("invalid solver section: nonneg must be true or false")
    try:
        options = {
            "eta": float(solver.get("eta", 1.01)),
            "max_iters": _integer(solver.get("max_iters", 150), "max_iters", "solver"),
            "gk_steps": _integer(solver.get("gk_steps", 5), "gk_steps", "solver"),
            "rel_change_tol": float(solver.get("rel_change_tol", 1e-6)),
            "nonneg": solver.get("nonneg", False) or bool(nonneg_override),
            "lam": None if solver.get("lambda") is None else float(solver["lambda"]),
            "lambda_grid": _parse_lambda_grid(solver.get("lambda_grid")),
        }
        epsilon = float(solver.get("epsilon", 1e-3))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid solver section: {exc}") from exc
    return method, epsilon, options


def _forward_from_config(cfg, scene):
    experiment = _require(cfg, "experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; valid experiments are {', '.join(EXPERIMENTS)}"
        )
    fwd = _section(cfg, "forward")
    try:
        if experiment == "deblur":
            if scene.n_v != scene.n_h:
                raise ConfigError("deblur scenes must be square")
            default = medium_blur(scene.n_v)
            model = BlurModel(
                sigma_psf=float(fwd.get("sigma_psf", default.sigma_psf)),
                bandwidth=_integer(
                    fwd.get("bandwidth", default.bandwidth), "bandwidth", "forward"
                ),
            )
            step_op = build_blur_operator(model, scene.n_v, scene.n_h)
            return experiment, [step_op] * scene.n_t, assemble_dynamic_forward(step_op, scene.n_t)
        if scene.n_v != scene.n_h:
            raise ConfigError("tomography scenes must be square")
        n_detectors = fwd.get("n_detectors")  # None: enough to cover the image
        if n_detectors is not None:
            n_detectors = _integer(n_detectors, "n_detectors", "forward")
        model = RadonModel(
            image_side=scene.n_v,
            n_time_steps=scene.n_t,
            n_angles_per_step=_integer(
                fwd.get("n_angles_per_step", 9), "n_angles_per_step", "forward"
            ),
            angle_stride_deg=fwd.get("angle_stride_deg"),
            n_detectors=n_detectors,
        )
        step_ops = [build_radon_operator(model, t) for t in range(1, scene.n_t + 1)]
        return experiment, step_ops, assemble_dynamic_forward(step_ops, scene.n_t)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid forward section: {exc}") from exc


# --- outputs -------------------------------------------------------------------


def _write_pgm16(path, img):
    img = np.asarray(img)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.astype(">u2").tobytes())


def read_pgm16(path):
    """Read back a 16-bit binary PGM written by this tool."""
    raw = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path} is not a binary PGM")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 65535:
        raise ValueError("expected a 16-bit PGM")
    data = np.frombuffer(raw[pos + 1 :], dtype=">u2", count=width * height)
    return data.reshape(height, width).astype(np.uint16)


def _scale_to_uint16(frame, vmin, vmax):
    if vmax > vmin:
        scaled = (frame - vmin) / (vmax - vmin)
    else:
        scaled = np.zeros_like(frame)
    return np.round(np.clip(scaled, 0.0, 1.0) * 65535.0).astype(np.uint16)


def _write_frames(out_dir, u, u_true, dims):
    n_v, n_h, n_t = dims
    recon = np.asarray(u, dtype=float).reshape(dims, order="F")
    truth = np.asarray(u_true, dtype=float).reshape(dims, order="F")
    vmin = float(min(recon.min(), truth.min()))
    vmax = float(max(recon.max(), truth.max()))
    meta = {"vmin": vmin, "vmax": vmax, "maxval": 65535, "reconstruction": [], "truth": []}
    for t in range(n_t):
        name = f"frame_{t:03d}.pgm"
        _write_pgm16(out_dir / name, _scale_to_uint16(recon[:, :, t], vmin, vmax))
        meta["reconstruction"].append(name)
        name = f"truth_{t:03d}.pgm"
        _write_pgm16(out_dir / name, _scale_to_uint16(truth[:, :, t], vmin, vmax))
        meta["truth"].append(name)
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


def run(cfg, out_dir, seed_override=None, method_override=None, nonneg_override=False):
    """Execute one configured reconstruction; writes all artifacts to out_dir."""
    scene = _scene_from_config(cfg)
    experiment, step_ops, forward_op = _forward_from_config(cfg, scene)
    noise = _noise_from_config(cfg, seed_override)
    method, epsilon, options = _solver_from_config(
        cfg, scene, method_override, nonneg_override
    )
    dims = (scene.n_v, scene.n_h, scene.n_t)
    try:
        if experiment == "radon-static-baseline":
            spec = StaticTVSpec(n_v=scene.n_v, n_h=scene.n_h, epsilon=epsilon)
        else:
            spec = RegularizerSpec(method=method, dims=dims, epsilon=epsilon)
        config = SolverConfig(regularizer=spec, **options)
    except ValueError as exc:
        raise ConfigError(f"invalid solver section: {exc}") from exc

    truth = vec(render_scene(scene))
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        clean = forward_op.apply(truth)
        if not np.any(clean):
            reason = (
                f"noise sigma {noise.sigma} has no scale"
                if noise.sigma > 0
                else "there is nothing to reconstruct"
            )
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

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {
        "experiment": experiment,
        "method": method if experiment != "radon-static-baseline" else "static-TV",
        "dims": list(dims),
        "noise_sigma": noise.sigma,
        "noise_seed": noise.seed,
        "noise_norm": noise_norm,
        "delta": delta,
        "eta": options["eta"],
    }

    if experiment == "radon-static-baseline":
        u, frames_info = _run_static_baseline(scene, step_ops, data, clean, truth, config, out_dir)
        summary["frames"] = frames_info
        report = build_report(u, truth, dims)
        summary["iterations"] = sum(f["iterations"] for f in frames_info)
        summary["stop_reason"] = "per-frame"
    else:
        try:
            result = mm_gks_solve(problem, config)
        except SolverError as exc:
            _write_history(out_dir / "history.csv", exc.history)
            raise
        _write_history(out_dir / "history.csv", result.history)
        u = result.u
        at_dp = result.stop_reason == "discrepancy"
        report = build_report(
            u,
            truth,
            dims,
            iters_at_dp=result.iterations if at_dp else None,
            lambda_at_dp=result.history[-1].lam if at_dp else None,
        )
        summary["iterations"] = result.iterations
        summary["stop_reason"] = result.stop_reason
        summary["lambda_final"] = result.history[-1].lam

    summary["report"] = report.as_dict()
    _write_frames(out_dir, u, truth, dims)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _run_static_baseline(scene, step_ops, data, clean, truth, config, out_dir):
    """Solve each frame independently with spatial TV; one history per frame."""
    n_s = scene.n_v * scene.n_h
    n_t = scene.n_t
    noise_vec = data - clean
    row_splits = np.cumsum([op.rows for op in step_ops])[:-1]
    data_frames = np.split(data, row_splits)
    noise_frames = np.split(noise_vec, row_splits)
    u = np.zeros(n_s * n_t)
    frames_info = []
    for t in range(n_t):
        gamma_t, delta_t = _whitened_noise_model(noise_frames[t])
        problem = ReconstructionProblem(
            forward=step_ops[t],
            data=data_frames[t],
            noise_cov_diag=gamma_t,
            delta=delta_t,
            truth=truth[t * n_s : (t + 1) * n_s],
        )
        try:
            result = mm_gks_solve(problem, config)
        except SolverError as exc:
            _write_history(out_dir / f"history_t{t + 1:02d}.csv", exc.history)
            raise
        _write_history(out_dir / f"history_t{t + 1:02d}.csv", result.history)
        u[t * n_s : (t + 1) * n_s] = result.u
        frames_info.append(
            {
                "step": t + 1,
                "iterations": result.iterations,
                "stop_reason": result.stop_reason,
                "lambda_final": result.history[-1].lam,
            }
        )
    return u, frames_info


# --- comparing -----------------------------------------------------------------


def compare(run_dirs):
    """Text table of finished runs, sorted by total RRE (best first)."""
    rows = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        summary_path = run_dir / "summary.json"
        if not summary_path.is_file():
            raise FileNotFoundError(f"no summary.json in {run_dir}")
        if not list(run_dir.glob("history*.csv")):
            raise FileNotFoundError(f"no iteration history in {run_dir}")
        with open(summary_path) as fh:
            summary = json.load(fh)
        report = summary.get("report", {})
        rows.append(
            {
                "run": str(run_dir),
                "method": summary.get("method", "?"),
                "rre_total": float(report.get("rre_total", np.nan)),
                "iters_at_dp": report.get("iters_at_dp"),
                "rre_per_frame": report.get("rre_per_frame", []),
                "ssim_per_frame": report.get("ssim_per_frame", []),
            }
        )
    rows.sort(key=lambda r: r["rre_total"])
    lines = [
        f"{'run':<28} {'method':<16} {'rre_total':>10} {'iters_dp':>9}  "
        f"{'rre/frame':<40} {'ssim/frame':<40}"
    ]
    for r in rows:
        rre_s = " ".join(f"{v:.4f}" for v in r["rre_per_frame"])
        ssim_s = " ".join(f"{v:.4f}" for v in r["ssim_per_frame"])
        iters = "-" if r["iters_at_dp"] is None else str(r["iters_at_dp"])
        lines.append(
            f"{r['run']:<28} {r['method']:<16} {r['rre_total']:>10.5f} {iters:>9}  "
            f"{rre_s:<40} {ssim_s:<40}"
        )
    return "\n".join(lines)


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
    parser.add_argument("--nonneg", action="store_true", help="project iterates onto u >= 0")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.get("output_dir")
        if out_dir is None:
            raise ConfigError("no output directory (use --out or set output_dir)")
        summary = run(
            cfg,
            out_dir,
            seed_override=args.seed,
            method_override=args.method,
            nonneg_override=args.nonneg,
        )
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
