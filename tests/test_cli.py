"""End-to-end runs of the reconstruct and compare entry points."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv import cli


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def deblur_config(n_v=16, n_h=16, n_t=2, method="AnisoTV", sigma=0.01, **solver):
    return {
        "experiment": "deblur",
        "scene": {"n_v": n_v, "n_h": n_h, "n_t": n_t, "n_objects": 4, "seed": 3},
        "noise": {"sigma": sigma, "seed": 5},
        "solver": {"method": method, **solver},
    }


def read_history(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def smoke_config():
    """The CI smoke config: a 12×12×2 deblur under a wide blur, 10 iterations."""
    return {
        "experiment": "deblur",
        "scene": {"n_v": 12, "n_h": 12, "n_t": 2, "n_objects": 2, "seed": 0},
        "noise": {"sigma": 0.001, "seed": 1},
        "forward": {"sigma_psf": 2.0, "bandwidth": 4},
        "solver": {"max_iters": 10},
    }


# --- reconstruct -------------------------------------------------------------------


def test_deblur_smoke_run(tmp_path):
    cfg = write_config(
        tmp_path, deblur_config(n_v=32, n_h=32, n_t=4, method="AnisoTV")
    )
    out = tmp_path / "run"
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out)]) == 0
    for t in range(4):
        assert (out / f"frame_{t:03d}.pgm").is_file()
        assert (out / f"truth_{t:03d}.pgm").is_file()
    rows = read_history(out / "history.csv")
    assert rows[0] == list(cli.HISTORY_COLUMNS)
    assert 1 <= len(rows) - 1 <= 150
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["method"] == "AnisoTV"
    assert summary["report"]["rre_total"] < 1.0
    if summary["stop_reason"] == "discrepancy":
        last = rows[-1]
        assert float(last[3]) <= summary["eta"] * summary["delta"] * (1 + 1e-12)


def test_unknown_method_exit_2_names_all_six(tmp_path, capsys):
    cfg = write_config(tmp_path, deblur_config(method="TotalVariation"))
    assert cli.main_reconstruct(["--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    for name in ("AnisoTV", "TVplusTikhonov", "Aniso3DTV", "Iso3DTV", "IsoTV", "GS"):
        assert name in err


def test_empty_method_override_exit_2(tmp_path, capsys):
    # an empty method name used to be ignored, so the default method ran
    cfg = write_config(tmp_path, deblur_config(method=""))
    out = tmp_path / "o"
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out)]) == 2
    assert "unknown method ''" in capsys.readouterr().err
    assert not out.exists()


def test_static_baseline_writes_one_history_per_frame(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "radon-static-baseline",
            "scene": {"n_v": 16, "n_h": 16, "n_t": 3, "n_objects": 3, "seed": 2},
            "forward": {"n_angles_per_step": 6},
            "noise": {"sigma": 0.01, "seed": 4},
            "solver": {"max_iters": 60},
        },
    )
    out = tmp_path / "static"
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out)]) == 0
    for t in (1, 2, 3):
        rows = read_history(out / f"history_t{t:02d}.csv")
        assert rows[0] == list(cli.HISTORY_COLUMNS)
        assert len(rows) > 1
    assert not (out / "history.csv").exists()
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["method"] == "static-TV"
    assert len(summary["frames"]) == 3
    assert summary["iterations"] == sum(f["iterations"] for f in summary["frames"])
    # each frame's solve has its own δ, and no stack δ stands beside them
    with open(cfg) as fh:
        _, _, step_ops, *_ = cli.build_run(json.load(fh))
    assert [f["delta"] for f in summary["frames"]] == [np.sqrt(op.rows) for op in step_ops]
    assert "delta" not in summary


# two frames of a 12 x 12 scene: both hold a disk of unit intensity, and frame 1
# also one so bright that its data's squared norm overflows, which has left by
# frame 2
_BRIGHT_IN_FRAME_1 = [
    {"centers": [[6, 6], [6, 6]], "radii": [3, 3]},
    {"centers": [[6, 6], [60, 60]], "radii": [2, 2], "intensity": 1e153},
]
# a rectangle that frame 1's one ray (one angle, one detector) misses
_MISSED_IN_FRAME_1 = [{"shape": "rectangle", "centers": [[6, 1.5], [6, 6]], "radii": [1, 1]}]


@pytest.mark.parametrize(
    "objects, forward, experiment, message",
    [
        # the static baseline's whole-volume problem overflowed first, so its
        # message did not name the frame
        (
            _BRIGHT_IN_FRAME_1, {}, "radon-static-baseline",
            "frame 1 of the static baseline: squared norm of the whitened data is not finite",
        ),
        (
            _BRIGHT_IN_FRAME_1, {}, "radon-dynamic",
            "squared norm of the whitened data is not finite; lower the scene intensities",
        ),
        (
            _MISSED_IN_FRAME_1, {"n_angles_per_step": 1, "n_detectors": 1},
            "radon-static-baseline", "frame 1 of the static baseline has all-zero data",
        ),
    ],
    ids=["static-overflow", "coupled-overflow", "static-zero-frame"],
)
def test_data_the_solver_cannot_take_exit_2_naming_the_static_frame(
    tmp_path, capsys, objects, forward, experiment, message
):
    cfg = {
        "experiment": experiment,
        "scene": {"n_v": 12, "n_h": 12, "n_t": 2, "objects": objects},
        "noise": {"sigma": 0.0},
        "forward": forward,
    }
    out = tmp_path / "run"
    assert cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 1
    assert message in err, err
    assert not out.exists()


def test_coupled_run_solves_a_frame_with_all_zero_data(tmp_path, capsys):
    # one solve takes frame 1's all-zero data together with frame 2's, so the
    # frame the static baseline refuses is no error here
    cfg = {
        "experiment": "radon-dynamic",
        "scene": {"n_v": 12, "n_h": 12, "n_t": 2, "objects": _MISSED_IN_FRAME_1},
        "noise": {"sigma": 0.0},
        "forward": {"n_angles_per_step": 1, "n_detectors": 1},
        "solver": {"max_iters": 3},
    }
    out = tmp_path / "run"
    code = cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert len(read_history(out / "history.csv")) == 4


def test_static_baseline_solves_frames_whose_stacked_data_overflows(tmp_path, capsys):
    # each frame's squared data norm is about 1.4e308, so their sum, the
    # whole volume's, overflows: the static baseline solves no whole-volume
    # problem and runs, while the coupled run refuses its data
    objects = [{"centers": [[6, 6], [6, 6]], "radii": [3, 3], "intensity": 3.3e152}]
    cfg = {
        "experiment": "radon-static-baseline",
        "scene": {"n_v": 12, "n_h": 12, "n_t": 2, "objects": objects},
        "noise": {"sigma": 0.0},
        "solver": {"max_iters": 5},
    }
    out = tmp_path / "static"
    code = cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    with open(out / "summary.json") as fh:
        report = json.load(fh)["report"]
    assert np.isfinite([report["rre_total"], *report["ssim_per_frame"]]).all()
    cfg["experiment"] = "radon-dynamic"
    code = cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert "squared norm of the whitened data is not finite" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    code = cli.main_reconstruct(
        ["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_malformed_configs_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.main_reconstruct(["--config", str(bad_json), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    # 12 x 12 scenes clear the SSIM size check, so each config reaches its own error
    scene = {"n_v": 12, "n_h": 12, "n_t": 2}

    def bright(intensity):
        return {"intensity": intensity, "centers": [[6, 6], [6, 7]], "radii": [3, 3]}

    cases = [
        ([{"experiment": "deblur", "scene": scene}], "config must be a JSON object"),
        ({"scene": scene}, "missing required key 'experiment'"),
        ({"experiment": "ct-scan", "scene": scene}, "unknown experiment 'ct-scan'"),
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigma": -0.5}},
            "invalid noise section",
        ),
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigma": float("nan")}},
            "invalid noise section",
        ),
        (
            {"experiment": "deblur", "scene": scene, "solver": {"lambda": -1}},
            "invalid solver section",
        ),
        # SSIM needs 11 x 11 frames; the run must stop before solving, not after
        (
            {"experiment": "deblur", "scene": {"n_v": 8, "n_h": 8, "n_t": 2}},
            "at least 11 pixels",
        ),
        # sections that are not JSON objects used to raise AttributeError
        (
            {"experiment": "deblur", "scene": scene, "solver": [1]},
            "invalid solver section: must be a JSON object",
        ),
        (
            {"experiment": "deblur", "scene": scene, "noise": "loud"},
            "invalid noise section: must be a JSON object",
        ),
        (
            {"experiment": "deblur", "scene": scene, "forward": 3},
            "invalid forward section: must be a JSON object",
        ),
        (
            {"experiment": "deblur", "scene": dict(scene, objects=[1])},
            "invalid scene section",
        ),
        (
            {"experiment": "deblur", "scene": dict(scene, objects=bright(1.0))},
            "invalid scene section: objects must be a list of JSON objects, got {",
        ),
        # the blur and the ray transform are built for square frames only
        (
            {"experiment": "deblur", "scene": dict(scene, n_h=14)},
            "deblur scenes must be square",
        ),
        (
            {"experiment": "radon-dynamic", "scene": dict(scene, n_h=14)},
            "tomography scenes must be square",
        ),
        # non-finite or overflowing simulated data used to fail in
        # ReconstructionProblem with a traceback, after the output directory
        # was created
        (
            {"experiment": "deblur", "scene": dict(scene, objects=[bright(float("nan"))])},
            "invalid scene section: intensity must be finite",
        ),
        (
            {
                "experiment": "deblur",
                "scene": dict(scene, objects=[bright(1e200)]),
                "noise": {"sigma": 0.01},
            },
            "data must be finite (found NaN or infinity); "
            "lower the scene intensities or the noise sigma",
        ),
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigma": 1e300}},
            "noise covariance diagonal must be finite; "
            "lower the scene intensities or the noise sigma",
        ),
        # finite noiseless data whose squared norm overflows used to stop the
        # solve with "seed basis is empty" (exit 1)
        (
            {
                "experiment": "deblur",
                "scene": dict(scene, objects=[bright(1e200)]),
                "noise": {"sigma": 0.0},
            },
            "squared norm of the whitened data is not finite",
        ),
        # non-finite solver values used to fail inside the solve
        (
            {"experiment": "deblur", "scene": scene, "solver": {"lambda": float("inf")}},
            "fixed lam must be positive and finite",
        ),
        # so did a sigma_psf whose square overflows (an OverflowError in the
        # kernel) or underflows (NaN kernels, blamed on the data)
        *(
            (
                {"experiment": "deblur", "scene": scene, "forward": {"sigma_psf": sigma}},
                "invalid forward section: sigma_psf must be positive and finite, with a square",
            )
            for sigma in (1e160, 1e-200)
        ),
        # a scene that renders to zero data used to fail in add_noise with a
        # traceback (sigma > 0) or to exit 1 after writing history.csv (sigma 0)
        (
            {"experiment": "deblur", "scene": dict(scene, n_objects=0), "noise": {"sigma": 0.01}},
            "all-zero data, so noise sigma 0.01 has no scale",
        ),
        (
            {"experiment": "deblur", "scene": dict(scene, objects=[]), "noise": {"sigma": 0.0}},
            "all-zero data, so there is nothing to reconstruct",
        ),
        # a scene whose only disk leaves the frame at step 2: the static
        # baseline used to solve frame 1, write its history and exit 1 with
        # "seed basis is empty"; the coupled experiments solved both frames,
        # wrote history.csv and then raised from rre_per_frame
        *(
            (
                {
                    "experiment": experiment,
                    "scene": dict(
                        scene, objects=[{"centers": [[6, 6], [60, 60]], "radii": [2, 2]}]
                    ),
                    "noise": {"sigma": sigma},
                },
                "frame 2 of the scene is empty, so its RRE is undefined",
            )
            for experiment in cli.EXPERIMENTS
            for sigma in (0.0, 0.01)
        ),
        # a finite center whose square overflows raised numpy's overflow
        # warning in render_scene before it emptied its frame
        (
            {
                "experiment": "deblur",
                "scene": dict(
                    scene, objects=[{"centers": [[6, 6], [1e200, 6]], "radii": [2, 2]}]
                ),
            },
            "frame 2 of the scene is empty, so its RRE is undefined",
        ),
        # an infinite center (JSON 1e400) emptied its frame the same way, and
        # a radius of 1e300 raised OverflowError at rad**2 in render_scene
        (
            {
                "experiment": "deblur",
                "scene": dict(
                    scene, objects=[{"centers": [[6, 6], [float("inf"), 6]], "radii": [2, 2]}]
                ),
            },
            "invalid scene section: each coordinate of centers must be finite, got inf",
        ),
        (
            {
                "experiment": "radon-dynamic",
                "scene": dict(scene, objects=[{"centers": [[6, 6], [6, 6]], "radii": [2, 1e300]}]),
            },
            "invalid scene section: radii must be positive, with a finite square",
        ),
        # integer fields used to be truncated (12.9 ran as 12)
        (
            {"experiment": "deblur", "scene": dict(scene, n_v=12.9)},
            "invalid scene section: n_v must be an integer, got 12.9",
        ),
        (
            {"experiment": "deblur", "scene": dict(scene, n_t=True)},
            "invalid scene section: n_t must be an integer, got True",
        ),
        (
            {"experiment": "deblur", "scene": dict(scene, n_objects=2.5)},
            "invalid scene section: n_objects must be an integer, got 2.5",
        ),
        (
            {"experiment": "deblur", "scene": dict(scene, seed="3")},
            "invalid scene section: seed must be an integer, got '3'",
        ),
        (
            {"experiment": "deblur", "scene": scene, "noise": {"seed": 1.5}},
            "invalid noise section: seed must be an integer, got 1.5",
        ),
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigma": 0.01, "seed": -1}},
            "noise seed must be nonnegative, got -1",
        ),
        (
            {"experiment": "deblur", "scene": scene, "solver": {"max_iters": 1.9}},
            "invalid solver section: max_iters must be an integer, got 1.9",
        ),
        (
            {"experiment": "deblur", "scene": scene, "forward": {"bandwidth": 2.5}},
            "invalid forward section: bandwidth must be an integer, got 2.5",
        ),
        (
            {
                "experiment": "radon-dynamic",
                "scene": scene,
                "forward": {"n_angles_per_step": 4.5},
            },
            "invalid forward section: n_angles_per_step must be an integer, got 4.5",
        ),
        (
            {"experiment": "radon-dynamic", "scene": scene, "forward": {"n_detectors": 17.2}},
            "invalid forward section: n_detectors must be an integer, got 17.2",
        ),
        # misspelled or misplaced keys used to be ignored, so each run went on
        # with the library default in its place
        (
            {"experiment": "deblur", "scene": scene, "sovler": {"lambda": 5}},
            "unknown key 'sovler' in config; valid keys are experiment, scene, noise, "
            "forward, solver",
        ),
        # the output directory is --out alone; the config key that stood in
        # for it is refused, not read
        (
            {"experiment": "deblur", "scene": scene, "output_dir": "results"},
            "unknown key 'output_dir' in config; valid keys are experiment, scene, noise, "
            "forward, solver",
        ),
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigam": 0.05}},
            "unknown key 'sigam' in noise; valid keys are sigma, seed",
        ),
        (
            {"experiment": "deblur", "scene": scene, "solver": {"lamda": 5}},
            "unknown key 'lamda' in solver; valid keys are method, max_iters, rel_change_tol, "
            "lambda",
        ),
        # the nonnegativity clipping is gone, and the seed size, the
        # discrepancy factor, the GCV grid and the penalty's smoothing are
        # constants; a config that still sets one is refused, not run without
        # it, even at the constant's value
        *(
            (
                {"experiment": experiment, "scene": scene, "solver": {key: value}},
                f"unknown key {key!r} in solver; valid keys are method, max_iters, "
                "rel_change_tol, lambda",
            )
            for key, value in (
                ("nonneg", True), ("gk_steps", 5), ("eta", 1.01), ("lambda_grid", [0.1, 1.0]),
                ("epsilon", 1e-3),
            )
            for experiment in ("deblur", "radon-static-baseline")
        ),
        (
            {"experiment": "deblur", "scene": scene, "forward": {"n_detectors": 20}},
            "unknown key 'n_detectors' in forward; valid keys are sigma_psf, bandwidth",
        ),
        (
            {"experiment": "radon-dynamic", "scene": scene, "forward": {"sigma_psf": 1.0}},
            "unknown key 'sigma_psf' in forward; valid keys are n_angles_per_step, "
            "angle_stride_deg, n_detectors",
        ),
        # booleans and strings used to pass as numbers: true ran as sigma 1.0
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigma": True}},
            "invalid noise section: sigma must be a number, got True",
        ),
        # an integer beyond the float range used to end in an OverflowError;
        # as a size or a count it would build or run without bound
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigma": 10**400}},
            "invalid noise section: sigma must be finite, got 1000",
        ),
        (
            {"experiment": "deblur", "scene": dict(scene, n_v=10**400)},
            "invalid scene section: n_v must be finite, got 1000",
        ),
        (
            {"experiment": "deblur", "scene": scene, "solver": {"max_iters": 10**400}},
            "invalid solver section: max_iters must be finite, got 1000",
        ),
        # lists are checked entry by entry by the types that own them
        (
            {
                "experiment": "deblur",
                "scene": dict(scene, objects=[{"centers": "abc", "radii": [3, 3]}]),
            },
            "invalid scene section: centers must be a list of (row, col) pairs, got 'abc'",
        ),
        (
            {
                "experiment": "deblur",
                "scene": dict(scene, objects=[dict(bright(1.0), radii=["3", "3"])]),
            },
            "invalid scene section: each of radii must be a number, got '3'",
        ),
        # listed objects used to win silently over the random disks' keys
        *(
            (
                {"experiment": "deblur", "scene": dict(scene, objects=[bright(1.0)], **extra)},
                f"scene objects cannot be given with {key}; "
                "with objects the valid keys are n_v, n_h, n_t, objects",
            )
            for extra in ({"n_objects": 2}, {"seed": 1})
            for key in extra
        ),
        # the scene's one preset is not a key: the removed form is refused, not read
        *(
            (
                {"experiment": "deblur", "scene": dict(scene, **extra)},
                "unknown key 'preset' in scene; valid keys are n_v, n_h, n_t, n_objects, seed, "
                "objects",
            )
            for extra in ({"preset": "moving-disks"}, {"preset": "moving-disks", "objects": []})
        ),
    ]
    for i, (config, message) in enumerate(cases):
        cfg = write_config(tmp_path, config, f"bad{i}.json")
        out = tmp_path / f"out{i}"
        assert cli.main_reconstruct(["--config", cfg, "--out", str(out)]) == 2, message
        err = capsys.readouterr().err
        assert err.count("configuration error") == 1, message
        assert message in err, err
        assert not out.exists(), message


@pytest.mark.parametrize("sigma", [1e-160, 1e-170])
def test_noise_too_small_for_a_variance_runs_as_noiseless(tmp_path, capsys, sigma):
    # on the CI smoke scene, noise sigma 1e-160 leaves a nonzero e whose
    # variance ‖e‖²/m underflows to 0; it used to exit 2 with a zero covariance
    # blamed on the scene intensities, while at 1e-170, where ‖e‖² is 0, the
    # run was already noiseless
    cfg = {
        "experiment": "deblur",
        "scene": {"n_v": 12, "n_h": 12, "n_t": 2, "n_objects": 2, "seed": 0},
        "noise": {"sigma": sigma, "seed": 1},
        "forward": {"sigma_psf": 2.0, "bandwidth": 4},
        "solver": {"max_iters": 10},
    }
    out = tmp_path / "run"
    code = cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    with open(out / "summary.json") as fh:
        assert json.load(fh)["delta"] == 0.0


def test_empty_sections_take_the_library_defaults():
    cfg = {"experiment": "deblur", "scene": {"n_v": 12, "n_h": 12, "n_t": 2}}
    _, _, _, _, noise, config = cli.build_run(dict(cfg, noise={}, solver={}))
    assert noise == dv.NoiseSpec()
    assert config == dv.SolverConfig(regularizer=dv.RegularizerSpec(dims=(12, 12, 2)))


def test_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    # raised a UnicodeDecodeError traceback (exit 1)
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe")
    out = tmp_path / "o"
    assert cli.main_reconstruct(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 1
    assert "configuration error: config is not UTF-8 text" in err, err
    assert not out.exists()


def test_empty_output_dir_exit_2(tmp_path, capsys, monkeypatch):
    # "" exited 0 and wrote every artifact into the working directory
    path = write_config(tmp_path, deblur_config(n_v=12, n_h=12))
    run_dir = tmp_path / "cwd"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert cli.main_reconstruct(["--config", path, "--out", ""]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 1
    assert "configuration error: no output directory" in err, err
    assert list(run_dir.iterdir()) == []


def test_missing_output_dir_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, deblur_config())
    with pytest.raises(SystemExit) as exc:
        cli.main_reconstruct(["--config", cfg])
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_out_at_or_under_a_file_exit_2(tmp_path, capsys):
    # mkdir raised a FileExistsError or NotADirectoryError traceback, exit 1
    cfg = write_config(tmp_path, deblur_config(n_v=12, n_h=12))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    for out in (taken, taken / "run"):
        assert cli.main_reconstruct(["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot create output directory {out}" in err
    assert taken.read_text() == "not a directory"


def test_solver_failure_exit_1_flushes_partial_history(tmp_path, capsys, monkeypatch):
    # a valid config reaches no SolverError, so the solve is made to abort
    # after two iterations
    def aborting_solve(problem, config):
        result = dv.mm_gks_solve(problem, dataclasses.replace(config, max_iters=2))
        raise dv.SolverError("non-finite iterate at iteration 3", history=result.history)

    monkeypatch.setattr(cli, "mm_gks_solve", aborting_solve)
    # noiseless, so no discrepancy stop ends the two iterations early
    cfg = write_config(tmp_path, deblur_config(n_v=12, n_h=12, sigma=0.0))
    out = tmp_path / "fail"
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out)]) == 1
    assert "solver failure: non-finite iterate" in capsys.readouterr().err
    rows = read_history(out / "history.csv")
    assert rows[0] == list(cli.HISTORY_COLUMNS)
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    assert not (out / "summary.json").exists()


def test_singular_system_exit_1_flushes_partial_history(tmp_path, capsys, monkeypatch):
    # a SingularSystemError (GCV undefined on the whole grid, here at
    # iteration 3) was no SolverError: the run exited 1 and wrote no history
    select, calls = dv.solver.select_lambda, []

    def failing_select(pair, grid):
        calls.append(grid)
        if len(calls) == 3:
            raise dv.SingularSystemError("GCV curve is undefined on the whole grid")
        return select(pair, grid)

    monkeypatch.setattr(dv.solver, "select_lambda", failing_select)
    cfg = write_config(tmp_path, smoke_config())
    out = tmp_path / "fail"
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out)]) == 1
    assert "solver failure: GCV curve is undefined" in capsys.readouterr().err
    rows = read_history(out / "history.csv")
    assert rows[0] == list(cli.HISTORY_COLUMNS)
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("solver", [{}, {"lambda": 0.05}], ids=["gcv", "fixed-lambda"])
def test_grid_overflow_exit_1_with_the_scale_message(tmp_path, capsys, solver):
    # a disk of intensity 1e153 under noise 0.5 scales GCV's balanced grid
    # by 2^1024, past the float range: the run used to exit 0 after 2
    # iterations at RRE 1.00000, with an overflow warning, and a fixed λ,
    # whose λ·2^1024 is still finite, did so silently
    cfg = {
        "experiment": "deblur",
        "scene": {"n_v": 12, "n_h": 12, "n_t": 2, "objects": [
            {"centers": [[6, 6], [6, 7]], "radii": [3, 3], "intensity": 1e153}]},
        "noise": {"sigma": 0.5, "seed": 1},
        "solver": solver,
    }
    out = tmp_path / "fail"
    assert cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "solver failure: GCV grid overflows" in err and "2^1024" in err, err
    assert "rescale the scene intensities" in err
    assert read_history(out / "history.csv") == [list(cli.HISTORY_COLUMNS)]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("sigma", [1e-155, 1e-158])
def test_noise_whose_variance_is_subnormal_exit_2_advising_more_noise(tmp_path, capsys, sigma):
    # Γ^(-1/2) of a subnormal variance exceeds 1e153, so the whitened data
    # overflow; the message blamed the scene intensities or the noise sigma
    cfg = smoke_config()
    cfg["noise"]["sigma"] = sigma
    out = tmp_path / "run"
    assert cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 1
    advice = "whitened data is not finite; raise the noise sigma, or set it to 0 for noiseless data"
    assert advice in err, err
    assert not out.exists()


# the nonnegativity clipping is gone, and the noise seed and the method are
# set in the config alone
@pytest.mark.parametrize(
    "flag", [["--nonneg"], ["--seed", "3"], ["--method", "GS"]], ids=lambda flag: flag[0]
)
def test_removed_flags_exit_2(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, deblur_config())
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        cli.main_reconstruct(["--config", cfg, "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        cli.main_reconstruct(["--help"])
    assert exc.value.code == 0
    assert flag[0] not in capsys.readouterr().out


def test_seed_and_method_come_from_the_config(tmp_path):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    reseeded_cfg, gs_cfg = deblur_config(), deblur_config(method="GS")
    reseeded_cfg["noise"]["seed"] = 99
    for cfg, out in ((deblur_config(), out_a), (reseeded_cfg, out_b), (gs_cfg, out_c)):
        path = write_config(tmp_path, cfg, f"{out.name}.json")
        assert cli.main_reconstruct(["--config", path, "--out", str(out)]) == 0
    with open(out_a / "summary.json") as fh:
        base = json.load(fh)
    with open(out_b / "summary.json") as fh:
        reseeded = json.load(fh)
    with open(out_c / "summary.json") as fh:
        swapped = json.load(fh)
    assert base["noise_seed"] == 5 and reseeded["noise_seed"] == 99
    assert base["method"] == "AnisoTV" and swapped["method"] == "GS"
    # the rescaled draw pins the noise norm, so only the realization changes
    assert reseeded["noise_norm"] == base["noise_norm"]
    assert (out_a / "history.csv").read_bytes() != (out_b / "history.csv").read_bytes()


def test_runs_are_bitwise_reproducible(tmp_path):
    cfg = write_config(tmp_path, deblur_config())
    out_a, out_b = tmp_path / "r1", tmp_path / "r2"
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out_b)]) == 0
    for name in ("frame_000.pgm", "frame_001.pgm", "history.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_summary_records_the_blas_thread_setting(tmp_path, monkeypatch):
    # the artifacts are bitwise reproducible only at a fixed BLAS thread
    # count, so the summary says which setting the run had; unset is null
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path, deblur_config(max_iters=2))
    assert cli.main_reconstruct(["--config", cfg, "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
    }


@pytest.mark.parametrize("experiment", ["deblur", "radon-dynamic", "radon-static-baseline"])
def test_summary_report_holds_quality_only(tmp_path, experiment):
    # the report also copied the iterations and the final lambda of a
    # discrepancy stop, which the summary records for every run
    cfg = {**smoke_config(), "experiment": experiment}
    if experiment != "deblur":
        del cfg["forward"]
    out = tmp_path / "run"
    assert cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["report"]) == ["rre_total", "rre_per_frame", "ssim_per_frame"]
    assert summary["iterations"] > 0 and isinstance(summary["stop_reason"], str)


def test_fixed_lambda_run_restarts_its_basis(tmp_path):
    # 40 noiseless fixed-lambda iterations take the basis of this 288-voxel
    # scene past its 30-column cap, so subspace_dim must fall back at a
    # restart, to one past the kept iterates; no row may show another lambda
    cfg = smoke_config()
    cfg["noise"]["sigma"] = 0.0
    cfg["solver"].update({"lambda": 1e-4, "max_iters": 40, "rel_change_tol": 0})
    out = tmp_path / "run"
    assert cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40 and {float(row["lambda"]) for row in rows} == {1e-4}
    dims = [int(row["subspace_dim"]) for row in rows]
    drops = [b for a, b in zip(dims, dims[1:]) if b < a]
    assert drops and set(drops) == {dv.solver._RESTART_ITERATES + 1}, dims
    assert json.loads((out / "summary.json").read_text())["lambda_final"] == 1e-4


def test_history_writes_each_record_field_in_order(tmp_path):
    # one column per IterationRecord field, two of them under shorter names
    short = {"iter": "iteration", "lambda": "lam"}
    fields = [field.name for field in dataclasses.fields(dv.IterationRecord)]
    assert [short.get(col, col) for col in cli.HISTORY_COLUMNS] == fields
    records = [
        dv.IterationRecord(iteration=1, lam=np.float64(0.123456789), objective=2.5,
                           dp_residual=np.float64(3.25), rre=None, subspace_dim=5),
        dv.IterationRecord(iteration=2, lam=1e-6, objective=np.float32(0.1),
                           dp_residual=1 / 3, rre=np.float64(2 / 3), subspace_dim=np.int64(6)),
    ]
    cli._write_history(tmp_path / "history.csv", records)
    assert read_history(tmp_path / "history.csv") == [
        list(cli.HISTORY_COLUMNS),
        ["1", "0.123456789", "2.5", "3.25", "", "5"],
        ["2", "1e-06", "0.1000000015", "0.3333333333", "0.6666666667", "6"],
    ]


def test_pgm_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    img = rng.integers(0, 65536, size=(9, 13), dtype=np.uint16)
    path = tmp_path / "img.pgm"
    cli._write_pgm16(path, img)
    back = oracles.read_pgm16(path)
    np.testing.assert_array_equal(back, img)
    header = path.read_bytes()[:20]
    assert header.startswith(b"P5\n13 9\n65535\n")


def test_read_pgm16_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ValueError):
        oracles.read_pgm16(path)


# --- compare -----------------------------------------------------------------------


def test_compare_run_with_itself_identical_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, deblur_config())
    out = tmp_path / "solo"
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main_compare([str(out), str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].rstrip() == lines[2].rstrip()


def test_compare_three_methods_sorted_by_rre(tmp_path, capsys):
    dirs = []
    for method in ("AnisoTV", "IsoTV", "GS"):
        cfg_path = write_config(tmp_path, deblur_config(method=method), f"{method}.json")
        out = tmp_path / method
        assert cli.main_reconstruct(["--config", cfg_path, "--out", str(out)]) == 0
        dirs.append(str(out))
    capsys.readouterr()
    assert cli.main_compare(dirs) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    rres = [float(line.split()[2]) for line in lines[1:]]
    assert rres == sorted(rres)
    summaries = []
    for d in dirs:
        with open(tmp_path / d / "summary.json") as fh:
            summaries.append(json.load(fh))
    want = sorted(s["report"]["rre_total"] for s in summaries)
    np.testing.assert_allclose(rres, want, atol=5e-6)  # table prints 5 decimals


def test_compare_sorts_runs_without_a_total_last(tmp_path, capsys):
    # the missing total read NaN, which left the rows in the order given
    dirs = []
    for name, report in (("a", {"rre_total": 0.5}), ("b", {}), ("c", {"rre_total": 0.3})):
        run_dir = tmp_path / name
        run_dir.mkdir()
        (run_dir / "summary.json").write_text(json.dumps({"report": report}))
        (run_dir / "history.csv").write_text("iter\n")
        dirs.append(str(run_dir))
    assert cli.main_compare(dirs) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == [dirs[2], dirs[0], dirs[1]]


def test_compare_shows_the_iterations_and_stop_reason_of_each_run(tmp_path, capsys):
    # both come from the summary's own iterations and stop_reason: the
    # smoke run ends at max_iters, and each of the static baseline's two
    # frames takes 10 iterations; the column read a DP-only copy, "-" here
    coupled = smoke_config()
    static = {**smoke_config(), "experiment": "radon-static-baseline"}
    del static["forward"]
    dirs = []
    for name, cfg in (("coupled", coupled), ("static", static)):
        out = tmp_path / name
        assert cli.main_reconstruct(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        dirs.append(str(out))
    capsys.readouterr()
    assert cli.main_compare(dirs) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:5] == ["run", "method", "rre_total", "iters", "stop"]
    rows = {line.split()[0]: line.split()[1:5] for line in lines[1:]}
    assert rows[dirs[0]][0] == "AnisoTV" and rows[dirs[0]][2:] == ["10", "max_iters"]
    assert rows[dirs[1]][0] == "static-TV" and rows[dirs[1]][2:] == ["20", "per-frame"]
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "summary.json").write_text(json.dumps({"report": {"rre_total": 0.5}}))
    (bare / "history.csv").write_text("iter\n")
    assert cli.main_compare([str(bare)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[1:5] == ["?", "0.50000", "-", "?"]


def test_compare_missing_summary_or_history_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main_compare([str(empty)]) == 2
    assert "cannot compare" in capsys.readouterr().err

    no_hist = tmp_path / "nohist"
    no_hist.mkdir()
    (no_hist / "summary.json").write_text("{}")
    assert cli.main_compare([str(no_hist)]) == 2
    assert "history" in capsys.readouterr().err

    # a summary that is not an object, or whose report is not one, raised
    # an AttributeError traceback
    for text in ("[1, 2]", '{"report": [1]}'):
        bad = tmp_path / f"bad{len(text)}"
        bad.mkdir()
        (bad / "summary.json").write_text(text)
        (bad / "history.csv").write_text("iter\n")
        assert cli.main_compare([str(bad)]) == 2
        assert "cannot compare runs: " in capsys.readouterr().err

    # a report entry of the wrong type raised a TypeError traceback (exit 1),
    # and so does an iteration count or a stop reason of the wrong type
    cases = [
        ({"rre_total": [1]}, "report entry rre_total must be a number, got [1]"),
        ({"rre_total": True}, "report entry rre_total must be a number, got True"),
        ({"rre_per_frame": 5}, "report entry rre_per_frame must be a list of numbers, got 5"),
        (
            {"ssim_per_frame": [0.5, "x"]},
            "each value of report entry ssim_per_frame must be a number, got 'x'",
        ),
    ]
    cases = [({"report": report}, message) for report, message in cases] + [
        ({"iterations": 2.5}, "summary entry iterations must be an integer, got 2.5"),
        ({"iterations": False}, "summary entry iterations must be an integer, got False"),
        ({"stop_reason": None}, "summary entry stop_reason must be a string, got None"),
        ({"stop_reason": 3}, "summary entry stop_reason must be a string, got 3"),
    ]
    for i, (summary, message) in enumerate(cases):
        bad = tmp_path / f"report{i}"
        bad.mkdir()
        (bad / "summary.json").write_text(json.dumps(summary))
        (bad / "history.csv").write_text("iter\n")
        assert cli.main_compare([str(bad)]) == 2, message
        err = capsys.readouterr().err
        assert f"cannot compare runs: {bad / 'summary.json'}: {message}" in err, err


def test_compare_refuses_a_method_that_is_not_a_string(tmp_path, capsys):
    # a null, list or object method raised a TypeError traceback (exit 1)
    # from the table's format string; a missing one still prints "?"
    report = {"rre_total": 0.5}
    for i, method in enumerate((None, ["GS"], {"name": "GS"})):
        bad = tmp_path / f"method{i}"
        bad.mkdir()
        (bad / "summary.json").write_text(json.dumps({"method": method, "report": report}))
        (bad / "history.csv").write_text("iter\n")
        assert cli.main_compare([str(bad)]) == 2, method
        err = capsys.readouterr().err
        want = f"{bad / 'summary.json'}: summary entry method must be a string, got {method!r}"
        assert f"cannot compare runs: {want}" in err, err
    unnamed = tmp_path / "unnamed"
    unnamed.mkdir()
    (unnamed / "summary.json").write_text(json.dumps({"report": report}))
    (unnamed / "history.csv").write_text("iter\n")
    assert cli.main_compare([str(unnamed)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[1] == "?"
