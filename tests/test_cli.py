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
        # bad grids used to pass parsing and fail inside the solve, after the
        # output directory was created
        (
            {
                "experiment": "deblur",
                "scene": scene,
                "solver": {"lambda_grid": [1.0, float("nan")]},
            },
            "lambda_grid must be a non-empty list of finite positive values",
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
            "simulated data or its noise variance is not finite",
        ),
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigma": 1e300}},
            "simulated data or its noise variance is not finite",
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
        # non-finite solver values used to fail inside the solve (lambda,
        # epsilon) or to end it at iteration 1 (eta)
        (
            {"experiment": "deblur", "scene": scene, "solver": {"lambda": float("inf")}},
            "fixed lam must be positive and finite",
        ),
        (
            {"experiment": "deblur", "scene": scene, "solver": {"epsilon": float("inf")}},
            "epsilon must be positive and finite",
        ),
        (
            {"experiment": "deblur", "scene": scene, "solver": {"eta": float("inf")}},
            "eta must be finite and > 1",
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
        # a static-baseline frame with all-zero data used to be solved after
        # the earlier frames, writing their histories, and to exit 1 with
        # "seed basis is empty"; here the only disk leaves the frame at step 2
        (
            {
                "experiment": "radon-static-baseline",
                "scene": dict(
                    scene, objects=[{"centers": [[6, 6], [40, 40]], "radii": [3, 3]}]
                ),
                "noise": {"sigma": 0.0},
            },
            "frame 2 of the static baseline has all-zero data",
        ),
        # integer fields used to be truncated (12.9 ran as 12) or to fail
        # with a misleading message (gk_steps 0.5: "must be at least 1")
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
            {"experiment": "deblur", "scene": scene, "solver": {"gk_steps": 0.5}},
            "invalid solver section: gk_steps must be an integer, got 0.5",
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
            "forward, solver, output_dir",
        ),
        (
            {"experiment": "deblur", "scene": scene, "noise": {"sigam": 0.05}},
            "unknown key 'sigam' in noise; valid keys are sigma, seed",
        ),
        (
            {"experiment": "deblur", "scene": scene, "solver": {"lamda": 5}},
            "unknown key 'lamda' in solver; valid keys are method, eta, max_iters, gk_steps, "
            "rel_change_tol, epsilon, lambda, lambda_grid",
        ),
        # the nonnegativity clipping is gone; a config that still asks for it
        # is refused, not run without it
        (
            {"experiment": "deblur", "scene": scene, "solver": {"nonneg": True}},
            "unknown key 'nonneg' in solver; valid keys are method, eta, max_iters, gk_steps, "
            "rel_change_tol, epsilon, lambda, lambda_grid",
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
        (
            {"experiment": "deblur", "scene": scene, "solver": {"eta": "1.5"}},
            "invalid solver section: eta must be a number, got '1.5'",
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
        (
            {"experiment": "deblur", "scene": scene, "solver": {"lambda_grid": [True, 1.0]}},
            "invalid solver section: each of lambda_grid must be a number, got True",
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
        # the grid is a list, and the scene's one preset is not a key: the
        # removed forms are refused, not read
        (
            {"experiment": "deblur", "scene": scene, "solver": {"lambda_grid": {"n_points": 5}}},
            "invalid solver section: each of lambda_grid must be a number, got {'n_points': 5}",
        ),
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


def test_empty_sections_take_the_library_defaults():
    cfg = {"experiment": "deblur", "scene": {"n_v": 12, "n_h": 12, "n_t": 2}}
    _, _, _, _, noise, config = cli.build_run(dict(cfg, noise={}, solver={}))
    assert noise == dv.NoiseSpec()
    assert config == dv.SolverConfig(regularizer=dv.RegularizerSpec(dims=(12, 12, 2)))


def test_missing_output_dir_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, deblur_config())
    assert cli.main_reconstruct(["--config", cfg]) == 2
    assert "output directory" in capsys.readouterr().err


def test_output_dir_of_another_kind_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(deblur_config(), output_dir=5))
    assert cli.main_reconstruct(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "invalid config section: output_dir must be a string, got 5" in err
    assert not (tmp_path / "5").exists()


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


def test_removed_nonneg_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, deblur_config())
    out = tmp_path / "nn"
    with pytest.raises(SystemExit) as exc:
        cli.main_reconstruct(["--config", cfg, "--out", str(out), "--nonneg"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nonneg" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        cli.main_reconstruct(["--help"])
    assert exc.value.code == 0
    assert "--nonneg" not in capsys.readouterr().out


def test_seed_and_method_overrides(tmp_path):
    cfg = write_config(tmp_path, deblur_config())
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out_b), "--seed", "99"]) == 0
    assert cli.main_reconstruct(["--config", cfg, "--out", str(out_c), "--method", "GS"]) == 0
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
    cfg_path = write_config(tmp_path, deblur_config())
    dirs = []
    for method in ("AnisoTV", "IsoTV", "GS"):
        out = tmp_path / method
        code = cli.main_reconstruct(
            ["--config", cfg_path, "--out", str(out), "--method", method]
        )
        assert code == 0
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

    # a report entry of the wrong type raised a TypeError traceback (exit 1)
    cases = [
        ({"rre_total": [1]}, "report entry rre_total must be a number, got [1]"),
        ({"rre_total": True}, "report entry rre_total must be a number, got True"),
        ({"rre_per_frame": 5}, "report entry rre_per_frame must be a list of numbers, got 5"),
        (
            {"ssim_per_frame": [0.5, "x"]},
            "each value of report entry ssim_per_frame must be a number, got 'x'",
        ),
        ({"iters_at_dp": 2.5}, "report entry iters_at_dp must be an integer, got 2.5"),
        ({"iters_at_dp": False}, "report entry iters_at_dp must be an integer, got False"),
    ]
    for i, (report, message) in enumerate(cases):
        bad = tmp_path / f"report{i}"
        bad.mkdir()
        (bad / "summary.json").write_text(json.dumps({"report": report}))
        (bad / "history.csv").write_text("iter\n")
        assert cli.main_compare([str(bad)]) == 2, message
        err = capsys.readouterr().err
        assert f"cannot compare runs: {bad / 'summary.json'}: {message}" in err, err
