"""Relative reconstruction error and structural similarity."""

import dataclasses

import numpy as np
import pytest

import dyntv as dv
import oracles


# --- RRE ---------------------------------------------------------------------------


def test_rre_worked_examples():
    assert dv.rre([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert dv.rre([0.0, 0.0], [3.0, 4.0]) == 1.0
    np.testing.assert_allclose(dv.rre([3.0, 0.0], [3.0, 4.0]), 0.8, rtol=1e-15)


def test_rre_of_scaled_truth_is_scale_offset():
    rng = np.random.default_rng(2)
    u_true = rng.standard_normal(50)
    np.testing.assert_allclose(dv.rre(1.5 * u_true, u_true), 0.5, rtol=1e-13)


def test_rre_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        dv.rre([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        dv.rre([1.0, 2.0], [0.0, 0.0])


def test_rre_per_frame_splits_stacked_volume():
    rng = np.random.default_rng(3)
    dims = (4, 5, 3)
    truth = rng.standard_normal(60) + 2.0
    u = truth.copy()
    frame = truth.reshape((20, 3), order="F")[:, 1]
    u.reshape((20, 3), order="F")[:, 1] = 0.0
    got = dv.rre_per_frame(u, truth, dims)
    assert got[0] == 0.0 and got[2] == 0.0
    np.testing.assert_allclose(got[1], 1.0, rtol=1e-15)
    assert len(got) == 3


# --- SSIM --------------------------------------------------------------------------


def test_ssim_identical_frames_is_one():
    rng = np.random.default_rng(4)
    img = rng.uniform(0.0, 1.0, size=(16, 16))
    assert dv.ssim(img, img, 1.0) == 1.0


def test_ssim_constant_frames_is_one():
    img = np.full((12, 12), 0.7)
    np.testing.assert_allclose(dv.ssim(img, img.copy(), 1.0), 1.0, rtol=1e-12)


def test_ssim_negated_structure_is_negative():
    v = np.linspace(0.0, 1.0, 16)
    ramp = np.add.outer(v, v) / 2.0
    flipped = ramp.mean() * 2.0 - ramp  # inverted about the mean
    assert dv.ssim(ramp, flipped, 1.0) < 0.0


def test_ssim_is_symmetric():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 2.0, size=(14, 15))
    b = a + rng.normal(0.0, 0.1, size=(14, 15))
    np.testing.assert_allclose(dv.ssim(a, b, 2.0), dv.ssim(b, a, 2.0), rtol=1e-12)


def test_ssim_matches_windowed_oracle():
    rng = np.random.default_rng(6)
    a = rng.uniform(0.0, 1.0, size=(13, 17))
    b = np.clip(a + rng.normal(0.0, 0.05, size=(13, 17)), 0.0, 1.0)
    np.testing.assert_allclose(
        dv.ssim(a, b, 1.0), oracles.ssim_brute(a, b, 1.0), rtol=1e-12
    )


def test_ssim_decreases_with_noise_level():
    rng = np.random.default_rng(7)
    truth = dv.render_scene(dv.moving_disks_scene(24, 24, 1, n_objects=4, seed=1))[:, :, 0]
    mild = truth + rng.normal(0.0, 0.02, truth.shape)
    harsh = truth + rng.normal(0.0, 0.3, truth.shape)
    assert dv.ssim(truth, harsh, 1.0) < dv.ssim(truth, mild, 1.0) < 1.0


@pytest.mark.parametrize(
    "scale", [2.0**-600, 1e-150, 1e150, 2.0**600], ids=["2^-600", "1e-150", "1e150", "2^600"]
)
def test_ssim_is_free_of_the_intensity_scale(scale):
    # its products of four intensities overflowed from about 1e77 on, so the
    # report read NaN, and underflowed at small scales
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 1.0, (14, 13))
    b = a + 0.1 * rng.standard_normal(a.shape)
    want = dv.ssim(a, b, 1.0)
    got = dv.ssim(scale * a, scale * b, scale)
    if np.frexp(scale)[0] == 0.5:  # a power of 2, which scales exactly
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_ssim_validates_inputs():
    ok = np.zeros((12, 12))
    with pytest.raises(ValueError):
        dv.ssim(ok, np.zeros((12, 13)), 1.0)
    with pytest.raises(ValueError):
        dv.ssim(np.zeros((8, 12)), np.zeros((8, 12)), 1.0)
    with pytest.raises(ValueError):
        dv.ssim(ok, ok, 0.0)


# --- reports -----------------------------------------------------------------------


def test_build_report_fields_and_perfect_reconstruction():
    dims = (12, 12, 2)
    truth = dv.vec(dv.render_scene(dv.moving_disks_scene(12, 12, 2, n_objects=3, seed=9)))
    report = dv.build_report(truth, truth, dims)
    assert report.rre_total == 0.0
    assert report.rre_per_frame == (0.0, 0.0)
    assert report.ssim_per_frame == (1.0, 1.0)
    # quality only: how the run ended is the solve's record, not the report's
    assert list(dataclasses.asdict(report)) == ["rre_total", "rre_per_frame", "ssim_per_frame"]
    with pytest.raises(TypeError):
        dv.build_report(truth, truth, dims, iters_at_dp=7)


@pytest.mark.parametrize("level, dyn", [(2.0, 2.0), (0.5, 1.0)])
def test_build_report_ssim_range_of_a_constant_truth(level, dyn):
    # a constant truth has no range of values, so SSIM takes max(|truth|, 1)
    dims = (12, 12, 2)
    truth = np.full(288, level)
    u = truth + 0.05 * np.random.default_rng(6).standard_normal(truth.size)
    report = dv.build_report(u, truth, dims)
    u3, t3 = u.reshape(dims, order="F"), truth.reshape(dims, order="F")
    want = [oracles.ssim_brute(u3[:, :, t], t3[:, :, t], dyn) for t in range(2)]
    np.testing.assert_allclose(report.ssim_per_frame, want, rtol=1e-10)


def test_build_report_detects_frame_damage():
    dims = (12, 12, 3)
    rng = np.random.default_rng(10)
    truth = dv.vec(dv.render_scene(dv.moving_disks_scene(12, 12, 3, n_objects=3, seed=4)))
    u = truth + 0.02 * rng.standard_normal(truth.size)
    u3 = u.reshape((144, 3), order="F")
    u3[:, 2] += rng.standard_normal(144)  # ruin the last frame
    report = dv.build_report(u3.ravel(order="F"), truth, dims)
    assert report.rre_per_frame[2] > report.rre_per_frame[0]
    assert report.ssim_per_frame[2] < report.ssim_per_frame[0]
    assert report.rre_per_frame[0] < report.rre_total < report.rre_per_frame[2]
