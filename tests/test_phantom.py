"""Scene rasterization, trajectories and exact-ratio noise injection."""

import numpy as np
import pytest

import dyntv as dv


def static_disk(n_v, n_h, n_t, center, radius, intensity=1.0):
    return dv.SceneSpec(
        n_v=n_v,
        n_h=n_h,
        n_t=n_t,
        objects=(
            dv.SceneObject(
                shape="disk",
                intensity=intensity,
                centers=(center,) * n_t,
                radii=(radius,) * n_t,
            ),
        ),
    )


# --- scene construction ------------------------------------------------------------


def test_empty_scene_renders_zeros():
    vol = dv.render_scene(dv.SceneSpec(n_v=4, n_h=5, n_t=3, objects=()))
    assert vol.shape == (4, 5, 3)
    np.testing.assert_array_equal(vol, np.zeros((4, 5, 3)))


def test_static_object_gives_identical_frames():
    vol = dv.render_scene(static_disk(12, 12, 4, (5.0, 6.0), 3.0, intensity=2.0))
    for t in range(1, 4):
        np.testing.assert_array_equal(vol[:, :, t], vol[:, :, 0])
    assert set(np.unique(vol)) == {0.0, 2.0}


def test_whole_pixel_motion_shifts_mask_exactly():
    centers = dv.linear_trajectory((4.0, 3.0), (0.0, 1.0), 3)
    scene = dv.SceneSpec(
        n_v=12,
        n_h=12,
        n_t=3,
        objects=(
            dv.SceneObject(shape="disk", intensity=1.0, centers=centers, radii=(2.5,) * 3),
        ),
    )
    vol = dv.render_scene(scene)
    np.testing.assert_array_equal(vol[:, 1:, 1], vol[:, :-1, 0])
    np.testing.assert_array_equal(vol[:, 2:, 2], vol[:, :-2, 0])


def test_rectangle_mask_is_axis_aligned_square():
    scene = dv.SceneSpec(
        n_v=7,
        n_h=7,
        n_t=1,
        objects=(
            dv.SceneObject(
                shape="rectangle", intensity=1.0, centers=((3.0, 3.0),), radii=(1.0,)
            ),
        ),
    )
    frame = dv.render_scene(scene)[:, :, 0]
    want = np.zeros((7, 7))
    want[2:5, 2:5] = 1.0
    np.testing.assert_array_equal(frame, want)


@pytest.mark.parametrize("shape", ["disk", "rectangle"])
def test_a_center_whose_square_overflows_renders_an_empty_frame(shape):
    # the disk's squared distance overflowed with numpy's RuntimeWarning
    # where the rectangle's test already left the frame empty
    centers = ((6.0, 6.0), (1e200, 6.0), (6.0, -1e200))
    scene = dv.SceneSpec(
        n_v=12,
        n_h=12,
        n_t=3,
        objects=(dv.SceneObject(shape=shape, intensity=1.0, centers=centers, radii=(2.0,) * 3),),
    )
    vol = dv.render_scene(scene)
    assert vol[:, :, 0].sum() > 0
    np.testing.assert_array_equal(vol[:, :, 1:], 0.0)


def test_overlapping_objects_add():
    scene = dv.SceneSpec(
        n_v=5,
        n_h=5,
        n_t=1,
        objects=(
            dv.SceneObject(shape="disk", intensity=1.0, centers=((2.0, 2.0),), radii=(1.2,)),
            dv.SceneObject(shape="disk", intensity=0.5, centers=((2.0, 2.0),), radii=(1.2,)),
        ),
    )
    frame = dv.render_scene(scene)[:, :, 0]
    assert frame[2, 2] == 1.5


def test_render_is_deterministic():
    scene = dv.moving_disks_scene(16, 16, 4, n_objects=5, seed=11)
    np.testing.assert_array_equal(dv.render_scene(scene), dv.render_scene(scene))


def test_linear_trajectory_worked_example():
    got = dv.linear_trajectory((1.0, 2.0), (0.5, -1.0), 3)
    assert got == ((1.0, 2.0), (1.5, 1.0), (2.0, 0.0))


@pytest.mark.parametrize("intensity", [float("nan"), float("inf"), -float("inf")])
def test_scene_object_rejects_non_finite_intensity(intensity):
    with pytest.raises(ValueError, match="intensity must be finite"):
        dv.SceneObject(shape="disk", intensity=intensity, centers=((0, 0),), radii=(1.0,))


def test_scene_validation():
    with pytest.raises(ValueError):
        dv.SceneObject(shape="triangle", intensity=1.0, centers=((0, 0),), radii=(1.0,))
    with pytest.raises(ValueError):
        dv.SceneObject(shape="disk", intensity=1.0, centers=((0, 0),), radii=(0.0,))
    with pytest.raises(ValueError):
        dv.SceneObject(shape="disk", intensity=1.0, centers=((0, 0), (1, 1)), radii=(1.0,))
    obj = dv.SceneObject(shape="disk", intensity=1.0, centers=((0, 0),), radii=(1.0,))
    with pytest.raises(ValueError):
        dv.SceneSpec(n_v=4, n_h=4, n_t=2, objects=(obj,))
    with pytest.raises(ValueError):
        dv.SceneSpec(n_v=0, n_h=4, n_t=1, objects=())
    with pytest.raises(ValueError):
        dv.NoiseSpec(sigma=-0.1)
    with pytest.raises(ValueError, match="noise seed must be nonnegative"):
        dv.NoiseSpec(sigma=0.1, seed=-1)
    # each was accepted (sigma True ran at 1, n_objects 2.5 drew 2 disks,
    # n_objects -3 none, and n_v 12.9 failed later in render_scene; an
    # infinite center, JSON 1e400, left its frame empty) or raised an error
    # that named no field (a bare TypeError; numpy's "expected non-negative
    # integer" for seed -1; an OverflowError at rad**2 in render_scene for a
    # radius of 1e300)
    for build, field in (
        (lambda: dv.NoiseSpec(sigma=True), "sigma"),
        (lambda: dv.NoiseSpec(seed=1.5), "seed"),
        (lambda: dv.moving_disks_scene(12, 12, 2, n_objects=2.5), "n_objects"),
        (lambda: dv.moving_disks_scene(12, 12, 2, seed="3"), "seed"),
        (lambda: dv.moving_disks_scene(12, 12, 2, n_objects=-3), "n_objects must be"),
        (lambda: dv.moving_disks_scene(12, 12, 2, seed=-1), "seed must be"),
        (lambda: dv.SceneObject(centers=[["6", "6"]], radii=["3"]), "centers"),
        (lambda: dv.SceneObject(centers="abc", radii=(3,)), "centers"),
        (lambda: dv.SceneObject(centers=((6, 6),), radii=("3",)), "radii"),
        (lambda: dv.SceneObject(centers=((6, 6),), radii=3), "radii must be a list of numbers"),
        (lambda: dv.SceneObject(centers=((6, 6),), radii=(3,), intensity=True), "intensity"),
        (lambda: dv.SceneObject(centers=((np.inf, 6),), radii=(2,)), "centers must be finite"),
        (lambda: dv.SceneObject(centers=((6, np.nan),), radii=(2,)), "centers must be finite"),
        (lambda: dv.SceneObject(centers=((6, 6),), radii=(1e300,)), "radii must be positive"),
        (lambda: dv.SceneObject(centers=((6, 6),), radii=(np.nan,)), "radii must be positive"),
        (lambda: dv.SceneSpec(n_v=12.9, n_h=12, n_t=1, objects=()), "n_v"),
        (lambda: dv.SceneSpec(n_v=12, n_h=10**400, n_t=1, objects=()), "n_h"),
        (lambda: dv.SceneSpec(n_v=12, n_h=12, n_t=True, objects=()), "n_t"),
    ):
        with pytest.raises(ValueError, match=field):
            build()


def test_moving_disks_scene_reproducible_and_inside_frame():
    scene = dv.moving_disks_scene(24, 20, 6, n_objects=8, seed=5)
    again = dv.moving_disks_scene(24, 20, 6, n_objects=8, seed=5)
    assert scene == again
    assert len(scene.objects) == 8
    for obj in scene.objects:
        for (r, c), rad in zip(obj.centers, obj.radii):
            assert rad <= r <= 23 - rad
            assert rad <= c <= 19 - rad
    assert dv.moving_disks_scene(24, 20, 6, n_objects=8, seed=6) != scene


def test_moving_disks_need_five_pixels_per_side():
    # a disk up to 0.14 of the side with a 1-pixel margin fits from 5 pixels
    # on; at 4 or fewer numpy used to fail with "high - low < 0"
    for n_v, n_h in ((4, 4), (4, 40), (40, 4), (1, 1)):
        with pytest.raises(ValueError, match="n_v and n_h must be at least 5"):
            dv.moving_disks_scene(n_v, n_h, 2)
    assert dv.moving_disks_scene(4, 4, 2, n_objects=0).objects == ()
    for seed in range(20):
        for n_v, n_h in ((5, 5), (5, 40), (40, 5)):
            scene = dv.moving_disks_scene(n_v, n_h, 8, seed=seed)
            for obj in scene.objects:
                for (r, c), rad in zip(obj.centers, obj.radii):
                    assert rad <= r <= n_v - 1 - rad and rad <= c <= n_h - 1 - rad


# --- noise injection ---------------------------------------------------------------


def test_add_noise_sigma_zero_returns_exact_copy():
    clean = np.array([1.0, -2.0, 0.5])
    noisy, delta = dv.add_noise(clean, dv.NoiseSpec(sigma=0.0, seed=3))
    np.testing.assert_array_equal(noisy, clean)
    assert delta == 0.0
    assert noisy is not clean


def test_add_noise_ratio_is_exact():
    rng = np.random.default_rng(7)
    clean = rng.standard_normal(400) + 5.0
    for sigma in (0.01, 0.05, 0.2):
        noisy, delta = dv.add_noise(clean, dv.NoiseSpec(sigma=sigma, seed=1))
        ratio = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
        np.testing.assert_allclose(ratio, sigma, rtol=1e-12)
        np.testing.assert_allclose(delta, sigma * np.linalg.norm(clean), rtol=1e-12)


def test_add_noise_deterministic_under_seed():
    clean = np.linspace(1.0, 2.0, 50)
    a, _ = dv.add_noise(clean, dv.NoiseSpec(sigma=0.1, seed=9))
    b, _ = dv.add_noise(clean, dv.NoiseSpec(sigma=0.1, seed=9))
    np.testing.assert_array_equal(a, b)
    c, _ = dv.add_noise(clean, dv.NoiseSpec(sigma=0.1, seed=10))
    assert not np.array_equal(a, c)


def test_add_noise_validates_inputs():
    with pytest.raises(ValueError):
        dv.add_noise(np.zeros(4), dv.NoiseSpec(sigma=0.1))
