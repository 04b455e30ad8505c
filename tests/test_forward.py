"""Gaussian blur and parallel-beam Radon forward models, static and dynamic."""

import math

import numpy as np
import pytest

import dyntv as dv
import oracles
from dyntv.operators import DenseOperator


def centered_disk_image(side, radius):
    center = (side - 1) / 2.0
    scene = dv.SceneSpec(
        n_v=side,
        n_h=side,
        n_t=1,
        objects=(
            dv.SceneObject(
                shape="disk", intensity=1.0, centers=((center, center),), radii=(radius,)
            ),
        ),
    )
    return dv.render_scene(scene)[:, :, 0].ravel(order="F")


# --- Gaussian blur -----------------------------------------------------------------


def test_blur_model_validation():
    with pytest.raises(ValueError):
        dv.BlurModel(sigma_psf=0.0, bandwidth=2)
    with pytest.raises(ValueError):
        dv.BlurModel(sigma_psf=1.0, bandwidth=-1)
    with pytest.raises(ValueError):
        dv.BlurModel(sigma_psf=1.0, bandwidth=2, boundary="zero")


def test_blur_preserves_constant_images():
    op = dv.build_blur_operator(dv.BlurModel(sigma_psf=1.5, bandwidth=4), 9, 7)
    image = np.full(63, 3.25)
    np.testing.assert_allclose(op.apply(image), image, atol=1e-12)


def test_blur_bandwidth_zero_is_identity():
    op = dv.build_blur_operator(dv.BlurModel(sigma_psf=0.7, bandwidth=0), 5, 6)
    np.testing.assert_array_equal(op.to_dense(), np.eye(30))


def test_blur_matches_dense_kron_oracle():
    rng = np.random.default_rng(17)
    model = dv.BlurModel(sigma_psf=1.2, bandwidth=4)
    op = dv.build_blur_operator(model, 8, 8)
    want = np.kron(oracles.blur_matrix_1d(8, 1.2, 4), oracles.blur_matrix_1d(8, 1.2, 4))
    np.testing.assert_allclose(op.to_dense(), want, atol=1e-12)
    x = rng.standard_normal(64)
    np.testing.assert_allclose(op.apply(x), want @ x, atol=1e-12)


def test_blur_dense_form_symmetric_and_columns_sum_to_one():
    op = dv.build_blur_operator(dv.BlurModel(sigma_psf=2.0, bandwidth=6), 12, 10)
    dense = op.to_dense()
    np.testing.assert_array_equal(dense, dense.T)
    np.testing.assert_allclose(dense.sum(axis=0), np.ones(120), atol=1e-12)
    assert dense.min() >= 0.0


def test_blur_spectrum_positive_up_to_truncation_ringing():
    # hard truncation of the kernel rings in frequency space; the calibrated
    # blurs stay within -2e-3 of PSD and mild blurs are strictly positive
    for side in (8, 16, 32, 64):
        model = dv.medium_blur(side)
        dense = dv.build_blur_operator(model, side, side).to_dense()
        assert np.linalg.eigvalsh(dense).min() > 0
    heavy = dv.build_blur_operator(dv.BlurModel(sigma_psf=2.0, bandwidth=6), 32, 32)
    assert np.linalg.eigvalsh(heavy.to_dense()).min() >= -2e-3


def test_medium_blur_calibration():
    assert dv.medium_blur(128) == dv.BlurModel(sigma_psf=2.0, bandwidth=6)
    assert dv.medium_blur(32) == dv.BlurModel(sigma_psf=0.5, bandwidth=2)
    assert dv.medium_blur(8).bandwidth == 1  # floor keeps the kernel nontrivial


def test_blur_adjoint_identity():
    rng = np.random.default_rng(18)
    op = dv.build_blur_operator(dv.BlurModel(sigma_psf=1.0, bandwidth=3), 7, 6)
    for _ in range(20):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.apply_adjoint(y))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


# --- parallel-beam Radon -----------------------------------------------------------


def test_radon_model_validation():
    with pytest.raises(ValueError):
        dv.RadonModel(image_side=1, n_time_steps=4, n_angles_per_step=3)
    with pytest.raises(ValueError):
        dv.RadonModel(image_side=8, n_time_steps=0, n_angles_per_step=3)
    with pytest.raises(ValueError):
        dv.RadonModel(image_side=8, n_time_steps=4, n_angles_per_step=0)
    with pytest.raises(ValueError):
        dv.RadonModel(image_side=8, n_time_steps=4, n_angles_per_step=3, n_detectors=0)


def test_radon_angle_schedule():
    model = dv.RadonModel(image_side=16, n_time_steps=8, n_angles_per_step=3)
    np.testing.assert_array_equal(dv.radon_angles(model, 2), [2.0, 10.0, 18.0])
    wide = dv.RadonModel(
        image_side=16, n_time_steps=8, n_angles_per_step=3, angle_stride_deg=45.0
    )
    np.testing.assert_array_equal(dv.radon_angles(wide, 1), [1.0, 46.0, 91.0])


def test_radon_rejects_out_of_range_step():
    model = dv.RadonModel(image_side=8, n_time_steps=4, n_angles_per_step=2)
    with pytest.raises(ValueError):
        dv.radon_angles(model, 0)
    with pytest.raises(ValueError):
        dv.build_radon_operator(model, 5)


def test_radon_shape_and_detector_default():
    model = dv.RadonModel(image_side=32, n_time_steps=8, n_angles_per_step=5)
    assert model.detectors == math.ceil(math.sqrt(2.0) * 32)
    op = dv.build_radon_operator(model, 3)
    assert op.shape == (5 * model.detectors, 32 * 32)
    fixed = dv.RadonModel(image_side=8, n_time_steps=2, n_angles_per_step=2, n_detectors=9)
    assert dv.build_radon_operator(fixed, 1).rows == 18


def test_radon_entries_nonnegative():
    model = dv.RadonModel(image_side=10, n_time_steps=6, n_angles_per_step=4)
    dense = dv.build_radon_operator(model, 2).to_dense()
    assert dense.min() >= 0.0


def test_radon_centered_disk_symmetric_sinogram():
    # a centered disk is even, so opposite angles see identical columns and
    # mirrored angles see the detector-reversed column
    u = centered_disk_image(15, 5.0)
    model = dv.RadonModel(
        image_side=15, n_time_steps=360, n_angles_per_step=4, angle_stride_deg=90.0
    )
    for t in (45, 10, 160):
        sino = dv.build_radon_operator(model, t).apply(u)
        sino = sino.reshape(4, model.detectors)
        np.testing.assert_allclose(sino[0], sino[2], atol=1e-10)  # t vs t+180
        np.testing.assert_allclose(sino[1], sino[3], atol=1e-10)  # t+90 vs t+270
    mirror = dv.RadonModel(
        image_side=15, n_time_steps=360, n_angles_per_step=2, angle_stride_deg=90.0
    )
    sino = dv.build_radon_operator(mirror, 45).apply(u).reshape(2, mirror.detectors)
    np.testing.assert_allclose(sino[0], sino[1][::-1], atol=1e-10)  # 45 vs 135


def test_radon_disk_profile_rotation_invariant_to_raster_error():
    # pixelization roughness caps agreement between arbitrary angles well
    # above float precision; the profile shape still has to match coarsely
    u = centered_disk_image(15, 5.0)
    model = dv.RadonModel(
        image_side=15, n_time_steps=360, n_angles_per_step=7, angle_stride_deg=30.0
    )
    sino = dv.build_radon_operator(model, 15).apply(u).reshape(7, model.detectors)
    peak = sino.max()
    for row in sino[1:]:
        assert np.abs(row - sino[0]).max() <= 0.2 * peak
    masses = sino.sum(axis=1)
    np.testing.assert_allclose(masses, u.sum(), rtol=0.025)


def test_radon_mass_conservation_32():
    scene = dv.moving_disks_scene(32, 32, 1, n_objects=4, seed=3)
    u = dv.render_scene(scene)[:, :, 0].ravel(order="F")
    model = dv.RadonModel(image_side=32, n_time_steps=8, n_angles_per_step=5)
    sino = dv.build_radon_operator(model, 3).apply(u).reshape(5, model.detectors)
    np.testing.assert_allclose(sino.sum(axis=1), u.sum(), rtol=0.01)


def test_radon_adjoint_identity():
    rng = np.random.default_rng(19)
    model = dv.RadonModel(image_side=12, n_time_steps=4, n_angles_per_step=3)
    op = dv.build_radon_operator(model, 2)
    for _ in range(20):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        np.testing.assert_allclose(
            float(op.apply(x) @ y), float(x @ op.apply_adjoint(y)), rtol=1e-10, atol=1e-12
        )


# --- sparse ray transform against the per-ray dense oracle -------------------------

# name -> (RadonModel arguments, time steps checked)
RADON_GEOMETRIES = {
    "odd-side": (dict(image_side=7, n_time_steps=3, n_angles_per_step=2), (1, 3)),
    "even-side-64": (dict(image_side=64, n_time_steps=8, n_angles_per_step=9), (1, 4, 8)),
    # step 180 sees 180, 135, 90, 45 and 0 degrees
    "axis-and-diagonal-angles": (
        dict(image_side=10, n_time_steps=180, n_angles_per_step=5, angle_stride_deg=-45.0),
        (180,),
    ),
    # step 90 sees 90, 180, 270 and 360 degrees
    "odd-side-right-angles": (
        dict(image_side=9, n_time_steps=90, n_angles_per_step=4, angle_stride_deg=90.0),
        (45, 90),
    ),
    "one-angle-per-step": (
        dict(image_side=16, n_time_steps=180, n_angles_per_step=1), (1, 45, 90, 180)
    ),
    # detectors well past the image diagonal: the outer rays miss, giving
    # empty rows at both ends of every angle's block
    "wide-detector-even": (
        dict(image_side=8, n_time_steps=4, n_angles_per_step=3, n_detectors=20), (1, 2)
    ),
    "wide-detector-odd": (
        dict(image_side=11, n_time_steps=2, n_angles_per_step=2, n_detectors=31,
             angle_stride_deg=90.0),
        (1, 2),
    ),
}


def radon_oracle(model, t):
    return oracles.radon_matrix(model.image_side, dv.radon_angles(model, t), model.detectors)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(RADON_GEOMETRIES))
def test_radon_entries_equal_per_ray_oracle(name):
    kwargs, steps = RADON_GEOMETRIES[name]
    model = dv.RadonModel(**kwargs)
    for t in steps:
        op = dv.build_radon_operator(model, t)
        want = radon_oracle(model, t)
        np.testing.assert_array_equal(op.to_dense(), want)


@pytest.mark.parametrize("name", ["wide-detector-even", "wide-detector-odd"])
def test_radon_missing_rays_give_zero_rows(name):
    kwargs, steps = RADON_GEOMETRIES[name]
    model = dv.RadonModel(**kwargs)
    op = dv.build_radon_operator(model, steps[-1])
    want = radon_oracle(model, steps[-1])
    empty = ~want.any(axis=1)
    assert empty[0] and empty[-1] and empty[1:-1].any()
    rng = np.random.default_rng(25)
    x = rng.standard_normal((op.cols, 3))
    y = rng.standard_normal((op.rows, 3))
    got = op.apply(x)
    assert np.all(got[empty] == 0.0)
    np.testing.assert_allclose(got, want @ x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(op.apply_adjoint(y), want.T @ y, rtol=1e-12, atol=1e-12)


def test_radon_multicolumn_products_match_columnwise():
    model = dv.RadonModel(image_side=64, n_time_steps=8, n_angles_per_step=9)
    op = dv.build_radon_operator(model, 2)
    k = 5
    rng = np.random.default_rng(26)
    x = rng.standard_normal((op.cols, k))
    y = rng.standard_normal((op.rows, k))
    np.testing.assert_array_equal(
        op.apply(x), np.column_stack([op.apply(c) for c in x.T])
    )
    np.testing.assert_array_equal(
        op.apply_adjoint(y), np.column_stack([op.apply_adjoint(c) for c in y.T])
    )


def test_radon_adjoint_identity_64():
    rng = np.random.default_rng(27)
    model = dv.RadonModel(image_side=64, n_time_steps=8, n_angles_per_step=9)
    op = dv.build_radon_operator(model, 5)
    for _ in range(20):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        np.testing.assert_allclose(
            float(op.apply(x) @ y), float(x @ op.apply_adjoint(y)), rtol=1e-10, atol=1e-12
        )


# --- dynamic assembly --------------------------------------------------------------


def test_assemble_single_step_returns_operator_unchanged():
    rng = np.random.default_rng(20)
    op = DenseOperator(rng.standard_normal((5, 4)))
    assert dv.assemble_dynamic_forward(op, 1) is op
    assert dv.assemble_dynamic_forward([op], 1) is op


def test_assemble_shared_operator_kronecker_lift():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((4, 4))
    lifted = dv.assemble_dynamic_forward(DenseOperator(a), 3)
    assert lifted.shape == (12, 12)
    x = rng.standard_normal(12)
    np.testing.assert_allclose(lifted.apply(x), np.kron(np.eye(3), a) @ x, atol=1e-12)


def test_assemble_per_step_blockdiag_matches_per_step_applies():
    rng = np.random.default_rng(22)
    ops = [DenseOperator(rng.standard_normal((6, 4))) for _ in range(3)]
    dyn = dv.assemble_dynamic_forward(ops, 3)
    assert dyn.shape == (18, 12)
    x = rng.standard_normal(12)
    want = np.concatenate([op.apply(x[4 * t : 4 * (t + 1)]) for t, op in enumerate(ops)])
    np.testing.assert_array_equal(dyn.apply(x), want)


def test_assemble_validates_inputs():
    rng = np.random.default_rng(23)
    a = DenseOperator(rng.standard_normal((4, 4)))
    b = DenseOperator(rng.standard_normal((4, 5)))
    with pytest.raises(ValueError):
        dv.assemble_dynamic_forward(a, 0)
    with pytest.raises(ValueError):
        dv.assemble_dynamic_forward([a, a], 3)
    with pytest.raises(ValueError):
        dv.assemble_dynamic_forward([a, b], 2)


def test_dynamic_radon_blocks_follow_schedule():
    model = dv.RadonModel(image_side=8, n_time_steps=3, n_angles_per_step=2)
    ops = [dv.build_radon_operator(model, t) for t in range(1, 4)]
    dyn = dv.assemble_dynamic_forward(ops, 3)
    assert dyn.shape == (3 * ops[0].rows, 3 * 64)
    rng = np.random.default_rng(24)
    x = rng.standard_normal(dyn.cols)
    per_step = np.concatenate(
        [op.apply(x[64 * t : 64 * (t + 1)]) for t, op in enumerate(ops)]
    )
    np.testing.assert_array_equal(dyn.apply(x), per_step)
