"""Forward operators for the synthetic experiments.

Two families are provided:

- separable periodic Gaussian blur, A = A_h (x) A_v, built from truncated
  normalized 1-d kernels so the operator is symmetric and mass preserving;
- a parallel-beam line-integral transform with per-step angle schedules, for
  limited-data dynamic tomography where every time step sees its own small
  set of projection directions.  Each step's transform holds the exact
  ray-pixel intersection lengths, computed for all detector rays of an
  angle at once, as a compressed-row ``SparseOperator``: a few views touch
  about 1% of the (ray, pixel) pairs, and the dense block is never formed.
  The entries are kept once, 12 bytes each; the adjoint reads the same rows
  as the product, so it equals a product with the transpose to rounding, not
  bitwise.

``assemble_dynamic_forward`` lifts either family to the space-time problem
as a stack of frames: frame t of the volume goes through the shared operator
or through step t's own, and its result is frame t of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import LinearOperator, SparseOperator
from .regularization import as_float, as_int

__all__ = [
    "BlurModel",
    "medium_blur",
    "build_blur_operator",
    "RadonModel",
    "radon_angles",
    "build_radon_operator",
    "assemble_dynamic_forward",
]


@dataclass(frozen=True)
class BlurModel:
    """Separable Gaussian point-spread function with periodic boundary."""

    sigma_psf: float
    bandwidth: int

    def __post_init__(self):
        object.__setattr__(self, "sigma_psf", as_float(self.sigma_psf, "sigma_psf"))
        object.__setattr__(self, "bandwidth", as_int(self.bandwidth, "bandwidth"))
        # the kernel divides by σ²
        if not (self.sigma_psf > 0 and 0 < self.sigma_psf * self.sigma_psf < np.inf):
            raise ValueError(
                "sigma_psf must be positive and finite, with a square that neither "
                f"underflows nor overflows, got {self.sigma_psf!r}"
            )
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be nonnegative")


def medium_blur(side):
    """Calibrated medium blur: sigma 2.0 and bandwidth 6 at side 128, scaled."""
    scale = side / 128.0
    return BlurModel(sigma_psf=2.0 * scale, bandwidth=max(1, round(6 * scale)))


def _circulant_blur(n, model):
    offsets = np.arange(-model.bandwidth, model.bandwidth + 1)
    k = np.exp(-(offsets.astype(float) ** 2) / (2.0 * model.sigma_psf**2))
    a = np.zeros((n, n))
    rows = np.arange(n)
    for off, weight in zip(offsets, k / k.sum()):
        a[rows, (rows + off) % n] += weight
    return a


def build_blur_operator(model, n_v, n_h):
    """Separable blur acting on one vectorized frame: A_h (x) A_v."""
    n_v, n_h = as_int(n_v, "n_v"), as_int(n_h, "n_h")
    if n_v < 1 or n_h < 1:
        raise ValueError("frame extents must be positive")
    return _SeparableBlur(_circulant_blur(n_h, model), _circulant_blur(n_v, model))


class _SeparableBlur(LinearOperator):
    """(A_h (x) A_v) vec(X) = vec(A_v X A_h^T) for an (n_v, n_h) frame X.

    A_v acts along v on the (n_v, n_h k) reshape of k frames, then A_h along
    h on the (n_h, n_v k) transpose: one GEMM per factor for all k columns.
    """

    kind = "blur"

    def __init__(self, a_h, a_v):
        super().__init__(a_h.shape[0] * a_v.shape[0], a_h.shape[1] * a_v.shape[1])
        self.a_h, self.a_v = a_h, a_v

    def _apply(self, x, transpose=False):
        a_h, a_v = (self.a_h.T, self.a_v.T) if transpose else (self.a_h, self.a_v)
        n_v, n_h, k = a_v.shape[0], a_h.shape[0], x.shape[1]
        z = a_v @ x.reshape(n_v, n_h * k, order="F")
        z = z.reshape(n_v, n_h, k, order="F").transpose(1, 0, 2)
        z = a_h @ z.reshape(n_h, n_v * k, order="F")
        z = z.reshape(n_h, n_v, k, order="F").transpose(1, 0, 2)
        return z.reshape(n_v * n_h, k, order="F")

    def _apply_adjoint(self, y):
        return self._apply(y, transpose=True)


@dataclass(frozen=True)
class RadonModel:
    """Parallel-beam geometry with a rotating per-step angle schedule.

    Step t (1-based) is measured along the angles
    ``t, t + stride, ..., t + (n_angles_per_step - 1) * stride`` degrees,
    nine per step by default; the stride defaults to the number of time
    steps so consecutive steps interleave and the union of all steps covers
    a dense fan.  Detectors are unit-spaced and centered; their count
    defaults to ceil(sqrt(2) * side) so the full image diagonal is covered.
    """

    image_side: int
    n_time_steps: int
    n_angles_per_step: int = 9
    angle_stride_deg: float | None = None
    n_detectors: int | None = None

    def __post_init__(self):
        optional = {"angle_stride_deg": as_float, "n_detectors": as_int}
        kinds = {"image_side": as_int, "n_time_steps": as_int, "n_angles_per_step": as_int}
        for name, kind in {**kinds, **optional}.items():
            value = getattr(self, name)
            if value is not None or name not in optional:
                object.__setattr__(self, name, kind(value, name))
        if self.image_side < 2:
            raise ValueError("image_side must be at least 2")
        if self.n_time_steps < 1:
            raise ValueError("n_time_steps must be positive")
        if self.n_angles_per_step < 1:
            raise ValueError("n_angles_per_step must be positive")
        if self.angle_stride_deg is not None and not math.isfinite(self.angle_stride_deg):
            raise ValueError("angle_stride_deg must be finite")
        if self.n_detectors is not None and self.n_detectors < 1:
            raise ValueError("n_detectors must be positive")

    @property
    def detectors(self):
        if self.n_detectors is not None:
            return self.n_detectors
        return math.ceil(math.sqrt(2.0) * self.image_side)


def radon_angles(model, t):
    """Projection angles (degrees) of time step t, 1-based."""
    t = as_int(t, "t")
    if not 1 <= t <= model.n_time_steps:
        raise ValueError(f"time step {t} outside [1, {model.n_time_steps}]")
    stride = model.angle_stride_deg
    if stride is None:
        stride = float(model.n_time_steps)
    return float(t) + stride * np.arange(model.n_angles_per_step)


def build_radon_operator(model, t):
    """Line-integral operator of step t: rows are (angle, detector) pairs.

    Weights are exact ray-pixel intersection lengths on the unit pixel grid
    (Siddon, Med. Phys. 12, 1985), so all entries are nonnegative and each
    ray's weights sum to its chord length through the image square.  Only
    the nonzero lengths are computed and stored, once, as a
    ``SparseOperator`` with ``int32`` pixel indices whose adjoint reads the
    same rows; a ray that misses the image gives an empty row.
    """
    n = model.image_side
    n_det = model.detectors
    offsets = np.arange(n_det) - (n_det - 1) / 2.0
    rows, pixels, lengths = [], [], []
    for a_idx, angle in enumerate(radon_angles(model, t)):
        det, pix, length = _angle_triples(n, math.radians(angle), offsets)
        rows.append(a_idx * n_det + det)
        pixels.append(pix)
        lengths.append(length)
    return SparseOperator(
        len(rows) * n_det,
        n * n,
        np.concatenate(rows),
        np.concatenate(pixels),
        np.concatenate(lengths),
    )


def _angle_triples(n, phi, offsets):
    """(detector, pixel, length) of every ray-pixel intersection at one angle.

    Ray j is the line offsets[j] * (cos phi, sin phi) + tau * (-sin phi,
    cos phi).  Its parameters tau at the grid lines it crosses inside the
    image square, plus its entry and exit, sorted, cut it into the segments
    that lie in one pixel each; the pixel is the one holding the segment's
    midpoint.  All rays of the angle are handled at once, one row each.
    """
    half = n / 2.0
    nx, ny = math.cos(phi), math.sin(phi)
    dx, dy = -math.sin(phi), math.cos(phi)
    grid = np.arange(n + 1) - half
    x0, y0 = offsets * nx, offsets * ny
    t_enter = np.full(offsets.size, -np.inf)
    t_exit = np.full(offsets.size, np.inf)
    hit = np.ones(offsets.size, dtype=bool)
    crossings = []
    for start, step in ((x0, dx), (y0, dy)):
        if abs(step) > 1e-12:
            tau = (grid - start[:, None]) / step
            crossings.append(tau)
            t_enter = np.maximum(t_enter, np.minimum(tau[:, 0], tau[:, -1]))
            t_exit = np.minimum(t_exit, np.maximum(tau[:, 0], tau[:, -1]))
        else:  # ray parallel to this axis: inside the image or not at all
            hit &= (-half <= start) & (start <= half)
    hit &= t_exit > t_enter
    taus = np.concatenate(crossings + [t_enter[:, None], t_exit[:, None]], axis=1)
    inside = (taus >= t_enter[:, None]) & (taus <= t_exit[:, None]) & hit[:, None]
    # parameters outside the image, and all of a missing ray's, become copies
    # of the exit (a finite sentinel), so they add only zero-length segments
    taus = np.where(inside, taus, t_exit[:, None])
    taus.sort(axis=1)
    seg_lengths = np.diff(taus, axis=1)
    keep = seg_lengths > 1e-14
    det, seg = np.nonzero(keep)
    mids = 0.5 * (taus[det, seg] + taus[det, seg + 1])
    xm = x0[det] + mids * dx
    ym = y0[det] + mids * dy
    cols_j = np.clip(np.floor(xm + half).astype(int), 0, n - 1)
    rows_i = np.clip(np.floor(ym + half).astype(int), 0, n - 1)
    return det, rows_i + n * cols_j, seg_lengths[keep]


def assemble_dynamic_forward(ops, n_t):
    """Space-time forward operator from a shared or per-step static operator.

    A single operator A is lifted to I_{n_t} (x) A; a sequence of n_t
    operators (one per step) becomes their block diagonal.  For n_t = 1 the
    static operator is returned unchanged.
    """
    n_t = as_int(n_t, "n_t")
    if n_t < 1:
        raise ValueError("n_t must be positive")
    if isinstance(ops, LinearOperator):
        if n_t == 1:
            return ops
        return _FrameStack(ops, n_t)
    ops = list(ops)
    if len(ops) != n_t:
        raise ValueError(f"got {len(ops)} per-step operators for n_t = {n_t}")
    cols = ops[0].cols
    for op in ops:
        if op.cols != cols:
            raise ValueError("per-step operators must share the image size")
    if n_t == 1:
        return ops[0]
    return _FrameStack(ops, n_t)


class _FrameStack(LinearOperator):
    """n_t frames side by side: frame t of the input maps to frame t of the output.

    ``frames`` is one operator shared by every frame, applied in a single call
    to the (cols, n_t k) reshape whose columns are the frames of all k input
    columns, or a list of n_t per-step operators, each writing its own rows
    of one preallocated output.
    """

    kind = "stack"

    def __init__(self, frames, n_t):
        self.frames, self.n_t = frames, n_t
        per_step = [frames] * n_t if isinstance(frames, LinearOperator) else frames
        self._row_ends = np.cumsum([0] + [op.rows for op in per_step])
        self._col_ends = np.cumsum([0] + [op.cols for op in per_step])
        super().__init__(self._row_ends[-1], self._col_ends[-1])

    def _apply(self, x):
        return self._stack(x, self._col_ends, self._row_ends, "apply")

    def _apply_adjoint(self, y):
        return self._stack(y, self._row_ends, self._col_ends, "apply_adjoint")

    def _stack(self, x, in_ends, out_ends, method):
        k = x.shape[1]
        if isinstance(self.frames, LinearOperator):
            z = getattr(self.frames, method)(x.reshape(in_ends[1], self.n_t * k, order="F"))
            return z.reshape(out_ends[-1], k, order="F")
        out = np.empty((out_ends[-1], k))
        for t, op in enumerate(self.frames):
            out[out_ends[t] : out_ends[t + 1]] = getattr(op, method)(
                x[in_ends[t] : in_ends[t + 1]]
            )
        return out
