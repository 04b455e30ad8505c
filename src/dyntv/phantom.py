"""Synthetic moving scenes and measurement noise.

Scenes are superpositions of simple objects (disks and axis-aligned squares)
whose center and radius are given per time step.  Rasterization is binary
per object: a pixel belongs to an object iff the pixel center is inside it,
so a trajectory that moves by whole pixels shifts the rendered object
exactly.  Overlapping objects add.

Noise is Gaussian with a diagonal covariance, rescaled after drawing so the
whitened noise magnitude is exactly ``sigma`` times the whitened clean data
norm; the returned magnitude is the exact discrepancy-principle target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SceneObject",
    "SceneSpec",
    "NoiseSpec",
    "linear_trajectory",
    "render_scene",
    "moving_disks_scene",
    "add_noise",
]

_SHAPES = ("disk", "rectangle")


@dataclass(frozen=True)
class SceneObject:
    """One object: a per-step (center, radius) trajectory, shape and intensity.

    Centers are (row, col) pixel coordinates; the radius of a rectangle is
    its half side.
    """

    centers: tuple
    radii: tuple
    shape: str = "disk"
    intensity: float = 1.0

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        centers = tuple((float(r), float(c)) for r, c in self.centers)
        radii = tuple(float(r) for r in self.radii)
        if len(centers) != len(radii):
            raise ValueError("centers and radii must have one entry per time step")
        if any(r <= 0 for r in radii):
            raise ValueError("radii must be positive")
        intensity = float(self.intensity)
        if not np.isfinite(intensity):
            raise ValueError(f"intensity must be finite, got {intensity}")
        object.__setattr__(self, "intensity", intensity)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @property
    def n_steps(self):
        return len(self.centers)


@dataclass(frozen=True)
class SceneSpec:
    n_v: int
    n_h: int
    n_t: int
    objects: tuple

    def __post_init__(self):
        if self.n_v < 1 or self.n_h < 1 or self.n_t < 1:
            raise ValueError("scene extents must be positive")
        objects = tuple(self.objects)
        for obj in objects:
            if obj.n_steps != self.n_t:
                raise ValueError(
                    f"object trajectory has {obj.n_steps} steps, scene has {self.n_t}"
                )
        object.__setattr__(self, "objects", objects)


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("noise level sigma must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError(f"noise seed must be nonnegative, got {self.seed}")


def linear_trajectory(start, velocity, n_t):
    """Per-step centers for uniform motion: start + k * velocity."""
    r0, c0 = float(start[0]), float(start[1])
    vr, vc = float(velocity[0]), float(velocity[1])
    return tuple((r0 + k * vr, c0 + k * vc) for k in range(int(n_t)))


def render_scene(spec):
    """Rasterize the scene into a (n_v, n_h, n_t) volume."""
    vol = np.zeros((spec.n_v, spec.n_h, spec.n_t))
    rows = np.arange(spec.n_v, dtype=float)[:, None]
    cols = np.arange(spec.n_h, dtype=float)[None, :]
    for obj in spec.objects:
        for t in range(spec.n_t):
            (cr, cc), rad = obj.centers[t], obj.radii[t]
            if obj.shape == "disk":
                mask = (rows - cr) ** 2 + (cols - cc) ** 2 <= rad**2
            else:
                mask = (np.abs(rows - cr) <= rad) & (np.abs(cols - cc) <= rad)
            vol[:, :, t] += obj.intensity * mask
    return vol


def moving_disks_scene(n_v, n_h, n_t, n_objects=6, seed=0):
    """Random superposition of disks in uniform motion, kept inside the frame."""
    rng = np.random.default_rng(seed)
    objects = []
    for _ in range(int(n_objects)):
        rad = rng.uniform(0.06, 0.14) * min(n_v, n_h)
        margin = rad + 1.0
        start = (
            rng.uniform(margin, n_v - 1 - margin),
            rng.uniform(margin, n_h - 1 - margin),
        )
        # velocity drawn so the object stays inside over the whole sequence
        max_v = (
            (min(start[0], n_v - 1 - start[0]) - rad) / max(n_t - 1, 1),
            (min(start[1], n_h - 1 - start[1]) - rad) / max(n_t - 1, 1),
        )
        velocity = (
            rng.uniform(-max_v[0], max_v[0]),
            rng.uniform(-max_v[1], max_v[1]),
        )
        objects.append(
            SceneObject(
                shape="disk",
                intensity=float(rng.uniform(0.5, 1.0)),
                centers=linear_trajectory(start, velocity, n_t),
                radii=(rad,) * n_t,
            )
        )
    return SceneSpec(n_v=n_v, n_h=n_h, n_t=n_t, objects=tuple(objects))


def add_noise(clean, noise, gamma_diag=None):
    """Perturb clean data; returns (noisy, delta).

    The draw e ~ N(0, Gamma) is rescaled so that the whitened ratio
    ||e||_{Gamma^{-1}} / ||clean||_{Gamma^{-1}} equals sigma exactly, and
    delta = ||e||_{Gamma^{-1}} is returned for the discrepancy principle.
    """
    clean = np.asarray(clean, dtype=float).ravel()
    if gamma_diag is None:
        gamma_diag = np.ones(clean.size)
    else:
        gamma_diag = np.asarray(gamma_diag, dtype=float).ravel()
        if gamma_diag.size != clean.size:
            raise ValueError("gamma_diag must match the data length")
        if not np.all(gamma_diag > 0):
            raise ValueError("gamma_diag must be strictly positive")
    if noise.sigma == 0:
        return clean.copy(), 0.0
    rng = np.random.default_rng(noise.seed)
    sqrt_gamma = np.sqrt(gamma_diag)
    draw = sqrt_gamma * rng.standard_normal(clean.size)
    clean_whitened = float(np.linalg.norm(clean / sqrt_gamma))
    draw_whitened = float(np.linalg.norm(draw / sqrt_gamma))
    if draw_whitened == 0 or clean_whitened == 0:
        raise ValueError("degenerate draw or zero clean data; cannot scale noise")
    scale = noise.sigma * clean_whitened / draw_whitened
    delta = noise.sigma * clean_whitened
    return clean + scale * draw, delta
