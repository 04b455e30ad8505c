"""Synthetic moving scenes and measurement noise.

Scenes are superpositions of simple objects (disks and axis-aligned squares)
whose center and radius are given per time step.  Rasterization is binary
per object: a pixel belongs to an object iff the pixel center is inside it,
so a trajectory that moves by whole pixels shifts the rendered object
exactly.  Overlapping objects add.

Noise is white Gaussian, rescaled after drawing so its norm is exactly
``sigma`` times the clean data norm; ``solver.white_noise_model`` turns it
into a problem's noise model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regularization import as_float, as_int

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
_LISTS = (list, tuple, np.ndarray)


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
        if not isinstance(self.centers, _LISTS) or any(
            not isinstance(p, _LISTS) or len(p) != 2 for p in self.centers
        ):
            raise ValueError(f"centers must be a list of (row, col) pairs, got {self.centers!r}")
        if not isinstance(self.radii, _LISTS):
            raise ValueError(f"radii must be a list of numbers, got {self.radii!r}")
        name = "each coordinate of centers"
        centers = tuple((as_float(r, name), as_float(c, name)) for r, c in self.centers)
        radii = tuple(as_float(r, "each of radii") for r in self.radii)
        if len(centers) != len(radii):
            raise ValueError("centers and radii must have one entry per time step")
        bad = [x for p in centers for x in p if not math.isfinite(x)]
        if bad:
            raise ValueError(f"each coordinate of centers must be finite, got {bad[0]!r}")
        # render_scene compares squared distances with the squared radius
        if any(not (r > 0 and r * r < np.inf) for r in radii):
            raise ValueError("radii must be positive, with a finite square")
        intensity = as_float(self.intensity, "intensity")
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
        for name in ("n_v", "n_h", "n_t"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
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
        object.__setattr__(self, "sigma", as_float(self.sigma, "sigma"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
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
    # a finite disk center far outside the frame squares to inf, which leaves
    # the pixel out, as the rectangle's test does
    with np.errstate(over="ignore"):
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
    n_v, n_h, n_t = as_int(n_v, "n_v"), as_int(n_h, "n_h"), as_int(n_t, "n_t")
    n_objects, seed = as_int(n_objects, "n_objects"), as_int(seed, "seed")
    for name, value in (("n_objects", n_objects), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    # placing a disk of radius up to 0.14 side with its margin takes 3 + 0.28 side pixels
    if n_objects and min(n_v, n_h) < 5:
        raise ValueError(f"n_v and n_h must be at least 5 to place objects, got {n_v} x {n_h}")
    rng = np.random.default_rng(seed)
    objects = []
    for _ in range(n_objects):
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


def add_noise(clean, noise):
    """Perturb clean data with white noise e; returns (noisy, noise norm ||e||).

    The draw e ~ N(0, I) is rescaled so that ||e|| / ||clean|| equals sigma
    exactly.  The solver's delta is the whitened norm sqrt(m), not ||e||:
    ``white_noise_model(noisy - clean)`` gives it with its covariance.
    """
    clean = np.asarray(clean, dtype=float).ravel()
    if noise.sigma == 0:
        return clean.copy(), 0.0
    draw = np.random.default_rng(noise.seed).standard_normal(clean.size)
    clean_norm = float(np.linalg.norm(clean))
    draw_norm = float(np.linalg.norm(draw))
    if draw_norm == 0 or clean_norm == 0:
        raise ValueError("degenerate draw or zero clean data; cannot scale noise")
    noise_norm = noise.sigma * clean_norm
    return clean + (noise_norm / draw_norm) * draw, noise_norm
