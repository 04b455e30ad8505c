"""Reconstruction quality measures.

RRE is the plain relative 2-norm error of the stacked iterate.  SSIM follows
the canonical single-scale definition: local statistics under an 11 x 11
Gaussian window with sigma 1.5 (truncated and renormalized), stability
constants C1 = (0.01 L)^2 and C2 = (0.03 L)^2 for dynamic range L, population
(not sample) covariances, and the mean of the local index over all fully
contained windows.

``build_report`` keeps the total and per-frame RRE and the per-frame SSIM;
how a run ended (iterations, stop reason, final lambda) is the solve's record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["rre", "rre_per_frame", "ssim", "QualityReport", "build_report"]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def rre(u, u_true):
    """Relative reconstruction error ||u - u_true|| / ||u_true||."""
    u = np.asarray(u, dtype=float).ravel()
    u_true = np.asarray(u_true, dtype=float).ravel()
    if u.size != u_true.size:
        raise ValueError("iterate and reference must have the same length")
    denom = np.linalg.norm(u_true)
    if denom == 0:
        raise ValueError("reference is identically zero; RRE undefined")
    return float(np.linalg.norm(u - u_true) / denom)


def rre_per_frame(u, u_true, dims):
    """Frame-by-frame RRE of stacked volumes with shape dims = (n_v, n_h, n_t)."""
    n_v, n_h, n_t = dims
    u = np.asarray(u, dtype=float).reshape((n_v * n_h, n_t), order="F")
    u_true = np.asarray(u_true, dtype=float).reshape((n_v * n_h, n_t), order="F")
    return [rre(u[:, t], u_true[:, t]) for t in range(n_t)]


def _ssim_window():
    half = SSIM_WINDOW // 2
    g = np.arange(SSIM_WINDOW) - half
    w1 = np.exp(-(g.astype(float) ** 2) / (2.0 * SSIM_SIGMA**2))
    w = np.outer(w1, w1)
    return w / w.sum()


def _windowed_mean(img, w):
    views = np.lib.stride_tricks.sliding_window_view(img, (SSIM_WINDOW, SSIM_WINDOW))
    return np.tensordot(views, w, axes=([2, 3], [0, 1]))


def ssim(img_a, img_b, dynamic_range):
    """Mean structural similarity of two frames over the shared dynamic range."""
    a = np.asarray(img_a, dtype=float)
    b = np.asarray(img_b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("ssim expects two 2-d frames of equal shape")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"frames must be at least {SSIM_WINDOW} pixels per side")
    if not dynamic_range > 0:
        raise ValueError("dynamic_range must be positive")
    # the index is unchanged when the frames and the range scale by one factor;
    # a power of 2 scales exactly, and a range in [1/2, 1) keeps the products
    # of four intensities below finite and C1, C2 above 0 at any scene scale
    e = np.frexp(dynamic_range)[1]
    a, b, dynamic_range = np.ldexp(a, -e), np.ldexp(b, -e), np.ldexp(dynamic_range, -e)
    w = _ssim_window()
    mu_a = _windowed_mean(a, w)
    mu_b = _windowed_mean(b, w)
    aa = _windowed_mean(a * a, w) - mu_a**2
    bb = _windowed_mean(b * b, w) - mu_b**2
    ab = _windowed_mean(a * b, w) - mu_a * mu_b
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    s = ((2 * mu_a * mu_b + c1) * (2 * ab + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (aa + bb + c2)
    )
    return float(np.mean(s))


@dataclass(frozen=True)
class QualityReport:
    """Final per-run quality summary."""

    rre_total: float
    rre_per_frame: tuple
    ssim_per_frame: tuple


def build_report(u, u_true, dims):
    """Assemble the report; SSIM uses the truth's value range per sequence."""
    n_v, n_h, n_t = dims
    u3 = np.asarray(u, dtype=float).reshape(dims, order="F")
    t3 = np.asarray(u_true, dtype=float).reshape(dims, order="F")
    dyn = float(t3.max() - t3.min())
    if dyn == 0:
        dyn = max(float(np.abs(t3).max()), 1.0)
    ssim_frames = tuple(
        ssim(u3[:, :, t], t3[:, :, t], dyn) for t in range(n_t)
    )
    return QualityReport(
        rre_total=rre(u, u_true),
        rre_per_frame=tuple(rre_per_frame(u, u_true, dims)),
        ssim_per_frame=ssim_frames,
    )
