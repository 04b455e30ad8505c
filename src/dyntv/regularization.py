"""Edge-preserving space-time regularizers as one table of difference blocks.

Every penalty is a sum of smoothed 2-norms of groups of rows of z = D u,

    R_eps(u) = sum_g sqrt(||z_g||^2 + eps^2) + (1/2) ||z_quad||^2,

and the variants differ only in D and in how its rows are grouped.  The table
``_BLOCKS`` lists each method's D as a stack of blocks on a volume of shape
dims = (n_v, n_h, n_t).  A block takes first differences along the axes it
names (several axes: the mixed difference) and groups its rows one way:

- ``row``    each row is its own group,
- ``voxel``  the block is padded to n rows and row i joins group i, so the
             directions at one voxel share a norm,
- ``pixel``  the spatial gradient of every frame; its row i in each frame
             joins group i, so one gradient pixel is grouped across time,
- ``quad``   the rows join no group and enter quadratically (listed last).

The six methods:

- ``AnisoTV``          v, h and t differences, each row its own group,
- ``TVplusTikhonov``   v and h rows each their own group, t rows quadratic,
- ``Aniso3DTV``        the mixed vht difference, one row per space-time corner,
- ``Iso3DTV``          v, h and t differences grouped per voxel,
- ``IsoTV``            v and h grouped per voxel, t rows each their own group,
- ``GS``               the spatial gradient grouped per pixel across time.

An axis of extent 1 contributes no block, so ``StaticTVSpec`` (one frame) is
``AnisoTV`` on dims (n_v, n_h, 1).  R is the value at eps = 0.

For the iteratively reweighted scheme the diagonal weights W(u_k) are each
group's smoothed squared norm at power -1/4, repeated on the group's rows,
and 1 on the quadratic rows, so that M = W D gives the quadratic tangent
majorant

    Q(u; u_k) = misfit(u) + (lam/2) * ||M u||^2 + c(u_k)

with Q(u_k; u_k) = misfit(u_k) + lam * R_eps(u_k) and Q >= misfit + lam*R_eps
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .operators import build_diff, build_Ls, identity, kron, kron3, vstack

__all__ = [
    "Method",
    "METHOD_NAMES",
    "RegularizerSpec",
    "StaticTVSpec",
    "WeightOperator",
    "build_D",
    "regularizer_value",
    "update_weights",
]


class Method(str, Enum):
    ANISO_TV = "AnisoTV"
    TV_PLUS_TIKHONOV = "TVplusTikhonov"
    ANISO_3D_TV = "Aniso3DTV"
    ISO_3D_TV = "Iso3DTV"
    ISO_TV = "IsoTV"
    GROUP_SPARSITY = "GS"

    @classmethod
    def from_name(cls, name):
        try:
            return cls(name)
        except ValueError:
            raise ValueError(
                f"unknown method {name!r}; valid methods are {', '.join(METHOD_NAMES)}"
            ) from None


METHOD_NAMES = tuple(m.value for m in Method)

# (axes, grouping) of each block of D, in row order.
_BLOCKS = {
    Method.ANISO_TV: (("v", "row"), ("h", "row"), ("t", "row")),
    Method.TV_PLUS_TIKHONOV: (("v", "row"), ("h", "row"), ("t", "quad")),
    Method.ANISO_3D_TV: (("vht", "row"),),
    Method.ISO_3D_TV: (("v", "voxel"), ("h", "voxel"), ("t", "voxel")),
    Method.ISO_TV: (("v", "voxel"), ("h", "voxel"), ("t", "row")),
    Method.GROUP_SPARSITY: (("vh", "pixel"),),
}


@dataclass(frozen=True)
class RegularizerSpec:
    """Which penalty to use on a volume of shape dims = (n_v, n_h, n_t)."""

    method: Method
    dims: tuple[int, int, int]
    epsilon: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "method", Method.from_name(self.method))
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 2 for d in dims):
            raise ValueError(f"dims must be three extents >= 2, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        if not self.epsilon > 0:
            raise ValueError("smoothing parameter epsilon must be positive")

    @property
    def n(self):
        n_v, n_h, n_t = self.dims
        return n_v * n_h * n_t


@dataclass(frozen=True)
class StaticTVSpec:
    """Anisotropic spatial TV of a single frame (per-frame baseline solves)."""

    n_v: int
    n_h: int
    epsilon: float = 1e-3
    method = Method.ANISO_TV

    def __post_init__(self):
        if self.n_v < 2 or self.n_h < 2:
            raise ValueError("frame extents must be >= 2")
        if not self.epsilon > 0:
            raise ValueError("smoothing parameter epsilon must be positive")

    @property
    def dims(self):
        return (self.n_v, self.n_h, 1)

    @property
    def n(self):
        return self.n_v * self.n_h


@dataclass(eq=False)
class WeightOperator:
    """Expanded diagonal of W(u_k), one entry per row of D."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if not np.all(self.weights > 0):
            raise ValueError("weights must be strictly positive")


def _block(axes, grouping, dims):
    n_v, n_h, n_t = dims
    if grouping == "pixel":
        return kron(identity(n_t), build_Ls(n_v, n_h))
    padded = grouping == "voxel"
    return kron3(
        *(build_diff(n, padded=padded) if a in axes else identity(n)
          for a, n in (("t", n_t), ("h", n_h), ("v", n_v)))
    )


@lru_cache(maxsize=None)
def _penalty(method, dims):
    """D of the method, the group of each non-quadratic row, the quadratic row count.

    The group index is None when every row is its own group.
    """
    extent = dict(zip("vht", dims))
    blocks, groups, shared, n_groups, n_quad = [], [], {}, 0, 0
    for axes, grouping in _BLOCKS[method]:
        if any(extent[a] == 1 for a in axes):
            continue
        block = _block(axes, grouping, dims)
        blocks.append(block)
        if grouping == "quad":
            n_quad += block.rows
            continue
        local = np.arange(block.rows)
        if grouping == "pixel":
            local %= block.rows // extent["t"]
        # blocks of one voxel or pixel grouping share groups; row blocks do not
        if grouping == "row" or grouping not in shared:
            shared[grouping] = n_groups
            n_groups += int(local.max()) + 1
        groups.append(shared[grouping] + local)
    group = np.concatenate(groups)
    d_op = blocks[0] if len(blocks) == 1 else vstack(blocks)
    return d_op, (None if n_groups == group.size else group), n_quad


def build_D(spec):
    """Stacked difference operator D of the chosen penalty (built once, cached)."""
    return _penalty(spec.method, spec.dims)[0]


def _group_sums(spec, u):
    """Squared group norms of the non-quadratic rows of z = D u, and (1/2)||z_quad||^2."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size != spec.n:
        raise ValueError(f"iterate of length {u.size} does not match dims {spec.dims}")
    _, group, n_quad = _penalty(spec.method, spec.dims)
    z = build_D(spec).apply(u)
    m = z.size - n_quad
    s = z[:m] ** 2
    if group is not None:
        s = np.bincount(group, s)
    # not z[m:] itself: that view would keep all of z alive in the caller
    return s, 0.5 * (z[m:] @ z[m:])


def regularizer_value(spec, u, smoothed=False):
    """Evaluate R(u), or its eps-smoothed companion R_eps(u)."""
    s, quad = _group_sums(spec, u)
    eps2 = spec.epsilon**2 if smoothed else 0.0
    return float(np.sum(np.sqrt(s + eps2)) + quad)


def update_weights(spec, u_k):
    """Diagonal of W(u_k), expanded to one entry per row of D."""
    _, group, n_quad = _penalty(spec.method, spec.dims)
    s, _ = _group_sums(spec, u_k)
    w = (s + spec.epsilon**2) ** -0.25
    if group is not None:
        w = w[group]
    if n_quad:
        w = np.concatenate([w, np.ones(n_quad)])
    return WeightOperator(w)
