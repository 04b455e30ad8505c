"""Edge-preserving space-time regularizers as one table of difference blocks.

Every penalty is a sum of smoothed 2-norms of groups of rows of z = D u,

    R_eps(u) = sum_g sqrt(||z_g||^2 + eps^2) + (1/2) ||z_quad||^2,

and the variants differ only in D and in how its rows are grouped.  The table
``_BLOCKS`` lists each method's D as a stack of blocks on a volume of shape
dims = (n_v, n_h, n_t).  D is a stencil: differences of slices of the volume,
with its rows in the order of the paper's Kronecker form of D, which is never
built.  A block takes first differences along the axes it names (several
axes: the mixed difference) and groups its rows one way:

- ``row``    each row is its own group,
- ``voxel``  each row joins the group of the voxel it takes its difference
             at, so the directions at one voxel share a norm (a voxel on
             the far edge of every block has no row; its norm is zero),
- ``pixel``  each row joins the group of the same row in every other frame,
             so one difference pixel is grouped across time,
- ``quad``   the rows join no group and enter quadratically (listed last).

The six methods:

- ``AnisoTV``          v, h and t differences, each row its own group,
- ``TVplusTikhonov``   v and h rows each their own group, t rows quadratic,
- ``Aniso3DTV``        the mixed vht difference, one row per space-time corner,
- ``Iso3DTV``          v, h and t differences grouped per voxel,
- ``IsoTV``            v and h grouped per voxel, t rows each their own group,
- ``GS``               v and h differences, each grouped per pixel across time.

An axis of extent 1 contributes no block, so ``AnisoTV`` on dims
(n_v, n_h, 1) is the spatial TV of one frame, the per-frame baseline; a
method with no block left there (``Aniso3DTV``) is refused.  Only R_eps is
evaluated here, from the ``penalty_sums`` of z; R, at eps = 0, is a test oracle.

For the iteratively reweighted scheme the diagonal weights W(u_k) are each
group's smoothed norm at power -1/2, repeated on the group's rows,
and 1 on the quadratic rows, so that M = W D gives the quadratic tangent
majorant

    Q(u; u_k) = misfit(u) + (lam/2) * ||M u||^2 + c(u_k)

with Q(u_k; u_k) = misfit(u_k) + lam * R_eps(u_k) and Q >= misfit + lam*R_eps
everywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .operators import LinearOperator

__all__ = ["Method", "METHOD_NAMES", "RegularizerSpec"]


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


def as_int(value, name):
    """``value`` as an int; ValueError for a bool, anything not a whole number,
    or a whole number beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    as_float(value, name)  # refuses 10**400, say, which no size or count needs
    return int(value)


def as_float(value, name):
    """``value`` as a float; ValueError for a bool or anything not a real number."""
    if type(value) is float:  # the common case, without the slow check of numbers.Real
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {value!r}") from None


# (axes, grouping) of each block of D, in row order.
_BLOCKS = {
    Method.ANISO_TV: (("v", "row"), ("h", "row"), ("t", "row")),
    Method.TV_PLUS_TIKHONOV: (("v", "row"), ("h", "row"), ("t", "quad")),
    Method.ANISO_3D_TV: (("vht", "row"),),
    Method.ISO_3D_TV: (("v", "voxel"), ("h", "voxel"), ("t", "voxel")),
    Method.ISO_TV: (("v", "voxel"), ("h", "voxel"), ("t", "row")),
    Method.GROUP_SPARSITY: (("v", "pixel"), ("h", "pixel")),
}


@dataclass(frozen=True)
class RegularizerSpec:
    """Which penalty to use on a volume of shape dims = (n_v, n_h, n_t).

    n_t = 1 is a single frame, accepted when the method keeps a block there.
    ``epsilon``, the smoothing constant of R_eps, is fixed, not a field: from
    1e-4 to 1e-1 the benchmark RREs hardly move, larger values cost
    iterations, and 1e-80 and below leave u = 0.
    """

    epsilon: ClassVar[float] = 1e-3
    dims: tuple[int, int, int]
    method: Method = Method.ANISO_TV

    def __post_init__(self):
        object.__setattr__(self, "method", Method.from_name(self.method))
        dims = tuple(as_int(d, "each of dims") for d in self.dims)
        if len(dims) != 3 or min(dims[:2]) < 2 or dims[2] < 1:
            raise ValueError(
                f"dims must be three extents, n_v and n_h >= 2, n_t >= 1; got {self.dims}"
            )
        if not _kept_blocks(self.method, dims):
            raise ValueError(f"{self.method.value} has no difference block at n_t = {dims[2]}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self):
        n_v, n_h, n_t = self.dims
        return n_v * n_h * n_t


class _Stencil(LinearOperator):
    """D as first differences of slices of the (n_v, n_h, n_t, k) volume.

    Each block takes x[:-1] - x[1:] along each of its axes in the order v,
    h, t, as kron3(t, h, v) does, so mixed differences round the same way.
    A block's rows hold its differences frame by frame, each column-major,
    which is the row order of the Kronecker form.  ``apply`` is
    ``row_blocks`` over whole blocks.  The adjoint sums blocks in order.
    """

    kind = "stencil"

    def __init__(self, blocks, dims):
        self.dims = dims
        self.blocks = []  # (first row, differenced axes as 0 = v .. 2 = t, shape) per block
        rows = 0
        for axes in blocks:
            axes = tuple("vht".index(a) for a in axes)
            shape = tuple(n - (i in axes) for i, n in enumerate(dims))
            self.blocks.append((rows, axes, shape))
            rows += math.prod(shape)
        super().__init__(rows, math.prod(dims))

    def row_blocks(self, x, elems=None, out=None):
        """Yield (first row, D[rows] @ x) for consecutive frame ranges of each block.

        A range holds as many frames t0..t1-1 as fit in `elems` elements (at
        least one; all when None), reading frame t1 too for a t difference.
        The rows go into views of `out` (rows(D) x k), or else new arrays.
        """
        k = x.shape[1]
        vol = x.reshape(self.dims + (k,), order="F")
        for start, axes, shape in self.blocks:
            per_frame = shape[0] * shape[1]
            step = shape[2] if elems is None else max(1, elems // (per_frame * k))
            for t0 in range(0, shape[2], step):
                t1 = min(t0 + step, shape[2])
                first, last = start + t0 * per_frame, start + t1 * per_frame
                z = np.empty((last - first, k), order="F") if out is None else out[first:last]
                src = vol[:, :, t0 : t1 + (2 in axes)]
                for a in axes[:-1]:
                    src = _cut(src, a, slice(-1)) - _cut(src, a, slice(1, None))
                a = axes[-1]
                np.subtract(_cut(src, a, slice(-1)), _cut(src, a, slice(1, None)),
                            out=z.reshape(shape[:2] + (t1 - t0, k), order="F"))
                yield first, z

    def _apply(self, x):
        out = np.empty((self.rows, x.shape[1]), order="F")
        for _ in self.row_blocks(x, out=out):
            pass
        return out

    def _apply_adjoint(self, y):
        total = None
        for start, axes, shape in self.blocks:
            z = y[start : start + math.prod(shape)].reshape(shape + (-1,), order="F")
            for a in axes:
                z = _difference_adjoint(z, a)
            total = z if total is None else np.add(total, z, out=total)
        return total.reshape(self.cols, -1, order="F")


def _cut(z, axis, part):
    """The slice `part` of z along `axis` (a view)."""
    return z[(slice(None),) * axis + (part,)]


def _difference_adjoint(y, axis):
    """Adjoint of x -> x[:-1] - x[1:] along `axis`, in one pass, into a new array."""
    shape = list(y.shape)
    shape[axis] += 1
    out = np.empty(shape, order="F")
    o, y = np.moveaxis(out, axis, 0), np.moveaxis(y, axis, 0)
    o[0] = y[0]
    np.subtract(y[1:], y[:-1], out=o[1:-1])
    # not np.negative, which on numpy 2.4 misreads inputs strided by 8 elements
    np.subtract(0.0, y[-1], out=o[-1])
    return out


@lru_cache(maxsize=None)
def _penalty(method, dims):
    """D of the method, the group of each non-quadratic row, the group and quadratic row counts.

    The group index is None when it is the identity, every row its own group.
    """
    blocks = _kept_blocks(method, dims)
    d_op = _Stencil([axes for axes, _ in blocks], dims)
    voxels = np.arange(d_op.cols).reshape(dims, order="F")
    groups, n_groups, n_quad, first_voxel = [], 0, 0, None
    for (_, grouping), (_, _, shape) in zip(blocks, d_op.blocks):
        if grouping == "quad":
            n_quad += math.prod(shape)
            continue
        if grouping == "voxel":  # one group per voxel, which every voxel block shares
            if first_voxel is None:
                first_voxel, n_groups = n_groups, n_groups + voxels.size
            groups.append(first_voxel + voxels[tuple(map(slice, shape))].ravel(order="F"))
            continue
        local = np.arange(math.prod(shape))
        if grouping == "pixel":
            local %= shape[0] * shape[1]
        groups.append(n_groups + local)
        n_groups += int(local.max()) + 1
    group = np.concatenate(groups)
    identity = np.array_equal(group, np.arange(group.size))
    return d_op, (None if identity else group), n_groups, n_quad


def _kept_blocks(method, dims):
    """The method's blocks whose axes all have extent > 1 (the others are empty)."""
    extent = dict(zip("vht", dims))
    return [(axes, grouping) for axes, grouping in _BLOCKS[method]
            if all(extent[a] > 1 for a in axes)]


def build_D(spec):
    """Stacked difference operator D of the chosen penalty (built once, cached)."""
    return _penalty(spec.method, spec.dims)[0]


def penalty_sums(spec, z):
    """Smoothed group norms sqrt(||z_g||^2 + eps^2) of z = D u, and (1/2)||z_quad||^2."""
    d_op, group, n_groups, n_quad = _penalty(spec.method, spec.dims)
    if z.shape != (d_op.rows,):
        raise ValueError(f"z of shape {z.shape} is not D u for dims {spec.dims}")
    m = z.size - n_quad
    s = z[:m] ** 2
    if group is not None:
        s = np.bincount(group, s, minlength=n_groups)  # a voxel may have no row
    s += spec.epsilon**2  # s is a new array, so in place
    np.sqrt(s, out=s)
    # not z[m:] itself: that view would keep all of z alive in the caller
    return s, 0.5 * (z[m:] @ z[m:])


def regularizer_value(sums):
    """R_eps(u) from the ``penalty_sums`` at u, which it leaves as they are."""
    return float(np.sum(sums[0]) + sums[1])


def update_weights(spec, sums):
    """Diagonal of W(u_k), one entry per row of D, from (and in) the ``penalty_sums`` at u_k."""
    _, group, _, n_quad = _penalty(spec.method, spec.dims)
    w = np.sqrt(sums[0], out=sums[0])
    np.divide(1.0, w, out=w)
    if group is not None:
        w = w[group]
    if n_quad:
        w = np.pad(w, (0, n_quad), constant_values=1.0)
    return w
