"""Matrix-free linear operators and third-order tensor utilities.

All vectorization is column-major: a frame ``U`` of shape ``(n_v, n_h)``
flattens with the vertical (row) index running fastest, and a space-time
tensor of shape ``(n_v, n_h, n_t)`` flattens frame by frame, so that

    u = vec([vec(U_1), vec(U_2), ..., vec(U_nt)])

Operators are immutable after construction and expose ``apply`` /
``apply_adjoint`` so that large Kronecker and block compositions never have
to be materialized.  ``to_dense`` exists for small operators only and is the
anchor for the dense oracles used in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "SparseOperator",
    "DiffOperator",
    "IdentityOperator",
    "DiagonalOperator",
    "KronOperator",
    "BlockDiagOperator",
    "VStackOperator",
    "ComposedOperator",
    "dense",
    "identity",
    "diagonal",
    "kron",
    "kron3",
    "blockdiag",
    "vstack",
    "build_diff",
    "build_Ls",
    "vec",
    "tensor",
    "unfold",
    "fold",
    "mode_product",
]

# Hard cap for materializing operators; beyond this, go matrix-free.
MAX_DENSE_COLS = 4096

# Elements of the nnz x k gather temporary in one SparseOperator product
# (8 MB of float64); wider inputs are processed in column chunks.
_SPARSE_BLOCK_ELEMS = 1 << 20


class LinearOperator:
    """Abstract linear map R^cols -> R^rows with an exact adjoint.

    Subclasses implement ``_apply`` and ``_apply_adjoint`` on 2-d arrays of
    shape ``(cols, k)`` / ``(rows, k)``; the public ``apply`` and
    ``apply_adjoint`` accept vectors or matrices (columnwise action) and
    validate shapes.
    """

    kind = "abstract"

    def __init__(self, rows, cols):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("operator dimensions must be nonnegative")
        self._shape = (rows, cols)

    @property
    def shape(self):
        return self._shape

    @property
    def rows(self):
        return self._shape[0]

    @property
    def cols(self):
        return self._shape[1]

    def apply(self, x):
        """Return ``A x`` for a vector of length ``cols`` (or columnwise for a matrix)."""
        return self._checked(x, self.cols, self._apply)

    def apply_adjoint(self, y):
        """Return ``A^T y`` for a vector of length ``rows`` (or columnwise for a matrix)."""
        return self._checked(y, self.rows, self._apply_adjoint)

    def _checked(self, x, expected, op):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            if x.shape[0] != expected:
                raise ValueError(
                    f"{self.kind} operator of shape {self._shape} got a vector "
                    f"of length {x.shape[0]}, expected {expected}"
                )
            return op(x[:, None])[:, 0]
        if x.ndim == 2:
            if x.shape[0] != expected:
                raise ValueError(
                    f"{self.kind} operator of shape {self._shape} got a matrix "
                    f"with {x.shape[0]} rows, expected {expected}"
                )
            return op(x)
        raise ValueError("operator input must be a vector or a matrix")

    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, y):
        raise NotImplementedError

    def to_dense(self):
        """Materialize the operator as a dense array (small operators only)."""
        if self.cols > MAX_DENSE_COLS:
            raise ValueError(
                f"refusing to densify an operator with {self.cols} columns "
                f"(limit {MAX_DENSE_COLS})"
            )
        return self._dense()

    def _dense(self):
        return self._apply(np.eye(self.cols))

    def __matmul__(self, other):
        if isinstance(other, LinearOperator):
            return ComposedOperator(self, other)
        return self.apply(other)

    def __mul__(self, scalar):
        return _scaled(self, scalar)

    def __rmul__(self, scalar):
        return _scaled(self, scalar)

    def __repr__(self):
        return f"<{type(self).__name__} {self.rows}x{self.cols}>"


def _scaled(op, scalar):
    c = float(scalar)
    return ComposedOperator(DiagonalOperator(np.full(op.rows, c)), op)


class DenseOperator(LinearOperator):
    """Operator backed by an explicit 2-d array."""

    kind = "dense"

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError("dense operator needs a 2-d array")
        super().__init__(mat.shape[0], mat.shape[1])
        self.mat = mat

    def _apply(self, x):
        return self.mat @ x

    def _apply_adjoint(self, y):
        return self.mat.T @ y


class SparseOperator(LinearOperator):
    """Operator stored as compressed rows of its nonzero entries.

    Built from (row, column, value) triples; a (row, column) pair may repeat,
    and repeats add.  The entries are kept as compressed sparse rows (CSR)
    for ``apply`` and, sorted stably by column once at construction, as
    compressed rows of the transpose for ``apply_adjoint``.  Both products
    gather the input rows named by the stored indices, scale them by the
    values and sum each row's segment with ``np.add.reduceat``.
    """

    kind = "sparse"

    def __init__(self, rows, cols, row_idx, col_idx, values):
        super().__init__(rows, cols)
        row_idx = np.asarray(row_idx, dtype=np.intp).ravel()
        col_idx = np.asarray(col_idx, dtype=np.intp).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if not row_idx.size == col_idx.size == values.size:
            raise ValueError("sparse triples must have equal lengths")
        if row_idx.size and (
            row_idx.min() < 0 or row_idx.max() >= self.rows
            or col_idx.min() < 0 or col_idx.max() >= self.cols
        ):
            raise ValueError(f"sparse indices out of range for shape {self.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("sparse values must be finite")
        order = np.argsort(row_idx, kind="stable")
        self._fwd = _csr(row_idx[order], col_idx[order], values[order], self.rows)
        order = np.argsort(col_idx, kind="stable")
        self._adj = _csr(col_idx[order], row_idx[order], values[order], self.cols)

    @property
    def nnz(self):
        return self._fwd.values.size

    def _apply(self, x):
        return _csr_product(self._fwd, x, self.rows)

    def _apply_adjoint(self, y):
        return _csr_product(self._adj, y, self.cols)

    def _dense(self):
        csr = self._fwd
        mat = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.rows), np.diff(csr.indptr))
        np.add.at(mat, (rows, csr.indices), csr.values)
        return mat


class _CSR(NamedTuple):
    indptr: np.ndarray  # row r holds entries indptr[r]:indptr[r + 1]
    indices: np.ndarray
    values: np.ndarray
    nonempty: np.ndarray  # rows with at least one entry
    starts: np.ndarray  # indptr[nonempty]


def _csr(sorted_rows, indices, values, n_rows):
    """Compressed rows of triples already sorted by row."""
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(sorted_rows, minlength=n_rows), out=indptr[1:])
    nonempty = np.flatnonzero(indptr[1:] > indptr[:-1])
    return _CSR(indptr, indices, values, nonempty, indptr[nonempty])


def _csr_product(csr, x, n_out):
    """``M x`` for M in compressed rows, chunked over the columns of x.

    ``np.add.reduceat`` returns the element at the start index for an empty
    segment instead of 0, so it is given only the starts of nonempty rows
    (each then runs to the next nonempty start, which is its own end) and
    the empty rows stay zero.
    """
    k = x.shape[1]
    out = np.zeros((n_out, k))
    if csr.nonempty.size == 0:
        return out
    step = max(1, _SPARSE_BLOCK_ELEMS // csr.values.size)
    for c in range(0, k, step):
        gathered = x[csr.indices, c : c + step]  # a copy: fancy indexing
        gathered *= csr.values[:, None]
        out[csr.nonempty, c : c + step] = np.add.reduceat(gathered, csr.starts, axis=0)
    return out


class IdentityOperator(LinearOperator):
    kind = "identity"

    def __init__(self, n):
        super().__init__(n, n)

    def _apply(self, x):
        return x

    def _apply_adjoint(self, y):
        return y


class DiagonalOperator(LinearOperator):
    """Multiplication by a fixed diagonal (used for weights and whitening)."""

    kind = "diagonal"

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float).ravel()
        if not np.all(np.isfinite(weights)):
            raise ValueError("diagonal weights must be finite")
        super().__init__(weights.size, weights.size)
        self.weights = weights

    def _apply(self, x):
        return self.weights[:, None] * x

    def _apply_adjoint(self, y):
        return self.weights[:, None] * y


class DiffOperator(LinearOperator):
    """Scaled first-difference stencil ``alpha * [1, -1]`` along one axis.

    Maps x in R^n to alpha*(x_i - x_{i+1}), i = 1..n-1.  With ``padded=True``
    one zero row is appended at the bottom so that the output length equals
    the input length; the padded variant is what keeps the stacked operators
    of the isotropic regularizers conformal.
    """

    kind = "diff"

    def __init__(self, n, alpha=1.0, padded=False):
        n = int(n)
        if n < 2:
            raise ValueError(f"difference operator needs at least 2 points, got {n}")
        alpha = float(alpha)
        if not alpha > 0:
            raise ValueError("difference scaling alpha must be positive")
        super().__init__(n if padded else n - 1, n)
        self.alpha = alpha
        self.padded = bool(padded)

    def _apply(self, x):
        d = self.alpha * (x[:-1] - x[1:])
        if self.padded:
            return np.vstack([d, np.zeros((1, x.shape[1]))])
        return d

    def _apply_adjoint(self, y):
        if self.padded:
            y = y[:-1]
        out = np.zeros((self.cols, y.shape[1]))
        out[:-1] += self.alpha * y
        out[1:] -= self.alpha * y
        return out


class KronOperator(LinearOperator):
    """Kronecker product ``A (x) B`` acting matrix-free.

    Uses (A (x) B) vec(X) = vec(B X A^T) with the column-major vec
    convention, so a product with factors (m_a x n_a) and (m_b x n_b) acts
    on vectors of length n_a*n_b without ever forming the big matrix.
    """

    kind = "kron"

    def __init__(self, a, b):
        if not isinstance(a, LinearOperator) or not isinstance(b, LinearOperator):
            raise TypeError("kron factors must be LinearOperator instances")
        super().__init__(a.rows * b.rows, a.cols * b.cols)
        self.a = a
        self.b = b

    def _apply(self, x):
        a, b = self.a, self.b
        k = x.shape[1]
        z = x.reshape(b.cols, a.cols * k, order="F")
        z = b._apply(z)
        z = z.reshape(b.rows, a.cols, k, order="F")
        z = z.transpose(1, 0, 2).reshape(a.cols, b.rows * k, order="F")
        z = a._apply(z)
        z = z.reshape(a.rows, b.rows, k, order="F")
        return z.transpose(1, 0, 2).reshape(b.rows * a.rows, k, order="F")

    def _apply_adjoint(self, y):
        a, b = self.a, self.b
        k = y.shape[1]
        z = y.reshape(b.rows, a.rows * k, order="F")
        z = b._apply_adjoint(z)
        z = z.reshape(b.cols, a.rows, k, order="F")
        z = z.transpose(1, 0, 2).reshape(a.rows, b.cols * k, order="F")
        z = a._apply_adjoint(z)
        z = z.reshape(a.cols, b.cols, k, order="F")
        return z.transpose(1, 0, 2).reshape(b.cols * a.cols, k, order="F")


class BlockDiagOperator(LinearOperator):
    """Block-diagonal stack of operators (inputs and outputs concatenated)."""

    kind = "blockdiag"

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("blockdiag requires at least one block")
        super().__init__(sum(b.rows for b in blocks), sum(b.cols for b in blocks))
        self.blocks = blocks
        self._col_splits = np.cumsum([b.cols for b in blocks])[:-1]
        self._row_splits = np.cumsum([b.rows for b in blocks])[:-1]

    def _apply(self, x):
        pieces = np.split(x, self._col_splits, axis=0)
        return np.concatenate([b._apply(p) for b, p in zip(self.blocks, pieces)], axis=0)

    def _apply_adjoint(self, y):
        pieces = np.split(y, self._row_splits, axis=0)
        return np.concatenate(
            [b._apply_adjoint(p) for b, p in zip(self.blocks, pieces)], axis=0
        )


class VStackOperator(LinearOperator):
    """Vertical stack [A_1; A_2; ...] of operators sharing a domain."""

    kind = "vstack"

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("vstack requires at least one block")
        cols = blocks[0].cols
        for b in blocks:
            if b.cols != cols:
                raise ValueError("vstack blocks must share the column dimension")
        super().__init__(sum(b.rows for b in blocks), cols)
        self.blocks = blocks
        self._row_splits = np.cumsum([b.rows for b in blocks])[:-1]

    def _apply(self, x):
        return np.concatenate([b._apply(x) for b in self.blocks], axis=0)

    def _apply_adjoint(self, y):
        pieces = np.split(y, self._row_splits, axis=0)
        out = self.blocks[0]._apply_adjoint(pieces[0])
        for b, p in zip(self.blocks[1:], pieces[1:]):
            out = out + b._apply_adjoint(p)
        return out


class ComposedOperator(LinearOperator):
    """Composition ``outer @ inner``."""

    kind = "composed"

    def __init__(self, outer, inner):
        if outer.cols != inner.rows:
            raise ValueError(
                f"cannot compose {outer.rows}x{outer.cols} with {inner.rows}x{inner.cols}"
            )
        super().__init__(outer.rows, inner.cols)
        self.outer = outer
        self.inner = inner

    def _apply(self, x):
        return self.outer._apply(self.inner._apply(x))

    def _apply_adjoint(self, y):
        return self.inner._apply_adjoint(self.outer._apply_adjoint(y))


def dense(mat):
    return DenseOperator(mat)


def identity(n):
    return IdentityOperator(n)


def diagonal(weights):
    return DiagonalOperator(weights)


def kron(a, b):
    return KronOperator(a, b)


def kron3(a, b, c):
    return KronOperator(a, KronOperator(b, c))


def blockdiag(blocks):
    return BlockDiagOperator(blocks)


def vstack(blocks):
    return VStackOperator(blocks)


def build_diff(n_d, alpha_d=1.0, padded=False):
    """First-difference operator along one direction of extent ``n_d``."""
    return DiffOperator(n_d, alpha=alpha_d, padded=padded)


def build_Ls(n_v, n_h, alpha_v=1.0, alpha_h=1.0):
    """Spatial gradient of one frame: vertical differences stacked over horizontal.

    Shape is ((n_v-1)*n_h + (n_h-1)*n_v, n_v*n_h) for a frame vectorized
    column-major.
    """
    return VStackOperator(
        [
            KronOperator(IdentityOperator(n_h), DiffOperator(n_v, alpha=alpha_v)),
            KronOperator(DiffOperator(n_h, alpha=alpha_h), IdentityOperator(n_v)),
        ]
    )


# --- third-order tensor utilities -------------------------------------------
#
# A space-time volume is an array of shape (n_v, n_h, n_t) whose frontal
# slices are the frames.  vec/tensor convert between the volume and the
# stacked vector; unfold/fold expose the mode unfoldings used to express the
# regularizers on tensors.


def vec(t):
    """Column-major flattening of a tensor (vertical index fastest)."""
    return np.asarray(t, dtype=float).reshape(-1, order="F")


def tensor(u, dims):
    """Inverse of :func:`vec` for the given (n_v, n_h, n_t)."""
    u = np.asarray(u, dtype=float)
    n_v, n_h, n_t = dims
    if u.size != n_v * n_h * n_t:
        raise ValueError(f"vector of length {u.size} does not match dims {dims}")
    return u.reshape((n_v, n_h, n_t), order="F")


def unfold(t, mode):
    """Mode-``mode`` unfolding (modes are 1, 2, 3)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError("unfold expects a third-order tensor")
    n1, n2, n3 = t.shape
    if mode == 1:
        return t.reshape(n1, n2 * n3, order="F")
    if mode == 2:
        return t.transpose(1, 0, 2).reshape(n2, n1 * n3, order="F")
    if mode == 3:
        return t.transpose(2, 0, 1).reshape(n3, n1 * n2, order="F")
    raise ValueError("mode must be 1, 2 or 3")


def fold(x, mode, dims):
    """Inverse of :func:`unfold` into a tensor of shape ``dims``."""
    x = np.asarray(x, dtype=float)
    n1, n2, n3 = dims
    if mode == 1:
        return x.reshape(n1, n2, n3, order="F")
    if mode == 2:
        return x.reshape(n2, n1, n3, order="F").transpose(1, 0, 2)
    if mode == 3:
        return x.reshape(n3, n1, n2, order="F").transpose(1, 2, 0)
    raise ValueError("mode must be 1, 2 or 3")


def mode_product(t, m, mode):
    """Multiply a tensor along one mode: unfold, apply, fold back.

    ``m`` may be a LinearOperator or a 2-d array; its column count must match
    the extent of the chosen mode.
    """
    t = np.asarray(t, dtype=float)
    x = unfold(t, mode)
    if isinstance(m, LinearOperator):
        y = m.apply(x)
        new_extent = m.rows
    else:
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[1] != x.shape[0]:
            raise ValueError(
                f"mode-{mode} factor of shape {getattr(m, 'shape', None)} does not "
                f"match extent {x.shape[0]}"
            )
        y = m @ x
        new_extent = m.shape[0]
    dims = list(t.shape)
    dims[mode - 1] = new_extent
    return fold(y, mode, tuple(dims))
