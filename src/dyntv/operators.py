"""Matrix-free linear operators and third-order tensor utilities.

All vectorization is column-major: a frame ``U`` of shape ``(n_v, n_h)``
flattens with the vertical (row) index running fastest, and a space-time
tensor of shape ``(n_v, n_h, n_t)`` flattens frame by frame, so that

    u = vec([vec(U_1), vec(U_2), ..., vec(U_nt)])

Operators are immutable after construction and expose ``apply`` /
``apply_adjoint`` so that large Kronecker and block compositions never have
to be materialized.  The classes here are what the forward models are built
from: dense and sparse matrices, the identity, Kronecker products and block
diagonals.  The difference operator D of the regularizers is a stencil on the
volume and lives in :mod:`dyntv.regularization`.  ``to_dense`` exists for
small operators only and is the anchor for the dense oracles used in the
tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "SparseOperator",
    "IdentityOperator",
    "KronOperator",
    "BlockDiagOperator",
    "vec",
    "tensor",
]

# Hard cap for materializing operators; beyond this, go matrix-free.
MAX_DENSE_COLS = 4096


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

    def __repr__(self):
        return f"<{type(self).__name__} {self.rows}x{self.cols}>"


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
    """``M x`` for M in compressed rows, one column of x at a time.

    Each column is one 1-D gather of nnz entries, scaled in place and summed
    per row, so the temporary never exceeds one nnz vector.
    ``np.add.reduceat`` returns the element at the start index for an empty
    segment instead of 0, so it is given only the starts of nonempty rows
    (each then runs to the next nonempty start, which is its own end) and
    the empty rows stay zero.
    """
    out = np.zeros((n_out, x.shape[1]))
    if csr.nonempty.size == 0:
        return out
    for c in range(x.shape[1]):
        gathered = x[csr.indices, c]  # a copy: fancy indexing
        gathered *= csr.values
        out[csr.nonempty, c] = np.add.reduceat(gathered, csr.starts)
    return out


class IdentityOperator(LinearOperator):
    kind = "identity"

    def __init__(self, n):
        super().__init__(n, n)

    def _apply(self, x):
        return x

    def _apply_adjoint(self, y):
        return y


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


# --- third-order tensor utilities -------------------------------------------
#
# A space-time volume is an array of shape (n_v, n_h, n_t) whose frontal
# slices are the frames.  vec/tensor convert between the volume and the
# stacked vector.


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
