"""Matrix-free linear operators and the column-major flattening of a volume.

All vectorization is column-major: a frame ``U`` of shape ``(n_v, n_h)``
flattens with the vertical (row) index running fastest, and a space-time
tensor of shape ``(n_v, n_h, n_t)`` flattens frame by frame, so that

    u = vec([vec(U_1), vec(U_2), ..., vec(U_nt)])

Operators are immutable after construction and expose ``apply`` /
``apply_adjoint`` so that large space-time operators never have to be
materialized.  This module holds the base class and the sparse matrix of
the ray transform, one compressed-row copy of its entries that serves both
the product and its adjoint; the blur and the stack of per-frame
operators live in :mod:`dyntv.forward`, and the difference operator D of the
regularizers, a stencil on the volume, in :mod:`dyntv.regularization`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearOperator", "SparseOperator", "vec"]


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
        if x.ndim not in (1, 2):
            raise ValueError("operator input must be a vector or a matrix")
        if x.shape[0] != expected:
            got = (f"a vector of length {x.shape[0]}" if x.ndim == 1
                   else f"a matrix with {x.shape[0]} rows")
            raise ValueError(
                f"{self.kind} operator of shape {self._shape} got {got}, expected {expected}"
            )
        return op(x) if x.ndim == 2 else op(x[:, None])[:, 0]

    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, y):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.rows}x{self.cols}>"


class SparseOperator(LinearOperator):
    """Operator stored as compressed rows of its nonzero entries.

    Built from (row, column, value) triples; a (row, column) pair may repeat,
    and repeats add.  The entries are sorted stably by row once and kept in
    one copy, an ``int32`` column index and a float64 value each (12 bytes),
    plus the count of each row.  ``apply`` gathers the input entries named
    by the indices, scales them by the values and sums each row's segment
    with ``np.add.reduceat``.  ``apply_adjoint`` reads the same rows: it
    repeats each output entry over its row, scales by the values and sums
    into the columns with ``np.bincount``.  That sums each column in another
    order than a product with the transpose's rows, so the two agree to
    rounding, not bitwise.
    """

    kind = "sparse"

    def __init__(self, rows, cols, row_idx, col_idx, values):
        super().__init__(rows, cols)
        row_idx = np.asarray(row_idx, dtype=np.intp).ravel()
        col_idx = np.asarray(col_idx, dtype=np.intp).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if not row_idx.size == col_idx.size == values.size:
            raise ValueError("sparse triples must have equal lengths")
        if self.cols > np.iinfo(np.int32).max:
            raise ValueError(f"{self.cols} columns do not fit the int32 sparse indices")
        if row_idx.size and (
            row_idx.min() < 0 or row_idx.max() >= self.rows
            or col_idx.min() < 0 or col_idx.max() >= self.cols
        ):
            raise ValueError(f"sparse indices out of range for shape {self.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("sparse values must be finite")
        order = np.argsort(row_idx, kind="stable")
        self._indices = col_idx.astype(np.int32)[order]
        self._values = values[order]
        self._counts = np.bincount(row_idx, minlength=self.rows)
        # np.add.reduceat returns the element at the start index for an empty
        # segment instead of 0, so it is given only the starts of nonempty
        # rows; each then runs to the next nonempty start, which is its own end
        self._nonempty = np.flatnonzero(self._counts)
        self._starts = (np.cumsum(self._counts) - self._counts)[self._nonempty]

    def _apply(self, x):
        """One column at a time, so the temporary never exceeds one nnz vector."""
        out = np.zeros((self.rows, x.shape[1]))
        if self._nonempty.size == 0:
            return out
        for c in range(x.shape[1]):
            # np.take reads the int32 indices as they are; x[self._indices, c]
            # would convert them to intp on every call
            gathered = np.take(x[:, c], self._indices)
            gathered *= self._values
            out[self._nonempty, c] = np.add.reduceat(gathered, self._starts)
        return out

    def _apply_adjoint(self, y):
        out = np.empty((self.cols, y.shape[1]))
        for c in range(y.shape[1]):
            spread = np.repeat(y[:, c], self._counts)
            spread *= self._values
            out[:, c] = np.bincount(self._indices, spread, minlength=self.cols)
        return out


def vec(t):
    """Column-major flattening of a (n_v, n_h, n_t) volume (vertical index fastest)."""
    return np.asarray(t, dtype=float).reshape(-1, order="F")
