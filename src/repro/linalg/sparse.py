"""A compressed-sparse-row (CSR) matrix implemented from scratch.

Term–document matrices are overwhelmingly sparse: the paper's cost model
for LSI assumes about ``c`` nonzero terms per document column and derives
the ``O(m·n·c)`` / ``O(m·l·(l+c))`` comparison of §5 from exactly this
structure.  The reproduction therefore carries its own sparse kernel
rather than densifying everything.

The class supports the operations the rest of the library needs —
triplet assembly, matrix–vector and matrix–matrix products on either
side, Gram products, norms, row/column slicing, scaling, and transposes —
with numpy used only for flat array arithmetic, never ``scipy.sparse``.

Row indices are "terms" and column indices are "documents" throughout the
library, matching the paper's ``n × m`` orientation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.utils.validation import check_non_negative_int

__all__ = ["CSRMatrix", "GRAM_PANEL_ELEMENTS"]

#: Most entries :meth:`CSRMatrix.gram` holds dense at once (512 KiB of
#: float64): one row panel of the matrix.
GRAM_PANEL_ELEMENTS = 1 << 16


class CSRMatrix:
    """An immutable sparse matrix in compressed-sparse-row format.

    Construct through :meth:`from_triplets`, :meth:`from_dense`, or
    :meth:`from_columns`; the raw constructor expects already-validated
    CSR arrays and is mainly for internal use.

    Attributes:
        shape: ``(n_rows, n_cols)``.
        indptr: int64 array of length ``n_rows + 1``; row ``i`` occupies
            positions ``indptr[i]:indptr[i + 1]`` of ``indices``/``data``.
        indices: int64 column indices, sorted within each row.
        data: float64 nonzero values, parallel to ``indices``.
    """

    __slots__ = ("shape", "indptr", "indices", "data",
                 "_transpose_cache")

    def __init__(self, shape, indptr, indices, data, *, _skip_checks=False):
        n_rows, n_cols = shape
        n_rows = check_non_negative_int(n_rows, "n_rows")
        n_cols = check_non_negative_int(n_cols, "n_cols")
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if not _skip_checks:
            if indptr.ndim != 1 or indptr.shape[0] != n_rows + 1:
                raise ShapeError(
                    f"indptr must have length n_rows + 1 = {n_rows + 1}, "
                    f"got shape {indptr.shape}")
            if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
                raise ValidationError("indptr must start at 0 and be "
                                      "non-decreasing")
            if indices.shape != data.shape or indices.ndim != 1:
                raise ShapeError("indices and data must be 1-D and parallel")
            if int(indptr[-1]) != indices.shape[0]:
                raise ShapeError(
                    f"indptr[-1]={int(indptr[-1])} must equal "
                    f"nnz={indices.shape[0]}")
            if indices.size and (indices.min() < 0
                                 or indices.max() >= n_cols):
                raise ValidationError("column indices out of range")
            if data.size and not np.all(np.isfinite(data)):
                raise ValidationError("data contains non-finite entries")
        self.shape = (n_rows, n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._transpose_cache = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, values,
                      *, sum_duplicates=True) -> "CSRMatrix":
        """Assemble from COO triplets ``(rows[i], cols[i], values[i])``.

        Duplicate coordinates are summed (the natural semantics for term
        counts) unless ``sum_duplicates`` is False, in which case
        duplicates raise :class:`ValidationError`.  Explicit zeros are
        dropped.
        """
        n_rows = check_non_negative_int(n_rows, "n_rows")
        n_cols = check_non_negative_int(n_cols, "n_cols")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ShapeError("rows, cols, values must be parallel 1-D arrays")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValidationError("row indices out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValidationError("column indices out of range")
            if not np.all(np.isfinite(values)):
                raise ValidationError("values contain non-finite entries")

        # Sort lexicographically by (row, col) to canonicalise.
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]

        if rows.size:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if np.any(same):
                if not sum_duplicates:
                    raise ValidationError(
                        "duplicate coordinates present and "
                        "sum_duplicates=False")
                # Collapse runs of equal coordinates by segment sum.
                boundaries = np.concatenate(([True], ~same))
                segment_ids = np.cumsum(boundaries) - 1
                values = np.bincount(segment_ids, weights=values)
                keep = np.flatnonzero(boundaries)
                rows, cols = rows[keep], cols[keep]

        nonzero = values != 0
        rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]

        counts = np.bincount(rows, minlength=n_rows) if rows.size else \
            np.zeros(n_rows, dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return cls((n_rows, n_cols), indptr, cols, values, _skip_checks=True)

    @classmethod
    def from_dense(cls, array) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(array, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError(f"expected 2-D array, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        return cls.from_triplets(dense.shape[0], dense.shape[1],
                                 rows, cols, dense[rows, cols])

    @classmethod
    def from_columns(cls, n_rows, columns) -> "CSRMatrix":
        """Build from per-column sparse dicts ``{row_index: value}``.

        This is the natural constructor for a corpus: each document
        contributes one column of term counts.
        """
        n_rows = check_non_negative_int(n_rows, "n_rows")
        rows_list, cols_list, vals_list = [], [], []
        for j, column in enumerate(columns):
            for i, value in column.items():
                rows_list.append(i)
                cols_list.append(j)
                vals_list.append(value)
        n_cols = len(columns)
        return cls.from_triplets(n_rows, n_cols, rows_list, cols_list,
                                 vals_list)

    @classmethod
    def zeros(cls, n_rows, n_cols) -> "CSRMatrix":
        """An all-zero sparse matrix of the given shape."""
        return cls.from_triplets(n_rows, n_cols, [], [], [])

    @classmethod
    def identity(cls, n) -> "CSRMatrix":
        """The n×n identity."""
        idx = np.arange(n)
        return cls.from_triplets(n, n, idx, idx, np.ones(n))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.data.shape[0])

    @property
    def density(self) -> float:
        """Fraction of entries that are nonzero (0 for an empty shape)."""
        total = self.shape[0] * self.shape[1]
        if total == 0:
            return 0.0
        return self.nnz / total

    def mean_nonzeros_per_column(self) -> float:
        """The paper's ``c``: average nonzero count per document column."""
        if self.shape[1] == 0:
            return 0.0
        return self.nnz / self.shape[1]

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array."""
        dense = np.zeros(self.shape)
        if self.data.size:
            dense[self._row_of_entry(), self.indices] = self.data
        return dense

    def copy(self) -> "CSRMatrix":
        """A deep copy."""
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(),
                         self.data.copy(), _skip_checks=True)

    def __repr__(self) -> str:
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"density={self.density:.4g})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    __hash__ = None  # mutable ndarray payload; identity hashing is a trap

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------

    def matvec(self, x) -> np.ndarray:
        """Compute ``A @ x`` for a vector ``x`` of length ``n_cols``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ShapeError(
                f"matvec expects vector of length {self.shape[1]}, "
                f"got shape {x.shape}")
        products = self.data * x[self.indices]
        out = np.zeros(self.shape[0])
        # Segment-sum per row via reduceat over non-empty rows.
        if products.size:
            row_ends = self.indptr[1:]
            row_starts = self.indptr[:-1]
            nonempty = np.flatnonzero(row_ends > row_starts)
            sums = np.add.reduceat(products, row_starts[nonempty])
            out[nonempty] = sums
        return out

    def rmatvec(self, y) -> np.ndarray:
        """Compute ``Aᵀ @ y`` for a vector ``y`` of length ``n_rows``."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.shape[0],):
            raise ShapeError(
                f"rmatvec expects vector of length {self.shape[0]}, "
                f"got shape {y.shape}")
        row_of_entry = np.repeat(np.arange(self.shape[0]),
                                 np.diff(self.indptr))
        out = np.zeros(self.shape[1])
        np.add.at(out, self.indices, self.data * y[row_of_entry])
        return out

    def _row_of_entry(self) -> np.ndarray:
        """Row index of every stored entry (parallel to ``indices``)."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def matmat(self, other) -> np.ndarray:
        """Compute ``A @ B`` for a dense matrix ``B`` (n_cols × p).

        Entries are row-sorted, so the per-row sums reduce to one
        vectorised segment reduction — no Python-level row loop.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.ndim != 2 or other.shape[0] != self.shape[1]:
            raise ShapeError(
                f"matmat expects ({self.shape[1]}, p) matrix, got shape "
                f"{other.shape}")
        out = np.zeros((self.shape[0], other.shape[1]))
        if self.data.size:
            # Scale the gathered rows in place: one nnz × p temporary
            # instead of two, and the same bits (products commute).
            products = other[self.indices]
            products *= self.data[:, None]
            row_starts = self.indptr[:-1]
            nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
            out[nonempty] = np.add.reduceat(products,
                                            row_starts[nonempty], axis=0)
        return out

    def rmatmat(self, other) -> np.ndarray:
        """Compute ``Aᵀ @ B`` for a dense matrix ``B`` (n_rows × p).

        Delegates to ``Aᵀ``'s row-major :meth:`matmat` (the transpose is
        built once and cached — the matrix is immutable).
        """
        other = np.asarray(other, dtype=np.float64)
        if other.ndim != 2 or other.shape[0] != self.shape[0]:
            raise ShapeError(
                f"rmatmat expects ({self.shape[0]}, p) matrix, got shape "
                f"{other.shape}")
        return self._cached_transpose().matmat(other)

    def _cached_transpose(self) -> "CSRMatrix":
        if self._transpose_cache is None:
            self._transpose_cache = self.transpose()
        return self._transpose_cache

    def gram(self) -> np.ndarray:
        """The document Gram matrix ``AᵀA`` (m × m), dense.

        For a pure 0-separable corpus this is the block-diagonal matrix at
        the heart of the Theorem 2 proof.  Accumulated one dense row
        panel ``P`` at a time as ``PᵀP``, so no more than
        :data:`GRAM_PANEL_ELEMENTS` entries of ``A`` are ever dense.
        """
        n_rows, n_cols = self.shape
        out = np.zeros((n_cols, n_cols))
        counts = np.diff(self.indptr)
        step = max(1, GRAM_PANEL_ELEMENTS // max(n_cols, 1))
        for lo in range(0, n_rows, step):
            hi = min(n_rows, lo + step)
            start, stop = int(self.indptr[lo]), int(self.indptr[hi])
            if start == stop:
                continue
            panel = np.zeros((hi - lo, n_cols))
            panel[np.repeat(np.arange(hi - lo), counts[lo:hi]),
                  self.indices[start:stop]] = self.data[start:stop]
            out += panel.T @ panel
        return out

    def cogram(self) -> np.ndarray:
        """The term autocorrelation matrix ``AAᵀ`` (n × n), dense.

        This is the matrix whose near-null synonym-difference direction
        §4's synonymy argument analyses.
        """
        out = np.zeros((self.shape[0], self.shape[0]))
        dense_rows = self.to_dense()
        np.matmul(dense_rows, dense_rows.T, out=out)
        return out

    # ------------------------------------------------------------------
    # Norms and reductions
    # ------------------------------------------------------------------

    def frobenius_norm(self) -> float:
        """The Frobenius norm ``‖A‖_F``."""
        return float(np.sqrt(np.sum(self.data * self.data)))

    def column_norms(self) -> np.ndarray:
        """Euclidean norm of every column (length ``n_cols``)."""
        out = np.zeros(self.shape[1])
        np.add.at(out, self.indices, self.data * self.data)
        return np.sqrt(out)

    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every row (length ``n_rows``)."""
        sq = self.data * self.data
        out = np.zeros(self.shape[0])
        if sq.size:
            row_ends = self.indptr[1:]
            row_starts = self.indptr[:-1]
            nonempty = np.flatnonzero(row_ends > row_starts)
            out[nonempty] = np.add.reduceat(sq, row_starts[nonempty])
        return np.sqrt(out)

    def column_sums(self) -> np.ndarray:
        """Sum of entries in every column — document lengths for counts."""
        out = np.zeros(self.shape[1])
        np.add.at(out, self.indices, self.data)
        return out

    def row_sums(self) -> np.ndarray:
        """Sum of entries in every row — corpus term frequencies."""
        out = np.zeros(self.shape[0])
        if self.data.size:
            row_ends = self.indptr[1:]
            row_starts = self.indptr[:-1]
            nonempty = np.flatnonzero(row_ends > row_starts)
            out[nonempty] = np.add.reduceat(self.data, row_starts[nonempty])
        return out

    def document_frequency(self) -> np.ndarray:
        """Number of columns in which each row appears (for tf-idf)."""
        out = np.zeros(self.shape[0])
        counts = np.diff(self.indptr)
        out[:] = counts
        return out

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------

    def transpose(self) -> "CSRMatrix":
        """Return ``Aᵀ`` as a new CSR matrix."""
        row_of_entry = np.repeat(np.arange(self.shape[0]),
                                 np.diff(self.indptr))
        return CSRMatrix.from_triplets(self.shape[1], self.shape[0],
                                       self.indices, row_of_entry, self.data)

    def scale(self, factor) -> "CSRMatrix":
        """Return ``factor * A`` (scalar ``factor``)."""
        factor = float(factor)
        if factor == 0:
            return CSRMatrix.zeros(*self.shape)
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(),
                         self.data * factor, _skip_checks=True)

    def scale_rows(self, weights) -> "CSRMatrix":
        """Return ``diag(weights) @ A`` — per-term (row) reweighting."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.shape[0],):
            raise ShapeError(
                f"weights must have length {self.shape[0]}, got shape "
                f"{weights.shape}")
        row_of_entry = np.repeat(np.arange(self.shape[0]),
                                 np.diff(self.indptr))
        return CSRMatrix.from_triplets(
            self.shape[0], self.shape[1], row_of_entry, self.indices,
            self.data * weights[row_of_entry])

    def scale_columns(self, weights) -> "CSRMatrix":
        """Return ``A @ diag(weights)`` — per-document (column) reweighting."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.shape[1],):
            raise ShapeError(
                f"weights must have length {self.shape[1]}, got shape "
                f"{weights.shape}")
        row_of_entry = np.repeat(np.arange(self.shape[0]),
                                 np.diff(self.indptr))
        return CSRMatrix.from_triplets(
            self.shape[0], self.shape[1], row_of_entry, self.indices,
            self.data * weights[self.indices])

    def map_data(self, fn) -> "CSRMatrix":
        """Apply an elementwise function to stored nonzeros.

        ``fn`` receives the data array and must return an array of the
        same shape.  Results that are exactly zero are kept sparse-implicit
        by reassembly.  Used by weighting schemes (e.g. ``1 + log tf``).
        """
        new_data = np.asarray(fn(self.data.copy()), dtype=np.float64)
        if new_data.shape != self.data.shape:
            raise ShapeError("map_data function changed the data shape")
        row_of_entry = np.repeat(np.arange(self.shape[0]),
                                 np.diff(self.indptr))
        return CSRMatrix.from_triplets(self.shape[0], self.shape[1],
                                       row_of_entry, self.indices, new_data)

    def select_columns(self, column_indices) -> "CSRMatrix":
        """Return the submatrix with the given columns, in the given order.

        Supports repeated indices (sampling with replacement), which the
        FKV Monte-Carlo algorithm requires.
        """
        column_indices = np.asarray(column_indices, dtype=np.int64)
        if column_indices.ndim != 1:
            raise ShapeError("column_indices must be 1-D")
        if column_indices.size and (column_indices.min() < 0 or
                                    column_indices.max() >= self.shape[1]):
            raise ValidationError("column indices out of range")
        # Build a (column -> new positions) expansion, then reassemble.
        rows_list, cols_list, vals_list = [], [], []
        transposed = self.transpose()
        for new_j, old_j in enumerate(column_indices):
            start, stop = transposed.indptr[old_j], transposed.indptr[old_j + 1]
            rows_list.append(transposed.indices[start:stop])
            vals_list.append(transposed.data[start:stop])
            cols_list.append(np.full(stop - start, new_j, dtype=np.int64))
        if rows_list:
            rows = np.concatenate(rows_list)
            cols = np.concatenate(cols_list)
            vals = np.concatenate(vals_list)
        else:
            rows = cols = vals = np.empty(0)
        return CSRMatrix.from_triplets(self.shape[0], len(column_indices),
                                       rows, cols, vals)

    def select_rows(self, row_indices) -> "CSRMatrix":
        """Return the submatrix with the given rows, in the given order.

        Repeated indices repeat rows; entries are gathered straight
        from ``indptr``, with no transpose or re-sort.

        Raises:
            ShapeError: if ``row_indices`` is not 1-D.
            ValidationError: if a row index is out of range.
        """
        row_indices = np.asarray(row_indices, dtype=np.int64)
        if row_indices.ndim != 1:
            raise ShapeError("row_indices must be 1-D")
        if row_indices.size and (row_indices.min() < 0 or
                                 row_indices.max() >= self.shape[0]):
            raise ValidationError("row indices out of range")
        starts = self.indptr[row_indices]
        counts = self.indptr[row_indices + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        # Entry t of selected row r comes from t - indptr[r] + starts[r].
        positions = np.arange(indptr[-1], dtype=np.int64) \
            + np.repeat(starts - indptr[:-1], counts)
        return CSRMatrix((row_indices.size, self.shape[1]), indptr,
                         self.indices[positions], self.data[positions],
                         _skip_checks=True)

    def get_column(self, j) -> np.ndarray:
        """Materialise column ``j`` as a dense vector (a document)."""
        j = int(j)
        if not 0 <= j < self.shape[1]:
            raise ValidationError(
                f"column index {j} out of range for {self.shape[1]} columns")
        out = np.zeros(self.shape[0])
        mask = self.indices == j
        row_of_entry = np.repeat(np.arange(self.shape[0]),
                                 np.diff(self.indptr))
        out[row_of_entry[mask]] = self.data[mask]
        return out

    def get_row(self, i) -> np.ndarray:
        """Materialise row ``i`` as a dense vector (a term profile)."""
        i = int(i)
        if not 0 <= i < self.shape[0]:
            raise ValidationError(
                f"row index {i} out of range for {self.shape[0]} rows")
        out = np.zeros(self.shape[1])
        start, stop = self.indptr[i], self.indptr[i + 1]
        out[self.indices[start:stop]] = self.data[start:stop]
        return out

    def add(self, other) -> "CSRMatrix":
        """Return ``A + B`` for another CSR matrix of the same shape."""
        if not isinstance(other, CSRMatrix):
            raise ValidationError("add expects another CSRMatrix")
        if other.shape != self.shape:
            raise ShapeError(
                f"shape mismatch: {self.shape} vs {other.shape}")
        row_a = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        row_b = np.repeat(np.arange(other.shape[0]), np.diff(other.indptr))
        return CSRMatrix.from_triplets(
            self.shape[0], self.shape[1],
            np.concatenate([row_a, row_b]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]))
