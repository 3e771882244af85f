"""A minimal linear-operator adapter over dense and CSR matrices.

The SVD engines accept either a dense :class:`numpy.ndarray` or the
library's own :class:`~repro.linalg.sparse.CSRMatrix` and only ever touch
the matrix through products, so sparse inputs are never densified.
:class:`MatrixOperator` normalises the two cases behind four products,
``matvec``, ``rmatvec``, ``matmat`` and ``rmatmat``, plus the Gram
matrix ``gram``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.linalg.sparse import CSRMatrix

__all__ = ["MatrixOperator", "as_operator"]


class MatrixOperator:
    """Uniform product interface over dense arrays and CSR matrices."""

    def __init__(self, matrix):
        if isinstance(matrix, CSRMatrix):
            self._sparse = matrix
            self._dense = None
            self.shape = matrix.shape
        else:
            dense = np.asarray(matrix, dtype=np.float64)
            if dense.ndim != 2:
                raise ShapeError(
                    f"operator must be 2-D, got shape {dense.shape}")
            if dense.size and not np.all(np.isfinite(dense)):
                raise ValidationError("operator contains non-finite entries")
            self._sparse = None
            self._dense = dense
            self.shape = dense.shape

    @property
    def is_sparse(self) -> bool:
        """True when backed by a :class:`CSRMatrix`."""
        return self._sparse is not None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``."""
        if self._sparse is not None:
            return self._sparse.matvec(x)
        return self._dense @ np.asarray(x, dtype=np.float64)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``Aᵀ @ y``."""
        if self._sparse is not None:
            return self._sparse.rmatvec(y)
        return self._dense.T @ np.asarray(y, dtype=np.float64)

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """``A @ B`` for dense ``B``."""
        if self._sparse is not None:
            return self._sparse.matmat(block)
        return self._dense @ np.asarray(block, dtype=np.float64)

    def rmatmat(self, block: np.ndarray) -> np.ndarray:
        """``Aᵀ @ B`` for dense ``B``."""
        if self._sparse is not None:
            return self._sparse.rmatmat(block)
        return self._dense.T @ np.asarray(block, dtype=np.float64)

    def gram(self) -> np.ndarray:
        """``AᵀA``, dense ``(m, m)``; a sparse ``A`` stays sparse."""
        if self._sparse is not None:
            return self._sparse.gram()
        return self._dense.T @ self._dense

    def frobenius_norm(self) -> float:
        """``‖A‖_F``."""
        if self._sparse is not None:
            return self._sparse.frobenius_norm()
        return float(np.linalg.norm(self._dense))

    def to_dense(self) -> np.ndarray:
        """Materialise the underlying matrix densely."""
        if self._sparse is not None:
            return self._sparse.to_dense()
        return self._dense


def as_operator(matrix) -> MatrixOperator:
    """Wrap ``matrix`` in a :class:`MatrixOperator` (idempotent)."""
    if isinstance(matrix, MatrixOperator):
        return matrix
    return MatrixOperator(matrix)
