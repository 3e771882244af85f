"""Plain-numpy reference rankings for checking served results.

Cosine of the folded query ``Uₖᵀq`` against every stored document, then
a stable argsort (ties by ascending id).  It is written independently
of :mod:`repro.serving.engine`, whose kernel, cache and top-k it checks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TIE_TOLERANCE", "Reference", "agrees", "top_k"]

#: Scores closer than this count as tied: the engine and the reference
#: round differently in the last bits, and may order such ties apart.
TIE_TOLERANCE = 1e-9


def _unit_columns(matrix: np.ndarray) -> np.ndarray:
    """Columns scaled to unit length; zero columns stay zero."""
    norms = np.linalg.norm(matrix, axis=0)
    return matrix / np.where(norms > 0.0, norms, 1.0)


class Reference:
    """The current document store of an index, kept independently.

    Args:
        basis: the ``(n_terms, k)`` LSI basis ``Uₖ``.
        doc_vectors: the ``(k, m)`` LSI document store.
    """

    def __init__(self, basis, doc_vectors):
        self.basis = np.asarray(basis, dtype=np.float64)
        self._unit = _unit_columns(np.asarray(doc_vectors,
                                              dtype=np.float64))

    def fold(self, columns: np.ndarray) -> None:
        """Append folded-in documents given as dense term-space columns."""
        self._unit = np.hstack([self._unit,
                                _unit_columns(self.basis.T @ columns)])

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """``(q, m)`` cosines for a dense ``(n_terms, q)`` query block."""
        return _unit_columns(self.basis.T @ queries).T @ self._unit


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` ids of a stable argsort by descending score."""
    m = scores.shape[0]
    k = min(k, m)
    cutoff = np.partition(scores, m - k)[m - k]
    candidates = np.flatnonzero(scores >= cutoff)
    order = np.argsort(-scores[candidates], kind="stable")
    return candidates[order][:k]


def agrees(served, expected: np.ndarray, scores: np.ndarray) -> bool:
    """Whether ``served`` is ``expected`` up to swaps of tied scores."""
    served = np.asarray(served)
    if np.array_equal(served, expected):
        return True
    if served.shape != expected.shape \
            or np.unique(served).size != served.size \
            or served.min() < 0 or served.max() >= scores.shape[0]:
        return False
    return bool(np.allclose(scores[served], scores[expected], rtol=0.0,
                            atol=TIE_TOLERANCE))
