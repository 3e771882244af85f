"""The retrieval-engine contract every ranking backend satisfies.

The paper's experiments swap retrieval engines freely — LSI, the
conventional vector-space model, BM25, the two-step random-projection
pipeline, folding indexes, and (since the serving layer landed) a
persistent served index.  :class:`Retriever` pins that shared surface
down as a runtime-checkable :class:`typing.Protocol`, so experiment
harnesses can take "any retriever" and both mypy and ``isinstance`` can
verify a backend actually conforms.

The contract is deliberately small:

- ``n_documents`` — corpus size (scores are indexed ``0..m-1``);
- ``score(query_vector)`` — one score per document for a term-space
  query;
- ``rank_documents(query_vector, *, top_k=None)`` — document ids by
  descending score, with the shared ``top_k`` policy of
  :func:`repro.utils.validation.check_top_k` (``None`` = all, otherwise
  a validated positive integer, clamped to the corpus size).

Static conformance of the concrete engines is asserted (and mypy-checked
in CI) in :mod:`repro.serving.index`, which already imports every
backend and therefore carries the proof without creating import cycles.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["Retriever"]


@runtime_checkable
class Retriever(Protocol):
    """Structural type of a ranking backend over a fixed corpus.

    Implemented by :class:`~repro.core.lsi.LSIModel`,
    :class:`~repro.ir.vsm.VectorSpaceModel`,
    :class:`~repro.ir.bm25.BM25Model`,
    :class:`~repro.core.two_step.TwoStepLSI`, and
    :class:`~repro.serving.index.ServedIndex` (which may be queried
    from several threads at once, as by a micro-batching dispatcher's
    flusher and its callers).  ``isinstance(obj, Retriever)`` performs
    a structural (duck-typed) check; prefer checking fitted instances,
    since unfitted models may raise from their ``n_documents``
    property.
    """

    @property
    def n_documents(self) -> int:
        """Number of scoreable documents."""
        ...

    def score(self, query_vector) -> np.ndarray:
        """Score every document against a term-space query vector."""
        ...

    def rank_documents(self, query_vector, *, top_k=None) -> np.ndarray:
        """Document ids by descending score (``top_k=None`` = all)."""
        ...
