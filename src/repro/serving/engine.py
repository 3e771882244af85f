"""Batched query execution against an LSI document store.

Scoring one query against rank-``k`` LSI is two small GEMVs; scoring a
block of ``q`` queries one at a time wastes the hardware the paper's §5
cost model is fighting for.  :class:`BatchQueryEngine` instead folds
the whole ``(n × q)`` query block into the LSI space with one product,
computes every cosine with a second GEMM against the index's unit store
``doc_unit``, used as given, and takes top-``k`` per query — while
reproducing the per-query path's rankings *exactly*, including the
stable ascending-id tie-break of ``np.argsort(kind="stable")``
(see :func:`~repro.linalg.dense.stable_top_k`).

A query costs its terms, not the vocabulary.  :class:`QueryBatch`
holds each query as its nonzero terms — ascending term ids and their
weights — checked for finiteness once, when the batch is built.  The
fold reads only the rows of ``Uₖ`` the block touches
(``Uₖ[rows]ᵀ·Q[rows]``, :func:`~repro.linalg.dense.fold_rows`); a block
that touches every row multiplies ``Uₖ`` in place, so dense queries
keep the plain GEMM and its bits.

Scores are float64 cosines, the only precision the engine computes
in.  Per-thread scratch buffers hold the projected block, the unit
queries, and the similarity matrix, so repeated batches of one shape
run through ``out=`` products; the only other allocations scale with
the terms a block touches (the gathered rows of ``Uₖ``).

The document GEMM is always one call over the whole store: column
panels under a cache budget measured 0.98–1.01x of it on 20k- and
100k-document stores (2-core host) and are not bitwise-identical to it.
The store may be a ``(k, m)`` view of a wider buffer, as a served
index's store is once it takes fold-ins; BLAS scores it in place, with
the bits of a contiguous copy from 4 columns up.

:class:`LRUResultCache` memoises rankings keyed on (index generation,
the bytes of the query's term ids and weights, cutoff), so repeated
queries against an unchanged index are answered without touching BLAS
at all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.linalg.dense import ZERO_NORM_TOL, fold_rows, \
    normalize_columns_into, stable_top_k
from repro.utils.validation import check_non_negative_int, check_top_k

__all__ = [
    "BatchQueryEngine",
    "CacheKey",
    "LRUResultCache",
    "QueryBatch",
    "stable_top_k",
]


class QueryBatch:
    """A block of term-space queries, stored as columns.

    Each query is also held as its nonzero terms: ascending term ids and
    their weights (:meth:`terms`).  Their bytes are the query's
    result-cache key (:meth:`query_hash`), and their ids tell the engine
    which rows of ``Uₖ`` the block touches.  A batch is immutable once
    built.

    Args:
        matrix: dense ``(n_terms, q)`` array, one query per column.

    Raises:
        ShapeError: unless ``matrix`` is 2-D.
        ValidationError: on a non-finite entry.

    Use :meth:`from_vector` for one 1-D query, which checks only its
    nonzero entries, and :meth:`from_vectors` to stack several.
    :meth:`select` and :meth:`concat` build batches from validated ones
    without checking or copying them again.
    """

    def __init__(self, matrix):
        block = np.asarray(matrix, dtype=np.float64)
        if block.ndim != 2:
            raise ShapeError(
                f"query batch must be 2-D (n_terms, q), got shape "
                f"{block.shape}")
        if block.size and not np.isfinite(block).all():
            raise ValidationError(
                "query batch contains non-finite entries")
        self._matrix = block
        self._n_terms, self._n_queries = block.shape
        # Extracted on first use: a dense block handed straight to the
        # engine never needs its terms.
        self._terms: "list | None" = None

    @classmethod
    def _of_terms(cls, n_terms: int, terms: list,
                  matrix=None) -> "QueryBatch":
        """A batch over already-validated ``(ids, weights)`` pairs, one
        per query; ``matrix`` is rebuilt from them if not given."""
        batch = cls.__new__(cls)
        batch._matrix = matrix
        batch._n_terms, batch._n_queries = n_terms, len(terms)
        batch._terms = terms
        return batch

    @classmethod
    def from_vector(cls, query_vector) -> "QueryBatch":
        """A one-query batch, checking only the query's nonzero entries.

        Every non-finite entry is nonzero, so this rejects exactly what
        a scan of the whole vector would, in one pass over its terms.

        Raises:
            ShapeError: unless ``query_vector`` is 1-D.
            ValidationError: on a non-finite entry.
        """
        vector = np.asarray(query_vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ShapeError(
                f"query_vector must be 1-D, got shape {vector.shape}")
        ids = (vector != 0).nonzero()[0]
        weights = vector[ids]
        if np.count_nonzero(np.isfinite(weights)) < ids.size:
            raise ValidationError(
                "query_vector contains non-finite entries")
        return cls._of_terms(vector.shape[0], [(ids, weights)],
                             vector[:, None])

    @classmethod
    def from_vectors(cls, vectors) -> "QueryBatch":
        """Stack 1-D term-space query vectors into a batch.

        Raises:
            ValidationError: on an empty sequence or a non-finite
                query vector.
            ShapeError: when a vector is not 1-D or the vectors
                disagree on term-space size.
        """
        columns = [np.asarray(v, dtype=np.float64) for v in vectors]
        if not columns:
            raise ValidationError("query batch needs at least one query")
        for i, column in enumerate(columns):
            if column.ndim != 1:
                raise ShapeError(
                    f"vectors[{i}] must be 1-D, got shape {column.shape}")
        lengths = {c.shape[0] for c in columns}
        if len(lengths) > 1:
            raise ShapeError(
                f"queries live in different term spaces: sizes {sorted(lengths)}")
        return cls(np.stack(columns, axis=1))

    @classmethod
    def concat(cls, batches) -> "QueryBatch":
        """The queries of ``batches``, in order, as one batch.

        Joins their validated terms: nothing is checked again, and no
        dense block is built unless :attr:`matrix` is read.

        Raises:
            ValidationError: on an empty sequence.
            ShapeError: when the batches disagree on term-space size.
        """
        batches = list(batches)
        if not batches:
            raise ValidationError("query batch needs at least one query")
        sizes = {batch.n_terms for batch in batches}
        if len(sizes) > 1:
            raise ShapeError(
                f"queries live in different term spaces: sizes {sorted(sizes)}")
        return cls._of_terms(sizes.pop(), [
            pair for batch in batches for pair in batch._query_terms()])

    def select(self, columns) -> "QueryBatch":
        """The queries at ``columns``, in that order, as a new batch.

        Shares this batch's validated terms: nothing is checked again,
        and the dense block is not copied (the new batch rebuilds its
        own :attr:`matrix` only if it is read).  Selecting every query
        in order returns this batch.
        """
        picked = list(columns)
        if picked == list(range(self._n_queries)):
            return self
        terms = self._query_terms()
        return self._of_terms(self._n_terms, [terms[i] for i in picked])

    def _query_terms(self) -> list:
        """Every query's ``(ids, weights)``, extracted once."""
        if self._terms is None:
            block = self._matrix.T
            nonzero = block != 0
            columns, ids = nonzero.nonzero()
            weights = block[nonzero]
            bounds = np.searchsorted(
                columns, np.arange(self._n_queries + 1)).tolist()
            self._terms = [(ids[lo:hi], weights[lo:hi])
                           for lo, hi in zip(bounds, bounds[1:])]
        return self._terms

    def _touched(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(rows, block)``: the ascending ids of every term the batch
        uses, and the queries restricted to them, ``(len(rows), q)``.

        A batch that uses every term returns its :attr:`matrix`, so the
        fold multiplies ``Uₖ`` in place.
        """
        terms = self._terms
        if terms is None:
            rows = np.flatnonzero(np.any(self._matrix, axis=1))
        elif self._n_queries == 1:
            rows = terms[0][0]
        else:
            used = np.zeros(self._n_terms, dtype=bool)
            for ids, _ in terms:
                used[ids] = True
            rows = np.flatnonzero(used)
        if rows.size == self._n_terms:
            return rows, self.matrix
        if terms is None:
            return rows, self._matrix[rows]
        if self._n_queries == 1:
            return rows, terms[0][1][:, None]
        block = np.zeros((rows.size, self._n_queries))
        for column, (ids, weights) in enumerate(terms):
            block[np.searchsorted(rows, ids), column] = weights
        return rows, block

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n_terms, q)`` query block (do not mutate)."""
        if self._matrix is None:
            block = np.zeros((self._n_terms, self._n_queries))
            for column, (ids, weights) in enumerate(self._terms):
                block[ids, column] = weights
            self._matrix = block
        return self._matrix

    @property
    def n_terms(self) -> int:
        """Term-space dimensionality of every query."""
        return self._n_terms

    @property
    def n_queries(self) -> int:
        """Number of queries in the block."""
        return self._n_queries

    def query(self, i: int) -> np.ndarray:
        """The ``i``-th query as a 1-D vector (a copy)."""
        return self.matrix[:, int(i)].copy()

    def terms(self, i: int) -> "tuple[np.ndarray, np.ndarray]":
        """Query ``i``'s nonzero terms: ascending ids and their weights
        (do not mutate).

        Explicit zeros and ``-0.0`` are not terms.
        """
        return self._query_terms()[i]

    def query_hash(self, i: int) -> bytes:
        """Query ``i``'s cache key: the bytes of its term ids, then of
        their weights.

        Two queries get the same key exactly when their terms are
        equal, so explicit zeros and ``-0.0`` never split a key.  The
        key is 16 bytes per term.
        """
        ids, weights = self.terms(i)
        return ids.tobytes() + weights.tobytes()

    def __len__(self) -> int:
        """Number of queries (alias of :attr:`n_queries`)."""
        return self.n_queries

    def __repr__(self) -> str:
        return (f"QueryBatch(n_terms={self.n_terms}, "
                f"n_queries={self.n_queries})")


class CacheKey(NamedTuple):
    """The canonical result-cache key for one (query, cutoff) lookup.

    :class:`CacheKey` is the one key type shared by the result cache of
    :class:`~repro.serving.index.ServedIndex` and the micro-batching
    dispatcher's coalescing.  The dispatcher's flusher thread and the
    caller threads rank through one index, so both build keys against
    the same generation counter.

    Attributes:
        generation: the index generation the entry was computed
            against — mutations bump it, so stale rankings are
            unreachable by construction.
        query_hash: the bytes of the query's term ids and weights
            (:meth:`QueryBatch.query_hash`).
        top_k: the effective cutoff the ranking was computed at.
    """

    generation: int
    query_hash: bytes
    top_k: int

    @classmethod
    def for_query(cls, generation: int, batch: "QueryBatch", i: int,
                  top_k: int) -> "CacheKey":
        """The key for query ``i`` of ``batch`` at one generation."""
        return cls(int(generation), batch.query_hash(i), int(top_k))


class LRUResultCache:
    """A bounded least-recently-used cache of ranking results.

    Keys are :class:`CacheKey` values (build them with
    :meth:`CacheKey.for_query`); values are ranked-id arrays, copied on
    the way in and out.
    ``capacity=0`` disables caching (every lookup misses, nothing is
    stored).

    The cache is thread-safe: ``get``/``put``/``clear`` hold one lock,
    because an LRU lookup is read-*and-reorder* (``move_to_end``) and
    a put is insert-and-evict — neither is atomic on a plain
    OrderedDict, and a micro-batching dispatcher's flusher thread and
    the caller threads share one index and so one cache.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = check_non_negative_int(capacity, "capacity")
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        #: Lookups answered from the cache.
        self.hits = 0
        #: Lookups that fell through to computation.
        self.misses = 0
        #: Entries dropped to respect ``capacity``.
        self.evictions = 0

    def get(self, key):
        """The cached result for ``key`` (a copy), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.copy()

    def put(self, key, ranking) -> None:
        """Store a result, evicting the least-recently-used overflow."""
        if self.capacity == 0:
            return
        entry = np.array(ranking)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        """Number of cached rankings."""
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"LRUResultCache(capacity={self.capacity}, "
                f"size={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")


class _BatchScratch(threading.local):
    """Per-thread scratch buffers for one query-block shape.

    One engine serves one immutable index generation, so the only
    thing that varies call to call is the batch width ``q``; buffers
    are rebuilt when ``q`` changes and reused otherwise.  Thread-local
    because a micro-batching dispatcher's flusher thread and the caller
    threads score through one index's engine at once, and a shared
    similarity buffer would race.
    """

    n_queries = -1
    projected = None
    unit = None
    sims = None


class BatchQueryEngine:
    """Projects and cosine-ranks query blocks in single GEMMs.

    The engine is a read-only view over an index generation's document
    store, which it scores as given: the serving layer hands it the
    writer's arrays and discards the engine whenever the writer
    mutates the store.

    Args:
        term_basis: the ``(n, k)`` orthonormal LSI basis ``Uₖ``.
        doc_unit: ``(k, m)`` unit-normalised document vectors, as
            produced by :func:`~repro.linalg.dense.normalize_columns`.
        doc_norms: length-``m`` original column norms; a document whose
            norm is at most ``ZERO_NORM_TOL`` scores 0.
        tombstones: ids excluded from rankings (their scores report 0).

    Scoring is float64, and rankings equal the per-query path's.
    float64 arrays, read-only maps and views of wider buffers included,
    are used as they are, without a copy.
    """

    def __init__(self, term_basis, doc_unit, doc_norms, *, tombstones=()):
        basis = np.asarray(term_basis, dtype=np.float64)
        unit = np.asarray(doc_unit, dtype=np.float64)
        norms = np.asarray(doc_norms)
        if basis.ndim != 2 or unit.ndim != 2 \
                or basis.shape[1] != unit.shape[0]:
            raise ShapeError(
                f"term_basis {basis.shape} and doc_unit {unit.shape} "
                "disagree on the LSI rank")
        if norms.ndim != 1 or norms.shape[0] != unit.shape[1]:
            raise ShapeError(
                f"doc_norms has shape {norms.shape}; expected "
                f"({unit.shape[1]},)")
        self._basis = basis
        self._doc_unit = unit
        self._doc_zero = norms <= ZERO_NORM_TOL
        self._tombstones = frozenset(int(d) for d in tombstones)
        n_docs = int(unit.shape[1])
        bad = [d for d in self._tombstones if not 0 <= d < n_docs]
        if bad:
            raise ValidationError(
                f"tombstoned ids {sorted(bad)} out of range for "
                f"{n_docs} documents")
        self._dead = np.zeros(n_docs, dtype=bool)
        if self._tombstones:
            self._dead[sorted(self._tombstones)] = True
        self._n_docs = n_docs
        self._n_terms = int(basis.shape[0])
        self._scratch = _BatchScratch()

    @classmethod
    def from_precomputed(cls, term_basis, doc_unit, doc_norms, *,
                         tombstones=()) -> "BatchQueryEngine":
        """The constructor, under the name the serving layer builds by.

        :class:`~repro.serving.index.ServedIndex` builds every engine
        through this classmethod, and e2ebench's tracer times it (and
        the constructor it calls) as one engine build.
        """
        return cls(term_basis, doc_unit, doc_norms,
                   tombstones=tombstones)

    @property
    def n_documents(self) -> int:
        """Stored documents, including tombstoned ones."""
        return self._n_docs

    @property
    def n_terms(self) -> int:
        """Term-space dimensionality queries must have."""
        return self._n_terms

    @property
    def n_active(self) -> int:
        """Documents eligible to appear in rankings."""
        return self._n_docs - len(self._tombstones)

    def _as_batch(self, queries) -> QueryBatch:
        """Coerce an array / vector sequence into a :class:`QueryBatch`."""
        if isinstance(queries, QueryBatch):
            batch = queries
        elif isinstance(queries, np.ndarray) and queries.ndim == 2:
            batch = QueryBatch(queries)
        else:
            batch = QueryBatch.from_vectors(queries)
        if batch.n_terms != self._n_terms:
            raise ShapeError(
                f"queries have {batch.n_terms} terms; the index expects "
                f"{self._n_terms}")
        return batch

    def _buffers(self, n_queries: int) -> _BatchScratch:
        """This thread's scratch, (re)allocated when the width changes."""
        scratch = self._scratch
        if scratch.n_queries != n_queries:
            rank = self._basis.shape[1]
            scratch.projected = np.empty((rank, n_queries))
            scratch.unit = np.empty((rank, n_queries))
            scratch.sims = np.empty((n_queries, self._n_docs))
            scratch.n_queries = n_queries
        return scratch

    def _score_into(self, batch: QueryBatch) -> np.ndarray:
        """Score ``batch`` into this thread's scratch buffers.

        Returns the ``(q, m)`` similarity view (owned by the scratch —
        valid until the next call on this thread).  Semantics match
        :meth:`score_batch`: zero-norm queries, zero documents, and
        tombstoned documents score exactly 0.
        """
        scratch = self._buffers(batch.n_queries)
        rows, block = batch._touched()
        fold_rows(self._basis, rows, block, out=scratch.projected)
        norms = normalize_columns_into(scratch.projected, scratch.unit,
                                       zero_tol=ZERO_NORM_TOL)
        sims = scratch.sims
        np.matmul(scratch.unit.T, self._doc_unit, out=sims)
        sims[norms <= ZERO_NORM_TOL, :] = 0.0
        sims[:, self._doc_zero] = 0.0
        np.clip(sims, -1.0, 1.0, out=sims)
        if self._tombstones:
            sims[:, self._dead] = 0.0
        return sims

    def score_batch(self, queries) -> np.ndarray:
        """Cosine scores of every document for every query, ``(q, m)``.

        One product folds the block through the rows of ``Uₖ`` it
        touches, a GEMM computes all cosines.  Zero-norm queries,
        zero-vector documents, and tombstoned documents score exactly
        0, matching the per-query path.  The returned array is the
        caller's (a copy of the internal scratch).

        Raises:
            ShapeError: when the queries are not in the index's term
                space.
            ValidationError: on a non-finite entry.
        """
        batch = self._as_batch(queries)
        return self._score_into(batch).copy()

    def score(self, query_vector) -> np.ndarray:
        """Cosine scores for one term-space query (length ``m``).

        Raises:
            ShapeError: unless the query is a 1-D vector over the
                index's terms.
            ValidationError: on a non-finite entry.
        """
        batch = self._as_batch(QueryBatch.from_vector(query_vector))
        return self._score_into(batch)[0].copy()

    def rank_batch(self, queries, *, top_k=None) -> np.ndarray:
        """Ranked ids per query as a ``(q, top_k_eff)`` array.

        ``top_k`` follows the shared policy (``None`` = all), further
        clamped to the number of non-tombstoned documents; tombstoned
        ids never appear.  Besides the returned id block, a call
        allocates only what scales with the terms the block touches.

        Raises:
            ShapeError: when the queries are not in the index's term
                space.
            ValidationError: on a non-finite entry or an invalid
                ``top_k``.
        """
        batch = self._as_batch(queries)
        top_k = min(check_top_k(top_k, self._n_docs), self.n_active)
        scores = self._score_into(batch)
        if self._tombstones:
            scores[:, self._dead] = -np.inf
        out = np.empty((batch.n_queries, top_k), dtype=np.int64)
        for row in range(batch.n_queries):
            out[row] = stable_top_k(scores[row], top_k)
        return out

    def rank_documents(self, query_vector, *, top_k=None) -> np.ndarray:
        """Ranked ids for one query (the batched kernel, q = 1).

        Raises:
            ShapeError: unless the query is a 1-D vector over the
                index's terms.
            ValidationError: on a non-finite entry or an invalid
                ``top_k``.
        """
        return self.rank_batch(QueryBatch.from_vector(query_vector),
                               top_k=top_k)[0]

    def __repr__(self) -> str:
        return (f"BatchQueryEngine(n_terms={self._n_terms}, "
                f"k={self._basis.shape[1]}, m={self._n_docs}, "
                f"tombstoned={len(self._tombstones)})")
