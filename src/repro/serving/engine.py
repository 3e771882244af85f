"""Batched query execution against an LSI document store.

Scoring one query against rank-``k`` LSI is two small GEMVs; scoring a
block of ``q`` queries one at a time wastes the hardware the paper's §5
cost model is fighting for.  :class:`BatchQueryEngine` instead projects
the whole ``(n × q)`` query block with one GEMM (``Uₖᵀ·Q``), computes
every cosine with a second GEMM against pre-normalised document
vectors, and extracts top-``k`` per query via ``argpartition`` — while
reproducing the per-query path's rankings *exactly*, including the
stable ascending-id tie-break of ``np.argsort(kind="stable")``
(see :func:`stable_top_k`).

Two raw-speed levers sit on top:

- ``dtype="float32"`` (opt-in) runs both GEMMs in single precision —
  roughly half the memory traffic — at the cost of last-ULP score
  agreement; the serving benchmarks measure the resulting top-k
  ranking overlap (:func:`ranking_overlap`) as a gated claim instead
  of assuming it;
- the hot path is allocation-free: per-thread scratch buffers hold the
  projected block, the unit queries, and the similarity matrix, so
  repeated batches of one shape run entirely through ``out=`` GEMMs.

The document GEMM is always one call over the whole store: column
panels under a cache budget measured 0.98–1.01x of it on 20k- and
100k-document stores (2-core host) and are not bitwise-identical to it.

:class:`LRUResultCache` memoises rankings keyed on (index version,
query hash, cutoff), so repeated queries against an unchanged index are
answered without touching BLAS at all.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.linalg.dense import ZERO_NORM_TOL, normalize_columns, \
    normalize_columns_into
from repro.utils.validation import check_non_negative_int, check_top_k, \
    check_vector

__all__ = [
    "BatchQueryEngine",
    "CacheKey",
    "COMPUTE_DTYPES",
    "LRUResultCache",
    "QueryBatch",
    "ranking_overlap",
    "stable_top_k",
]

#: Compute precisions the engine accepts.
COMPUTE_DTYPES = ("float64", "float32")


def stable_top_k(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Top-``top_k`` indices by descending score, stable ties by id.

    Bit-for-bit equivalent to ``np.argsort(-scores, kind="stable")
    [:top_k]`` but ``O(m + top_k·log top_k)`` instead of
    ``O(m·log m)``: an ``np.partition`` selects the cutoff value, ties
    at the boundary are filled in ascending id order (exactly the
    stable-sort policy), and only the selected candidates are sorted.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    top_k = min(int(top_k), n)
    if top_k <= 0:
        return np.empty(0, dtype=np.int64)
    if top_k >= n:
        return np.argsort(-scores, kind="stable")
    cutoff = np.partition(scores, n - top_k)[n - top_k]
    above = np.flatnonzero(scores > cutoff)
    ties = np.flatnonzero(scores == cutoff)
    candidates = np.concatenate([above, ties[:top_k - above.size]])
    order = np.argsort(-scores[candidates], kind="stable")
    return candidates[order]


def ranking_overlap(rankings_a, rankings_b) -> float:
    """Mean per-query overlap between two ``(q, k)`` ranking blocks.

    Each row is treated as a set of document ids; the overlap of a row
    pair is ``|a ∩ b| / k``.  This is the agreement metric the float32
    compute path is gated on: position-insensitive (a last-ULP score
    flip that swaps ranks 3 and 4 is not a retrieval regression) but
    sensitive to any document entering or leaving the cutoff.

    Returns 1.0 for two empty blocks of matching shape.

    Raises:
        ShapeError: if the blocks are not 2-D with matching shapes.
    """
    a = np.asarray(rankings_a)
    b = np.asarray(rankings_b)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(
            f"ranking blocks must share a 2-D shape, got {a.shape} "
            f"and {b.shape}")
    if a.size == 0:
        return 1.0
    overlaps = [np.intersect1d(a[row], b[row]).size
                for row in range(a.shape[0])]
    return float(np.mean(overlaps)) / a.shape[1]


class QueryBatch:
    """A block of term-space queries, stored as columns.

    Args:
        matrix: dense ``(n_terms, q)`` array, one query per column.

    Use :meth:`from_vectors` to assemble a batch from 1-D query
    vectors.
    """

    def __init__(self, matrix):
        block = np.asarray(matrix, dtype=np.float64)
        if block.ndim != 2:
            raise ShapeError(
                f"query batch must be 2-D (n_terms, q), got shape "
                f"{block.shape}")
        if block.size and not np.all(np.isfinite(block)):
            raise ValidationError(
                "query batch contains non-finite entries")
        self._matrix = block

    @classmethod
    def from_vectors(cls, vectors) -> "QueryBatch":
        """Stack 1-D term-space query vectors into a batch.

        Raises:
            ValidationError: on an empty sequence or a non-finite
                query vector.
            ShapeError: when the vectors disagree on term-space size.
        """
        columns = [check_vector(v, f"vectors[{i}]")
                   for i, v in enumerate(vectors)]
        if not columns:
            raise ValidationError("query batch needs at least one query")
        lengths = {c.shape[0] for c in columns}
        if len(lengths) > 1:
            raise ShapeError(
                f"queries live in different term spaces: sizes {sorted(lengths)}")
        return cls(np.stack(columns, axis=1))

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n_terms, q)`` query block (do not mutate)."""
        return self._matrix

    @property
    def n_terms(self) -> int:
        """Term-space dimensionality of every query."""
        return int(self._matrix.shape[0])

    @property
    def n_queries(self) -> int:
        """Number of queries in the block."""
        return int(self._matrix.shape[1])

    def query(self, i: int) -> np.ndarray:
        """The ``i``-th query as a 1-D vector (a copy)."""
        return self._matrix[:, int(i)].copy()

    def query_hash(self, i: int) -> str:
        """Content hash of query ``i`` (cache-key component)."""
        column = np.ascontiguousarray(self._matrix[:, int(i)])
        return hashlib.sha256(column.tobytes()).hexdigest()

    def __len__(self) -> int:
        """Number of queries (alias of :attr:`n_queries`)."""
        return self.n_queries

    def __repr__(self) -> str:
        return (f"QueryBatch(n_terms={self.n_terms}, "
                f"n_queries={self.n_queries})")


class CacheKey(NamedTuple):
    """The canonical result-cache key for one (query, cutoff) lookup.

    Every serving layer used to re-derive the ad-hoc
    ``(generation, sha256(query), top_k)`` tuple by hand;
    :class:`CacheKey` is that tuple promoted to a named, shared type so
    :class:`~repro.serving.index.ServedIndex`, the per-shard caches of
    :class:`~repro.serving.sharded.ShardedIndex`, and the
    micro-batching dispatcher all key one implementation.

    Attributes:
        generation: the index (or shard) generation the entry was
            computed against — mutations bump it, so stale rankings
            are unreachable by construction.
        query_hash: SHA-256 of the query column's bytes
            (:meth:`QueryBatch.query_hash`).
        top_k: the effective cutoff the ranking was computed at.
        kind: result flavour — ``"rank"`` for plain id rankings,
            ``"scored"`` for ``(ids, scores)`` pairs — so the two
            never alias.
    """

    generation: int
    query_hash: str
    top_k: int
    kind: str = "rank"

    @classmethod
    def for_query(cls, generation: int, batch: "QueryBatch", i: int,
                  top_k: int, *, kind: str = "rank") -> "CacheKey":
        """The key for query ``i`` of ``batch`` at one generation."""
        return cls(int(generation), batch.query_hash(i), int(top_k),
                   kind)


class LRUResultCache:
    """A bounded least-recently-used cache of ranking results.

    Keys are :class:`CacheKey` values (build them with
    :meth:`key_for`); values are ranked-id arrays or tuples of arrays
    (e.g. ``(ids, scores)``), copied on the way in and out.
    ``capacity=0`` disables caching (every lookup misses, nothing is
    stored).

    The cache is thread-safe: ``get``/``put``/``clear`` hold one lock,
    because an LRU lookup is read-*and-reorder* (``move_to_end``) and
    a put is insert-and-evict — neither is atomic on a plain
    OrderedDict, and the sharded serving layer shares one cache across
    worker threads.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = check_non_negative_int(capacity, "capacity")
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        #: Lookups answered from the cache.
        self.hits = 0
        #: Lookups that fell through to computation.
        self.misses = 0
        #: Entries dropped to respect ``capacity``.
        self.evictions = 0

    #: The shared cache-key constructor (see :class:`CacheKey`).
    key_for = staticmethod(CacheKey.for_query)

    @staticmethod
    def _copy_entry(entry):
        """Defensive copy of a cached value (array or array tuple)."""
        if isinstance(entry, tuple):
            return tuple(np.asarray(part).copy() for part in entry)
        return np.asarray(entry).copy()

    def get(self, key):
        """The cached result for ``key`` (a copy), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return self._copy_entry(entry)

    def put(self, key, ranking) -> None:
        """Store a result, evicting the least-recently-used overflow."""
        if self.capacity == 0:
            return
        entry = self._copy_entry(ranking)
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


def _check_compute_dtype(dtype) -> np.dtype:
    """Normalise/validate a compute-precision request."""
    resolved = np.dtype(dtype)
    if resolved.name not in COMPUTE_DTYPES:
        raise ValidationError(
            f"compute dtype must be one of {COMPUTE_DTYPES}, got "
            f"{resolved.name!r}")
    return resolved


class _BatchScratch(threading.local):
    """Per-thread scratch buffers for one query-block shape.

    One engine serves one immutable index generation, so the only
    thing that varies call to call is the batch width ``q``; buffers
    are rebuilt when ``q`` changes and reused otherwise.  Thread-local
    because the sharded serving layer scores through one engine from
    several worker threads, and a shared similarity buffer would race.
    """

    n_queries = -1
    queries = None
    projected = None
    unit = None
    sims = None


class BatchQueryEngine:
    """Projects and cosine-ranks query blocks in single GEMMs.

    The engine is a read-only view over an index generation: document
    unit vectors and norms are precomputed once, and the serving layer
    discards the engine whenever the writer mutates the store.

    Args:
        term_basis: the ``(n, k)`` orthonormal LSI basis ``Uₖ``.
        doc_vectors: the ``(k, m)`` LSI document store.
        tombstones: ids excluded from rankings (their scores report 0).
        dtype: compute precision, ``"float64"`` (default, bit-exact
            against the per-query path) or ``"float32"`` (opt-in;
            ranking agreement is measured, not assumed).
    """

    def __init__(self, term_basis, doc_vectors, *, tombstones=(),
                 dtype="float64"):
        self._dtype = _check_compute_dtype(dtype)
        basis = np.asarray(term_basis, dtype=self._dtype)
        docs = np.asarray(doc_vectors, dtype=self._dtype)
        if basis.ndim != 2 or docs.ndim != 2 \
                or basis.shape[1] != docs.shape[0]:
            raise ShapeError(
                f"term_basis {basis.shape} and doc_vectors {docs.shape} "
                "disagree on the LSI rank")
        unit, norms = normalize_columns(docs, zero_tol=ZERO_NORM_TOL) \
            if self._dtype == np.float64 else (None, None)
        if unit is None:
            # float32: normalise in compute precision, no float64 pass.
            unit = np.empty_like(docs)
            norms = normalize_columns_into(docs, unit,
                                           zero_tol=ZERO_NORM_TOL)
        self._init_from_parts(basis, unit, norms, tombstones)

    @classmethod
    def from_precomputed(cls, term_basis, doc_unit, doc_norms, *,
                         tombstones=(), dtype="float64"
                         ) -> "BatchQueryEngine":
        """Build from already-normalised document factors.

        This is the zero-copy construction path for memory-mapped
        bundles: ``doc_unit``/``doc_norms`` come straight from the
        bundle files (read-only is fine) and are *not* re-normalised,
        so no page of the document store is touched until the first
        query's GEMM reads it.  With ``dtype="float64"`` the arrays are
        used as-is; ``"float32"`` casts (and therefore materialises)
        them once.

        Args:
            term_basis: the ``(n, k)`` LSI basis ``Uₖ``.
            doc_unit: ``(k, m)`` unit-normalised document vectors, as
                produced by :func:`~repro.linalg.dense.normalize_columns`.
            doc_norms: length-``m`` original column norms.
            tombstones: ids excluded from rankings.
            dtype: compute precision (see the constructor).

        Raises:
            ShapeError: when the factor shapes disagree on the LSI
                rank or the document count.
            ValidationError: on an unsupported compute dtype.
        """
        engine = cls.__new__(cls)
        engine._dtype = _check_compute_dtype(dtype)
        basis = np.asarray(term_basis, dtype=engine._dtype)
        unit = np.asarray(doc_unit, dtype=engine._dtype)
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
        engine._init_from_parts(basis, unit, norms, tombstones)
        return engine

    def _init_from_parts(self, basis, unit, norms, tombstones) -> None:
        """Shared tail of both construction paths."""
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

    @property
    def dtype(self) -> str:
        """Compute precision the engine scores in."""
        return self._dtype.name

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
            scratch.queries = np.empty((self._n_terms, n_queries),
                                       dtype=self._dtype)
            scratch.projected = np.empty((rank, n_queries),
                                         dtype=self._dtype)
            scratch.unit = np.empty((rank, n_queries),
                                    dtype=self._dtype)
            scratch.sims = np.empty((n_queries, self._n_docs),
                                    dtype=self._dtype)
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
        if self._dtype == np.float64:
            block = batch.matrix
        else:
            np.copyto(scratch.queries, batch.matrix)
            block = scratch.queries
        np.matmul(self._basis.T, block, out=scratch.projected)
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

        One GEMM projects the block, a second computes all cosines.
        Zero-norm queries, zero-vector documents, and tombstoned
        documents score exactly 0, matching the per-query path.  The
        returned array is the caller's (a copy of the internal scratch)
        in the engine's compute dtype.
        """
        batch = self._as_batch(queries)
        return self._score_into(batch).copy()

    def score(self, query_vector) -> np.ndarray:
        """Cosine scores for one term-space query (length ``m``)."""
        query = check_vector(query_vector, "query_vector")
        return self.score_batch(query[:, None])[0]

    def rank_batch(self, queries, *, top_k=None) -> np.ndarray:
        """Ranked ids per query as a ``(q, top_k_eff)`` array.

        ``top_k`` follows the shared policy (``None`` = all), further
        clamped to the number of non-tombstoned documents; tombstoned
        ids never appear.  This is the allocation-free hot path: the
        only per-call allocation is the returned id block.
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

    def rank_batch_scored(self, queries, *, top_k=None
                          ) -> "tuple[np.ndarray, np.ndarray]":
        """Ranked ids *and their scores* per query.

        Same semantics as :meth:`rank_batch`, plus the cosine score of
        every returned id as a second ``(q, top_k_eff)`` array in the
        engine's compute dtype.  This is the shard fan-out primitive:
        merging per-shard top-k into a global ranking needs the scores
        to re-run the ``stable_top_k`` tie policy across shards.
        """
        batch = self._as_batch(queries)
        top_k = min(check_top_k(top_k, self._n_docs), self.n_active)
        sims = self._score_into(batch)
        if self._tombstones:
            sims[:, self._dead] = -np.inf
        ids = np.empty((batch.n_queries, top_k), dtype=np.int64)
        scores = np.empty((batch.n_queries, top_k), dtype=self._dtype)
        for row in range(batch.n_queries):
            ids[row] = stable_top_k(sims[row], top_k)
            scores[row] = sims[row, ids[row]]
        return ids, scores

    def rank_documents(self, query_vector, *, top_k=None) -> np.ndarray:
        """Ranked ids for one query (the batched kernel, q = 1)."""
        query = check_vector(query_vector, "query_vector")
        return self.rank_batch(query[:, None], top_k=top_k)[0]

    def __repr__(self) -> str:
        return (f"BatchQueryEngine(n_terms={self._n_terms}, "
                f"k={self._basis.shape[1]}, m={self._n_docs}, "
                f"tombstoned={len(self._tombstones)}, "
                f"dtype={self._dtype.name})")
