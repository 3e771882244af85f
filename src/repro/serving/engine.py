"""Batched query execution against an LSI document store.

Scoring one query against rank-``k`` LSI is two small GEMVs; scoring a
block of ``q`` queries one at a time wastes the hardware the paper's §5
cost model is fighting for.  :class:`BatchQueryEngine` instead folds
the whole ``(n × q)`` query block into the LSI space with one product,
scans every document with a second GEMM, and takes top-``k`` per query
by descending float64 cosine with ascending-id ties, the policy of
``np.argsort(kind="stable")`` (see
:func:`~repro.linalg.dense.stable_top_k`).

A query costs its terms, not the vocabulary.  :class:`QueryBatch`
holds each query as its nonzero terms — ascending term ids and their
weights — checked for finiteness once, when the batch is built.  The
fold reads only the rows of ``Uₖ`` the block touches
(``Uₖ[rows]ᵀ·Q[rows]``, :func:`~repro.linalg.dense.fold_rows`); a block
that touches every row multiplies ``Uₖ`` in place, so dense queries
keep the plain GEMM and its bits.

A finite ``top_k`` is ranked in two stages, the move the paper's §5
makes for the decomposition as a whole: do the bulk of the work in a
cheaper representation with a proven distortion bound, then do exact
work only where it matters.

1. *Scan.*  One GEMM scores every document, against a float32 copy of
   ``doc_unit`` when the engine holds one (half the bytes to read) and
   against ``doc_unit`` itself otherwise.  :func:`_scan_error_bound`
   bounds how far a scan score can sit from the document's ranking
   score, so every document that can reach the top ``top_k`` scans
   within twice that bound of the ``top_k``-th scan score.  Those are
   the candidates.
2. *Rank.*  ``stable_top_k`` sorts the candidates by scan score, and
   each run of adjacent scores closer than the window is re-sorted by
   the float64 cosines of :func:`_cosines`, the one ranking kernel,
   ties by ascending id.  Candidates in different runs scan more than
   the window apart, so their cosines keep the scan's order, and the
   kernel runs only where the scan cannot decide.

A ranking is therefore the kernel's order over every active document,
ties by ascending id: it does not depend on which scan ran, on where a
document sits in the store, or on how BLAS blocked or threaded the
scan.  (The fold is one product per block, so a query's folded vector
can still differ in its last bit between blocks of different widths,
and with it the order of two documents whose cosines tie to that bit.)
A full ranking (``top_k=None``) scans in float64, sorts every active
document without a stable sort, since every tie lies in a run the
kernel re-sorts, and re-sorts its runs.
:meth:`BatchQueryEngine.score` and
:meth:`~BatchQueryEngine.score_batch` return the float64 scan's
cosines, which can differ from ranking scores in the last bit.

The engine makes its float32 copy at construction, when its store is
held in memory and has at least ``2¹⁶`` elements: one conversion per
engine, and half the store again in memory.  A memory-mapped store (a
cold start) and a small one are scanned in float64 as given, without a
copy.

An engine holds no mutable state: each call allocates its own fold,
unit queries and scan scores, so threads share one engine without a
lock, and the arrays :meth:`~BatchQueryEngine.score` and
:meth:`~BatchQueryEngine.score_batch` return are the caller's.

The scan GEMM is always one call over the whole store: column panels
under a cache budget measured 0.98–1.01x of it on 20k- and
100k-document stores (2-core host).  The store may be a ``(k, m)`` view
of a wider buffer, as a served index's store is once it takes fold-ins;
BLAS scans it in place, with the bits of a contiguous copy from 4
columns up.

:class:`LRUResultCache` memoises rankings keyed on (index generation,
the bytes of the query's term ids and weights, cutoff), so repeated
queries against an unchanged index are answered without touching BLAS
at all.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.linalg.dense import ZERO_NORM_TOL, fold_rows, stable_top_k
from repro.utils.validation import check_non_negative_int, check_top_k

__all__ = [
    "BatchQueryEngine",
    "CacheKey",
    "LRUResultCache",
    "QueryBatch",
    "stable_top_k",
]

#: An engine copies an in-memory store of at least this many elements
#: to float32 for its scan.  Below it a float64 scan costs a few µs,
#: and converting at every engine build would cost more than it saves.
_SCAN_COPY_MIN_ELEMENTS = 1 << 16

_FLOAT64_ROUNDOFF = 2.0 ** -53


def _scan_error_bound(rank: int, dtype) -> float:
    """A bound on ``|scan score − ranking score|`` for one document.

    Both scores are cosines of a unit query ``q`` and a unit document
    column ``d`` with ``k = rank`` coordinates: the scan's from a BLAS
    product in ``dtype`` (float32 or float64), the ranking score from
    :func:`_cosines` in float64.  Write ``u`` for the scan's unit
    roundoff (``2⁻²⁴`` in float32, ``2⁻⁵³`` in float64), ``v = 2⁻⁵³``
    for the kernel's, and ``γₙ(u) = n·u / (1 − n·u)``.

    - A float32 scan rounds its inputs, ``q̂ᵢ = qᵢ(1 + αᵢ)`` and
      ``d̂ᵢ = dᵢ(1 + βᵢ)`` with ``|αᵢ|, |βᵢ| ≤ u``, so
      ``|q̂·d̂ − q·d| ≤ (2u + u²)·Σ|qᵢdᵢ|``.  A float64 scan rounds
      nothing.
    - A ``k``-term dot product summed in any order, with or without
      fused multiply-adds, lies within ``γₖ(u)·Σ|q̂ᵢd̂ᵢ|`` of its
      exact value (Higham, *Accuracy and Stability of Numerical
      Algorithms*, §3.1), however BLAS blocks, vectorises or threads
      it.  The kernel's own sum lies within ``γₖ(v)·Σ|qᵢdᵢ|`` of
      ``q·d``.
    - ``Σ|qᵢdᵢ| ≤ ‖q‖·‖d‖`` (Cauchy–Schwarz), and a normalised column's
      norm is within ``(k + 2)·v`` of 1.  The factor ``1 + 2⁻²⁰``
      covers those norms and the ``(1 + u)²`` between ``Σ|q̂ᵢd̂ᵢ|`` and
      ``Σ|qᵢdᵢ|``.
    - Underflow, flushed to zero or not, moves a float32 input,
      product or partial sum by at most ``2⁻¹²⁶``, so the sum by at
      most ``8k·2⁻¹²⁶ = k·2⁻¹²³``; float64 underflow moves it far less.
    - Zeroing zero documents and zero-norm queries, and clipping both
      scores to [−1, 1], widens no gap between them.

    So the bound is ``((2u + u²) + γₖ(u) + γₖ(v))·(1 + 2⁻²⁰) + k·2⁻¹²³``
    for a float32 scan, about ``(k + 2)·2⁻²⁴``, and
    ``2·γₖ(v)·(1 + 2⁻²⁰) + k·2⁻¹²³`` for a float64 scan, about
    ``k·2⁻⁵²``.
    """
    def gamma(n, unit):
        return n * unit / (1.0 - n * unit)

    unit = float(np.finfo(dtype).eps) / 2.0
    relative = gamma(rank, unit) + gamma(rank, _FLOAT64_ROUNDOFF)
    if unit > _FLOAT64_ROUNDOFF:
        relative += 2.0 * unit + unit * unit
    return relative * (1.0 + 2.0 ** -20) + rank * 2.0 ** -123


@functools.lru_cache(maxsize=None)
def _scan_window(rank: int, dtype) -> float:
    """How far below a cutoff scan score a candidate may sit.

    Twice :func:`_scan_error_bound`: a document whose scan score is
    more than that below ``top_k`` others' has a ranking score below
    all of theirs.  Two units of the scan's roundoff more cover
    rounding the cutoff, or a gap between two scores, in the scan's
    precision.
    """
    return 2.0 * _scan_error_bound(rank, dtype) \
        + float(np.finfo(dtype).eps)


def _cosines(doc_unit, ids, query) -> np.ndarray:
    """The ranking kernel: ``doc_unit[:, ids]ᵀ·query`` in float64.

    It gathers the columns into the rows of a C-ordered ``(c, k)``
    array, multiplies each row by the query and sums it with numpy's
    pairwise summation, whose order depends on ``k`` alone.  So a
    document's bits do not depend on the other candidates, on its place
    among them, or on where it sits in the store.  A BLAS product over
    gathered columns does not promise that: a GEMV gave other bits to
    columns at the ragged edge of its blocking.
    """
    gathered = np.ascontiguousarray(doc_unit.T[ids])
    np.multiply(gathered, query, out=gathered)
    return gathered.sum(axis=1)


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


class LRUResultCache:
    """A bounded least-recently-used cache of ranking results.

    Keys are :class:`CacheKey` values
    (``CacheKey(generation, batch.query_hash(i), top_k)``); values are
    ranked-id arrays, copied on the way in and out.
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


class BatchQueryEngine:
    """Projects and cosine-ranks query blocks in single GEMMs.

    The engine is a read-only view over an index generation's document
    store: the serving layer hands it the writer's arrays and discards
    the engine whenever the writer mutates the store.

    Args:
        term_basis: the ``(n, k)`` orthonormal LSI basis ``Uₖ``.
        doc_unit: ``(k, m)`` unit-normalised document vectors, as
            produced by :func:`~repro.linalg.dense.normalize_columns`.
        doc_norms: length-``m`` original column norms; a document whose
            norm is at most ``ZERO_NORM_TOL`` scores 0.
        tombstones: ids excluded from rankings (their scores report 0).

    Rankings are the float64 ranking kernel's order, ties by ascending
    id, whichever scan found the candidates (see the module notes).
    float64 arrays, read-only maps and views of wider buffers included,
    are used as they are, without a copy.  When ``doc_unit`` is held
    in memory (not an ``np.memmap``) and has at least ``2¹⁶`` elements,
    the engine also keeps a float32 copy of it to scan.
    """

    def __init__(self, term_basis, doc_unit, doc_norms, *, tombstones=()):
        # Before np.asarray, which turns a map into a plain ndarray.
        mapped = isinstance(doc_unit, np.memmap)
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
        self._zero_ids = np.flatnonzero(self._doc_zero)
        dead = sorted({int(d) for d in tombstones})
        n_docs = int(unit.shape[1])
        bad = [d for d in dead if not 0 <= d < n_docs]
        if bad:
            raise ValidationError(
                f"tombstoned ids {bad} out of range for "
                f"{n_docs} documents")
        self._dead = np.array(dead, dtype=np.int64)
        self._n_docs = n_docs
        self._n_terms = int(basis.shape[0])
        self._scan_unit = (unit.astype(np.float32)
                           if not mapped
                           and unit.size >= _SCAN_COPY_MIN_ELEMENTS
                           else unit)

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
        return self._n_docs - self._dead.size

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

    def _score_into(self, batch: QueryBatch, store: np.ndarray):
        """Fold ``batch`` and score it against ``store``, which is
        ``doc_unit`` or its float32 copy.

        Returns ``(scores, unit, zero)``: the ``(q, m)`` scores in the
        store's dtype, the float64 unit queries ``(k, q)``, and which
        queries have zero norm, all new arrays.  Zero-norm queries and
        zero documents score exactly 0, and every score is clipped to
        [−1, 1]; tombstones are the caller's.

        On a small store a text query's fold and scan take a few µs
        each, no more than numpy's Python wrappers around a ufunc, so
        this skips the wrappers: ``np.sqrt(np.add.reduce(p * p,
        axis=0))`` is what ``np.linalg.norm(p, axis=0)`` computes, bit
        for bit, and the ``ndarray.clip`` method runs ``np.clip``'s
        ufunc in one pass (``np.maximum`` then ``np.minimum`` would
        take two, slower on a large store).
        """
        rows, block = batch._touched()
        projected = fold_rows(self._basis, rows, block)
        norms = np.sqrt(np.add.reduce(projected * projected, axis=0))
        zero = norms <= ZERO_NORM_TOL
        some_zero = np.count_nonzero(zero)
        unit = projected / (np.where(zero, 1.0, norms) if some_zero
                            else norms)
        queries = unit if store.dtype == unit.dtype \
            else unit.astype(store.dtype)
        scores = np.matmul(queries.T, store)
        if some_zero:
            scores[zero] = 0.0
        if self._zero_ids.size:
            scores[:, self._zero_ids] = 0.0
        scores.clip(-1.0, 1.0, out=scores)
        return scores, unit, zero

    def _scores(self, batch: QueryBatch) -> np.ndarray:
        """The float64 scan with tombstones scoring 0 (see
        :meth:`_score_into`)."""
        scores = self._score_into(batch, self._doc_unit)[0]
        if self._dead.size:
            scores[:, self._dead] = 0.0
        return scores

    def score_batch(self, queries) -> np.ndarray:
        """Cosine scores of every document for every query, ``(q, m)``.

        One product folds the block through the rows of ``Uₖ`` it
        touches, a float64 GEMM computes all cosines.  Zero-norm
        queries, zero-vector documents, and tombstoned documents score
        exactly 0, matching the per-query path.  A score can differ
        from the ranking kernel's in the last bit.

        Raises:
            ShapeError: when the queries are not in the index's term
                space.
            ValidationError: on a non-finite entry.
        """
        return self._scores(self._as_batch(queries))

    def score(self, query_vector) -> np.ndarray:
        """Cosine scores for one term-space query (length ``m``).

        Raises:
            ShapeError: unless the query is a 1-D vector over the
                index's terms.
            ValidationError: on a non-finite entry.
        """
        batch = self._as_batch(QueryBatch.from_vector(query_vector))
        return self._scores(batch)[0]

    def rank_batch(self, queries, *, top_k=None) -> np.ndarray:
        """Ranked ids per query as a ``(q, top_k_eff)`` array.

        ``top_k`` follows the shared policy (``None`` = all), further
        clamped to the number of non-tombstoned documents; tombstoned
        ids never appear.  A finite cutoff scans the float32 copy when
        the engine holds one, a full ranking the float64 store; either
        way the ranking is the ranking kernel's order, ties by
        ascending id.

        Raises:
            ShapeError: when the queries are not in the index's term
                space.
            ValidationError: on a non-finite entry or an invalid
                ``top_k``.
        """
        batch = self._as_batch(queries)
        top_k = min(check_top_k(top_k, self._n_docs), self.n_active)
        full = top_k == self.n_active
        store = self._doc_unit if full else self._scan_unit
        scores, unit, zero = self._score_into(batch, store)
        if self._dead.size:
            scores[:, self._dead] = -np.inf
        window = _scan_window(self._basis.shape[1], store.dtype)
        out = np.empty((batch.n_queries, top_k), dtype=np.int64)
        for row in range(batch.n_queries):
            out[row] = self._rank(scores[row], None if zero[row]
                                  else unit[:, row], top_k, full, window)
        return out

    def _rank(self, scan, query, top_k: int, full: bool, window: float):
        """Stage two: one query's top ``top_k`` ids from its scan row.

        The candidates are every document within ``window`` of the
        ``top_k``-th scan score (every active one when ``full``).
        They are sorted by scan score, and each run of adjacent scores
        closer than ``window`` is re-sorted by the ranking kernel, ties
        by ascending id.  Documents in different runs scan more than
        ``window`` apart, so their ranking scores are in the scan's
        order: the result is the kernel's order.  A zero-norm ``query``
        (``None``) ties every active document at 0: its ranking is
        their ids, ascending.
        """
        if query is None:
            return stable_top_k(scan, top_k)
        if not full:
            kth = scan.shape[0] - top_k
            cutoff = np.partition(scan, kth)[kth]
            ids = (scan >= cutoff - window).nonzero()[0]
            order = ids[stable_top_k(scan[ids], ids.size)]
        else:
            # Every tie lies in a run that is re-sorted below, so a
            # full ranking need not pay for a stable sort.
            order = (-scan).argsort()[:top_k]
        if order.size < 2:
            return order[:top_k]
        # Descending scores: gaps[i] = scan(i + 1) − scan(i) ≤ 0.
        ordered = scan[order]
        gaps = ordered[1:] - ordered[:-1]
        if np.maximum.reduce(gaps) < -window:
            return order[:top_k]
        close = gaps >= -window
        member = np.zeros(order.size, dtype=bool)
        member[:-1] = close
        member[1:] |= close
        members = np.flatnonzero(member)
        # Consecutive members form one group: sorting two touching runs
        # together leaves them in the same order.
        groups = np.cumsum(np.diff(members, prepend=-2) > 1)
        ids = order[members]
        scores = _cosines(self._doc_unit, ids, query)
        scores[self._doc_zero[ids]] = 0.0
        np.clip(scores, -1.0, 1.0, out=scores)
        order[members] = ids[np.lexsort((ids, -scores, groups))]
        return order[:top_k]

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
                f"tombstoned={self._dead.size})")
