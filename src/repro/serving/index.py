"""The served LSI index: persistence + batching + incremental updates.

:class:`ServedIndex` is the runtime object a retrieval service holds:
it conforms to the :class:`~repro.ir.retriever.Retriever` protocol, so
anything written against the experiment engines runs against it
unchanged, and adds what production traffic needs:

- ``rank_batch`` — whole query blocks in single GEMMs, with an LRU
  result cache keyed on (index generation, the bytes of a query's term
  ids and weights, cutoff).  A query is validated once, on its nonzero
  terms, and a miss folds through only the rows of ``Uₖ`` it touches,
  so a text query costs its terms, not the vocabulary;
- ``add_documents`` / ``remove_documents`` — fold-in and tombstoning
  through an :class:`~repro.serving.writer.IndexWriter`, with monotone
  drift tracking and a refit recommendation;
- ``save`` / ``load`` — checksummed, schema-versioned bundles
  (:mod:`repro.serving.bundle`) that reproduce in-memory rankings
  exactly, with a memory-mapped cold-start path that maps ``Uₖ`` and
  the document store read-only and defers all real I/O to the first
  query;
- one :class:`~repro.serving.config.ServingConfig` carrying every
  serving-time policy — cache sizing, mmap loading, drift and
  streaming-fit settings;
- ``stats`` — the :class:`~repro.serving.stats.ServingStats` counters
  behind ``repro serve-stats``, exact under concurrent callers.

Several threads may use one index at once, as a micro-batching
dispatcher's flusher and its callers do.  Readers take no lock of the
index's: an engine holds no mutable state and serves one generation's
arrays, and the result cache locks itself.  Writes — ``add_documents``,
``remove_documents``, ``refit`` and the snapshot ``save`` takes — hold
one writer lock, so they run one at a time and none is lost.

Whether built, fitted, or loaded (mapped or not), an index holds one
state: its :class:`~repro.serving.writer.IndexWriter`, whose document
store ``(doc_unit, doc_norms)`` is the only copy of the documents.  A
load hands the bundle's arrays to the writer as they are, every engine
ranks from the writer's arrays (an engine over a large in-memory store
scans its own float32 copy), and a save writes them as they are.  No
write touches a column of a store the writer has published: a fold-in
fills spare columns past it, so an engine built before the fold-in
still ranks its own generation, and a mapped index keeps serving and
mutating over read-only maps.  Saves publish new files by rename, so
they never truncate a file a reader maps.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.lsi import LSIModel
from repro.serving.bundle import IndexBundle, read_bundle, write_bundle
from repro.serving.config import ServingConfig
from repro.serving.engine import BatchQueryEngine, CacheKey, \
    LRUResultCache, QueryBatch
from repro.serving.stats import ServingStats
from repro.serving.writer import IndexWriter
from repro.utils.validation import check_top_k

if TYPE_CHECKING:
    from repro.core.two_step import TwoStepLSI
    from repro.ir.bm25 import BM25Model
    from repro.ir.retriever import Retriever
    from repro.ir.vsm import VectorSpaceModel

__all__ = ["ServedIndex"]


class ServedIndex:
    """A persistent, batched, incrementally-updatable LSI index.

    Build with :meth:`fit` (or wrap an existing model), serve with
    :meth:`score` / :meth:`rank_documents` / :meth:`rank_batch`, evolve
    with :meth:`add_documents` / :meth:`remove_documents` /
    :meth:`refit`, persist with :meth:`save` / :meth:`load`.

    Args:
        model: a fitted :class:`~repro.core.lsi.LSIModel`.
        vocabulary: optional term strings persisted with the index.
        config: the :class:`~repro.serving.config.ServingConfig`
            governing caching and drift policy (``None`` = all
            defaults).
    """

    def __init__(self, model: LSIModel, *, vocabulary=None,
                 config: "ServingConfig | None" = None):
        config = config if config is not None else ServingConfig()
        writer = IndexWriter(model, drift_threshold=config.drift_threshold)
        self._init_state(config, writer, vocabulary=vocabulary)

    def _init_state(self, config: ServingConfig, writer: IndexWriter,
                    *, vocabulary=None, base_version: str = "unsaved",
                    base_stats: "ServingStats | None" = None) -> None:
        """Assign every attribute; shared by all construction paths.

        ``base_version`` and ``base_stats`` carry a loaded bundle's
        identity and cumulative counters forward (:meth:`stats` reads
        only the cumulative fields of ``base_stats``).
        """
        self._config = config
        self._writer = writer
        self._cache = LRUResultCache(config.cache_capacity)
        self._vocabulary = (tuple(getattr(vocabulary, "terms",
                                          vocabulary))
                            if vocabulary is not None else None)
        self._generation = 0
        # (generation, engine) in one attribute, so a thread never
        # pairs one generation with another generation's engine.
        self._engine_state: "tuple[int, BatchQueryEngine] | None" = None
        self._base_version = base_version
        # Held by every write and by save's snapshot, never by a reader.
        self._write_lock = threading.Lock()
        # Guards the two counters below, which every reader updates.
        self._count_lock = threading.Lock()
        self._queries_served = 0
        self._batches_served = 0
        self._base_stats = (base_stats if base_stats is not None
                            else ServingStats())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def fit(cls, matrix, rank, *, engine: str = "lanczos", seed=None,
            vocabulary=None, config: "ServingConfig | None" = None,
            **engine_kwargs) -> "ServedIndex":
        """Fit rank-``rank`` LSI on a term–document matrix and serve it.

        Arguments mirror :meth:`repro.core.lsi.LSIModel.fit` plus the
        serving knobs of the constructor.

        Args:
            matrix: the term–document matrix to factor.
            rank: the LSI dimension ``k``.
            engine: SVD engine name.
            seed: RNG seed for iterative engines.
            vocabulary: optional term strings persisted with the index.
            config: serving policy (see the constructor).
            **engine_kwargs: engine tuning forwarded to
                :meth:`repro.core.lsi.LSIModel.fit`; serving fields
                belong on ``config``, and the engine rejects them.
        """
        model = LSIModel.fit(matrix, rank, engine=engine, seed=seed,
                             **engine_kwargs)
        return cls(model, vocabulary=vocabulary, config=config)

    @classmethod
    def fit_streamed(cls, blocks, rank, *, seed=None, vocabulary=None,
                     config: "ServingConfig | None" = None
                     ) -> "ServedIndex":
        """Fit an index from a stream of column blocks, out-of-core.

        The streaming twin of :meth:`fit`: blocks are decomposed and
        merged one at a time
        (:meth:`repro.core.lsi.LSIModel.fit_streamed`), so the full
        term–document matrix is never materialised and peak memory is
        one block plus the factors.  The config's ``stream_*`` knobs
        control the chunk width and the merge working-rank headroom.

        Args:
            blocks: iterable of column blocks (e.g. from
                :func:`~repro.corpus.io.corpus_column_blocks`) or a
                single in-memory matrix to chunk.
            rank: the LSI dimension ``k``.
            seed: unused: the block kernel is deterministic, so any
                seed gives bit-identical factors.  Accepted so callers
                can pass one seed to every fit.
            vocabulary: optional term strings persisted with the
                index.
            config: serving policy; ``stream_block_size`` and
                ``stream_oversample`` govern the incremental fit.

        Raises:
            ValidationError: on invalid fit parameters or blocks with
                differing row counts.
            EmptyCorpusError: when the stream yields no blocks.
        """
        config = config if config is not None else ServingConfig()
        model = LSIModel.fit_streamed(
            blocks, rank, block_size=config.stream_block_size,
            oversample=config.stream_oversample)
        return cls(model, vocabulary=vocabulary, config=config)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def model(self) -> LSIModel:
        """The LSI model of the fitted documents, derived on demand.

        The writer builds it from the store on first access and caches
        it until the next refit (see
        :attr:`repro.serving.writer.IndexWriter.model`): one pass over
        the fitted store and one more ``(k, m)`` array, which serving,
        fold-ins, saves and loads never pay.
        """
        return self._writer.model

    @property
    def rank(self) -> int:
        """The LSI dimension ``k``."""
        return int(self._writer.term_basis.shape[1])

    @property
    def n_terms(self) -> int:
        """Term-space dimensionality queries must have."""
        return int(self._writer.term_basis.shape[0])

    @property
    def n_documents(self) -> int:
        """Total stored documents (scores are indexed ``0..m-1``)."""
        return self._writer.n_documents

    @property
    def n_active(self) -> int:
        """Documents eligible to appear in rankings."""
        return self._writer.n_active

    @property
    def config(self) -> ServingConfig:
        """The serving policy this index was built with."""
        return self._config

    @property
    def generation(self) -> int:
        """Mutation counter — bumped so stale cache keys die."""
        return self._generation

    @property
    def mmapped(self) -> bool:
        """Whether the document store is still a bundle's mapped file.

        True from a load with ``config.mmap=True`` until a fold-in
        copies the store into an appendable buffer or a refit replaces
        it; a removal keeps it, since it only masks ids.
        """
        return isinstance(self._writer.store[0], np.memmap)

    @property
    def tombstones(self) -> tuple:
        """Deleted document ids, ascending."""
        return self._writer.tombstones

    @property
    def vocabulary(self) -> "tuple | None":
        """Term strings persisted with the index, if any."""
        return self._vocabulary

    @property
    def index_version(self) -> str:
        """Cache-key identity: bundle content hash + live generation."""
        return f"{self._base_version}@gen{self._generation}"

    @property
    def drift(self) -> float:
        """Current fold-in drift (see :mod:`repro.serving.writer`)."""
        return self._writer.drift

    @property
    def needs_refit(self) -> bool:
        """Whether drift has crossed the configured threshold."""
        return self._writer.needs_refit

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _engine(self) -> BatchQueryEngine:
        """The query engine for the current generation (lazily built).

        Every engine ranks from the writer's float64 basis and store
        as they are.  An engine over an in-memory store of at least
        ``2¹⁶`` elements also scans a float32 copy it makes itself; a
        mapped store is scanned in place, so a mapped index reads no
        document page until a GEMM touches it.

        The generation is read before the store: a write that lands
        during the build then leaves the engine tagged with the older
        generation, so the next call rebuilds instead of serving the
        old store as the new generation.
        """
        generation = self._generation
        state = self._engine_state
        if state is not None and state[0] == generation:
            return state[1]
        writer = self._writer
        engine = BatchQueryEngine.from_precomputed(
            writer.term_basis, *writer.store,
            tombstones=writer.tombstones)
        self._engine_state = (generation, engine)
        return engine

    def score(self, query_vector) -> np.ndarray:
        """Cosine scores of every stored document (tombstoned → 0).

        Raises:
            ShapeError: unless the query is a 1-D vector over the
                index's terms.
            ValidationError: on a non-finite entry.
        """
        with self._count_lock:
            self._queries_served += 1
        return self._engine().score(query_vector)

    def rank_documents(self, query_vector, *, top_k=None) -> np.ndarray:
        """Ranked document ids for one query (``top_k=None`` = all).

        Consults the LRU result cache first; a miss computes through
        the batched kernel and populates the cache.

        Raises:
            ShapeError: unless the query is a 1-D vector over the
                index's terms.
            ValidationError: on a non-finite entry or an invalid
                ``top_k``.
        """
        return self.rank_batch(QueryBatch.from_vector(query_vector),
                               top_k=top_k)[0]

    def rank_batch(self, queries, *, top_k=None) -> np.ndarray:
        """Ranked ids for a query block, ``(q, top_k_eff)``.

        Cached queries are answered from the LRU cache; the engine ranks
        the rest as one block.  Each ranking is the ranking kernel's
        order, ties by ascending id, a function of the query's terms and
        the store alone: it equals :meth:`rank_documents` for that
        query, bit for bit, whatever else the block holds and whichever
        queries hit the cache.

        Args:
            queries: a :class:`~repro.serving.engine.QueryBatch`, a
                dense ``(n_terms, q)`` array, or a sequence of 1-D
                query vectors.
            top_k: shared cutoff policy (``None`` = all), clamped to
                the number of active documents.

        Raises:
            ShapeError: when the queries are not in the index's term
                space.
            ValidationError: on a non-finite entry or an invalid
                ``top_k``.
        """
        # Read before the engine, so no key names a generation newer
        # than the store its ranking came from.
        generation = self._generation
        engine = self._engine()
        batch = engine._as_batch(queries)
        top_k = min(check_top_k(top_k, engine.n_documents),
                    engine.n_active)
        with self._count_lock:
            self._batches_served += 1
            self._queries_served += batch.n_queries

        cache = self._cache
        out = np.empty((batch.n_queries, top_k), dtype=np.int64)
        missing = []
        keys = []
        for i in range(batch.n_queries):
            key = CacheKey(generation, batch.query_hash(i), top_k)
            cached = cache.get(key)
            if cached is None:
                missing.append(i)
                keys.append(key)
            else:
                out[i] = cached
        if not missing:
            return out
        misses = batch.select(missing)
        computed = engine.rank_batch(misses, top_k=top_k)
        for key, ranking in zip(keys, computed):
            cache.put(key, ranking)
        if misses is batch:
            return computed
        out[missing] = computed
        return out

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add_documents(self, columns) -> np.ndarray:
        """Fold new documents in; returns their assigned ids.

        Bumps the index generation, so cached rankings for the previous
        corpus can never be served against the new one.  Waits for any
        other write to finish first, a refit included.
        """
        with self._write_lock:
            ids = self._writer.add_documents(columns)
            self._bump()
        return ids

    def remove_documents(self, doc_ids) -> None:
        """Tombstone documents; they stop appearing in rankings."""
        with self._write_lock:
            self._writer.remove_documents(doc_ids)
            self._bump()

    def refit(self, matrix=None, *, rank=None,
              engine: "str | None" = None, seed=None,
              **engine_kwargs) -> None:
        """Absorb accumulated updates into the factors; return None.

        ``refit()`` with no matrix merges the buffered fold-in block
        into the basis incrementally (no from-scratch SVD; the
        config's ``stream_block_size``/``stream_oversample`` steer the
        merge, and it takes no engine or engine option);
        ``refit(matrix)`` re-decomposes from scratch (``engine=None``
        means Lanczos) and also purges tombstoned mass — see
        :meth:`repro.serving.writer.IndexWriter.refit`.  Neither
        builds :attr:`model`; read it after the call when it is
        wanted.

        Raises:
            ValidationError: on an option the engine does not take, an
                engine or engine option without a matrix, a
                ``block_size`` with one, when the incremental fold
                buffer is unavailable (e.g. after a bundle load), the
                matrix's term space mismatches, or fit parameters are
                invalid.
            RankError: when an incremental refit asks for a rank above
                the served one.
            ConvergenceError: when an iterative SVD engine fails to
                converge.
        """
        if matrix is None:
            engine_kwargs.setdefault(
                "block_size", self._config.stream_block_size)
            engine_kwargs.setdefault(
                "oversample", self._config.stream_oversample)
        with self._write_lock:
            self._writer.refit(matrix, rank=rank, engine=engine,
                               seed=seed, **engine_kwargs)
            self._bump()

    def _bump(self) -> None:
        """Advance the generation and drop stale cache entries (the
        caller holds the writer lock).

        Also drops the superseded engine, so its store (and float32
        copy) is not kept alive until the next query; a reader that
        already holds it keeps its own reference.
        """
        self._generation += 1
        self._engine_state = None
        self._cache.clear()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> ServingStats:
        """A snapshot of the serving counters (see ``serve-stats``).

        Counters accumulate across save/load: loading a bundle restores
        its persisted totals as the new baseline.
        """
        base = self._base_stats
        writer = self._writer
        with self._count_lock:
            queries, batches = self._queries_served, self._batches_served
        return ServingStats(
            queries_served=base.queries_served + queries,
            batches_served=base.batches_served + batches,
            cache_hits=base.cache_hits + self._cache.hits,
            cache_misses=base.cache_misses + self._cache.misses,
            cache_evictions=base.cache_evictions
            + self._cache.evictions,
            fold_ins_since_refit=writer.fold_ins_since_refit,
            deletes_since_refit=writer.deletes_since_refit,
            refits=base.refits + writer.refits,
            drift=self.drift,
            refit_recommended=self.needs_refit)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> Path:
        """Persist the index as a bundle directory; returns the path.

        The writer's arrays are written as they are, not copied (a
        store with spare columns row by row).  The writer lock is held
        while the state is read, so the bundle holds the state between
        two writes, and released before any file is written: no later
        write touches the arrays the snapshot holds.
        Saving over a bundle that this index or another one maps is
        safe: :func:`~repro.serving.bundle.write_bundle` renames new
        files over the old ones, and the maps keep the old bytes.
        """
        with self._write_lock:
            writer = self._writer
            doc_unit, doc_norms = writer.store
            bundle = IndexBundle(
                u=writer.term_basis,
                singular_values=writer.singular_values,
                frobenius_norm_sq=writer.frobenius_norm_sq,
                doc_unit=doc_unit,
                doc_norms=doc_norms,
                n_original=writer.n_original,
                tombstones=writer.tombstones,
                unabsorbed_energy=writer.unabsorbed_energy,
                drift_threshold=writer.drift_threshold,
                stats=self.stats(),
                vocabulary=self._vocabulary)
        return write_bundle(path, bundle)

    @classmethod
    def load(cls, path, *, config: "ServingConfig | None" = None
             ) -> "ServedIndex":
        """Load a bundle saved by :meth:`save`.

        The restored index reproduces the saved index's rankings and
        refits exactly and continues its counters and drift
        accounting.  Nothing is copied or computed on load: the writer
        adopts the bundle's arrays as they are.

        Args:
            path: the bundle directory.
            config: serving policy for the loaded index.
                ``config.mmap=True`` maps ``u`` and ``doc_unit``
                read-only instead of loading them — the O(manifest)
                cold start:
                the index serves, mutates, and saves over the maps
                without copying them.  The bundle's persisted
                ``drift_threshold`` always wins over the config's.
        """
        config = config if config is not None else ServingConfig()
        bundle = read_bundle(path, mmap=config.mmap)
        writer = IndexWriter.from_state(
            bundle.u, bundle.singular_values, bundle.frobenius_norm_sq,
            bundle.doc_unit, bundle.doc_norms,
            n_original=bundle.n_original,
            tombstones=bundle.tombstones,
            unabsorbed_energy=bundle.unabsorbed_energy,
            drift_threshold=bundle.drift_threshold,
            fold_ins=bundle.stats.fold_ins_since_refit,
            deletes=bundle.stats.deletes_since_refit)
        index = cls.__new__(cls)
        index._init_state(
            config, writer,
            vocabulary=bundle.vocabulary,
            base_version=bundle.index_version or "unsaved",
            base_stats=bundle.stats)
        return index

    def __repr__(self) -> str:
        return (f"ServedIndex(k={self.rank}, n={self.n_terms}, "
                f"m={self.n_documents}, active={self.n_active}, "
                f"drift={self.drift:.4f}, "
                f"version={self.index_version!r})")


def _retriever_conformance(
        lsi: "LSIModel",
        vsm: "VectorSpaceModel",
        bm25: "BM25Model",
        two_step: "TwoStepLSI",
        served: "ServedIndex",
) -> "tuple[Retriever, ...]":
    """Static proof that every engine satisfies ``Retriever``.

    This function is never called; mypy type-checks the return
    statement, so a signature drift in any engine breaks CI.  It lives
    here (not in :mod:`repro.ir.retriever`) because the serving layer
    already imports every backend, keeping the import graph acyclic.
    """
    return (lsi, vsm, bm25, two_step, served)
