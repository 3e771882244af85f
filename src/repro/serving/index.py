"""The served LSI index: persistence + batching + incremental updates.

:class:`ServedIndex` is the runtime object a retrieval service holds:
it conforms to the :class:`~repro.ir.retriever.Retriever` protocol, so
anything written against the experiment engines runs against it
unchanged, and adds what production traffic needs:

- ``rank_batch`` — whole query blocks in single GEMMs, with an LRU
  result cache keyed on (index generation, query hash, cutoff);
- ``add_documents`` / ``remove_documents`` — fold-in and tombstoning
  through an :class:`~repro.serving.writer.IndexWriter`, with monotone
  drift tracking and a refit recommendation;
- ``save`` / ``load`` — checksummed, schema-versioned bundles
  (:mod:`repro.serving.bundle`) that reproduce in-memory rankings
  exactly, with a memory-mapped cold-start path that maps the large
  factors read-only and defers all real I/O to the first query;
- one :class:`~repro.serving.config.ServingConfig` carrying every
  serving-time policy — compute precision, cache sizing, mmap
  loading — shared verbatim with the sharded index and the
  micro-batching dispatcher;
- ``stats`` — the :class:`~repro.serving.stats.ServingStats` counters
  behind ``repro serve-stats``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.lsi import LSIModel
from repro.linalg.svd import SVDResult
from repro.serving.bundle import IndexBundle, read_bundle, write_bundle
from repro.serving.config import ServingConfig
from repro.serving.engine import BatchQueryEngine, LRUResultCache, \
    QueryBatch, _check_compute_dtype
from repro.serving.stats import ServingStats
from repro.serving.writer import DriftReport, IndexWriter
from repro.utils.validation import check_top_k, check_vector

if TYPE_CHECKING:
    from repro.core.folding import FoldingIndex
    from repro.core.two_step import TwoStepLSI
    from repro.ir.bm25 import BM25Model
    from repro.ir.retriever import Retriever
    from repro.ir.vsm import VectorSpaceModel
    # Type-only: no runtime cycle with the sharded module.
    from repro.serving.sharded import (  # reprolint: disable=R007
        ShardedIndex,
    )

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
            governing precision, caching, and drift policy (``None``
            = all defaults).
    """

    def __init__(self, model: LSIModel, *, vocabulary=None,
                 config: "ServingConfig | None" = None):
        config = config if config is not None else ServingConfig()
        writer = IndexWriter(model, drift_threshold=config.drift_threshold)
        self._init_state(config, writer, vocabulary=vocabulary)

    def _init_state(self, config: ServingConfig,
                    writer: "IndexWriter | None", *,
                    bundle: "IndexBundle | None" = None,
                    vocabulary=None, saved_dtype: str = "float64",
                    base_version: str = "unsaved",
                    base_stats: "ServingStats | None" = None) -> None:
        """Assign every attribute; shared by all construction paths.

        Exactly one of ``writer`` (an in-memory index) and ``bundle``
        (a not-yet-materialised mmap load) backs the index.
        ``saved_dtype`` is the precision used when ``config.dtype`` is
        ``None``; ``base_version`` and ``base_stats`` carry a loaded
        bundle's identity and counters forward.
        """
        self._config = config
        self._dtype = _check_compute_dtype(
            config.dtype or saved_dtype).name
        self._writer: "IndexWriter | None" = writer
        self._bundle: "IndexBundle | None" = bundle
        self._cache = LRUResultCache(config.cache_capacity)
        self._vocabulary = (tuple(getattr(vocabulary, "terms",
                                          vocabulary))
                            if vocabulary is not None else None)
        self._generation = 0
        self._engine_cache: "BatchQueryEngine | None" = None
        self._engine_generation = -1
        self._base_version = base_version
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
    def fit_streamed(cls, blocks, rank, *, engine: str = "lanczos",
                     seed=None, vocabulary=None,
                     config: "ServingConfig | None" = None,
                     **engine_kwargs) -> "ServedIndex":
        """Fit an index from a stream of column blocks, out-of-core.

        The streaming twin of :meth:`fit`: blocks are decomposed and
        merged one at a time
        (:meth:`repro.core.lsi.LSIModel.fit_streamed`), so the full
        term–document matrix is never materialised and peak memory is
        one block plus the factors.  The config's ``stream_*`` knobs
        control the chunk width, the merge working-rank headroom, and
        the optional polish of re-readable matrix inputs.

        Args:
            blocks: iterable of column blocks (e.g. from
                :func:`~repro.corpus.io.corpus_column_blocks`) or a
                single in-memory matrix to chunk.
            rank: the LSI dimension ``k``.
            engine: per-block SVD engine.
            seed: RNG seed for iterative engines.
            vocabulary: optional term strings persisted with the
                index.
            config: serving policy; ``stream_block_size``,
                ``stream_oversample``, and ``stream_polish`` govern
                the incremental fit.
            **engine_kwargs: per-block engine tuning.

        Raises:
            ValidationError: when ``config.stream_polish > 0`` with a
                one-shot block stream, or on invalid fit parameters.
            EmptyCorpusError: when the stream yields no blocks.
            ConvergenceError: when a per-block engine fails to
                converge.
        """
        config = config if config is not None else ServingConfig()
        model = LSIModel.fit_streamed(
            blocks, rank, engine=engine, seed=seed,
            block_size=config.stream_block_size,
            oversample=config.stream_oversample,
            polish_iterations=config.stream_polish,
            **engine_kwargs)
        return cls(model, vocabulary=vocabulary, config=config)

    @classmethod
    def from_writer(cls, writer: IndexWriter, *, vocabulary=None,
                    config: "ServingConfig | None" = None
                    ) -> "ServedIndex":
        """Serve an existing :class:`~repro.serving.writer.IndexWriter`.

        This is the shard construction path: the sharded index builds
        one writer per document partition (same model, a column subset
        of the store) and wraps each in a full ``ServedIndex`` so every
        shard gets the engine, cache, and drift machinery for free.
        The writer is adopted, not copied — the caller must hand over
        ownership.

        Args:
            writer: the writer to serve (its ``drift_threshold`` wins
                over ``config.drift_threshold``).
            vocabulary: optional term strings persisted with the index.
            config: serving policy (see the constructor).
        """
        index = cls.__new__(cls)
        index._init_state(
            config if config is not None else ServingConfig(), writer,
            vocabulary=vocabulary)
        return index

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def model(self) -> LSIModel:
        """The LSI model currently backing the index.

        On an mmap-loaded index this materialises the writer (see
        :meth:`load`).
        """
        return self._ensure_writer().model

    def _lazy_bundle(self) -> IndexBundle:
        """The backing bundle of a not-yet-materialised mmap load."""
        bundle = self._bundle
        assert bundle is not None, "index has neither writer nor bundle"
        return bundle

    @property
    def rank(self) -> int:
        """The LSI dimension ``k``."""
        if self._writer is not None:
            return self._writer.model.rank
        return self._lazy_bundle().svd.rank

    @property
    def n_terms(self) -> int:
        """Term-space dimensionality queries must have."""
        if self._writer is not None:
            return self._writer.model.n_terms
        return int(self._lazy_bundle().svd.u.shape[0])

    @property
    def n_documents(self) -> int:
        """Total stored documents (scores are indexed ``0..m-1``)."""
        if self._writer is not None:
            return self._writer.n_documents
        return self._lazy_bundle().n_documents

    @property
    def n_active(self) -> int:
        """Documents eligible to appear in rankings."""
        if self._writer is not None:
            return self._writer.n_active
        bundle = self._lazy_bundle()
        return bundle.n_documents - len(bundle.tombstones)

    @property
    def dtype(self) -> str:
        """Compute precision this index scores in."""
        return self._dtype

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
        """Whether the index still serves from read-only mapped arrays."""
        return self._writer is None

    @property
    def tombstones(self) -> tuple:
        """Deleted document ids, ascending (cheap on mmap loads)."""
        if self._writer is not None:
            return self._writer.tombstones
        return tuple(sorted(int(d)
                            for d in self._lazy_bundle().tombstones))

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
        if self._writer is not None:
            return self._writer.drift
        bundle = self._lazy_bundle()
        unabsorbed = bundle.unabsorbed_energy
        denominator = unabsorbed + bundle.svd.captured_energy()
        if denominator <= 0:
            return 0.0
        return unabsorbed / denominator

    @property
    def needs_refit(self) -> bool:
        """Whether drift has crossed the configured threshold."""
        if self._writer is not None:
            return self._writer.needs_refit
        threshold = self._lazy_bundle().drift_threshold
        return threshold is not None and self.drift >= threshold

    def drift_report(self) -> DriftReport:
        """The frozen drift accounting (cheap even on mmap loads)."""
        if self._writer is not None:
            return self._writer.drift_report()
        bundle = self._lazy_bundle()
        return DriftReport(
            drift=self.drift,
            threshold=bundle.drift_threshold,
            needs_refit=self.needs_refit,
            unabsorbed_energy=bundle.unabsorbed_energy,
            captured_energy=bundle.svd.captured_energy(),
            baseline_residual_energy=bundle.svd.residual_energy(),
            fold_ins_since_refit=bundle.stats.fold_ins_since_refit,
            deletes_since_refit=bundle.stats.deletes_since_refit)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _engine(self) -> BatchQueryEngine:
        """The query engine for the current generation (lazily built).

        On an mmap-loaded index the engine is built zero-copy from the
        bundle's pre-normalised factors — no document page is read
        until a GEMM touches it.
        """
        if self._engine_generation != self._generation:
            if self._writer is None:
                bundle = self._lazy_bundle()
                self._engine_cache = BatchQueryEngine.from_precomputed(
                    bundle.svd.u, bundle.doc_unit, bundle.doc_norms,
                    tombstones=bundle.tombstones,
                    dtype=self._dtype)
            else:
                self._engine_cache = BatchQueryEngine(
                    self._writer.model.term_basis,
                    self._writer.document_vectors(),
                    tombstones=self._writer.tombstones,
                    dtype=self._dtype)
            self._engine_generation = self._generation
        assert self._engine_cache is not None
        return self._engine_cache

    def score(self, query_vector) -> np.ndarray:
        """Cosine scores of every stored document (tombstoned → 0)."""
        self._queries_served += 1
        return self._engine().score(query_vector)

    def rank_documents(self, query_vector, *, top_k=None) -> np.ndarray:
        """Ranked document ids for one query (``top_k=None`` = all).

        Consults the LRU result cache first; a miss computes through
        the batched kernel and populates the cache.
        """
        query = check_vector(query_vector, "query_vector")
        return self.rank_batch(query[:, None], top_k=top_k)[0]

    def rank_batch(self, queries, *, top_k=None) -> np.ndarray:
        """Ranked ids for a query block, ``(q, top_k_eff)``.

        Cached queries are answered from the LRU cache; the remaining
        columns are projected and ranked in single GEMMs.  Results are
        identical to calling :meth:`rank_documents` per query.

        Args:
            queries: a :class:`~repro.serving.engine.QueryBatch`, a
                dense ``(n_terms, q)`` array, or a sequence of 1-D
                query vectors.
            top_k: shared cutoff policy (``None`` = all), clamped to
                the number of active documents.
        """
        engine = self._engine()
        batch = engine._as_batch(queries)
        top_k = min(check_top_k(top_k, self.n_documents),
                    self.n_active)
        self._batches_served += 1
        self._queries_served += batch.n_queries

        out = np.empty((batch.n_queries, top_k), dtype=np.int64)
        missing = []
        keys = []
        for i in range(batch.n_queries):
            key = self._cache.key_for(self._generation, batch, i,
                                      top_k)
            keys.append(key)
            cached = self._cache.get(key)
            if cached is None:
                missing.append(i)
            else:
                out[i] = cached
        if missing:
            sub = QueryBatch(batch.matrix[:, missing])
            computed = engine.rank_batch(sub, top_k=top_k)
            for row, i in enumerate(missing):
                out[i] = computed[row]
                self._cache.put(keys[i], computed[row])
        return out

    def rank_batch_scored(self, queries, *, top_k=None
                          ) -> "tuple[np.ndarray, np.ndarray]":
        """Ranked ids and their scores for a query block.

        The shard fan-out entry point: identical ranking semantics to
        :meth:`rank_batch`, plus each returned id's cosine score (in
        the compute dtype) so a sharded merge can re-run the global
        tie policy.  Results are cached per query under a
        ``kind="scored"`` :class:`~repro.serving.engine.CacheKey`, so
        repeated fan-outs on an unchanged shard skip BLAS entirely.
        """
        engine = self._engine()
        batch = engine._as_batch(queries)
        top_k = min(check_top_k(top_k, self.n_documents),
                    self.n_active)
        self._batches_served += 1
        self._queries_served += batch.n_queries

        ids = np.empty((batch.n_queries, top_k), dtype=np.int64)
        scores = np.empty((batch.n_queries, top_k),
                          dtype=self._dtype)
        missing = []
        keys = []
        for i in range(batch.n_queries):
            key = self._cache.key_for(self._generation, batch, i,
                                      top_k, kind="scored")
            keys.append(key)
            cached = self._cache.get(key)
            if cached is None:
                missing.append(i)
            else:
                ids[i], scores[i] = cached
        if missing:
            sub = QueryBatch(batch.matrix[:, missing])
            sub_ids, sub_scores = engine.rank_batch_scored(
                sub, top_k=top_k)
            for row, i in enumerate(missing):
                ids[i] = sub_ids[row]
                scores[i] = sub_scores[row]
                self._cache.put(keys[i], (sub_ids[row],
                                          sub_scores[row]))
        return ids, scores

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _ensure_writer(self) -> IndexWriter:
        """Materialise the mutable writer from a lazily-loaded bundle.

        Mutation (and :attr:`model` access) needs real, writable
        arrays; this copies the mapped factors into memory exactly
        once and detaches the index from the bundle files entirely —
        required so a later :meth:`save` over the *same* directory
        never writes a file it is concurrently mapping.
        """
        writer = self._writer
        if writer is None:
            bundle = self._lazy_bundle()
            svd = SVDResult(np.array(bundle.svd.u),
                            np.array(bundle.svd.singular_values),
                            np.array(bundle.svd.vt),
                            bundle.svd.frobenius_norm_sq)
            writer = IndexWriter.from_state(
                LSIModel(svd),
                np.array(bundle.doc_vectors, dtype=np.float64),
                n_original=bundle.n_original,
                tombstones=bundle.tombstones,
                unabsorbed_energy=bundle.unabsorbed_energy,
                drift_threshold=bundle.drift_threshold,
                fold_ins=bundle.stats.fold_ins_since_refit,
                deletes=bundle.stats.deletes_since_refit,
                copy=False)
            self._writer = writer
            self._bundle = None
            self._engine_cache = None
            self._engine_generation = -1
        return writer

    def add_documents(self, columns) -> np.ndarray:
        """Fold new documents in; returns their assigned ids.

        Bumps the index generation, so cached rankings for the previous
        corpus can never be served against the new one.
        """
        ids = self._ensure_writer().add_documents(columns)
        self._bump()
        return ids

    def remove_documents(self, doc_ids) -> None:
        """Tombstone documents; they stop appearing in rankings."""
        self._ensure_writer().remove_documents(doc_ids)
        self._bump()

    def refit(self, matrix=None, *, full: bool = False, rank=None,
              engine: str = "lanczos", seed=None,
              **engine_kwargs) -> LSIModel:
        """Absorb accumulated updates into the factors.

        ``refit()`` with no matrix merges the buffered fold-in block
        into the basis incrementally (no from-scratch SVD; the
        config's ``stream_block_size``/``stream_oversample`` steer the
        merge); ``refit(matrix)`` re-decomposes from scratch and also
        purges tombstoned mass — see
        :meth:`repro.serving.writer.IndexWriter.refit`.

        Raises:
            ValidationError: when ``full=True`` without a matrix, the
                incremental fold buffer is unavailable (e.g. after a
                bundle load), the matrix's term space mismatches, or
                fit parameters are invalid.
            ConvergenceError: when an iterative SVD engine fails to
                converge.
        """
        if matrix is None and not full:
            engine_kwargs.setdefault(
                "block_size", self._config.stream_block_size)
            engine_kwargs.setdefault(
                "oversample", self._config.stream_oversample)
        model = self._ensure_writer().refit(
            matrix, full=full, rank=rank, engine=engine, seed=seed,
            **engine_kwargs)
        self._bump()
        return model

    def _bump(self) -> None:
        """Advance the generation and drop stale cache entries."""
        self._generation += 1
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
        if self._writer is not None:
            fold_ins = self._writer.fold_ins_since_refit
            deletes = self._writer.deletes_since_refit
            refits = base.refits + self._writer.refits
        else:
            saved = self._lazy_bundle().stats
            fold_ins = saved.fold_ins_since_refit
            deletes = saved.deletes_since_refit
            refits = base.refits
        return ServingStats(
            queries_served=base.queries_served + self._queries_served,
            batches_served=base.batches_served + self._batches_served,
            cache_hits=base.cache_hits + self._cache.hits,
            cache_misses=base.cache_misses + self._cache.misses,
            cache_evictions=base.cache_evictions
            + self._cache.evictions,
            fold_ins_since_refit=fold_ins,
            deletes_since_refit=deletes,
            refits=refits,
            drift=self.drift,
            refit_recommended=self.needs_refit,
            dtype=self._dtype)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> Path:
        """Persist the index as a bundle directory; returns the path.

        Saving an mmap-loaded index materialises it first (see
        :meth:`_ensure_writer`) so the write never races its own
        source mapping.
        """
        writer = self._ensure_writer()
        bundle = IndexBundle(
            svd=writer.model.svd,
            doc_vectors=writer.document_vectors(),
            n_original=writer.n_original,
            tombstones=writer.tombstones,
            unabsorbed_energy=writer.unabsorbed_energy,
            drift_threshold=writer.drift_threshold,
            stats=self.stats(),
            vocabulary=self._vocabulary,
            compute_dtype=self._dtype)
        return write_bundle(path, bundle)

    @classmethod
    def load(cls, path, *, config: "ServingConfig | None" = None
             ) -> "ServedIndex":
        """Load a bundle saved by :meth:`save` (or any older schema).

        The restored index reproduces the saved index's rankings
        exactly and continues its counters and drift accounting.

        Args:
            path: the bundle directory.
            config: serving policy for the loaded index.
                ``config.mmap=True`` maps the large arrays read-only
                instead of loading them — the O(manifest) cold start:
                serving works directly off the mapped, pre-normalised
                factors; the first mutation (or :attr:`model` access,
                or :meth:`save`) materialises the index in memory;
                legacy (schema ≤ 2) bundles fall back to eager
                loading.  ``config.dtype=None`` (default) keeps the
                precision the bundle was saved with
                (``compute_dtype`` in the manifest); the bundle's
                persisted ``drift_threshold`` always wins over the
                config's.
        """
        config = config if config is not None else ServingConfig()
        bundle = read_bundle(path, mmap=config.mmap)
        writer = None
        if not (bundle.mmapped and bundle.doc_unit is not None):
            writer = IndexWriter.from_state(
                LSIModel(bundle.svd), bundle.doc_vectors,
                n_original=bundle.n_original,
                tombstones=bundle.tombstones,
                unabsorbed_energy=bundle.unabsorbed_energy,
                drift_threshold=bundle.drift_threshold,
                fold_ins=bundle.stats.fold_ins_since_refit,
                deletes=bundle.stats.deletes_since_refit,
                copy=False)
        index = cls.__new__(cls)
        index._init_state(
            config, writer,
            bundle=bundle if writer is None else None,
            vocabulary=bundle.vocabulary,
            saved_dtype=bundle.compute_dtype,
            base_version=bundle.index_version or "unsaved",
            base_stats=ServingStats(
                queries_served=bundle.stats.queries_served,
                batches_served=bundle.stats.batches_served,
                cache_hits=bundle.stats.cache_hits,
                cache_misses=bundle.stats.cache_misses,
                cache_evictions=bundle.stats.cache_evictions,
                refits=bundle.stats.refits))
        return index

    def __repr__(self) -> str:
        return (f"ServedIndex(k={self.rank}, n={self.n_terms}, "
                f"m={self.n_documents}, active={self.n_active}, "
                f"dtype={self._dtype}, drift={self.drift:.4f}, "
                f"version={self.index_version!r})")


def _retriever_conformance(
        lsi: "LSIModel",
        vsm: "VectorSpaceModel",
        bm25: "BM25Model",
        folding: "FoldingIndex",
        two_step: "TwoStepLSI",
        served: "ServedIndex",
        sharded: "ShardedIndex",
) -> "tuple[Retriever, ...]":
    """Static proof that every engine satisfies ``Retriever``.

    This function is never called; mypy type-checks the return
    statement, so a signature drift in any engine breaks CI.  It lives
    here (not in :mod:`repro.ir.retriever`) because the serving layer
    already imports every backend, keeping the import graph acyclic.
    """
    return (lsi, vsm, bm25, folding, two_step, served, sharded)
