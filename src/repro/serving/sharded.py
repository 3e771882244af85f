"""Horizontally sharded LSI serving with exact top-k merging.

:class:`ShardedIndex` partitions a document collection across N
:class:`~repro.serving.index.ServedIndex` shards — every shard holds
the *same* SVD basis and a column subset of the document store — and
fans query batches out over a thread pool, one worker per shard.
Because cosine scores are per-document, a document's score is the same
number whichever shard computes it; the merge step concatenates each
shard's scored top-k candidates and re-applies the global tie policy
of :func:`~repro.serving.engine.stable_top_k` (descending score,
ascending document id), so a sharded ranking is the single-index
ranking whenever the per-document scores agree bitwise.  That
agreement is a *measured* property, not an assumed one: the BLAS GEMM
over a column subset may round differently from the full GEMM at
scale, so ``benchmarks/bench_serving.py`` records merge exactness as a
gated 0/1 claim against the committed baseline, the same policy the
float32 and mmap fast paths follow.

The thread pool is the only fan-out because it is the only one that
wins anywhere: on a 2-core host it beat one index for 128-query blocks
over 100k documents with BLAS pinned to one thread.  It loses on
single queries and smaller stores, where BLAS threading inside one
GEMM does better, and process or serial fan-out lost everywhere
(numbers in ``docs/SERVING.md``).

The shard layout is a first-class value (:class:`ShardManifest`):
which assignment produced it (``"round_robin"`` — documents ``i`` with
``i % n_shards == s`` land on shard ``s`` — or ``"contiguous"`` —
``np.array_split`` ranges), each shard's ascending global-id array,
the round-robin routing cursor, and the ids retired with removed
shards.  ``save``/``load`` persist the manifest (JSON + one
checksummed ``.npy`` id file per shard) beside one ordinary bundle
directory per shard, so every shard is *also* a valid standalone
bundle that ``repro serve-stats`` and ``ServedIndex.load`` understand.

Updates route through the same fold-in/tombstone machinery as a
single index: ``add_documents`` assigns fresh global ids and routes
columns by the recorded assignment (cursor round-robin, or append to
the last contiguous shard); ``remove_documents`` translates global ids
to shard-local tombstones; ``add_shard``/``remove_shard`` change the
topology, and every mutation bumps :attr:`ShardedIndex.generation` so
the per-shard LRU caches and the micro-batching dispatcher's
:class:`~repro.serving.engine.CacheKey` entries go stale by
construction.
"""

from __future__ import annotations

import json
import re
import shutil
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core.lsi import LSIModel
from repro.errors import PersistenceError, ValidationError
from repro.serving.bundle import sha256_file
from repro.serving.config import ServingConfig
from repro.serving.engine import QueryBatch
from repro.serving.index import ServedIndex
from repro.serving.stats import ServingStats
from repro.serving.writer import IndexWriter
from repro.utils.validation import check_non_negative_int, \
    check_positive_int, check_top_k, check_vector

__all__ = [
    "ASSIGNMENTS",
    "SHARDED_FORMAT",
    "SHARDED_SCHEMA_VERSION",
    "ShardManifest",
    "ShardedIndex",
    "is_sharded_bundle",
    "read_sharded_manifest",
    "shard_document_ids",
]

#: Supported document→shard assignment policies.
ASSIGNMENTS = ("round_robin", "contiguous")

#: Marker distinguishing a sharded-index directory from a plain bundle.
SHARDED_FORMAT = "repro-lsi-sharded-index"

#: Current sharded manifest schema version.
SHARDED_SCHEMA_VERSION = 1

#: Manifest file name inside a sharded-index directory.
SHARDED_MANIFEST_NAME = "manifest.json"

#: File recording the global ids retired with removed shards.
_RETIRED_NAME = "retired_ids.npy"

#: Names :meth:`ShardedIndex.save` writes per shard: a bundle directory
#: and its global-id file.
_SHARD_NAME = re.compile(r"shard-\d+(\.ids\.npy)?")


def shard_document_ids(n_documents: int, n_shards: int,
                       assignment: str = "round_robin"
                       ) -> "tuple[np.ndarray, ...]":
    """Deterministic global-id partition for a fresh sharding.

    Args:
        n_documents: size of the id space ``0..n_documents-1``.
        n_shards: number of partitions (shards may come out empty when
            ``n_shards > n_documents``).
        assignment: ``"round_robin"`` sends id ``i`` to shard
            ``i % n_shards``; ``"contiguous"`` cuts ``np.array_split``
            ranges (earlier shards get the remainder).

    Returns:
        One ascending ``int64`` id array per shard; the arrays are
        disjoint and cover the id space exactly.

    Raises:
        ValidationError: on a negative document count, a non-positive
            shard count, or an unknown assignment policy.
    """
    check_non_negative_int(n_documents, "n_documents")
    check_positive_int(n_shards, "n_shards")
    if assignment not in ASSIGNMENTS:
        raise ValidationError(
            f"assignment must be one of {ASSIGNMENTS}, got "
            f"{assignment!r}")
    everything = np.arange(n_documents, dtype=np.int64)
    if assignment == "round_robin":
        return tuple(everything[s::n_shards].copy()
                     for s in range(n_shards))
    return tuple(part.copy()
                 for part in np.array_split(everything, n_shards))


@dataclass(frozen=True)
class ShardManifest:
    """The shard layout of a :class:`ShardedIndex`, as a frozen value.

    Attributes:
        assignment: the routing policy for future fold-ins, one of
            :data:`ASSIGNMENTS`.
        shard_ids: one strictly-ascending ``int64`` global-id array per
            shard; together with :attr:`retired` they partition the id
            space ``0..n_documents-1`` exactly.
        retired: ascending global ids taken out of service by
            :meth:`ShardedIndex.remove_shard` (they keep their ids,
            score 0, and never rank — mass-tombstone semantics).
        cursor: the round-robin routing position the next fold-in
            starts from.
    """

    assignment: str
    shard_ids: "tuple[np.ndarray, ...]"
    retired: np.ndarray
    cursor: int = 0

    def __post_init__(self):
        if self.assignment not in ASSIGNMENTS:
            raise ValidationError(
                f"assignment must be one of {ASSIGNMENTS}, got "
                f"{self.assignment!r}")
        if not self.shard_ids:
            raise ValidationError(
                "a shard manifest needs at least one shard")
        cleaned = []
        for s, ids in enumerate(self.shard_ids):
            ids = np.asarray(ids, dtype=np.int64).reshape(-1)
            if ids.size and (ids[0] < 0
                             or np.any(np.diff(ids) <= 0)):
                # Ascending local order = ascending global order, which
                # is what makes per-shard stable_top_k ties agree with
                # the global tie policy.
                raise ValidationError(
                    f"shard {s} ids must be non-negative and strictly "
                    "ascending")
            cleaned.append(ids)
        object.__setattr__(self, "shard_ids", tuple(cleaned))
        retired = np.asarray(self.retired, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "retired", retired)
        everything = np.concatenate(list(self.shard_ids) + [retired])
        if everything.size != np.unique(everything).size \
                or not np.array_equal(np.sort(everything),
                                      np.arange(everything.size,
                                                dtype=np.int64)):
            raise ValidationError(
                "shard ids plus retired ids must partition "
                f"0..{everything.size - 1} exactly")
        if not 0 <= int(self.cursor) < len(self.shard_ids):
            raise ValidationError(
                f"cursor {self.cursor} out of range for "
                f"{len(self.shard_ids)} shards")

    @property
    def n_shards(self) -> int:
        """Number of live shards."""
        return len(self.shard_ids)

    @property
    def n_documents(self) -> int:
        """Size of the global id space (live + retired)."""
        return int(sum(ids.size for ids in self.shard_ids)
                   + self.retired.size)

    def shard_of(self, doc_id: int) -> "tuple[int, int]":
        """``(shard, local_id)`` of a live global document id.

        Raises:
            ValidationError: when the id is out of range, retired, or
                (impossibly, given the partition invariant) unmapped.
        """
        doc_id = int(doc_id)
        if not 0 <= doc_id < self.n_documents:
            raise ValidationError(
                f"document id {doc_id} out of range for "
                f"{self.n_documents} documents")
        for s, ids in enumerate(self.shard_ids):
            local = int(np.searchsorted(ids, doc_id))
            if local < ids.size and int(ids[local]) == doc_id:
                return s, local
        raise ValidationError(
            f"document {doc_id} belongs to a removed shard")

    def summary(self) -> dict:
        """JSON-ready counts (the id arrays persist as ``.npy`` files)."""
        return {
            "assignment": self.assignment,
            "cursor": int(self.cursor),
            "n_shards": self.n_shards,
            "n_documents": self.n_documents,
            "n_retired": int(self.retired.size),
            "shard_sizes": [int(ids.size) for ids in self.shard_ids],
        }


def _select_columns(columns, indices):
    """Column subset of a dense array or CSRMatrix, in given order."""
    idx = np.asarray(indices, dtype=np.int64)
    select = getattr(columns, "select_columns", None)
    if select is not None:
        return select(idx)
    return np.asarray(columns)[:, idx]


def is_sharded_bundle(path) -> bool:
    """Whether ``path`` looks like a sharded-index directory.

    Only peeks at the manifest's ``format`` marker, so corrupt sharded
    manifests still dispatch to the sharded loader (and fail there
    with a precise error) instead of a confusing plain-bundle error.
    """
    manifest_path = Path(path) / SHARDED_MANIFEST_NAME
    if not manifest_path.is_file():
        return False
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(manifest, dict) \
        and manifest.get("format") == SHARDED_FORMAT


def read_sharded_manifest(path) -> dict:
    """Load and validate a sharded-index manifest (arrays untouched).

    Raises:
        PersistenceError: missing/unparsable manifest, foreign
            ``format`` marker, unsupported schema version, or a
            missing/empty shard table.
    """
    directory = Path(path)
    manifest_path = directory / SHARDED_MANIFEST_NAME
    if not manifest_path.is_file():
        raise PersistenceError(
            f"{directory} is not a sharded index: no "
            f"{SHARDED_MANIFEST_NAME}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise PersistenceError(
            f"unreadable sharded manifest {manifest_path}: {error}"
        ) from error
    marker = manifest.get("format") \
        if isinstance(manifest, dict) else None
    if marker != SHARDED_FORMAT:
        raise PersistenceError(
            f"{directory} is not a {SHARDED_FORMAT} directory "
            f"(format marker is {marker!r})")
    version = manifest.get("schema_version")
    if version != SHARDED_SCHEMA_VERSION:
        raise PersistenceError(
            f"unsupported sharded schema_version {version!r}; this "
            f"reader handles {SHARDED_SCHEMA_VERSION}")
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards:
        raise PersistenceError(
            f"sharded manifest {manifest_path} records no shards")
    return manifest


class ShardedIndex:
    """N :class:`~repro.serving.index.ServedIndex` shards, one index.

    Every shard serves the same SVD basis over a disjoint column
    subset of the document store; queries fan out across shards and
    the per-shard scored top-k candidates merge under the global
    ``stable_top_k`` tie policy (descending score, ascending global
    id).  Conforms to the :class:`~repro.ir.retriever.Retriever`
    protocol, so experiment code runs against it unchanged.

    Build with :meth:`shard` (partition an existing index/model) or
    :meth:`fit`; the direct constructor wires pre-built shards to an
    explicit layout and is mostly the loader's entry point.

    Args:
        shards: the :class:`ServedIndex` shards (same ``n_terms``,
            ``rank``, and dtype).
        global_ids: one strictly-ascending global-id array per shard
            (see :class:`ShardManifest`).
        assignment: fold-in routing policy, one of
            :data:`ASSIGNMENTS`.
        config: the :class:`~repro.serving.config.ServingConfig`
            governing the drift policy and future shard construction
            (``None`` = all defaults).
        cursor: round-robin routing position to resume from.
        retired: global ids retired with previously removed shards.
    """

    def __init__(self, shards, global_ids, *,
                 assignment: str = "round_robin",
                 config: "ServingConfig | None" = None,
                 cursor: int = 0, retired=()):
        config = config if config is not None else ServingConfig()
        shards = list(shards)
        if not shards:
            raise ValidationError(
                "ShardedIndex needs at least one shard")
        for s, shard in enumerate(shards):
            if not isinstance(shard, ServedIndex):
                raise ValidationError(
                    f"shard {s} is {type(shard).__name__}, expected "
                    "ServedIndex")
        heads = {(s.n_terms, s.rank, s.dtype) for s in shards}
        if len(heads) > 1:
            raise ValidationError(
                f"shards disagree on (n_terms, rank, dtype): "
                f"{sorted(heads)}")
        layout = ShardManifest(
            assignment=assignment,
            shard_ids=tuple(global_ids),
            retired=np.asarray(tuple(retired), dtype=np.int64),
            cursor=cursor)
        for s, (shard, ids) in enumerate(zip(shards,
                                             layout.shard_ids)):
            if shard.n_documents != ids.size:
                raise ValidationError(
                    f"shard {s} stores {shard.n_documents} documents "
                    f"but its id map has {ids.size}")
        self._config = config
        self._assignment = layout.assignment
        self._shards: "list[ServedIndex]" = shards
        self._global_ids: "list[np.ndarray]" = list(layout.shard_ids)
        self._retired: "set[int]" = {int(g) for g in layout.retired}
        self._cursor = int(layout.cursor)
        self._revision = 0
        self._pool_lock = threading.Lock()
        self._executor: "ThreadPoolExecutor | None" = None
        self._executor_width = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def shard(cls, source, n_shards: int, *,
              assignment: str = "round_robin", vocabulary=None,
              config: "ServingConfig | None" = None
              ) -> "ShardedIndex":
        """Partition an existing index or model across ``n_shards``.

        Every shard shares ``source``'s SVD basis and takes the column
        subset chosen by :func:`shard_document_ids`; a
        :class:`~repro.serving.index.ServedIndex` source also carries
        its tombstones over (translated to shard-local ids).  Drift
        accounting restarts from zero — resharding is a rebuild, like
        a refit.

        Args:
            source: a :class:`ServedIndex` or a fitted
                :class:`~repro.core.lsi.LSIModel`.
            n_shards: partition count (shards may come out empty).
            assignment: one of :data:`ASSIGNMENTS`.
            vocabulary: optional term strings persisted with each
                shard.
            config: serving policy for every shard.

        Raises:
            ValidationError: on a non-positive ``n_shards``, an
                unknown assignment policy, or an unsupported source
                type.
        """
        config = config if config is not None else ServingConfig()
        check_positive_int(n_shards, "n_shards")
        if isinstance(source, ServedIndex):
            writer = source._writer
            model = writer.model
            doc_vectors = writer.document_vectors()
            tombstones = np.asarray(writer.tombstones, dtype=np.int64)
        elif isinstance(source, LSIModel):
            model = source
            doc_vectors = source.document_vectors()
            tombstones = np.empty(0, dtype=np.int64)
        else:
            raise ValidationError(
                f"source must be a ServedIndex or LSIModel, got "
                f"{type(source).__name__}")
        parts = shard_document_ids(doc_vectors.shape[1], n_shards,
                                   assignment)
        shards = []
        for ids in parts:
            local_tombs = np.searchsorted(
                ids, tombstones[np.isin(tombstones, ids)])
            shard_writer = IndexWriter.from_state(
                model, doc_vectors[:, ids],
                n_original=int(ids.size),
                tombstones=tuple(int(t) for t in local_tombs),
                drift_threshold=config.drift_threshold)
            shards.append(ServedIndex.from_writer(
                shard_writer, vocabulary=vocabulary, config=config))
        return cls(shards, parts, assignment=assignment,
                   config=config)

    @classmethod
    def fit(cls, matrix, rank, *, n_shards: int,
            assignment: str = "round_robin", engine: str = "lanczos",
            seed=None, vocabulary=None,
            config: "ServingConfig | None" = None,
            **engine_kwargs) -> "ShardedIndex":
        """Fit LSI on a term–document matrix and shard the result.

        Arguments mirror :meth:`ServedIndex.fit` plus ``n_shards`` /
        ``assignment``.
        """
        model = LSIModel.fit(matrix, rank, engine=engine, seed=seed,
                             **engine_kwargs)
        return cls.shard(model, n_shards, assignment=assignment,
                         vocabulary=vocabulary, config=config)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of live shards."""
        return len(self._shards)

    @property
    def shards(self) -> "tuple[ServedIndex, ...]":
        """The live shards (mutate only through this index)."""
        return tuple(self._shards)

    @property
    def n_documents(self) -> int:
        """Global id-space size (live + retired; ids never recycle)."""
        return int(sum(ids.size for ids in self._global_ids)
                   + len(self._retired))

    @property
    def n_active(self) -> int:
        """Documents eligible to appear in rankings, across shards."""
        return int(sum(s.n_active for s in self._shards))

    @property
    def n_terms(self) -> int:
        """Term-space dimensionality queries must have."""
        return self._shards[0].n_terms

    @property
    def rank(self) -> int:
        """The LSI dimension ``k`` (shared by every shard)."""
        return self._shards[0].rank

    @property
    def dtype(self) -> str:
        """Compute precision the shards score in."""
        return self._shards[0].dtype

    @property
    def assignment(self) -> str:
        """The fold-in routing policy."""
        return self._assignment

    @property
    def config(self) -> ServingConfig:
        """The serving policy shared by every shard."""
        return self._config

    @property
    def generation(self) -> int:
        """Mutation counter covering topology *and* shard content.

        Includes every shard's own generation, so a mutation that
        reached a shard directly still invalidates dispatcher-level
        :class:`~repro.serving.engine.CacheKey` entries; removing a
        shard folds its final generation into the topology revision to
        keep the counter monotone.
        """
        return self._revision + sum(s.generation
                                    for s in self._shards)

    def manifest(self) -> ShardManifest:
        """A frozen snapshot of the current shard layout."""
        return ShardManifest(
            assignment=self._assignment,
            shard_ids=tuple(ids.copy() for ids in self._global_ids),
            retired=np.asarray(sorted(self._retired),
                               dtype=np.int64),
            cursor=self._cursor)

    @property
    def drift(self) -> float:
        """Global fold-in drift: summed unabsorbed energy over all
        shards against the (shared) captured energy of the basis."""
        reports = [s.drift_report() for s in self._shards]
        unabsorbed = float(sum(r.unabsorbed_energy for r in reports))
        denominator = unabsorbed + reports[0].captured_energy
        if denominator <= 0:
            return 0.0
        return unabsorbed / denominator

    @property
    def needs_refit(self) -> bool:
        """Whether global drift has crossed the configured threshold."""
        threshold = self._config.drift_threshold
        return threshold is not None and self.drift >= threshold

    def stats(self) -> ServingStats:
        """Aggregate serving counters summed over all shards."""
        parts = [s.stats() for s in self._shards]
        return ServingStats(
            queries_served=sum(p.queries_served for p in parts),
            batches_served=sum(p.batches_served for p in parts),
            cache_hits=sum(p.cache_hits for p in parts),
            cache_misses=sum(p.cache_misses for p in parts),
            cache_evictions=sum(p.cache_evictions for p in parts),
            fold_ins_since_refit=sum(p.fold_ins_since_refit
                                     for p in parts),
            deletes_since_refit=sum(p.deletes_since_refit
                                    for p in parts),
            refits=sum(p.refits for p in parts),
            drift=self.drift,
            refit_recommended=self.needs_refit,
            dtype=self.dtype)

    def shard_stats(self) -> "tuple[ServingStats, ...]":
        """Per-shard serving counters, in shard order."""
        return tuple(s.stats() for s in self._shards)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _as_batch(self, queries) -> QueryBatch:
        """Coerce queries into a :class:`QueryBatch` (shape-checked)."""
        if isinstance(queries, QueryBatch):
            batch = queries
        elif isinstance(queries, np.ndarray) and queries.ndim == 2:
            batch = QueryBatch(queries)
        else:
            batch = QueryBatch.from_vectors(queries)
        if batch.n_terms != self.n_terms:
            raise ValidationError(
                f"queries have {batch.n_terms} terms; the index "
                f"expects {self.n_terms}")
        return batch

    def _thread_pool(self) -> Executor:
        """The fan-out thread pool, one worker per shard.

        The stale pool (on a shard-count change) is detached under the
        lock but shut down after releasing it: ``shutdown(wait=True)``
        joins worker threads, and joining while holding ``_pool_lock``
        would stall every concurrent query behind the drain.
        """
        stale = None
        with self._pool_lock:
            width = self.n_shards
            if self._executor is None \
                    or self._executor_width != width:
                stale = self._executor
                self._executor = ThreadPoolExecutor(
                    max_workers=width,
                    thread_name_prefix="repro-shard")
                self._executor_width = width
            executor = self._executor
        if stale is not None:
            stale.shutdown(wait=True)
        return executor

    def _shard_tasks(self, top_k: int) -> "list[tuple[int, int]]":
        """``(shard, shard_top_k)`` for every shard that can rank.

        ``shard_top_k = min(top_k, shard.n_active)`` is candidate
        sufficiency: shard active counts sum to the global one, so
        the union of per-shard candidate sets always contains the
        global top-k.
        """
        tasks = []
        for s, shard in enumerate(self._shards):
            shard_top_k = min(top_k, shard.n_active)
            if shard_top_k > 0:
                tasks.append((s, shard_top_k))
        return tasks

    def _rank_shards(self, batch: QueryBatch,
                     tasks: "list[tuple[int, int]]"
                     ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Fan ``rank_batch_scored`` out; results carry *global* ids."""
        pool = self._thread_pool()
        futures = [pool.submit(self._shards[s].rank_batch_scored,
                               batch, top_k=shard_top_k)
                   for s, shard_top_k in tasks]
        results = [f.result() for f in futures]
        mapped = []
        for (s, _), (local_ids, scores) in zip(tasks, results):
            mapped.append((self._global_ids[s][local_ids], scores))
        return mapped

    @staticmethod
    def _merge(per_shard: "list[tuple[np.ndarray, np.ndarray]]",
               n_queries: int, top_k: int
               ) -> "tuple[np.ndarray, np.ndarray]":
        """Merge scored per-shard candidates under the global tie rule.

        ``np.lexsort((ids, -scores))`` is descending score with
        ascending global id on ties — exactly
        :func:`~repro.serving.engine.stable_top_k`'s policy, so the
        merged ranking equals the single-index one whenever the
        per-document scores agree bitwise.
        """
        cand_ids = np.concatenate([ids for ids, _ in per_shard],
                                  axis=1)
        cand_scores = np.concatenate(
            [np.asarray(scores, dtype=np.float64)
             for _, scores in per_shard], axis=1)
        ids = np.empty((n_queries, top_k), dtype=np.int64)
        scores = np.empty((n_queries, top_k), dtype=np.float64)
        for row in range(n_queries):
            order = np.lexsort((cand_ids[row],
                                -cand_scores[row]))[:top_k]
            ids[row] = cand_ids[row][order]
            scores[row] = cand_scores[row][order]
        return ids, scores

    def rank_batch(self, queries, *, top_k=None) -> np.ndarray:
        """Globally ranked ids for a query block, ``(q, top_k_eff)``.

        Args:
            queries: a :class:`QueryBatch`, a dense ``(n_terms, q)``
                array, or a sequence of 1-D query vectors.
            top_k: shared cutoff (``None`` = all), clamped to the
                number of active documents across shards.
        """
        return self.rank_batch_scored(queries, top_k=top_k)[0]

    def rank_batch_scored(self, queries, *, top_k=None
                          ) -> "tuple[np.ndarray, np.ndarray]":
        """Globally ranked ids and their scores for a query block."""
        batch = self._as_batch(queries)
        top_k = min(check_top_k(top_k, self.n_documents),
                    self.n_active)
        if top_k == 0:
            empty_scores = np.empty((batch.n_queries, 0),
                                    dtype=self.dtype)
            return (np.empty((batch.n_queries, 0), dtype=np.int64),
                    empty_scores)
        per_shard = self._rank_shards(batch,
                                      self._shard_tasks(top_k))
        ids, scores = self._merge(per_shard, batch.n_queries, top_k)
        return ids, scores.astype(self.dtype, copy=False)

    def rank_documents(self, query_vector, *, top_k=None
                       ) -> np.ndarray:
        """Globally ranked ids for one query (``top_k=None`` = all)."""
        query = check_vector(query_vector, "query_vector")
        return self.rank_batch(query[:, None], top_k=top_k)[0]

    def score(self, query_vector) -> np.ndarray:
        """Cosine scores of every global document id.

        Tombstoned and retired documents score 0, matching the
        single-index convention.
        """
        query = check_vector(query_vector, "query_vector")
        out = np.zeros(self.n_documents, dtype=self.dtype)
        for shard, ids in zip(self._shards, self._global_ids):
            if ids.size:
                out[ids] = shard.score(query)
        return out

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _locate(self, doc_id: int) -> "tuple[int, int]":
        """``(shard, local_id)`` for a live global id (else raises)."""
        if not 0 <= doc_id < self.n_documents:
            raise ValidationError(
                f"document id {doc_id} out of range for "
                f"{self.n_documents} documents")
        for s, ids in enumerate(self._global_ids):
            local = int(np.searchsorted(ids, doc_id))
            if local < ids.size and int(ids[local]) == doc_id:
                return s, local
        raise ValidationError(
            f"document {doc_id} belongs to a removed shard")

    def add_documents(self, columns) -> np.ndarray:
        """Fold new documents in; returns their assigned global ids.

        Routing follows the recorded assignment: ``"round_robin"``
        deals columns across shards starting at the stored cursor
        (which advances), ``"contiguous"`` appends everything to the
        last shard.  Assigned ids continue the global sequence, so
        they match what a single un-sharded index would have assigned.
        """
        p = int(columns.shape[1])
        first = self.n_documents
        assigned = np.arange(first, first + p, dtype=np.int64)
        if p == 0:
            return assigned
        if self._assignment == "round_robin":
            targets = [(self._cursor + j) % self.n_shards
                       for j in range(p)]
            self._cursor = (self._cursor + p) % self.n_shards
        else:
            targets = [self.n_shards - 1] * p
        for s in range(self.n_shards):
            routed = [j for j, t in enumerate(targets) if t == s]
            if not routed:
                continue
            self._shards[s].add_documents(
                _select_columns(columns, routed))
            self._global_ids[s] = np.concatenate(
                [self._global_ids[s], assigned[routed]])
        self._revision += 1
        return assigned

    def remove_documents(self, doc_ids) -> None:
        """Tombstone global ids; they stop appearing in rankings.

        Raises:
            ValidationError: if an id is unknown, retired, or already
                deleted.
        """
        ids = [int(d) for d in np.atleast_1d(np.asarray(doc_ids))]
        per_shard: "dict[int, list[int]]" = {}
        tombstoned: "dict[int, set[int]]" = {}
        for doc_id in ids:
            s, local = self._locate(doc_id)
            if s not in tombstoned:
                tombstoned[s] = set(self._shards[s].tombstones)
            if local in tombstoned[s]:
                raise ValidationError(
                    f"document {doc_id} is already deleted")
            per_shard.setdefault(s, []).append(local)
        for s, local_ids in per_shard.items():
            self._shards[s].remove_documents(local_ids)
        self._revision += 1

    def add_shard(self) -> int:
        """Append an empty shard; returns its index.

        Under ``"round_robin"`` routing the new shard immediately
        joins the deal rotation; under ``"contiguous"`` it becomes the
        append target for all future fold-ins.
        """
        model = self._shards[0].model
        writer = IndexWriter.from_state(
            model, np.empty((self.rank, 0)),
            n_original=0,
            drift_threshold=self._config.drift_threshold)
        self._shards.append(ServedIndex.from_writer(
            writer, config=self._config))
        self._global_ids.append(np.empty(0, dtype=np.int64))
        self._revision += 1
        return self.n_shards - 1

    def remove_shard(self, shard_index: int) -> np.ndarray:
        """Retire a shard; returns the global ids taken out of service.

        Retired ids keep their positions (global ids stay stable),
        score 0, and never appear in rankings again — the same
        contract as tombstoning each of the shard's documents, minus
        the drift accounting (the shard is gone, not masked).

        Raises:
            ValidationError: on an out-of-range index, or when only
                one shard remains.
        """
        if not 0 <= int(shard_index) < self.n_shards:
            raise ValidationError(
                f"shard index {shard_index} out of range for "
                f"{self.n_shards} shards")
        if self.n_shards == 1:
            raise ValidationError("cannot remove the last shard")
        shard_index = int(shard_index)
        removed = self._shards.pop(shard_index)
        ids = self._global_ids.pop(shard_index)
        self._retired.update(int(g) for g in ids)
        self._cursor %= self.n_shards
        # Fold the removed shard's generation into the revision so the
        # global counter stays monotone after the sum loses a term,
        # then count the topology change itself.
        self._revision += removed.generation + 1
        return ids

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> Path:
        """Persist the sharded index as a directory; returns the path.

        Layout: ``manifest.json`` (format marker, assignment, cursor,
        shard table with per-shard id-file checksums) + one ordinary
        bundle directory and one ``shard-XXX.ids.npy`` global-id file
        per shard + ``retired_ids.npy``.  Once the manifest is
        written, the ``shard-XXX`` directories and id files it does
        not list (left by an earlier save of more shards) are deleted.

        Raises:
            PersistenceError: if ``path`` (or a shard bundle path
                under it) exists and is not a directory.
        """
        directory = Path(path)
        if directory.exists() and not directory.is_dir():
            raise PersistenceError(
                f"sharded index path {directory} exists and is not a "
                "directory")
        directory.mkdir(parents=True, exist_ok=True)
        entries = []
        for s, (shard, ids) in enumerate(zip(self._shards,
                                             self._global_ids)):
            name = f"shard-{s:03d}"
            shard.save(directory / name)
            ids_name = f"{name}.ids.npy"
            np.save(directory / ids_name, ids, allow_pickle=False)
            entries.append({
                "bundle": name,
                "ids_file": ids_name,
                "ids_sha256": sha256_file(directory / ids_name),
                "n_documents": int(ids.size),
                "n_active": int(shard.n_active),
            })
        retired = np.asarray(sorted(self._retired), dtype=np.int64)
        np.save(directory / _RETIRED_NAME, retired,
                allow_pickle=False)
        manifest = {
            "format": SHARDED_FORMAT,
            "schema_version": SHARDED_SCHEMA_VERSION,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "assignment": self._assignment,
            "cursor": int(self._cursor),
            "n_shards": self.n_shards,
            "n_documents": self.n_documents,
            "n_active": self.n_active,
            "retired_file": _RETIRED_NAME,
            "retired_sha256": sha256_file(directory / _RETIRED_NAME),
            "n_retired": int(retired.size),
            "shards": entries,
        }
        with open(directory / SHARDED_MANIFEST_NAME, "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        listed = {name for entry in entries
                  for name in (entry["bundle"], entry["ids_file"])}
        for stale in directory.iterdir():
            if _SHARD_NAME.fullmatch(stale.name) \
                    and stale.name not in listed:
                if stale.is_dir():
                    shutil.rmtree(stale)
                else:
                    stale.unlink()
        return directory

    @classmethod
    def load(cls, path, *, config: "ServingConfig | None" = None
             ) -> "ShardedIndex":
        """Load a directory saved by :meth:`save`.

        ``config`` applies to every shard exactly as in
        :meth:`ServedIndex.load` — ``mmap=True`` gives the sharded
        index an O(total manifests) cold start.

        Args:
            path: the sharded-index directory.
            config: serving policy for every shard.

        Raises:
            PersistenceError: on a missing/malformed manifest, an
                unsupported schema, or a checksum mismatch.
            ValidationError: when the recorded id maps do not match
                the shards (see the constructor).
        """
        directory = Path(path)
        manifest = read_sharded_manifest(directory)
        shards = []
        global_ids = []
        for entry in manifest["shards"]:
            ids_path = directory / str(entry.get("ids_file", ""))
            if not ids_path.is_file():
                raise PersistenceError(
                    f"sharded index {directory} is missing id file "
                    f"{entry.get('ids_file')!r}")
            expected = entry.get("ids_sha256")
            if expected is not None \
                    and sha256_file(ids_path) != expected:
                raise PersistenceError(
                    f"sharded index {directory} is corrupted: "
                    f"{entry['ids_file']} checksum does not match "
                    f"recorded {expected}")
            bundle_dir = directory / str(entry.get("bundle", ""))
            shards.append(ServedIndex.load(bundle_dir,
                                           config=config))
            global_ids.append(np.asarray(
                # Id maps are tiny; an eager read is the right call.
                np.load(ids_path,  # reprolint: disable=R111
                        allow_pickle=False),
                dtype=np.int64))
        retired_path = directory / str(
            manifest.get("retired_file", _RETIRED_NAME))
        if retired_path.is_file():
            retired = np.asarray(
                np.load(retired_path,  # reprolint: disable=R111
                        allow_pickle=False),
                dtype=np.int64)
        else:
            retired = np.empty(0, dtype=np.int64)
        return cls(shards, global_ids,
                   assignment=str(manifest.get("assignment",
                                               "round_robin")),
                   config=config,
                   cursor=int(manifest.get("cursor", 0)),
                   retired=retired)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent).

        The pool is detached under ``_pool_lock`` and drained after
        releasing it: ``shutdown(wait=True)`` blocks on in-flight
        shard work, and holding the lock through that drain would
        deadlock any worker (or concurrent caller) that needs it.
        """
        with self._pool_lock:
            executor, self._executor = self._executor, None
            self._executor_width = 0
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardedIndex(shards={self.n_shards}, "
                f"k={self.rank}, n={self.n_terms}, "
                f"m={self.n_documents}, active={self.n_active}, "
                f"assignment={self._assignment!r}, "
                f"dtype={self.dtype})")
