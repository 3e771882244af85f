"""Serving layer: persistent, batched, incrementally-updated LSI.

The experiment code in :mod:`repro.core` answers "is low-rank projection
sound?"; this package answers "can you run it?".  It wraps a fitted
:class:`~repro.core.lsi.LSIModel` in the operational machinery a
retrieval service needs:

- :mod:`repro.serving.config` — :class:`ServingConfig`, the one frozen
  policy object (precision, caching, mmap, micro-batching, streaming
  fits) shared by every layer below;
- :mod:`repro.serving.bundle` — versioned, checksummed on-disk index
  bundles with environment fingerprints and backward-compatible loading;
- :mod:`repro.serving.engine` — batched query execution (whole query
  blocks in single GEMMs), exact stable top-``k`` extraction, the
  shared :class:`CacheKey`, and an LRU result cache;
- :mod:`repro.serving.writer` — incremental fold-in and tombstoning
  with monotone Eckart–Young drift accounting and refit recommendation;
- :mod:`repro.serving.stats` — the per-index counters behind
  ``repro serve-stats``;
- :mod:`repro.serving.index` — :class:`ServedIndex`, the facade tying
  the pieces together behind the shared
  :class:`~repro.ir.retriever.Retriever` protocol;
- :mod:`repro.serving.sharded` — :class:`ShardedIndex`, N shards of
  one corpus with exact top-``k`` merging over a thread-pool fan-out;
- :mod:`repro.serving.dispatch` — :class:`MicroBatchDispatcher`, the
  latency-bounded queue coalescing single queries into batches.
"""

from repro.serving.bundle import (
    BUNDLE_FORMAT,
    BUNDLE_SCHEMA_VERSION,
    ChecksumMismatch,
    IndexBundle,
    checksum_failures,
    environment_fingerprint,
    read_bundle,
    read_manifest,
    sha256_file,
    write_bundle,
)
from repro.serving.config import ServingConfig
from repro.serving.dispatch import DispatchStats, MicroBatchDispatcher
from repro.serving.engine import (
    COMPUTE_DTYPES,
    BatchQueryEngine,
    CacheKey,
    LRUResultCache,
    QueryBatch,
    ranking_overlap,
    stable_top_k,
)
from repro.serving.index import ServedIndex
from repro.serving.sharded import (
    ASSIGNMENTS,
    SHARDED_FORMAT,
    SHARDED_SCHEMA_VERSION,
    ShardedIndex,
    ShardManifest,
    is_sharded_bundle,
    read_sharded_manifest,
    shard_document_ids,
)
from repro.serving.stats import ServingStats
from repro.serving.writer import DriftReport, IndexWriter

__all__ = [
    "ASSIGNMENTS",
    "BUNDLE_FORMAT",
    "BUNDLE_SCHEMA_VERSION",
    "BatchQueryEngine",
    "COMPUTE_DTYPES",
    "CacheKey",
    "ChecksumMismatch",
    "DispatchStats",
    "DriftReport",
    "IndexBundle",
    "IndexWriter",
    "LRUResultCache",
    "MicroBatchDispatcher",
    "QueryBatch",
    "SHARDED_FORMAT",
    "SHARDED_SCHEMA_VERSION",
    "ServedIndex",
    "ServingConfig",
    "ServingStats",
    "ShardManifest",
    "ShardedIndex",
    "checksum_failures",
    "environment_fingerprint",
    "is_sharded_bundle",
    "ranking_overlap",
    "read_bundle",
    "read_manifest",
    "read_sharded_manifest",
    "sha256_file",
    "shard_document_ids",
    "stable_top_k",
    "write_bundle",
]
