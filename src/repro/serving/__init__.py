"""Serving layer: persistent, batched, incrementally-updated LSI.

The experiment code in :mod:`repro.core` answers "is low-rank projection
sound?"; this package answers "can you run it?".  It wraps a fitted
:class:`~repro.core.lsi.LSIModel` in the operational machinery a
retrieval service needs:

- :mod:`repro.serving.config` — :class:`ServingConfig`, the one frozen
  policy object (caching, mmap, drift, streaming fits);
- :mod:`repro.serving.bundle` — versioned, checksummed on-disk index
  bundles holding one copy of the document store, loaded strictly;
- :mod:`repro.serving.engine` — batched query execution (whole query
  blocks in single GEMMs), a certified two-stage top-``k`` whose
  rankings are one float64 kernel's with ascending-id ties, the shared
  :class:`CacheKey`, and an LRU result cache;
- :mod:`repro.serving.writer` — incremental fold-in and tombstoning
  with monotone Eckart–Young drift accounting and refit recommendation;
- :mod:`repro.serving.stats` — the per-index counters behind
  ``repro serve-stats``;
- :mod:`repro.serving.index` — :class:`ServedIndex`, the facade tying
  the pieces together behind the shared
  :class:`~repro.ir.retriever.Retriever` protocol;
- :mod:`repro.serving.dispatch` — :class:`MicroBatchDispatcher`, the
  queue coalescing single queries into batches.

One index serves several threads at once: the dispatcher's flusher
ranks through the same :class:`ServedIndex` that caller threads query
directly.  Readers take no lock beyond :class:`LRUResultCache`'s, since
a :class:`BatchQueryEngine` holds no mutable state; writes take the
index's writer lock and run one at a time.
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
    BatchQueryEngine,
    CacheKey,
    LRUResultCache,
    QueryBatch,
    stable_top_k,
)
from repro.serving.index import ServedIndex
from repro.serving.stats import ServingStats
from repro.serving.writer import IndexWriter

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_SCHEMA_VERSION",
    "BatchQueryEngine",
    "CacheKey",
    "ChecksumMismatch",
    "DispatchStats",
    "IndexBundle",
    "IndexWriter",
    "LRUResultCache",
    "MicroBatchDispatcher",
    "QueryBatch",
    "ServedIndex",
    "ServingConfig",
    "ServingStats",
    "checksum_failures",
    "environment_fingerprint",
    "read_bundle",
    "read_manifest",
    "sha256_file",
    "stable_top_k",
    "write_bundle",
]
