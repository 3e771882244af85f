"""One frozen configuration object for the whole serving stack.

The serving layer grew its knobs one at a time: ``ServedIndex`` took
``cache_capacity=...``, then ``dtype=...``; ``load`` added
``mmap=...`` on top.  Every new layer (the sharded index, the
micro-batching dispatcher) would have had to re-thread that kwarg
sprawl.  :class:`ServingConfig` collapses it into a single frozen
dataclass accepted by :class:`~repro.serving.index.ServedIndex`,
:class:`~repro.serving.sharded.ShardedIndex`, and
:class:`~repro.serving.dispatch.MicroBatchDispatcher`:

- one object describes precision, caching, cold-start,
  micro-batching, and streaming-fit policy, so a config built for a
  single index drops unchanged onto a sharded one;
- ``config=`` is the only way in: the entry points take no per-field
  kwargs, so a stray ``cache_capacity=4`` is a :class:`TypeError`
  rather than a silently ignored setting;
- unknown fields in :meth:`ServingConfig.merged` fail eagerly with the
  valid ones listed — the same typo policy as
  :func:`repro.linalg.svd.truncated_svd`'s ``engine_options`` errors.

A knob stays only while it wins on some measured workload; one that
never wins is deleted rather than left off by default (the
measurements are in ``docs/SERVING.md``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.serving.engine import COMPUTE_DTYPES
from repro.utils.validation import check_fraction, check_non_negative_int, \
    check_positive_int

__all__ = ["ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """Every serving-time policy knob, in one frozen value.

    Attributes:
        dtype: compute precision for scoring — ``None`` (default)
            means float64 for new indexes and the persisted
            ``compute_dtype`` when loading a bundle; ``"float32"``
            opts into single-precision GEMMs (agreement measured, not
            assumed — see :mod:`repro.serving.engine`).
        mmap: load bundles by memory-mapping the large arrays
            read-only (the O(manifest) cold start) instead of reading
            them eagerly.  Ignored for indexes built in memory.
        cache_capacity: LRU result-cache size per index/shard
            (0 disables caching).
        drift_threshold: fold-in drift past which a refit is
            recommended (``None`` disables the recommendation).
            Loading a bundle keeps the bundle's persisted threshold.
        max_batch: dispatcher queue depth that forces a flush — the
            largest micro-batch the dispatcher will coalesce.
        max_wait_ms: longest a queued query may wait for co-riders
            before the dispatcher flushes anyway (0 = flush on every
            submit).
        stream_block_size: column width of the blocks the streaming
            fit (``ServedIndex.fit_streamed``) and the incremental
            ``refit()`` merge decompose at a time — the knob that
            bounds out-of-core peak memory.
        stream_oversample: working-rank headroom carried through the
            incremental merges (more headroom, less truncation error).
        stream_polish: power-iteration polish rounds after a streamed
            fit of a re-readable matrix (0 disables; one-shot block
            streams cannot be polished).
    """

    dtype: "str | None" = None
    mmap: bool = False
    cache_capacity: int = 256
    drift_threshold: "float | None" = 0.1
    max_batch: int = 32
    max_wait_ms: float = 2.0
    stream_block_size: int = 256
    stream_oversample: int = 8
    stream_polish: int = 0

    def __post_init__(self):
        if self.dtype is not None and self.dtype not in COMPUTE_DTYPES:
            raise ValidationError(
                f"ServingConfig.dtype must be None or one of "
                f"{COMPUTE_DTYPES}, got {self.dtype!r}")
        check_non_negative_int(self.cache_capacity, "cache_capacity")
        if self.drift_threshold is not None:
            check_fraction(self.drift_threshold, "drift_threshold")
        check_positive_int(self.max_batch, "max_batch")
        if not isinstance(self.max_wait_ms, (int, float)) \
                or isinstance(self.max_wait_ms, bool) \
                or self.max_wait_ms < 0:
            raise ValidationError(
                f"ServingConfig.max_wait_ms must be a non-negative "
                f"number, got {self.max_wait_ms!r}")
        check_positive_int(self.stream_block_size, "stream_block_size")
        check_non_negative_int(self.stream_oversample,
                               "stream_oversample")
        check_non_negative_int(self.stream_polish, "stream_polish")

    def merged(self, **overrides) -> "ServingConfig":
        """A copy with ``overrides`` applied.

        Raises:
            ValidationError: on an unknown field (the message lists
                the valid ones) or an invalid value.
        """
        if not overrides:
            return self
        valid = [field.name for field in dataclasses.fields(self)]
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            raise ValidationError(
                f"unknown field(s) {unknown} for ServingConfig.merged; "
                f"valid fields are {valid}")
        return dataclasses.replace(self, **overrides)
