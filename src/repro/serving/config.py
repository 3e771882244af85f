"""One frozen configuration object for the whole serving stack.

The serving layer grew its knobs one at a time: ``ServedIndex`` took
``cache_capacity=...``; ``load`` added ``mmap=...`` on top.
:class:`ServingConfig` collapses them into a single frozen dataclass
accepted by :class:`~repro.serving.index.ServedIndex`:

- one object describes caching, cold-start, drift and streaming-fit
  policy;
- ``config=`` is the only way in: the entry points take no per-field
  kwargs, so a stray ``cache_capacity=4`` is a :class:`TypeError`
  rather than a silently ignored setting;
- :func:`dataclasses.replace` derives a variant: ``__post_init__``
  validates every value again, and an unknown field is a
  :class:`TypeError`.

A knob stays only while it wins on some measured workload; one that
never wins is deleted rather than left off by default (the
measurements are in ``docs/SERVING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.utils.validation import check_fraction, check_non_negative_int, \
    check_positive_int

__all__ = ["ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """Every serving-time policy knob, in one frozen value.

    Attributes:
        mmap: load bundles by memory-mapping the large arrays
            read-only (the O(manifest) cold start) instead of reading
            them eagerly.  Ignored for indexes built in memory.
        cache_capacity: LRU result-cache size per index (0 disables
            caching).
        drift_threshold: fold-in drift past which a refit is
            recommended (``None`` disables the recommendation).
            Loading a bundle keeps the bundle's persisted threshold.
        stream_block_size: column width of the blocks the streaming
            fit (``ServedIndex.fit_streamed``) and the incremental
            ``refit()`` merge decompose at a time — the knob that
            bounds out-of-core peak memory.
        stream_oversample: working-rank headroom carried through the
            incremental merges (more headroom, less truncation error).
    """

    mmap: bool = False
    cache_capacity: int = 256
    drift_threshold: "float | None" = 0.1
    stream_block_size: int = 256
    stream_oversample: int = 8

    def __post_init__(self):
        if not isinstance(self.mmap, bool):
            raise ValidationError(
                f"mmap must be True or False, got {self.mmap!r}")
        check_non_negative_int(self.cache_capacity, "cache_capacity")
        if self.drift_threshold is not None:
            check_fraction(self.drift_threshold, "drift_threshold")
        check_positive_int(self.stream_block_size, "stream_block_size")
        check_non_negative_int(self.stream_oversample,
                               "stream_oversample")
