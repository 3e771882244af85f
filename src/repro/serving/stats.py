"""Per-index service counters surfaced by ``repro serve-stats``.

A production index is only operable if you can see what it is doing:
how much traffic it served, how often the result cache saved a GEMM,
and how far the folded-in document stream has drifted the LSI subspace
from its fitted state.  :class:`ServingStats` is the immutable snapshot
of those counters that :meth:`repro.serving.index.ServedIndex.stats`
returns, the bundle manifest persists, and the CLI renders.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["ServingStats"]


@dataclass(frozen=True)
class ServingStats:
    """A point-in-time snapshot of one served index's counters.

    Attributes:
        queries_served: total queries scored (batch members count
            individually).
        batches_served: number of batched-query calls.
        cache_hits: rankings answered from the LRU result cache.
        cache_misses: rankings that had to be computed.
        cache_evictions: cache entries dropped to respect capacity.
        fold_ins_since_refit: documents added by folding since the last
            (re)fit.
        deletes_since_refit: documents tombstoned since the last (re)fit.
        refits: times the index was refit, incrementally or from a
            full matrix.
        drift: current residual-energy drift in ``[0, 1)`` (see
            :class:`repro.serving.writer.IndexWriter`).
        refit_recommended: whether ``drift`` has crossed the index's
            configured threshold.
    """

    queries_served: int = 0
    batches_served: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    fold_ins_since_refit: int = 0
    deletes_since_refit: int = 0
    refits: int = 0
    drift: float = 0.0
    refit_recommended: bool = False

    @property
    def cache_hit_rate(self) -> float:
        """Hits over lookups, 0.0 when the cache was never consulted."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-ready mapping (persisted in the bundle manifest)."""
        payload = asdict(self)
        payload["cache_hit_rate"] = self.cache_hit_rate
        return payload

    @classmethod
    def from_dict(cls, payload) -> "ServingStats":
        """Rebuild a snapshot from :meth:`as_dict` output.

        Unknown keys are ignored so newer manifests load under older
        readers; missing keys fall back to the zero defaults so
        manifests written before a counter existed load too.
        """
        fields = {name: payload[name]
                  for name in cls.__dataclass_fields__
                  if name in payload}
        return cls(**fields)
