"""Micro-batching in front of a served index.

The batched kernel (:mod:`repro.serving.engine`) amortises projection
and normalisation across a whole query block, but callers arrive one
query at a time.  :class:`MicroBatchDispatcher` closes that gap: each
:meth:`~MicroBatchDispatcher.submit` enqueues one query and returns a
:class:`concurrent.futures.Future`; a background flusher coalesces the
queue into :class:`~repro.serving.engine.QueryBatch` blocks and ranks
them through the underlying index (a
:class:`~repro.serving.index.ServedIndex`, or anything with
``rank_batch`` and a ``generation``).  Callers may keep querying that
index directly while the flusher ranks through it.

The flusher never waits for co-riders.  It ranks whatever queued while
it was ranking the previous flush, at most :data:`_MAX_FLUSH` queries
at a time, so a lone query flushes at once and queries batch only when
they arrive faster than the index ranks them (the measurements behind
that policy are in ``docs/SERVING.md``).

Queries flush in arrival order, grouped by requested ``top_k`` (a
block shares one cutoff).  Each query is validated once, on its nonzero
terms, when it is submitted; a flush joins the submitted one-query
batches without checking them again.  Within a flush, identical
submissions — same term ids and weights, same cutoff, same index
generation, detected with the shared
:class:`~repro.serving.engine.CacheKey` — collapse into one
computed row fanned out to every waiting future.  Mutations to the
underlying index bump its ``generation``, which both ends the
collapse window for stale duplicates and (inside the index) invalidates
its LRU entries, so a dispatcher never serves a pre-mutation ranking
for a post-mutation submission flushed after the bump.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.errors import DispatcherClosedError, ValidationError
from repro.serving.engine import CacheKey, QueryBatch
from repro.utils.validation import check_top_k

__all__ = ["DispatchStats", "MicroBatchDispatcher"]

#: The most queries one flush ranks, so a burst never builds an
#: unbounded block.
_MAX_FLUSH = 32


@dataclass(frozen=True)
class DispatchStats:
    """Counters describing a dispatcher's batching behaviour.

    Attributes:
        submitted: queries accepted by ``submit``.
        completed: queries whose future has been resolved (including
            failures).
        batches: flushes that reached the index.
        coalesced: queries answered by sharing another identical
            query's computed row instead of their own.
    """

    submitted: int = 0
    completed: int = 0
    batches: int = 0
    coalesced: int = 0


class _Pending:
    """One queued query, as a validated one-query batch, awaiting a
    flush."""

    __slots__ = ("batch", "top_k", "future")

    def __init__(self, batch: QueryBatch, top_k: "int | None",
                 future: "Future[np.ndarray]"):
        self.batch = batch
        self.top_k = top_k
        self.future = future


class MicroBatchDispatcher:
    """Coalesce single-query submissions into batched index calls.

    Args:
        index: the index to rank against — any object with
            ``rank_batch(queries, top_k=...)``, ``generation``,
            ``n_terms``, and ``n_documents``, such as
            :class:`~repro.serving.index.ServedIndex`.
    """

    def __init__(self, index):
        self._index = index
        self._cond = threading.Condition()
        self._queue: "list[_Pending]" = []
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._batches = 0
        self._coalesced = 0
        self._worker = threading.Thread(
            target=self._run, name="repro-dispatch", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def submit(self, query_vector, *, top_k=None
               ) -> "Future[np.ndarray]":
        """Enqueue one query; the future resolves to its ranked ids.

        Validation failures (wrong term space, bad cutoff) raise here
        in the caller's thread; failures during the batched
        computation propagate through the future instead.

        Args:
            query_vector: a 1-D term-space query.
            top_k: cutoff policy, normalised exactly as the index
                normalises it (``None`` = all).

        Raises:
            ValidationError: if the query is not a finite 1-D vector
                in the index's term space, or ``top_k`` is not a
                usable cutoff.
            DispatcherClosedError: if :meth:`close` already ran.
        """
        query = QueryBatch.from_vector(query_vector)
        if query.n_terms != self._index.n_terms:
            raise ValidationError(
                f"query has {query.n_terms} terms; the index "
                f"expects {self._index.n_terms}")
        if top_k is not None:
            top_k = check_top_k(top_k, self._index.n_documents)
        future: "Future[np.ndarray]" = Future()
        with self._cond:
            if self._closed:
                raise DispatcherClosedError(
                    "dispatcher is closed; no further queries "
                    "accepted")
            self._queue.append(_Pending(query, top_k, future))
            self._submitted += 1
            self._cond.notify_all()
        return future

    def stats(self) -> DispatchStats:
        """A consistent snapshot of the batching counters."""
        with self._cond:
            return DispatchStats(
                submitted=self._submitted,
                completed=self._completed,
                batches=self._batches,
                coalesced=self._coalesced)

    def close(self) -> None:
        """Flush everything still queued, then stop (idempotent).

        Queries submitted before ``close`` all resolve; submissions
        after it raise :class:`~repro.errors.DispatcherClosedError`.
        """
        with self._cond:
            if self._closed:
                already_stopped = not self._worker.is_alive()
            else:
                self._closed = True
                already_stopped = False
            self._cond.notify_all()
        if not already_stopped:
            self._worker.join()

    def __enter__(self) -> "MicroBatchDispatcher":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------

    def _run(self) -> None:
        """Background loop: wait for work, take a flush, run it."""
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                group = self._take_group_locked()
            self._flush(group)

    def _take_group_locked(self) -> "list[_Pending]":
        """Pop the next flush: up to :data:`_MAX_FLUSH` queries with
        the head's ``top_k``.

        Caller holds the lock.  Queries with a different cutoff, and
        any past the limit, stay queued in order.
        """
        head_top_k = self._queue[0].top_k
        group = []
        rest = []
        for pending in self._queue:
            if pending.top_k == head_top_k and len(group) < _MAX_FLUSH:
                group.append(pending)
            else:
                rest.append(pending)
        self._queue = rest
        return group

    def _flush(self, group: "list[_Pending]") -> None:
        """Rank one coalesced group and resolve its futures.

        The submitted batches are joined, not checked again.  Identical
        (generation, terms, cutoff) submissions — keyed with the shared
        :class:`CacheKey` — compute once; every exception lands on the
        affected futures, never the flusher thread.
        """
        membership: "list[int]" = []
        try:
            batch = QueryBatch.concat(p.batch for p in group)
            generation = int(self._index.generation)
            top_k = group[0].top_k
            key_top_k = -1 if top_k is None else top_k
            unique: "dict[CacheKey, int]" = {}
            firsts = []
            for i in range(len(group)):
                key = CacheKey(generation, batch.query_hash(i), key_top_k)
                if key not in unique:
                    unique[key] = len(unique)
                    firsts.append(i)
                membership.append(unique[key])
            rankings = self._index.rank_batch(batch.select(firsts),
                                              top_k=top_k)
            for pending, m in zip(group, membership):
                pending.future.set_result(rankings[m].copy())
        except BaseException as error:  # reprolint: disable=R005 — futures carry it
            for pending in group:
                if not pending.future.done():
                    pending.future.set_exception(error)
        with self._cond:
            self._batches += 1
            self._completed += len(group)
            self._coalesced += max(0, len(group) - len(set(membership)))
