"""Latency-bounded micro-batching in front of a served index.

The batched kernel (:mod:`repro.serving.engine`) amortises projection
and normalisation across a whole query block, but callers arrive one
query at a time.  :class:`MicroBatchDispatcher` closes that gap: each
:meth:`~MicroBatchDispatcher.submit` enqueues one query and returns a
:class:`concurrent.futures.Future`; a background flusher coalesces the
queue into :class:`~repro.serving.engine.QueryBatch` blocks and ranks
them through the underlying index (a
:class:`~repro.serving.index.ServedIndex`, or anything with
``rank_batch`` and a ``generation``).  Callers may keep querying that
index directly while the flusher ranks through it, so the index's
result cache takes a lock and its engine keeps per-thread scratch
buffers.

Two knobs bound the trade (both live on
:class:`~repro.serving.config.ServingConfig`):

- ``max_batch`` — a flush fires as soon as this many queries wait, so
  a burst never builds an unboundedly large GEMM;
- ``max_wait_ms`` — the longest any query may wait for co-riders
  before the flusher runs with whatever it has (0 = flush on every
  submit; batching then only happens when queries arrive faster than
  the index ranks them).

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
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.errors import DispatcherClosedError, ValidationError
from repro.serving.config import ServingConfig
from repro.serving.engine import CacheKey, QueryBatch
from repro.utils.validation import check_top_k

__all__ = ["DispatchStats", "MicroBatchDispatcher"]


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
        size_flushes: flushes triggered by the queue reaching
            ``max_batch``.
        timeout_flushes: flushes triggered by the ``max_wait_ms``
            deadline.
        close_flushes: flushes triggered by :meth:`close` draining
            the queue.
    """

    submitted: int = 0
    completed: int = 0
    batches: int = 0
    coalesced: int = 0
    size_flushes: int = 0
    timeout_flushes: int = 0
    close_flushes: int = 0


class _Pending:
    """One queued query, as a validated one-query batch, awaiting a
    flush."""

    __slots__ = ("batch", "top_k", "future", "enqueued")

    def __init__(self, batch: QueryBatch, top_k: "int | None",
                 future: "Future[np.ndarray]", enqueued: float):
        self.batch = batch
        self.top_k = top_k
        self.future = future
        self.enqueued = enqueued


class MicroBatchDispatcher:
    """Coalesce single-query submissions into batched index calls.

    Args:
        index: the index to rank against — any object with
            ``rank_batch(queries, top_k=...)``, ``generation``,
            ``n_terms``, and ``n_documents``, such as
            :class:`~repro.serving.index.ServedIndex`.
        config: the :class:`~repro.serving.config.ServingConfig`
            supplying ``max_batch`` and ``max_wait_ms`` (``None`` =
            the index's own config when it has one, else defaults).
    """

    def __init__(self, index, *,
                 config: "ServingConfig | None" = None):
        if config is None:
            config = getattr(index, "config", None) or ServingConfig()
        self._index = index
        self._config = config
        self._max_batch = config.max_batch
        self._max_wait = config.max_wait_ms / 1000.0
        self._cond = threading.Condition()
        self._queue: "list[_Pending]" = []
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._batches = 0
        self._coalesced = 0
        self._size_flushes = 0
        self._timeout_flushes = 0
        self._close_flushes = 0
        self._worker = threading.Thread(
            target=self._run, name="repro-dispatch", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def config(self) -> ServingConfig:
        """The serving policy the dispatcher batches under."""
        return self._config

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
            self._queue.append(_Pending(query, top_k, future,
                                        time.monotonic()))
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
                coalesced=self._coalesced,
                size_flushes=self._size_flushes,
                timeout_flushes=self._timeout_flushes,
                close_flushes=self._close_flushes)

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
        """Background loop: wait for work, pick a flush, run it."""
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                # Wait out the batching window: until the head's
                # deadline, an early size trigger, or close.
                while True:
                    if self._closed \
                            or len(self._queue) >= self._max_batch:
                        break
                    now = time.monotonic()
                    deadline = self._queue[0].enqueued \
                        + self._max_wait
                    if now >= deadline:
                        break
                    self._cond.wait(timeout=deadline - now)
                group, reason = self._take_group_locked()
            self._flush(group, reason)

    def _take_group_locked(self) -> "tuple[list[_Pending], str]":
        """Pop the next flushable group (same ``top_k`` as the head).

        Caller holds the lock.  Queries with a different cutoff stay
        queued in order and keep their own deadlines.
        """
        head_top_k = self._queue[0].top_k
        group = []
        rest = []
        for pending in self._queue:
            if pending.top_k == head_top_k \
                    and len(group) < self._max_batch:
                group.append(pending)
            else:
                rest.append(pending)
        self._queue = rest
        if len(group) >= self._max_batch:
            reason = "size"
        elif self._closed:
            reason = "close"
        else:
            reason = "timeout"
        return group, reason

    def _flush(self, group: "list[_Pending]", reason: str) -> None:
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
                key = CacheKey.for_query(generation, batch, i, key_top_k)
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
            if reason == "size":
                self._size_flushes += 1
            elif reason == "close":
                self._close_flushes += 1
            else:
                self._timeout_flushes += 1
