"""Tests for ServingConfig, the removed serving surface, CacheKey and
the micro-batching dispatcher."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.core.lsi import LSIModel
from repro.errors import DispatcherClosedError, ValidationError
from repro.linalg.dense import normalize_columns
from repro.serving import (
    BatchQueryEngine,
    CacheKey,
    DispatchStats,
    MicroBatchDispatcher,
    QueryBatch,
    ServedIndex,
    ServingConfig,
)
from repro.serving.dispatch import _MAX_FLUSH


@pytest.fixture
def dense_matrix(rng):
    """A dense continuous term-document matrix (no tied scores)."""
    return rng.random((30, 24)) + 0.05


@pytest.fixture
def model(dense_matrix):
    """A rank-4 LSI model over ``dense_matrix``."""
    return LSIModel.fit(dense_matrix, 4, engine="exact")


@pytest.fixture
def served(model):
    """A served index over ``model``."""
    return ServedIndex(model)


@pytest.fixture
def queries(rng):
    """A block of integer-valued term-space queries."""
    return rng.integers(0, 3, size=(30, 6)).astype(np.float64)


# ----------------------------------------------------------------------
# ServingConfig
# ----------------------------------------------------------------------


class TestServingConfig:
    def test_defaults(self):
        config = ServingConfig()
        assert config.mmap is False
        assert config.cache_capacity == 256
        assert config.drift_threshold == 0.1
        assert config.stream_block_size == 256
        assert config.stream_oversample == 8

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServingConfig().cache_capacity = 0

    @pytest.mark.parametrize("fields", [
        {"stream_block_size": 0},
        {"stream_block_size": True},
        {"cache_capacity": -1},
        {"cache_capacity": 4.0},
        {"stream_oversample": "8"},
        {"stream_oversample": -1},
        {"drift_threshold": 2.0},
        # Not numbers: each used to be converted or stored as given.
        {"drift_threshold": "abc"},
        {"drift_threshold": True},
        {"drift_threshold": "0.5"},
    ])
    def test_bad_values_raise(self, fields):
        with pytest.raises(ValidationError):
            ServingConfig(**fields)

    def test_fields_are_the_five_policy_knobs(self):
        assert tuple(f.name for f in dataclasses.fields(ServingConfig)) \
            == ("mmap", "cache_capacity", "drift_threshold",
                "stream_block_size", "stream_oversample")


def _saved_bundle(model, tmp_path):
    return ServedIndex(model).save(tmp_path / "bundle")


class TestRemovedSurface:
    """Deleted options and the expired kwargs shim fail loudly.

    Each call here used to be accepted, or accepted with a
    ``DeprecationWarning``; now a serving field passed anywhere but
    ``config=`` is an error instead of a silently honoured setting.
    """

    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda model, matrix, tmp_path:
                     ServedIndex(model, cache_capacity=4),
                     TypeError, "cache_capacity", id="served-index-kwarg"),
        pytest.param(lambda model, matrix, tmp_path:
                     ServedIndex.load(_saved_bundle(model, tmp_path),
                                      mmap=True),
                     TypeError, "mmap", id="load-kwarg"),
        pytest.param(lambda model, matrix, tmp_path:
                     MicroBatchDispatcher(ServedIndex(model),
                                          max_batch=4),
                     TypeError, "max_batch", id="dispatcher-kwarg"),
        pytest.param(lambda model, matrix, tmp_path:
                     ServingConfig(pool="thread"),
                     TypeError, "pool", id="config-pool"),
        pytest.param(lambda model, matrix, tmp_path:
                     ServingConfig(max_workers=2),
                     TypeError, "max_workers", id="config-max-workers"),
        pytest.param(lambda model, matrix, tmp_path:
                     ServingConfig(dtype="float32"),
                     TypeError, "dtype", id="config-dtype"),
        pytest.param(lambda model, matrix, tmp_path:
                     ServingConfig(max_batch=32),
                     TypeError, "max_batch", id="config-max-batch"),
        pytest.param(lambda model, matrix, tmp_path:
                     ServingConfig(max_wait_ms=2.0),
                     TypeError, "max_wait_ms", id="config-max-wait-ms"),
        pytest.param(lambda model, matrix, tmp_path:
                     MicroBatchDispatcher(ServedIndex(model),
                                          config=ServingConfig()),
                     TypeError, "config", id="dispatcher-config"),
        pytest.param(lambda model, matrix, tmp_path:
                     BatchQueryEngine(
                         model.term_basis,
                         *normalize_columns(model.document_vectors()),
                         dtype="float32"),
                     TypeError, "dtype", id="engine-dtype"),
        # fit forwards its extra kwargs to the SVD engine, whose
        # option check names the stray serving field.
        pytest.param(lambda model, matrix, tmp_path:
                     ServedIndex.fit(matrix, 4, cache_capacity=4),
                     ValidationError, "unknown option.*cache_capacity",
                     id="fit-kwarg"),
    ])
    def test_removed_call_raises(self, model, dense_matrix, tmp_path,
                                 call, error, match):
        with pytest.raises(error, match=match):
            call(model, dense_matrix, tmp_path)


class TestCacheKey:
    def test_same_query_same_key(self, queries):
        batch = QueryBatch(queries)
        dup = QueryBatch(queries.copy())
        assert CacheKey(3, batch.query_hash(1), 5) \
            == CacheKey(3, dup.query_hash(1), 5)

    def test_kind_and_generation_never_alias(self, queries):
        batch = QueryBatch(queries)
        base = CacheKey(3, batch.query_hash(0), 5)
        assert base != CacheKey(4, batch.query_hash(0), 5)


# ----------------------------------------------------------------------
# MicroBatchDispatcher
# ----------------------------------------------------------------------


class _GatedIndex:
    """A served index whose first ``rank_batch`` waits for ``release``.

    While the flusher waits there, the test queues submissions behind
    that flush and knows exactly which flush each one rides.
    """

    def __init__(self, index):
        self._index = index
        self.n_terms = index.n_terms
        self.n_documents = index.n_documents
        self.generation = index.generation
        self.entered = threading.Event()
        self.release = threading.Event()
        self.widths = []

    def rank_batch(self, queries, *, top_k=None):
        self.widths.append(queries.n_queries)
        if len(self.widths) == 1:
            self.entered.set()
            if not self.release.wait(timeout=10):
                raise TimeoutError("the test never released the gate")
        return self._index.rank_batch(queries, top_k=top_k)


class TestMicroBatchDispatcher:
    def test_results_match_direct_ranking(self, served, queries):
        with MicroBatchDispatcher(served) as dispatcher:
            futures = [dispatcher.submit(queries[:, i], top_k=3)
                       for i in range(queries.shape[1])]
            results = [f.result(timeout=10) for f in futures]
        for i, ranking in enumerate(results):
            assert np.array_equal(
                ranking, served.rank_documents(queries[:, i],
                                               top_k=3))

    def test_lone_submit_flushes_without_waiting(self, served,
                                                 queries):
        with MicroBatchDispatcher(served) as dispatcher:
            ranking = dispatcher.submit(queries[:, 0],
                                        top_k=2).result(timeout=10)
        assert np.array_equal(
            ranking, served.rank_documents(queries[:, 0], top_k=2))
        assert dispatcher.stats() == DispatchStats(
            submitted=1, completed=1, batches=1, coalesced=0)

    def test_identical_queries_coalesce_in_one_flush(self, served,
                                                     queries):
        gated = _GatedIndex(served)
        with MicroBatchDispatcher(gated) as dispatcher:
            first = dispatcher.submit(queries[:, 1], top_k=2)
            assert gated.entered.wait(timeout=10)
            # Queued while the flusher ranks ``first``: one flush.
            futures = [dispatcher.submit(queries[:, 0], top_k=2)
                       for _ in range(4)]
            gated.release.set()
            rows = [f.result(timeout=10) for f in futures]
            first.result(timeout=10)
        assert dispatcher.stats() == DispatchStats(
            submitted=5, completed=5, batches=2, coalesced=3)
        assert gated.widths == [1, 1]
        assert all(np.array_equal(rows[0], row) for row in rows[1:])
        assert np.array_equal(
            rows[0], served.rank_documents(queries[:, 0], top_k=2))

    def test_mixed_top_k_groups_flush_separately(self, served,
                                                 queries):
        with MicroBatchDispatcher(served) as dispatcher:
            narrow = dispatcher.submit(queries[:, 0], top_k=2)
            wide = dispatcher.submit(queries[:, 1], top_k=5)
            assert narrow.result(timeout=10).size == 2
            assert wide.result(timeout=10).size == 5
        assert dispatcher.stats().batches == 2

    def test_burst_splits_at_the_flush_limit(self, served, rng):
        gated = _GatedIndex(served)
        burst = rng.random((served.n_terms, _MAX_FLUSH + 8))
        with MicroBatchDispatcher(gated) as dispatcher:
            first = dispatcher.submit(burst[:, 0], top_k=2)
            assert gated.entered.wait(timeout=10)
            futures = [dispatcher.submit(burst[:, i], top_k=2)
                       for i in range(1, burst.shape[1])]
            gated.release.set()
            first.result(timeout=10)
            rows = [f.result(timeout=10) for f in futures]
        assert gated.widths == [1, _MAX_FLUSH, 7]
        for i, row in enumerate(rows, start=1):
            assert np.array_equal(
                row, served.rank_documents(burst[:, i], top_k=2))

    def test_close_drains_queue_then_rejects(self, served, queries):
        gated = _GatedIndex(served)
        dispatcher = MicroBatchDispatcher(gated)
        futures = [dispatcher.submit(queries[:, 0], top_k=2)]
        assert gated.entered.wait(timeout=10)
        futures += [dispatcher.submit(queries[:, i], top_k=2)
                    for i in (1, 2, 3)]
        closer = threading.Thread(target=dispatcher.close)
        closer.start()
        deadline = time.monotonic() + 10
        while not dispatcher._closed and time.monotonic() < deadline:
            time.sleep(0.001)
        # Closed while three queries wait behind the running flush.
        with pytest.raises(DispatcherClosedError):
            dispatcher.submit(queries[:, 0])
        gated.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        dispatcher.close()  # idempotent
        for i, future in enumerate(futures):
            assert np.array_equal(
                future.result(timeout=0),
                served.rank_documents(queries[:, i], top_k=2))
        assert dispatcher.stats() == DispatchStats(
            submitted=4, completed=4, batches=2, coalesced=0)
        assert gated.widths == [1, 3]

    def test_validation_failures_raise_in_caller(self, served):
        with MicroBatchDispatcher(served) as dispatcher:
            with pytest.raises(ValidationError, match="terms"):
                dispatcher.submit(np.ones(7))
            with pytest.raises(ValidationError):
                dispatcher.submit(np.ones(30), top_k=-1)

    def test_index_failures_propagate_through_future(self, served):
        class Exploding:
            n_terms = served.n_terms
            n_documents = served.n_documents
            generation = 0

            def rank_batch(self, queries, *, top_k=None):
                raise RuntimeError("index on fire")

        with MicroBatchDispatcher(Exploding()) as dispatcher:
            future = dispatcher.submit(np.ones(served.n_terms))
            with pytest.raises(RuntimeError, match="on fire"):
                future.result(timeout=10)

    def test_generation_bump_invalidates_coalescing(self, model, rng,
                                                    queries):
        index = ServedIndex(model)
        with MicroBatchDispatcher(index) as dispatcher:
            before = dispatcher.submit(queries[:, 0],
                                       top_k=None).result(timeout=10)
            index.add_documents(rng.random((30, 2)))
            after = dispatcher.submit(queries[:, 0],
                                      top_k=None).result(timeout=10)
        assert before.size == 24 and after.size == 26
        assert np.array_equal(
            after, index.rank_documents(queries[:, 0]))

    def test_concurrent_writer_never_yields_stale_rows(self, model,
                                                       rng, queries):
        index = ServedIndex(model)
        stop = threading.Event()

        def writer_loop():
            while not stop.is_set():
                index.add_documents(rng.random((30, 1)))

        writer = threading.Thread(target=writer_loop)
        writer.start()
        try:
            with MicroBatchDispatcher(index) as dispatcher:
                futures = [dispatcher.submit(queries[:, i % 6],
                                             top_k=3)
                           for i in range(32)]
                results = [f.result(timeout=30) for f in futures]
        finally:
            stop.set()
            writer.join()
        # Every resolved ranking is a valid top-3 over ids that
        # existed at some point; ids never exceed the final corpus.
        for ranking in results:
            assert ranking.size == 3
            assert np.all(ranking < index.n_documents)
