"""Tests for ServingConfig, the removed serving surface, CacheKey and
the micro-batching dispatcher."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.core.lsi import LSIModel
from repro.errors import DispatcherClosedError, ValidationError
from repro.linalg.dense import normalize_columns
from repro.serving import (
    BatchQueryEngine,
    CacheKey,
    MicroBatchDispatcher,
    QueryBatch,
    ServedIndex,
    ServingConfig,
)


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
        assert config.max_batch == 32 and config.max_wait_ms == 2.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServingConfig().cache_capacity = 0

    @pytest.mark.parametrize("fields", [
        {"stream_block_size": 0},
        {"max_wait_ms": True},
        {"cache_capacity": -1},
        {"max_batch": 0},
        {"max_wait_ms": -1.0},
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

    def test_fields_are_the_seven_policy_knobs(self):
        assert tuple(f.name for f in dataclasses.fields(ServingConfig)) \
            == ("mmap", "cache_capacity", "drift_threshold",
                "max_batch", "max_wait_ms", "stream_block_size",
                "stream_oversample")


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
        assert CacheKey.for_query(3, batch, 1, 5) \
            == CacheKey.for_query(3, dup, 1, 5)

    def test_kind_and_generation_never_alias(self, queries):
        batch = QueryBatch(queries)
        base = CacheKey.for_query(3, batch, 0, 5)
        assert base != CacheKey.for_query(4, batch, 0, 5)


# ----------------------------------------------------------------------
# MicroBatchDispatcher
# ----------------------------------------------------------------------


class TestMicroBatchDispatcher:
    def test_results_match_direct_ranking(self, served, queries):
        config = ServingConfig(max_batch=4, max_wait_ms=1.0)
        with MicroBatchDispatcher(served, config=config) as dispatcher:
            futures = [dispatcher.submit(queries[:, i], top_k=3)
                       for i in range(queries.shape[1])]
            results = [f.result(timeout=10) for f in futures]
        for i, ranking in enumerate(results):
            assert np.array_equal(
                ranking, served.rank_documents(queries[:, i],
                                               top_k=3))

    def test_size_trigger_flushes_before_deadline(self, served,
                                                  queries):
        config = ServingConfig(max_batch=3, max_wait_ms=60_000.0)
        with MicroBatchDispatcher(served, config=config) as dispatcher:
            futures = [dispatcher.submit(queries[:, i % 6], top_k=2)
                       for i in range(3)]
            for future in futures:
                future.result(timeout=10)
            stats = dispatcher.stats()
        assert stats.size_flushes >= 1
        assert stats.timeout_flushes == 0

    def test_deadline_flushes_partial_batch(self, served, queries):
        config = ServingConfig(max_batch=64, max_wait_ms=5.0)
        with MicroBatchDispatcher(served, config=config) as dispatcher:
            future = dispatcher.submit(queries[:, 0], top_k=2)
            ranking = future.result(timeout=10)
            stats = dispatcher.stats()
        assert np.array_equal(
            ranking, served.rank_documents(queries[:, 0], top_k=2))
        assert stats.timeout_flushes >= 1

    def test_identical_queries_coalesce_in_one_flush(self, served,
                                                     queries):
        config = ServingConfig(max_batch=4, max_wait_ms=60_000.0)
        with MicroBatchDispatcher(served, config=config) as dispatcher:
            futures = [dispatcher.submit(queries[:, 0], top_k=2)
                       for _ in range(4)]
            rows = [f.result(timeout=10) for f in futures]
            stats = dispatcher.stats()
        assert stats.coalesced == 3
        assert all(np.array_equal(rows[0], row) for row in rows[1:])

    def test_mixed_top_k_groups_flush_separately(self, served,
                                                 queries):
        config = ServingConfig(max_batch=8, max_wait_ms=1.0)
        with MicroBatchDispatcher(served, config=config) as dispatcher:
            narrow = dispatcher.submit(queries[:, 0], top_k=2)
            wide = dispatcher.submit(queries[:, 1], top_k=5)
            assert narrow.result(timeout=10).size == 2
            assert wide.result(timeout=10).size == 5
            stats = dispatcher.stats()
        assert stats.batches >= 2

    def test_close_drains_queue_then_rejects(self, served, queries):
        config = ServingConfig(max_batch=64, max_wait_ms=60_000.0)
        dispatcher = MicroBatchDispatcher(served, config=config)
        future = dispatcher.submit(queries[:, 0], top_k=2)
        dispatcher.close()
        dispatcher.close()  # idempotent
        assert future.result(timeout=10).size == 2
        assert dispatcher.stats().close_flushes >= 1
        with pytest.raises(DispatcherClosedError):
            dispatcher.submit(queries[:, 0])

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
            config = None

            def rank_batch(self, queries, *, top_k=None):
                raise RuntimeError("index on fire")

        config = ServingConfig(max_batch=4, max_wait_ms=1.0)
        with MicroBatchDispatcher(Exploding(),
                                  config=config) as dispatcher:
            future = dispatcher.submit(np.ones(served.n_terms))
            with pytest.raises(RuntimeError, match="on fire"):
                future.result(timeout=10)

    def test_inherits_index_config(self, model):
        index = ServedIndex(
            model, config=ServingConfig(max_batch=7))
        with MicroBatchDispatcher(index) as dispatcher:
            assert dispatcher.config.max_batch == 7

    def test_generation_bump_invalidates_coalescing(self, model, rng,
                                                    queries):
        index = ServedIndex(model)
        config = ServingConfig(max_batch=64, max_wait_ms=0.0)
        with MicroBatchDispatcher(index, config=config) as dispatcher:
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
        config = ServingConfig(max_batch=4, max_wait_ms=0.5)
        stop = threading.Event()

        def writer_loop():
            while not stop.is_set():
                index.add_documents(rng.random((30, 1)))

        writer = threading.Thread(target=writer_loop)
        writer.start()
        try:
            with MicroBatchDispatcher(index,
                                      config=config) as dispatcher:
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
