"""Tests for ServingConfig, ShardedIndex, and the micro-batcher.

Every ``ShardedIndex`` here fans out through its thread pool, the only
fan-out it has, and each one is closed by its ``with`` block.
"""

import dataclasses
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lsi import LSIModel
from repro.errors import (
    DispatcherClosedError,
    PersistenceError,
    ValidationError,
)
from repro.ir.retriever import Retriever
from repro.serving import (
    ASSIGNMENTS,
    CacheKey,
    LRUResultCache,
    MicroBatchDispatcher,
    QueryBatch,
    ServedIndex,
    ServingConfig,
    ShardManifest,
    ShardedIndex,
    is_sharded_bundle,
    read_sharded_manifest,
    shard_document_ids,
)
from repro.serving.sharded import SHARDED_MANIFEST_NAME


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
    """The unsharded reference index."""
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
        assert config.dtype is None and config.mmap is False
        assert config.cache_capacity == 256
        assert config.max_batch == 32 and config.max_wait_ms == 2.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServingConfig().cache_capacity = 0

    @pytest.mark.parametrize("fields", [
        {"stream_block_size": 0},
        {"dtype": "float16"},
        {"cache_capacity": -1},
        {"max_batch": 0},
        {"max_wait_ms": -1.0},
        {"stream_polish": -1},
        {"drift_threshold": 2.0},
    ])
    def test_bad_values_raise(self, fields):
        with pytest.raises(ValidationError):
            ServingConfig(**fields)

    def test_merged_applies_overrides(self):
        config = ServingConfig(cache_capacity=0)
        assert config.merged() is config
        merged = config.merged(max_batch=8)
        assert merged.max_batch == 8 and merged.cache_capacity == 0
        with pytest.raises(ValidationError):
            config.merged(nope=1)

    def test_merged_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="cache_capacit.*"
                           "valid fields"):
            ServingConfig().merged(cache_capacit=4)

    def test_fields_are_the_nine_policy_knobs(self):
        assert tuple(f.name for f in dataclasses.fields(ServingConfig)) \
            == ("dtype", "mmap", "cache_capacity", "drift_threshold",
                "max_batch", "max_wait_ms", "stream_block_size",
                "stream_oversample", "stream_polish")


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
                     ShardedIndex.shard(model, 2, dtype="float32"),
                     TypeError, "dtype", id="shard-kwarg"),
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
    def test_key_for_is_the_shared_helper(self):
        assert LRUResultCache.key_for == CacheKey.for_query

    def test_same_query_same_key(self, queries):
        batch = QueryBatch(queries)
        dup = QueryBatch(queries.copy())
        assert CacheKey.for_query(3, batch, 1, 5) \
            == CacheKey.for_query(3, dup, 1, 5)

    def test_kind_and_generation_never_alias(self, queries):
        batch = QueryBatch(queries)
        base = CacheKey.for_query(3, batch, 0, 5)
        assert base != CacheKey.for_query(4, batch, 0, 5)
        assert base != CacheKey.for_query(3, batch, 0, 5,
                                          kind="scored")


# ----------------------------------------------------------------------
# Shard layout
# ----------------------------------------------------------------------


class TestShardDocumentIds:
    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_partitions_exactly(self, assignment, n_shards):
        parts = shard_document_ids(11, n_shards, assignment)
        assert len(parts) == n_shards
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(11))
        for ids in parts:
            assert np.all(np.diff(ids) > 0) or ids.size <= 1

    def test_more_shards_than_documents_leaves_empties(self):
        parts = shard_document_ids(2, 5)
        assert sum(ids.size for ids in parts) == 2
        assert any(ids.size == 0 for ids in parts)

    def test_bad_assignment_raises(self):
        with pytest.raises(ValidationError, match="assignment"):
            shard_document_ids(4, 2, "random")


class TestShardManifest:
    def test_round_trip_summary(self):
        manifest = ShardManifest("round_robin",
                                 shard_document_ids(7, 2), ())
        assert manifest.n_shards == 2
        assert manifest.n_documents == 7
        assert manifest.summary()["shard_sizes"] == [4, 3]

    def test_non_ascending_ids_raise(self):
        with pytest.raises(ValidationError, match="ascending"):
            ShardManifest("contiguous", ([1, 0], [2, 3]), ())

    def test_overlap_and_gaps_raise(self):
        with pytest.raises(ValidationError, match="partition"):
            ShardManifest("contiguous", ([0, 1], [1, 2]), ())
        with pytest.raises(ValidationError, match="partition"):
            ShardManifest("contiguous", ([0, 1], [3]), ())

    def test_cursor_out_of_range_raises(self):
        with pytest.raises(ValidationError, match="cursor"):
            ShardManifest("round_robin", shard_document_ids(4, 2),
                          (), cursor=2)

    def test_shard_of_locates_and_rejects_retired(self):
        manifest = ShardManifest("round_robin", ([0, 2], [1]), (3,))
        assert manifest.shard_of(2) == (0, 1)
        assert manifest.shard_of(1) == (1, 0)
        with pytest.raises(ValidationError, match="removed shard"):
            manifest.shard_of(3)
        with pytest.raises(ValidationError, match="out of range"):
            manifest.shard_of(4)


# ----------------------------------------------------------------------
# ShardedIndex: exactness and protocol conformance
# ----------------------------------------------------------------------


class TestShardedExactness:
    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("top_k", [1, 5, None])
    def test_rankings_match_single_index(self, served, queries,
                                         assignment, n_shards,
                                         top_k):
        with ShardedIndex.shard(served, n_shards,
                                assignment=assignment) as sharded:
            assert np.array_equal(
                sharded.rank_batch(queries, top_k=top_k),
                served.rank_batch(queries, top_k=top_k))

    def test_scores_agree_to_rounding(self, served, queries):
        with ShardedIndex.shard(served, 3) as sharded:
            assert np.allclose(sharded.score(queries[:, 0]),
                               served.score(queries[:, 0]),
                               rtol=0, atol=1e-12)

    def test_conforms_to_retriever_protocol(self, served):
        with ShardedIndex.shard(served, 2) as sharded:
            assert isinstance(sharded, Retriever)
            assert sharded.n_documents == served.n_documents
            assert sharded.n_terms == served.n_terms
            assert sharded.rank == served.rank

    def test_rank_documents_single_query(self, served, queries):
        with ShardedIndex.shard(served, 2) as sharded:
            assert np.array_equal(
                sharded.rank_documents(queries[:, 0], top_k=3),
                served.rank_documents(queries[:, 0], top_k=3))

    def test_source_tombstones_carry_over(self, model, queries):
        single = ServedIndex(model)
        single.remove_documents([1, 13])
        with ShardedIndex.shard(single, 3) as sharded:
            ranked = sharded.rank_batch(queries)
            assert 1 not in ranked and 13 not in ranked
            assert np.array_equal(ranked, single.rank_batch(queries))
            assert sharded.score(queries[:, 0])[1] == 0.0


@st.composite
def continuous_corpora(draw):
    """Small continuous corpora (scores generically well-separated)."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_terms = draw(st.integers(5, 10))
    n_documents = draw(st.integers(4, 16))
    corpus_rng = np.random.default_rng(seed)
    matrix = corpus_rng.random((n_terms, n_documents))
    query = corpus_rng.random(n_terms)
    return matrix, query


class TestShardedExactnessProperty:
    @given(continuous_corpora(), st.integers(0, 3),
           st.sampled_from(ASSIGNMENTS))
    @settings(max_examples=40, deadline=None)
    def test_sharded_ranking_equals_single(self, corpus, k_index,
                                           assignment):
        # End-to-end exactness needs the documents' scores separated
        # by more than the ±1 ULP a column-subset GEMM may round —
        # generic for continuous corpora.  Exact boundary ties are
        # covered below at the merge layer, where arithmetic is
        # controlled (degenerate SVDs turn matrix-level column ties
        # into sub-ULP near-ties no partitioning can order stably).
        matrix, query = corpus
        n_shards = (1, 2, 3, 5)[k_index]
        rank = min(3, min(matrix.shape) - 1)
        model = LSIModel.fit(matrix, rank, engine="exact")
        single = ServedIndex(model)
        with ShardedIndex.shard(model, n_shards,
                                assignment=assignment) as sharded:
            for top_k in (1, 3, None):
                assert np.array_equal(
                    sharded.rank_documents(query, top_k=top_k),
                    single.rank_documents(query, top_k=top_k))


@st.composite
def tied_score_rows(draw):
    """Integer score rows: exact ties, exact float arithmetic."""
    n_documents = draw(st.integers(1, 20))
    cells = draw(st.lists(st.integers(0, 4), min_size=n_documents,
                          max_size=n_documents))
    return np.asarray(cells, dtype=np.float64)


class TestMergePolicyProperty:
    """The merge reproduces ``stable_top_k`` on exact boundary ties."""

    @given(tied_score_rows(), st.integers(0, 3),
           st.sampled_from(ASSIGNMENTS), st.integers(1, 20))
    @settings(max_examples=120, deadline=None)
    def test_merge_matches_stable_top_k(self, scores, k_index,
                                        assignment, top_k):
        from repro.serving.engine import stable_top_k

        n_shards = (1, 2, 3, 5)[k_index]
        top_k = min(top_k, scores.size)
        parts = shard_document_ids(scores.size, n_shards, assignment)
        per_shard = []
        for ids in parts:
            shard_top_k = min(top_k, ids.size)
            if shard_top_k == 0:
                continue
            local = stable_top_k(scores[ids], shard_top_k)
            per_shard.append((ids[local][None, :],
                              scores[ids][local][None, :]))
        merged_ids, merged_scores = ShardedIndex._merge(
            per_shard, 1, top_k)
        expected = stable_top_k(scores, top_k)
        assert np.array_equal(merged_ids[0], expected)
        assert np.array_equal(merged_scores[0], scores[expected])


# ----------------------------------------------------------------------
# ShardedIndex: updates and topology
# ----------------------------------------------------------------------


class TestShardedUpdates:
    def test_fold_in_assigns_single_index_ids(self, model, rng,
                                              queries):
        single = ServedIndex(model)
        with ShardedIndex.shard(model, 3) as sharded:
            fresh = rng.random((30, 4))
            assert np.array_equal(sharded.add_documents(fresh),
                                  single.add_documents(fresh))
            assert sharded.n_documents == single.n_documents
            assert np.array_equal(sharded.rank_batch(queries),
                                  single.rank_batch(queries))

    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    def test_fold_in_then_delete_matches_single(self, model, rng,
                                                queries, assignment):
        single = ServedIndex(model)
        with ShardedIndex.shard(model, 2, assignment=assignment) as sharded:
            fresh = rng.random((30, 5))
            sharded.add_documents(fresh)
            single.add_documents(fresh)
            for index in (sharded, single):
                index.remove_documents([0, 25, 26])
            assert np.array_equal(sharded.rank_batch(queries),
                                  single.rank_batch(queries))

    def test_double_delete_raises_with_global_id(self, model):
        with ShardedIndex.shard(model, 2) as sharded:
            sharded.remove_documents([5])
            with pytest.raises(ValidationError,
                               match="document 5 is already deleted"):
                sharded.remove_documents([5])

    def test_mutations_bump_generation(self, model, rng):
        with ShardedIndex.shard(model, 2) as sharded:
            before = sharded.generation
            sharded.add_documents(rng.random((30, 2)))
            bumped = sharded.generation
            assert bumped > before
            sharded.remove_documents([0])
            assert sharded.generation > bumped

    def test_add_and_remove_shard(self, model, rng, queries):
        with ShardedIndex.shard(model, 2) as sharded:
            position = sharded.add_shard()
            assert position == 2 and sharded.n_shards == 3
            sharded.add_documents(rng.random((30, 3)))
            before = sharded.generation
            retired = sharded.remove_shard(1)
            assert sharded.n_shards == 2
            assert sharded.generation > before
            ranked = sharded.rank_batch(queries)
            assert not np.isin(retired, ranked).any()
            assert sharded.score(queries[:, 0])[retired[0]] == 0.0
            with pytest.raises(ValidationError,
                               match="removed shard"):
                sharded.remove_documents([int(retired[0])])

    def test_cannot_remove_last_shard(self, model):
        with ShardedIndex.shard(model, 1) as sharded:
            with pytest.raises(ValidationError, match="last shard"):
                sharded.remove_shard(0)


# ----------------------------------------------------------------------
# ShardedIndex: persistence
# ----------------------------------------------------------------------


class TestShardedPersistence:
    def test_save_load_round_trip(self, served, queries, tmp_path):
        with ShardedIndex.shard(served, 3) as sharded:
            sharded.remove_documents([2])
            expected = sharded.rank_batch(queries, top_k=4)
            path = sharded.save(tmp_path / "cluster")
        assert is_sharded_bundle(path)
        assert not is_sharded_bundle(tmp_path)
        manifest = read_sharded_manifest(path)
        assert manifest["n_shards"] == 3
        with ShardedIndex.load(path) as loaded:
            assert loaded.assignment == "round_robin"
            assert np.array_equal(
                loaded.rank_batch(queries, top_k=4), expected)

    def test_load_with_mmap_matches(self, served, queries, tmp_path):
        with ShardedIndex.shard(served, 2) as sharded:
            expected = sharded.rank_batch(queries)
            path = sharded.save(tmp_path / "cluster")
        config = ServingConfig(mmap=True)
        with ShardedIndex.load(path, config=config) as loaded:
            assert loaded.mmapped if hasattr(loaded, "mmapped") \
                else True
            assert np.array_equal(loaded.rank_batch(queries),
                                  expected)

    def test_resave_after_shrinking_removes_stale_shards(
            self, served, queries, tmp_path):
        with ShardedIndex.shard(served, 4) as sharded:
            path = sharded.save(tmp_path / "cluster")
            sharded.remove_shard(3)
            sharded.remove_shard(2)
            expected = sharded.rank_batch(queries, top_k=4)
            sharded.save(path)
        manifest = read_sharded_manifest(path)
        listed = {SHARDED_MANIFEST_NAME, manifest["retired_file"]}
        for entry in manifest["shards"]:
            listed |= {entry["bundle"], entry["ids_file"]}
        assert {f.name for f in path.iterdir()} == listed
        assert not (path / "shard-002").exists()
        with ShardedIndex.load(path) as loaded:
            assert np.array_equal(loaded.rank_batch(queries, top_k=4),
                                  expected)

    def test_corrupt_id_file_fails_load(self, served, tmp_path):
        with ShardedIndex.shard(served, 2) as sharded:
            path = sharded.save(tmp_path / "cluster")
        ids_file = path / "shard-000.ids.npy"
        blob = bytearray(ids_file.read_bytes())
        blob[-1] ^= 0xFF
        ids_file.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="shard-000.ids"):
            ShardedIndex.load(path)

    def test_manifest_schema_guard(self, served, tmp_path):
        with ShardedIndex.shard(served, 2) as sharded:
            path = sharded.save(tmp_path / "cluster")
        manifest_path = path / SHARDED_MANIFEST_NAME
        blob = json.loads(manifest_path.read_text())
        blob["schema_version"] = 99
        manifest_path.write_text(json.dumps(blob))
        with pytest.raises(PersistenceError, match="schema"):
            read_sharded_manifest(path)


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


# ----------------------------------------------------------------------
# serve-stats CLI over sharded directories
# ----------------------------------------------------------------------


class TestServeStatsSharded:
    @pytest.fixture
    def cluster(self, served, queries, tmp_path):
        with ShardedIndex.shard(served, 2) as sharded:
            sharded.rank_batch(queries, top_k=3)
            return sharded.save(tmp_path / "cluster")

    def test_text_output_has_per_shard_rows(self, cluster, capsys):
        from repro.cli import main

        assert main(["serve-stats", str(cluster)]) == 0
        out = capsys.readouterr().out
        assert "shard-000" in out and "shard-001" in out
        assert "sharded" in out

    def test_json_output(self, cluster, capsys):
        from repro.cli import main

        assert main(["serve-stats", str(cluster), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_shards"] == 2

    def test_verify_clean_cluster(self, cluster, capsys):
        from repro.cli import main

        assert main(["serve-stats", str(cluster), "--verify"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_reports_each_corrupt_file(self, cluster, capsys):
        from repro.cli import main

        for name in ("shard-000/u.npy",
                     "shard-001/singular_values.npy"):
            target = cluster / name
            blob = bytearray(target.read_bytes())
            blob[-1] ^= 0xFF
            target.write_bytes(bytes(blob))
        assert main(["serve-stats", str(cluster), "--verify"]) == 2
        captured = capsys.readouterr()
        assert "2 file(s)" in captured.out
        assert "shard-000/u.npy" in captured.err
        assert "shard-001/singular_values.npy" in captured.err
        assert "expected" in captured.err
