"""Tests for the serving layer: bundles, batching, fold-in, facade."""

import gc
import io
import json
import math
import tempfile
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lsi import LSIModel
from repro.corpus import Vocabulary, build_zipfian_separable_model, \
    generate_corpus
from repro.corpus.pipeline import TextPipeline
from repro.corpus.text import render_corpus
from repro.errors import (
    PersistenceError,
    ShapeError,
    ValidationError,
)
from repro.ir.retriever import Retriever
from repro.linalg.dense import ZERO_NORM_TOL, normalize_columns
from repro.linalg.sparse import CSRMatrix
from repro.linalg.svd import SVDResult
from repro.serving import (
    BUNDLE_FORMAT,
    BatchQueryEngine,
    IndexWriter,
    LRUResultCache,
    QueryBatch,
    ServedIndex,
    ServingConfig,
    ServingStats,
    environment_fingerprint,
    read_bundle,
    read_manifest,
    stable_top_k,
)
from repro.serving import engine as engine_module
from repro.serving.bundle import MANIFEST_NAME, IndexBundle, \
    sha256_file, write_bundle
from repro.utils.validation import check_top_k

ENGINES = ("lanczos", "subspace", "randomized", "exact")


@pytest.fixture
def dense_matrix(rng):
    """A dense term-document matrix with a planted low-rank block."""
    matrix = rng.random((40, 30))
    matrix[matrix < 0.5] = 0.0
    return matrix


@pytest.fixture
def model(dense_matrix):
    """A rank-5 LSI model over ``dense_matrix``."""
    return LSIModel.fit(dense_matrix, 5, engine="exact")


@pytest.fixture
def served(model):
    """A served index over ``model``."""
    return ServedIndex(model)


@pytest.fixture
def queries(rng):
    """A block of 8 random term-space queries."""
    return rng.random((40, 8))


class TestStableTopK:
    def test_matches_stable_argsort(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 40))
            scores = rng.integers(0, 6, size=n).astype(float)
            k = int(rng.integers(1, n + 1))
            expected = np.argsort(-scores, kind="stable")[:k]
            assert np.array_equal(stable_top_k(scores, k), expected)

    def test_boundary_ties_break_by_ascending_id(self):
        scores = np.array([1.0, 2.0, 1.0, 2.0, 1.0])
        assert np.array_equal(stable_top_k(scores, 4), [1, 3, 0, 2])

    def test_k_at_least_n_is_full_ranking(self):
        scores = np.array([0.5, 0.5, 0.1])
        assert np.array_equal(stable_top_k(scores, 10), [0, 1, 2])

    def test_nonpositive_k_is_empty(self):
        out = stable_top_k(np.array([1.0, 2.0]), 0)
        assert out.size == 0 and out.dtype == np.int64


class TestCheckTopK:
    def test_none_means_all(self):
        assert check_top_k(None, 7) == 7

    def test_clamps_to_corpus(self):
        assert check_top_k(100, 7) == 7

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "5", True])
    def test_rejects_non_positive_and_non_int(self, bad):
        with pytest.raises(ValidationError):
            check_top_k(bad, 7)

    def test_numpy_integer_accepted(self):
        assert check_top_k(np.int64(3), 7) == 3


class TestEngineKwargsValidation:
    def test_unknown_kwarg_lists_valid_options(self, dense_matrix):
        with pytest.raises(ValidationError,
                           match=r"bogus.*extra_steps"):
            LSIModel.fit(dense_matrix, 3, engine="lanczos", bogus=1)

    def test_exact_engine_takes_no_options(self, dense_matrix):
        with pytest.raises(ValidationError, match=r"\(none\)"):
            LSIModel.fit(dense_matrix, 3, engine="exact", tol=1e-8)

    def test_valid_kwargs_still_accepted(self, dense_matrix):
        model = LSIModel.fit(dense_matrix, 3, engine="randomized",
                             seed=0, oversample=10)
        assert model.rank == 3


class TestQueryBatch:
    def test_from_vectors_stacks_columns(self, rng):
        vectors = [rng.random(12) for _ in range(3)]
        batch = QueryBatch.from_vectors(vectors)
        assert batch.matrix.shape == (12, 3)
        assert np.array_equal(batch.query(1), vectors[1])

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ShapeError):
            QueryBatch.from_vectors([rng.random(5), rng.random(6)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            QueryBatch(np.array([[np.nan], [1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            QueryBatch.from_vectors([])

    def test_query_hash_is_content_keyed(self, rng):
        column = rng.random(6)
        first = QueryBatch(column[:, None])
        second = QueryBatch(np.stack([column, rng.random(6)], axis=1))
        assert first.query_hash(0) == second.query_hash(0)
        assert second.query_hash(0) != second.query_hash(1)


#: Query entries: explicit zeros, ``-0.0``, and a few weights.
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5, 1e-300])


@st.composite
def _query_blocks(draw):
    """Small dense blocks with repeated columns and, half the time, one
    non-finite entry anywhere."""
    n_terms = draw(st.integers(1, 6))
    distinct = draw(st.lists(
        st.lists(_ENTRIES, min_size=n_terms, max_size=n_terms),
        min_size=1, max_size=3))
    order = draw(st.lists(st.integers(0, len(distinct) - 1),
                          min_size=1, max_size=5))
    block = np.array([distinct[j] for j in order]).T
    if draw(st.booleans()):
        row = draw(st.integers(0, n_terms - 1))
        column = draw(st.integers(0, block.shape[1] - 1))
        block[row, column] = draw(st.sampled_from(
            [np.nan, np.inf, -np.inf]))
    return block


class TestSparseQueryBatch:
    @settings(max_examples=300, deadline=None)
    @given(block=_query_blocks(), data=st.data())
    def test_terms_keys_and_selection(self, block, data):
        n_queries = block.shape[1]
        if not np.isfinite(block).all():
            with pytest.raises(ValidationError):
                QueryBatch(block)
            for column in block.T:
                if not np.isfinite(column).all():
                    with pytest.raises(ValidationError):
                        QueryBatch.from_vector(column)
            return
        batch = QueryBatch(block)
        pairs = []
        for i, column in enumerate(block.T):
            ids = np.flatnonzero(column)
            got_ids, got_weights = batch.terms(i)
            assert np.array_equal(got_ids, ids)
            assert np.array_equal(got_weights, column[ids])
            pairs.append((ids.tolist(), column[ids].tolist()))
            single = QueryBatch.from_vector(column)
            assert single.query_hash(0) == batch.query_hash(i)
        for i in range(n_queries):
            for j in range(n_queries):
                assert (batch.query_hash(i) == batch.query_hash(j)) \
                    == (pairs[i] == pairs[j])
        picked = data.draw(st.lists(st.integers(0, n_queries - 1),
                                    min_size=1, max_size=6))
        joined = QueryBatch.concat(QueryBatch.from_vector(block[:, j])
                                   for j in picked)
        for sub in (batch.select(picked), joined):
            assert sub.n_queries == len(picked)
            for row, j in enumerate(picked):
                assert sub.query_hash(row) == batch.query_hash(j)
                for got, expected in zip(sub.terms(row), batch.terms(j)):
                    assert np.array_equal(got, expected)
            assert np.array_equal(sub.matrix, block[:, picked])

    def test_select_everything_in_order_is_the_batch(self, queries):
        batch = QueryBatch(queries)
        assert batch.select(range(queries.shape[1])) is batch

    def test_concat_rejects_mixed_term_spaces(self):
        with pytest.raises(ShapeError):
            QueryBatch.concat([QueryBatch.from_vector(np.ones(3)),
                               QueryBatch.from_vector(np.ones(4))])


def _text_queries(model, vocabulary, count, seed):
    """``count`` queries of 2–4 primary terms of one topic, with
    repeats, like the benchmark's query pool and Zipf stream."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(count // 4):
        topic = model.topics[int(rng.integers(len(model.topics)))]
        primary = np.array(sorted(topic.primary_terms))
        terms = rng.choice(primary, size=int(rng.integers(2, 5)),
                           replace=False)
        pool.append(" ".join(vocabulary.term(int(t)) for t in terms))
    return [pool[int(i)] for i in rng.zipf(1.3, size=count) % len(pool)]


@pytest.fixture(scope="module")
def text_index(tmp_path_factory):
    """A pipeline, the LSI model it fits, a saved bundle of that model,
    and 500 text queries over it."""
    model = build_zipfian_separable_model(300, 5, seed=3)
    vocabulary = Vocabulary.synthetic(300)
    texts = render_corpus(generate_corpus(model, 150, seed=4), vocabulary,
                          seed=5)
    pipeline = TextPipeline(stem=True)
    lsi = LSIModel.fit(pipeline.fit_transform(texts), 8, seed=1)
    path = ServedIndex(lsi).save(tmp_path_factory.mktemp("text") / "b")
    queries = _text_queries(model, vocabulary, 500, seed=6)
    return pipeline, lsi, path, queries


class TestSparseServing:
    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    @pytest.mark.parametrize("capacity", [256, 0],
                             ids=["cache", "no-cache"])
    def test_text_rankings_match_plain_model(self, text_index, mmap,
                                             capacity):
        pipeline, lsi, path, queries = text_index
        vectors = [pipeline.query_vector(text) for text in queries]
        expected = [lsi.rank_documents(v, top_k=10) for v in vectors]
        config = ServingConfig(mmap=mmap, cache_capacity=capacity)
        index = ServedIndex.load(path, config=config)
        for vector, ranking in zip(vectors, expected):
            assert np.array_equal(index.rank_documents(vector, top_k=10),
                                  ranking)
        index = ServedIndex.load(path, config=config)
        for start in range(0, len(vectors), 32):
            ranked = index.rank_batch(vectors[start:start + 32], top_k=10)
            for row, ranking in enumerate(expected[start:start + 32]):
                assert np.array_equal(ranked[row], ranking)
        stats = index.stats()
        assert stats.cache_hits + stats.cache_misses == len(vectors)
        assert (stats.cache_hits > 0) == (capacity > 0)

    def test_one_miss_per_distinct_query_per_generation(self, text_index,
                                                        rng):
        pipeline, _, path, queries = text_index
        stream = queries[:120]
        distinct = len(set(stream))
        assert distinct < len(stream)
        index = ServedIndex.load(path)
        for generation in range(2):
            for i, text in enumerate(stream):
                vector = pipeline.query_vector(text)
                if i % 2:
                    # An explicit -0.0 is not a term: it must not split
                    # the query's key.
                    vector[vector == 0] = -0.0
                index.rank_documents(vector, top_k=5)
            stats = index.stats()
            assert stats.cache_misses == distinct * (generation + 1)
            assert stats.cache_hits == (len(stream) - distinct) \
                * (generation + 1)
            index.add_documents(rng.random((index.n_terms, 2)))

    @pytest.mark.parametrize("bad, error", [
        (np.array([0.0, np.nan, 1.0]), ValidationError),
        (np.array([np.inf, 0.0, 0.0]), ValidationError),
        (np.array([0.0, 0.0, -np.inf]), ValidationError),
        (np.zeros((3, 1)), ShapeError),
        (np.zeros(4), ShapeError),
        (np.zeros(2), ShapeError),
    ], ids=["nan", "inf", "-inf", "2-D", "too-long", "too-short"])
    def test_bad_single_query_raises(self, bad, error):
        model = LSIModel.fit(np.eye(3) + 0.5, 2, engine="exact")
        index = ServedIndex(model)
        engine = BatchQueryEngine(
            model.term_basis, *normalize_columns(model.document_vectors()))
        for call in (index.rank_documents, index.score,
                     engine.rank_documents, engine.score):
            with pytest.raises(error):
                call(bad)
        assert index.stats().cache_misses == 0


class TestBatchedEquivalence:
    def test_batched_scores_match_model(self, model, queries):
        # GEMM vs GEMV summation order differs in the last ULP, so
        # scores agree to ~1e-15 while *rankings* agree exactly.
        engine = BatchQueryEngine(
            model.term_basis, *normalize_columns(model.document_vectors()))
        scores = engine.score_batch(queries)
        for i in range(queries.shape[1]):
            expected = model.score(queries[:, i])
            np.testing.assert_allclose(scores[i], expected,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("top_k", [1, 3, None])
    def test_batched_ranking_matches_looped(self, model, queries,
                                            top_k):
        engine = BatchQueryEngine(
            model.term_basis, *normalize_columns(model.document_vectors()))
        batched = engine.rank_batch(queries, top_k=top_k)
        for i in range(queries.shape[1]):
            expected = model.rank_documents(queries[:, i], top_k=top_k)
            assert np.array_equal(batched[i], expected)

    def test_zero_query_scores_zero(self, model):
        engine = BatchQueryEngine(
            model.term_basis, *normalize_columns(model.document_vectors()))
        assert np.all(engine.score(np.zeros(model.n_terms)) == 0.0)

    def test_scores_clip_to_plus_and_minus_one(self):
        # The scan's cosine of this column's unit vector with itself
        # rounds to 1 + 2⁻⁵² (OpenBLAS 0.3.31); the clip makes it 1.
        column = np.random.default_rng(2).standard_normal((3, 1))
        engine = BatchQueryEngine(np.eye(3), *normalize_columns(column))
        assert engine.score(column[:, 0]).tolist() == [1.0]
        assert engine.score(-column[:, 0]).tolist() == [-1.0]

    def test_tombstoned_documents_never_ranked(self, model, queries):
        engine = BatchQueryEngine(
            model.term_basis, *normalize_columns(model.document_vectors()),
            tombstones=(0, 5))
        ranked = engine.rank_batch(queries)
        assert ranked.shape[1] == model.n_documents - 2
        assert 0 not in ranked and 5 not in ranked
        assert np.all(engine.score(queries[:, 0])[[0, 5]] == 0.0)

    def test_wrong_term_space_raises(self, model):
        engine = BatchQueryEngine(
            model.term_basis, *normalize_columns(model.document_vectors()))
        with pytest.raises(ShapeError):
            engine.rank_batch(np.ones((model.n_terms + 1, 2)))

    def test_out_of_range_tombstone_raises(self, model):
        with pytest.raises(ValidationError):
            BatchQueryEngine(
                model.term_basis,
                *normalize_columns(model.document_vectors()),
                tombstones=(999,))


def _with_copy(basis, doc_unit, doc_norms, tombstones=()):
    """An engine that scans a float32 copy whatever its store's size."""
    with mock.patch.object(engine_module, "_SCAN_COPY_MIN_ELEMENTS", 0):
        engine = BatchQueryEngine(basis, doc_unit, doc_norms,
                                  tombstones=tombstones)
    assert engine._scan_unit.dtype == np.float32
    return engine


def _ranking_scores(doc_unit, doc_norms, ids, query):
    """The ranking kernel's cosines, 0 for zero documents, clipped."""
    scores = engine_module._cosines(doc_unit, ids, query)
    scores[doc_norms[ids] <= ZERO_NORM_TOL] = 0.0
    return np.clip(scores, -1.0, 1.0)


def _kernel_orders(engine, batch, doc_unit, doc_norms, tombstones):
    """Each query's ids in the ranking kernel's stable order over every
    active document, from the engine's own folded queries."""
    _, unit, zero = engine._score_into(batch, engine._doc_unit)
    unit, zero = unit.copy(), zero.copy()
    active = np.setdiff1d(np.arange(doc_unit.shape[1]), tombstones)
    orders = []
    for column in range(batch.n_queries):
        scores = np.zeros(active.size) if zero[column] else \
            _ranking_scores(doc_unit, doc_norms, active, unit[:, column])
        orders.append(active[np.argsort(-scores, kind="stable")])
    return orders


@st.composite
def ranking_stores(draw):
    """A seed, a rank of 1–100, 1–300 documents, 1–4 queries, and
    whether to plant exact ties, zero documents, tombstones, a
    zero-norm query and all-positive vectors."""
    return (draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 100)),
            draw(st.integers(1, 300)), draw(st.integers(1, 4)),
            draw(st.fixed_dictionaries({
                flag: st.booleans() for flag in (
                    "ties", "zeros", "tombstones", "zero_query",
                    "positive")})))


def _ranking_case(seed, rank, n_docs, n_queries, flags):
    """``(basis, doc_unit, doc_norms, tombstones, queries)`` for one
    drawn store."""
    local = np.random.default_rng(seed)
    n_terms = rank + int(local.integers(0, 12))
    basis, _ = np.linalg.qr(local.standard_normal((n_terms, rank)))
    docs = local.standard_normal((rank, n_docs)) \
        * 10.0 ** local.uniform(-3, 3, size=n_docs)
    if flags["positive"]:
        docs = np.abs(docs)
    if flags["ties"] and n_docs > 1:
        copies = local.integers(0, n_docs, size=(2, 1 + n_docs // 4))
        docs[:, copies[0]] = docs[:, copies[1]]
    if flags["zeros"]:
        # Zero documents: some exactly zero, some of norm below
        # ZERO_NORM_TOL, whose unit columns stay tiny but nonzero.
        zeros = local.integers(0, n_docs, size=1 + n_docs // 8)
        docs[:, zeros] = 1e-15 * local.standard_normal((rank, zeros.size))
        docs[:, zeros[::2]] = 0.0
    doc_unit, doc_norms = normalize_columns(docs)
    tombstones = ()
    if flags["tombstones"] and n_docs > 1:
        tombstones = tuple(sorted(set(local.integers(
            0, n_docs, size=int(local.integers(1, n_docs))).tolist())))
    queries = local.standard_normal((n_terms, n_queries))
    if flags["positive"]:
        queries = np.abs(queries)
    queries[local.random(queries.shape) < 0.3] = 0.0
    if flags["zero_query"]:
        # A zero-norm query: exactly zero, or folding to a norm below
        # ZERO_NORM_TOL, whose unit vector stays tiny but nonzero.
        queries[:, local.integers(0, n_queries)] *= local.choice(
            [0.0, 1e-15])
    return basis, doc_unit, doc_norms, tombstones, queries


class TestTwoStageRanking:
    @given(ranking_stores())
    @example((0, 1, 1, 1, dict.fromkeys(
        ("ties", "zeros", "tombstones", "zero_query", "positive"),
        False)))
    @example((7, 100, 300, 4, dict.fromkeys(
        ("ties", "zeros", "tombstones", "zero_query", "positive"),
        True)))
    @settings(max_examples=60, deadline=None)
    def test_rankings_are_the_kernels_stable_order(self, case):
        basis, doc_unit, doc_norms, tombstones, queries = \
            _ranking_case(*case)
        batch = QueryBatch(queries)
        engines = (BatchQueryEngine(basis, doc_unit, doc_norms,
                                    tombstones=tombstones),
                   _with_copy(basis, doc_unit, doc_norms, tombstones))
        assert engines[0]._scan_unit.dtype == np.float64
        orders = _kernel_orders(engines[0], batch, doc_unit, doc_norms,
                                tombstones)
        n_active = orders[0].size
        for top_k in [*range(1, n_active + 1), None]:
            expected = np.stack([order[:top_k] for order in orders])
            for engine in engines:
                assert np.array_equal(
                    engine.rank_batch(batch, top_k=top_k), expected)
        for top_k in {1, max(1, n_active // 2), None}:
            for engine in engines:
                for column, order in zip(queries.T, orders):
                    assert np.array_equal(
                        engine.rank_documents(column, top_k=top_k),
                        order[:top_k])

    @pytest.mark.parametrize("family", [
        "random", "widely-scaled", "all-positive", "near-underflow"])
    def test_scan_error_is_within_the_bound(self, family):
        local = np.random.default_rng(29)
        for rank in (1, 2, 3, 5, 8, 17, 64, 96, 127, 256, 512):
            shape = (rank, 64)
            if family == "random":
                docs = local.standard_normal((rank, 400))
                raw = local.standard_normal(shape)
            elif family == "widely-scaled":
                docs = local.standard_normal((rank, 400)) \
                    * 10.0 ** local.uniform(-12, 12, size=(rank, 400))
                raw = local.standard_normal(shape) \
                    * 10.0 ** local.uniform(-12, 12, size=shape)
            elif family == "all-positive":
                docs = local.random((rank, 400)) + 0.5
                raw = local.random(shape) + 0.5
            else:
                # One coordinate near 1, the rest float32 subnormals.
                docs = 10.0 ** local.uniform(-45, -37, size=(rank, 400))
                docs[local.integers(0, rank, size=400),
                     np.arange(400)] = 1.0
                raw = 10.0 ** local.uniform(-45, -37, size=shape)
                raw[local.integers(0, rank, size=64), np.arange(64)] = 1.0
            doc_unit, doc_norms = normalize_columns(docs)
            # An identity basis folds each query to itself.
            engine = _with_copy(np.eye(rank), doc_unit, doc_norms)
            ids = np.arange(doc_unit.shape[1])
            for dtype in (np.float32, np.float64):
                store = engine._scan_unit if dtype == np.float32 \
                    else engine._doc_unit
                scan, unit, _ = engine._score_into(QueryBatch(raw), store)
                scan = scan.astype(np.float64)
                final = np.stack([
                    _ranking_scores(doc_unit, doc_norms, ids, query)
                    for query in unit.T])
                bound = engine_module._scan_error_bound(rank, dtype)
                assert np.max(np.abs(scan - final)) <= bound, \
                    (family, rank, dtype)

    def test_the_bound_is_about_k_plus_two_float32_units(self):
        for rank in (1, 96, 512):
            bound = engine_module._scan_error_bound(rank, np.float32)
            assert (rank + 2) * 2.0 ** -24 < bound \
                < (rank + 2) * 2.0 ** -24 * 1.001
            bound = engine_module._scan_error_bound(rank, np.float64)
            assert 2 * rank * 2.0 ** -53 < bound \
                < 2 * rank * 2.0 ** -53 * 1.001

    @given(st.integers(0, 2**31 - 1), st.integers(1, 130),
           st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_kernel_bits_ignore_the_candidate_set(self, seed, rank,
                                                  n_docs):
        local = np.random.default_rng(seed)
        doc_unit, _ = normalize_columns(
            local.standard_normal((rank, n_docs)))
        # The same columns at an offset inside a wider buffer.
        offset = int(local.integers(1, 9))
        wide = np.zeros((rank, n_docs + 16))
        wide[:, offset:offset + n_docs] = doc_unit
        view = wide[:, offset:offset + n_docs]
        query = normalize_columns(local.standard_normal((rank, 1)))[0][:, 0]
        alone = np.array([engine_module._cosines(doc_unit, [d], query)[0]
                          for d in range(n_docs)])
        for _ in range(6):
            ids = local.permutation(n_docs)[:int(local.integers(
                1, n_docs + 1))]
            for store in (doc_unit, view):
                assert np.array_equal(
                    engine_module._cosines(store, ids, query), alone[ids])

    def test_copy_only_for_a_large_in_memory_store(self, tmp_path):
        local = np.random.default_rng(17)
        rank, n_docs = 16, 4096           # exactly 2¹⁶ elements
        basis, _ = np.linalg.qr(local.standard_normal((40, rank)))
        rows = local.standard_normal((rank, n_docs))
        rows[:, 100:140] = rows[:, :40]   # exact ties
        rows[:, 200:210] = 0.0            # zero documents
        spectrum = np.sort(local.random(rank) + 0.5)[::-1]
        index = ServedIndex(LSIModel(SVDResult(
            basis, spectrum, rows, float(np.sum(spectrum ** 2)) + 1.0)))
        index.remove_documents([0, 7, 4095])
        path = index.save(tmp_path / "b")
        eager, mapped = (ServedIndex.load(
            path, config=ServingConfig(mmap=mmap, cache_capacity=0))
            for mmap in (False, True))
        assert eager._engine()._scan_unit.dtype == np.float32
        assert mapped.mmapped
        assert mapped._engine()._scan_unit.dtype == np.float64
        doc_unit, doc_norms = index._writer.store
        small = BatchQueryEngine(basis, doc_unit[:, :-1],
                                 doc_norms[:-1])
        assert small._scan_unit.dtype == np.float64
        small_copy = _with_copy(basis, doc_unit[:, :-1], doc_norms[:-1])
        queries = local.random((40, 7))
        queries[queries < 0.5] = 0.0
        for top_k in (1, 10, 100, 4000, None):
            expected = eager.rank_batch(queries, top_k=top_k)
            assert np.array_equal(mapped.rank_batch(queries, top_k=top_k),
                                  expected)
            assert np.array_equal(
                small.rank_batch(queries, top_k=top_k),
                small_copy.rank_batch(queries, top_k=top_k))
            for column, row in zip(queries.T, expected):
                assert np.array_equal(
                    mapped.rank_documents(column, top_k=top_k), row)


def _served_from_bundle(path, *, mmap, capacity):
    """A loaded index whose engine scans a float32 copy when eager and
    the mapped float64 store when not, whatever the store's size."""
    index = ServedIndex.load(path, config=ServingConfig(
        mmap=mmap, cache_capacity=capacity))
    with mock.patch.object(engine_module, "_SCAN_COPY_MIN_ELEMENTS", 0):
        scan_dtype = index._engine()._scan_unit.dtype
    assert scan_dtype == (np.float64 if mmap else np.float32)
    return index


class TestServedRanking:
    @given(ranking_stores())
    @example((7, 100, 300, 4, dict.fromkeys(
        ("ties", "zeros", "tombstones", "zero_query", "positive"),
        True)))
    @settings(max_examples=25, deadline=None)
    def test_misses_and_hits_are_the_kernels_order(self, case):
        basis, doc_unit, doc_norms, tombstones, queries = \
            _ranking_case(*case)
        rank = basis.shape[1]
        bundle = IndexBundle(
            u=basis, singular_values=np.ones(rank),
            frobenius_norm_sq=float(rank), doc_unit=doc_unit,
            doc_norms=doc_norms, n_original=doc_unit.shape[1],
            tombstones=tombstones)
        with tempfile.TemporaryDirectory() as directory, \
                warnings.catch_warnings():
            # Zero-norm queries included, serving divides no 0 by 0.
            warnings.simplefilter("error", RuntimeWarning)
            path = write_bundle(Path(directory) / "b", bundle)
            for mmap in (False, True):
                for capacity in (256, 0):
                    # One index ranks query by query, the other the
                    # block: a block folds its misses in one product.
                    single, block = (
                        _served_from_bundle(path, mmap=mmap,
                                            capacity=capacity)
                        for _ in range(2))
                    engine = single._engine()
                    for column in queries.T:
                        order, = _kernel_orders(
                            engine, QueryBatch.from_vector(column),
                            doc_unit, doc_norms, tombstones)
                        for top_k in (1, 10, None):
                            for _ in ("miss", "hit"):
                                assert np.array_equal(
                                    single.rank_documents(
                                        column, top_k=top_k),
                                    order[:top_k])
                    orders = _kernel_orders(
                        block._engine(), QueryBatch(queries), doc_unit,
                        doc_norms, tombstones)
                    for top_k in (1, 10, None):
                        expected = np.stack(
                            [order[:top_k] for order in orders])
                        for _ in ("miss", "hit"):
                            assert np.array_equal(
                                block.rank_batch(queries, top_k=top_k),
                                expected)
                    for index in (single, block):
                        hits = index.stats().cache_hits
                        if capacity:
                            assert hits >= 3 * queries.shape[1]
                        else:
                            assert hits == 0


class TestLRUResultCache:
    def test_hit_miss_counters(self):
        cache = LRUResultCache(2)
        assert cache.get("a") is None
        cache.put("a", np.array([1, 2]))
        assert np.array_equal(cache.get("a"), [1, 2])
        assert (cache.hits, cache.misses) == (1, 1)

    def test_eviction_is_least_recently_used(self):
        cache = LRUResultCache(2)
        cache.put("a", np.array([1]))
        cache.put("b", np.array([2]))
        cache.get("a")                      # refresh a
        cache.put("c", np.array([3]))       # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.evictions == 1

    def test_returned_arrays_are_copies(self):
        cache = LRUResultCache(2)
        cache.put("a", np.array([1, 2]))
        cache.get("a")[0] = 99
        assert np.array_equal(cache.get("a"), [1, 2])

    def test_zero_capacity_disables(self):
        cache = LRUResultCache(0)
        cache.put("a", np.array([1]))
        assert cache.get("a") is None and len(cache) == 0

    def test_concurrent_access_stays_consistent(self):
        # Regression for the unsynchronized OrderedDict: get() is
        # read-and-reorder and put() is insert-and-evict, so without
        # the lock concurrent workers corrupt the dict (KeyError from
        # move_to_end racing popitem) and the counters drift.
        import threading

        cache = LRUResultCache(capacity=16)
        n_threads, n_ops = 8, 300
        barrier = threading.Barrier(n_threads)
        errors = []

        def hammer(worker):
            try:
                barrier.wait()
                for i in range(n_ops):
                    key = ("v", (worker * 11 + i) % 40, 10)
                    cache.put(key, np.arange(5) + worker)
                    got = cache.get(key)
                    if got is not None and got.shape != (5,):
                        errors.append(f"bad shape {got.shape}")
                cache.clear()
            except Exception as error:  # noqa: BLE001 - recorded
                errors.append(repr(error))

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 16
        # Every lookup is counted exactly once under the lock.
        assert cache.hits + cache.misses == n_threads * n_ops


class TestIndexWriter:
    def test_drift_monotone_in_adds(self, model, rng):
        writer = IndexWriter(model)
        drifts = [writer.drift]
        for _ in range(4):
            writer.add_documents(rng.random((model.n_terms, 3)))
            drifts.append(writer.drift)
        assert all(b >= a for a, b in zip(drifts, drifts[1:]))
        assert drifts[-1] > drifts[0]
        assert 0.0 <= drifts[-1] < 1.0

    def test_in_subspace_foldin_adds_no_drift(self, model):
        in_subspace = model.term_basis @ np.ones((model.rank, 2))
        writer = IndexWriter(model)
        writer.add_documents(in_subspace)
        assert writer.drift == pytest.approx(0.0, abs=1e-12)

    def test_delete_adds_drift_and_tombstones(self, model):
        writer = IndexWriter(model)
        writer.remove_documents([3])
        assert writer.tombstones == (3,)
        assert writer.drift > 0.0
        assert writer.n_active == model.n_documents - 1

    def test_delete_twice_raises(self, model):
        writer = IndexWriter(model)
        writer.remove_documents([3])
        with pytest.raises(ValidationError):
            writer.remove_documents([3])
        with pytest.raises(ValidationError):
            writer.remove_documents([model.n_documents])

    def test_threshold_flags_refit(self, model, rng):
        writer = IndexWriter(model, drift_threshold=1e-6)
        assert not writer.needs_refit
        writer.add_documents(rng.random((model.n_terms, 5)))
        assert writer.needs_refit

    def test_refit_resets_accounting(self, model, dense_matrix, rng):
        writer = IndexWriter(model, drift_threshold=1e-6)
        writer.add_documents(rng.random((model.n_terms, 5)))
        writer.remove_documents([0])
        writer.refit(dense_matrix)
        assert writer.drift == 0.0
        assert writer.tombstones == ()
        assert writer.fold_ins_since_refit == 0
        assert writer.deletes_since_refit == 0
        assert writer.refits == 1
        assert not writer.needs_refit

    def test_foldin_ids_are_appended(self, model, rng):
        writer = IndexWriter(model)
        ids = writer.add_documents(rng.random((model.n_terms, 2)))
        assert np.array_equal(
            ids, [model.n_documents, model.n_documents + 1])
        assert writer.n_folded == 2


def _reachable_arrays(root) -> list:
    """Every ndarray reachable from ``root`` through attributes,
    tuples and lists (a writer's store, factors, view and buffers)."""
    found, stack, seen = [], [root], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return found


class TestWriterFromState:
    def _state(self, model):
        writer = IndexWriter(model)
        doc_unit, doc_norms = writer.store
        return (writer.term_basis, writer.singular_values,
                writer.frobenius_norm_sq, doc_unit, doc_norms)

    def test_adopts_arrays_without_copying(self, model):
        state = self._state(model)
        writer = IndexWriter.from_state(*state, n_original=3)
        assert writer.term_basis is state[0]
        assert writer.store[0] is state[3] and writer.store[1] is state[4]
        assert writer.n_original == 3
        assert writer.n_folded == model.n_documents - 3

    @pytest.mark.parametrize("n_original", [-1, 31])
    def test_n_original_out_of_range_raises(self, model, n_original):
        with pytest.raises(ValidationError, match="n_original"):
            IndexWriter.from_state(*self._state(model),
                                   n_original=n_original)

    def test_norms_must_match_store_columns(self, model):
        u, s, frob, doc_unit, doc_norms = self._state(model)
        with pytest.raises(ValidationError, match="doc_norms"):
            IndexWriter.from_state(u, s, frob, doc_unit, doc_norms[:-1],
                                   n_original=0)

    @pytest.mark.parametrize("part", ["term_basis", "singular_values",
                                      "doc_unit"])
    def test_rank_disagreement_raises(self, model, part):
        u, s, frob, doc_unit, doc_norms = self._state(model)
        if part == "term_basis":
            u = u[:, :-1]
        elif part == "singular_values":
            s = s[:-1]
        else:
            doc_unit = doc_unit[:-1]
        with pytest.raises(ValidationError, match="rank k"):
            IndexWriter.from_state(u, s, frob, doc_unit, doc_norms,
                                   n_original=0)


class TestOneStore:
    def test_engine_scores_the_writers_store(self, model, queries, rng):
        # After a fold-in, a refit and a query, the only (k, m) float64
        # array a float64 index holds is the store the engine scores.
        index = ServedIndex(model)
        index.add_documents(rng.random((model.n_terms, 4)))
        index.refit()
        index.rank_batch(queries, top_k=5)
        engine_unit = index._engine()._doc_unit
        shape = (index.rank, index.n_documents)

        def stores():
            return [a for a in _reachable_arrays(index._writer)
                    if a.shape == shape and a.dtype == np.float64]

        assert stores()
        assert all(np.shares_memory(a, engine_unit) for a in stores())
        # Reading .model derives Vᵀ: a second array, until the refit.
        assert index.model.svd.vt.shape == shape
        assert not all(np.shares_memory(a, engine_unit)
                       for a in stores())

    def test_removal_keeps_the_mapped_store(self, model, queries,
                                            tmp_path):
        path = ServedIndex(model).save(tmp_path / "b")
        index = ServedIndex.load(path, config=ServingConfig(mmap=True))
        index.rank_batch(queries, top_k=5)
        mapped = index._engine()._doc_unit
        index.remove_documents([1, 4])
        assert index.mmapped
        ranked = index.rank_batch(queries)
        assert 1 not in ranked and 4 not in ranked
        # The first query after the removal scores the map as it is.
        assert np.shares_memory(index._engine()._doc_unit, mapped)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_refit_bits_survive_a_save_and_load(self, model, queries,
                                                rng, tmp_path, mmap):
        dense = rng.random((model.n_terms, 7))
        sparse = rng.random((model.n_terms, 12))
        sparse[sparse < 0.6] = 0.0
        folds = (dense, CSRMatrix.from_dense(sparse))
        kept = ServedIndex(model)
        kept.add_documents(folds[0])
        kept.refit()
        reloaded = ServedIndex.load(kept.save(tmp_path / "b"),
                                    config=ServingConfig(mmap=mmap))
        for index in (kept, reloaded):
            for columns in folds:
                index.add_documents(columns)
            index.remove_documents([2])
            index.refit()
        a, b = kept._writer, reloaded._writer
        assert np.array_equal(a.term_basis, b.term_basis)
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.store[0], b.store[0])
        assert np.array_equal(a.store[1], b.store[1])
        assert np.array_equal(kept.rank_batch(queries, top_k=10),
                              reloaded.rank_batch(queries, top_k=10))

    def test_zero_singular_value_refits_without_nan(self, rng, queries):
        basis, _ = np.linalg.qr(rng.standard_normal((40, 3)))
        rows, _ = np.linalg.qr(rng.standard_normal((25, 3)))
        singular = np.array([3.0, 1.0, 0.0])
        svd = SVDResult(basis, singular, rows.T.copy(), 12.0)
        index = ServedIndex(LSIModel(svd))
        assert np.all(index.model.svd.vt[2] == 0.0)
        index.add_documents(rng.random((40, 6)))
        index.refit()
        writer = index._writer
        for array in (writer.term_basis, writer.singular_values,
                      *writer.store, index.model.svd.vt):
            assert np.all(np.isfinite(array))
        assert index.rank_batch(queries, top_k=5).shape == (8, 5)


@st.composite
def store_updates(draw):
    """A fitted model's size and seed, and interleaved updates:
    fold-ins of 1–60 dense or CSR columns, and removals."""
    seed = draw(st.integers(0, 2**31 - 1))
    rank = draw(st.sampled_from([3, 8, 12]))
    n_documents = draw(st.integers(12, 40))
    updates = draw(st.lists(st.one_of(
        st.tuples(st.just("fold"), st.integers(1, 60), st.booleans()),
        st.tuples(st.just("remove"), st.integers(1, 3), st.just(False))),
        min_size=1, max_size=6))
    return seed, rank, n_documents, updates


class TestStoreProperties:
    @given(store_updates())
    @settings(max_examples=60, deadline=None)
    def test_store_is_normalized_concatenation(self, case):
        # Normalising each fold-in on its own gives the bits of
        # normalising the whole store, for any batch width and layout.
        seed, rank, n_documents, updates = case
        local = np.random.default_rng(seed)
        model = LSIModel.fit(local.random((24, n_documents)), rank,
                             engine="exact")
        writer = IndexWriter(model)
        columns = [model.document_vectors()]
        for kind, count, sparse in updates:
            if kind == "fold":
                block = local.random((24, count))
                block[block < 0.5] = 0.0
                if sparse:
                    block = CSRMatrix.from_dense(block)
                writer.add_documents(block)
                columns.append(model.project_documents(block))
            else:
                live = [d for d in range(writer.n_documents)
                        if d not in writer.tombstones]
                writer.remove_documents(
                    local.choice(live, size=min(count, len(live) - 1),
                                 replace=False).tolist())
        doc_unit, doc_norms = normalize_columns(
            np.concatenate(columns, axis=1))
        assert np.array_equal(writer.store[0], doc_unit)
        assert np.array_equal(writer.store[1], doc_norms)


@st.composite
def served_histories(draw):
    """An index of one to 12 documents at rank 1, 3 or 8, then
    interleaved fold-ins of 1–60 dense or CSR columns, removals,
    queries of 1–5 columns and incremental refits."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_documents = draw(st.integers(1, 12))
    rank = draw(st.sampled_from([1, 3, 8]))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("fold"), st.integers(1, 60), st.booleans()),
        st.tuples(st.just("remove"), st.integers(1, 3)),
        st.tuples(st.just("query"), st.sampled_from([1, 2, 3, 5])),
        st.tuples(st.just("refit"))), min_size=1, max_size=8))
    return seed, n_documents, rank, steps


def _fold(index, columns):
    """Fold ``columns`` into ``index``; whether the store kept its
    buffer (shares memory with the store before the fold-in)."""
    before = index._writer.store
    index.add_documents(columns)
    after = index._writer.store
    return all(np.shares_memory(a, b) for a, b in zip(before, after))


class TestAppendableStore:
    @given(served_histories())
    @example((0, 1, 8, [("fold", 1, False), ("fold", 1, True),
                        ("query", 1), ("fold", 2, False), ("refit",),
                        ("fold", 1, True), ("remove", 1)]))
    @settings(max_examples=40, deadline=None)
    def test_live_index_scores_like_its_reloads(self, case):
        # Fold-ins write into spare columns of a wider buffer, so the
        # live store is a strided view while a reload is contiguous;
        # both must score every query block with the same bits.
        seed, n_documents, rank, steps = case
        local = np.random.default_rng(seed)
        # Factors rather than a fit, so a store can be narrower than
        # the rank: OpenBLAS's GEMV gives a strided store of 3 or fewer
        # columns other bits than a contiguous one only from k = 4 up.
        basis, _ = np.linalg.qr(local.standard_normal((24, rank)))
        spectrum = np.sort(local.random(rank) + 0.5)[::-1]
        rows = local.standard_normal((rank, n_documents))
        index = ServedIndex(LSIModel(SVDResult(
            basis, spectrum, rows, float(np.sum(spectrum ** 2)) + 1.0)))
        queries = local.random((24, 5))
        queries[queries < 0.4] = 0.0
        with tempfile.TemporaryDirectory() as tmp:
            for step in steps:
                if step[0] == "fold":
                    block = local.random((24, step[1]))
                    block[block < 0.5] = 0.0
                    index.add_documents(CSRMatrix.from_dense(block)
                                        if step[2] else block)
                elif step[0] == "remove":
                    live = [d for d in range(index.n_documents)
                            if d not in index.tombstones]
                    doomed = local.choice(live, size=min(
                        step[1], len(live) - 1), replace=False)
                    if doomed.size:
                        index.remove_documents(doomed.tolist())
                elif step[0] == "query":
                    index.rank_batch(queries[:, :step[1]], top_k=3)
                else:
                    index.refit()
                path = index.save(Path(tmp) / "b")
                for mmap in (False, True):
                    reloaded = ServedIndex.load(
                        path, config=ServingConfig(mmap=mmap))
                    for width in (1, 2, 3, 5):
                        block = queries[:, :width]
                        assert np.array_equal(
                            reloaded._engine().score_batch(block),
                            index._engine().score_batch(block))
                        assert np.array_equal(reloaded.rank_batch(block),
                                              index.rank_batch(block))
                    for column in queries.T:
                        assert np.array_equal(reloaded.score(column),
                                              index.score(column))

    def test_engine_taken_before_a_fold_in_ranks_its_generation(
            self, model, queries, rng):
        index = ServedIndex(model)
        index.add_documents(rng.random((model.n_terms, 4)))
        engine = index._engine()
        ranked = engine.rank_batch(queries)
        scores = engine.score_batch(queries)
        # 34 documents in a 37-column buffer: these fill its spare room.
        assert _fold(index, rng.random((model.n_terms, 3)))
        assert engine.n_documents == 34
        assert np.array_equal(engine.rank_batch(queries), ranked)
        assert np.array_equal(engine.score_batch(queries), scores)
        assert index._engine().n_documents == 37

    def test_only_growth_and_first_fold_ins_copy_the_store(
            self, model, rng, tmp_path):
        built = ServedIndex(model)
        loaded = ServedIndex.load(built.save(tmp_path / "b"),
                                  config=ServingConfig(mmap=True))
        refitted = ServedIndex(model)
        refitted.add_documents(rng.random((model.n_terms, 2)))
        refitted.refit()
        for index in (built, loaded, refitted):
            # The first fold-in after a build, load or refit copies the
            # store into a buffer with room for an eighth more ...
            assert not _fold(index, rng.random((model.n_terms, 2)))
            # ... which later fold-ins fill without copying ...
            for _ in range(3):
                assert _fold(index, rng.random((model.n_terms, 1)))
            # ... until one outgrows it.
            assert not _fold(index, rng.random((model.n_terms, 5)))
            assert _fold(index, rng.random((model.n_terms, 1)))

    @pytest.mark.parametrize("sparse", [False, True],
                             ids=["dense", "csr"])
    def test_empty_fold_into_a_mapped_store(self, model, tmp_path,
                                            sparse):
        # Zero columns write nothing, so the read-only map an index
        # adopted on load stays its store.
        index = ServedIndex.load(ServedIndex(model).save(tmp_path / "b"),
                                 config=ServingConfig(mmap=True))
        empty = np.zeros((model.n_terms, 0))
        ids = index.add_documents(CSRMatrix.from_dense(empty)
                                  if sparse else empty)
        assert ids.dtype == np.int64 and ids.size == 0
        assert index.mmapped
        assert index.n_documents == model.n_documents

    def test_single_column_appends_copy_logarithmically(self, model, rng):
        index = ServedIndex(model)
        copies = sum(not _fold(index, column[:, None])
                     for column in rng.random((2000, model.n_terms)))
        # Each copy leaves room for an eighth of the store beyond the
        # fold, so the store grows by more than 9/8 between copies.
        bound = 1 + math.log(index.n_documents / model.n_documents) \
            / math.log(9 / 8)
        assert copies <= bound


class TestBundleBytes:
    ARRAYS = ("u", "singular_values", "frobenius_norm_sq", "doc_unit",
              "doc_norms", "tombstones")

    def _bundle(self, rng, store):
        k, wide = 4, 30
        buffer = rng.random((k, wide))
        doc_unit = {"contiguous": buffer[:, :25].copy(),
                    "padded": buffer[:, :25],
                    "empty": buffer[:, :0]}[store]
        m = doc_unit.shape[1]
        return IndexBundle(
            # LAPACK hands back Fortran-ordered bases.
            u=np.asfortranarray(rng.random((9, k))),
            singular_values=rng.random(k), frobenius_norm_sq=3.0,
            doc_unit=doc_unit, doc_norms=rng.random(wide)[:m],
            n_original=m)

    def _expected(self, bundle):
        arrays = {name: getattr(bundle, name) for name in self.ARRAYS}
        arrays["frobenius_norm_sq"] = np.float64(bundle.frobenius_norm_sq)
        arrays["tombstones"] = np.zeros(0, dtype=np.int64)
        saved = {}
        for name, array in arrays.items():
            out = io.BytesIO()
            np.save(out, array, allow_pickle=False)
            saved[f"{name}.npy"] = out.getvalue()
        return saved

    @pytest.mark.parametrize("store", ["contiguous", "padded", "empty"])
    def test_files_are_np_save_bytes(self, rng, tmp_path, store):
        # Contiguous, Fortran-ordered, strided, 0-d and empty arrays
        # all get np.save's bytes, and the digests recorded on the way
        # out are the files' own.
        bundle = self._bundle(rng, store)
        path = write_bundle(tmp_path / "b", bundle)
        checksums = read_manifest(path)["checksums"]
        for name, expected in self._expected(bundle).items():
            assert (path / name).read_bytes() == expected
            assert checksums[name] == sha256_file(path / name)


class TestBundleRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_roundtrip_preserves_rankings_dense(
            self, dense_matrix, queries, tmp_path, engine):
        model = LSIModel.fit(dense_matrix, 4, engine=engine, seed=0)
        index = ServedIndex(model)
        before = index.rank_batch(queries, top_k=10)
        loaded = ServedIndex.load(index.save(tmp_path / "b"))
        assert np.array_equal(loaded.rank_batch(queries, top_k=10),
                              before)

    def test_roundtrip_preserves_rankings_sparse(
            self, tiny_matrix, tmp_path, rng):
        index = ServedIndex.fit(tiny_matrix, 4, seed=0)
        block = rng.random((tiny_matrix.shape[0], 5))
        before = index.rank_batch(block, top_k=7)
        loaded = ServedIndex.load(index.save(tmp_path / "b"))
        assert np.array_equal(loaded.rank_batch(block, top_k=7),
                              before)

    def test_truncated_model_roundtrips(self, dense_matrix, tmp_path):
        model = LSIModel.fit(dense_matrix, 6, engine="exact")
        truncated = LSIModel(model.svd.truncate(3))
        index = ServedIndex(truncated)
        loaded = ServedIndex.load(index.save(tmp_path / "b"))
        assert loaded.rank == 3
        np.testing.assert_array_equal(
            loaded.model.singular_values,
            truncated.singular_values)

    def test_state_survives_roundtrip(self, served, rng, tmp_path):
        served.add_documents(rng.random((served.n_terms, 3)))
        served.remove_documents([1, 4])
        loaded = ServedIndex.load(served.save(tmp_path / "b"))
        assert loaded.n_documents == served.n_documents
        assert loaded.drift == pytest.approx(served.drift)
        assert loaded.needs_refit == served.needs_refit
        writer_stats = loaded.stats()
        assert writer_stats.fold_ins_since_refit == 3
        assert writer_stats.deletes_since_refit == 2

    def test_vocabulary_roundtrips(self, dense_matrix, tmp_path):
        terms = tuple(f"t{i}" for i in range(dense_matrix.shape[0]))
        index = ServedIndex.fit(dense_matrix, 3, engine="exact",
                                vocabulary=terms)
        loaded = ServedIndex.load(index.save(tmp_path / "b"))
        assert loaded.vocabulary == terms

    def test_manifest_records_env_and_checksum(self, served, tmp_path):
        path = served.save(tmp_path / "b")
        manifest = read_manifest(path, verify_arrays=True)
        assert manifest["format"] == BUNDLE_FORMAT
        assert set(environment_fingerprint()) <= set(manifest["env"])
        # Schema 4: six arrays, one copy of the document store.
        assert sorted(manifest["checksums"]) == [
            "doc_norms.npy", "doc_unit.npy", "frobenius_norm_sq.npy",
            "singular_values.npy", "tombstones.npy", "u.npy"]
        assert manifest["schema_version"] == 4
        for digest in manifest["checksums"].values():
            assert digest.startswith("sha256:")


class TestBundleRejection:
    def test_missing_bundle(self, tmp_path):
        with pytest.raises(PersistenceError, match="not an index"):
            read_bundle(tmp_path / "nope")

    def test_corrupted_arrays_detected(self, served, tmp_path):
        path = served.save(tmp_path / "b")
        arrays = path / "doc_unit.npy"
        blob = bytearray(arrays.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        arrays.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="corrupted"):
            read_bundle(path)

    def test_foreign_format_marker_rejected(self, served, tmp_path):
        path = served.save(tmp_path / "b")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["format"] = "someone-elses-index"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="foreign"):
            read_bundle(path)

    def test_future_schema_rejected(self, served, tmp_path):
        path = served.save(tmp_path / "b")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 99
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="schema_version"):
            read_manifest(path)

    def test_unparsable_manifest_rejected(self, served, tmp_path):
        path = served.save(tmp_path / "b")
        (path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(PersistenceError, match="unreadable"):
            read_manifest(path)

    def test_manifest_shape_mismatch_rejected(self, served, tmp_path):
        path = served.save(tmp_path / "b")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["n_documents"] = 9999
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="mismatch"):
            read_bundle(path)

    @pytest.mark.parametrize("mmap", [False, True],
                             ids=["eager", "mmap"])
    @pytest.mark.parametrize("key, value", [
        ("drift_threshold", 2.0),
        ("drift_threshold", "abc"),
        ("unabsorbed_energy", -5.0),
        ("unabsorbed_energy", float("nan")),
        ("stats", {"queries_served": "x"}),
        ("stats", {"drift": "abc"}),
    ], ids=["threshold-above-one", "threshold-string",
            "negative-energy", "nan-energy", "string-counter",
            "string-drift"])
    def test_bad_manifest_value_rejected(self, served, key, value,
                                         mmap, tmp_path, capsys):
        from repro.cli import main

        # The manifest has no checksum, so its values are range-checked
        # on load instead of escaping later from the writer or stats().
        path = served.save(tmp_path / "b")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest[key] = value
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match=f"failed validation.*"
                           f"{key}"):
            ServedIndex.load(path, config=ServingConfig(mmap=mmap))
        # serve-stats still prints the raw manifest.
        assert main(["serve-stats", str(path), "--json"]) == 0
        assert key in json.loads(capsys.readouterr().out)
        # The text report checks the values by the loader's rules and
        # names the bad one instead of failing on it mid-report.
        assert main(["serve-stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid manifest value" in captured.err
        assert key in captured.err

    @pytest.mark.parametrize("mmap", [False, True],
                             ids=["eager", "mmap"])
    @pytest.mark.parametrize("key, value", [
        ("stats", 5),
        ("stats", "abc"),
        ("stats", [1]),
        ("n_documents", "abc"),
        ("rank", "x"),
        ("n_tombstoned", "x"),
        ("captured_energy", "x"),
        ("env", 5),
        ("vocabulary", 5),
    ], ids=["stats-number", "stats-string", "stats-list",
            "n_documents-string", "rank-string", "n_tombstoned-string",
            "captured_energy-string", "env-number", "vocabulary-number"])
    def test_bad_manifest_shape_rejected(self, served, key, value, mmap,
                                         tmp_path, capsys):
        from repro.cli import main

        # A field of the wrong JSON type fails the load and the text
        # report through one shared check, as the value rules do,
        # instead of escaping as TypeError/ValueError or loading as
        # zero counters.
        path = served.save(tmp_path / "b")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest[key] = value
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match=f"manifest {key} "
                           f"must be"):
            ServedIndex.load(path, config=ServingConfig(mmap=mmap))
        assert main(["serve-stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid manifest value" in captured.err
        assert key in captured.err

    def test_malformed_checksums_record_no_digest(self, served, tmp_path,
                                                  capsys):
        from repro.cli import main

        # A checksums field that is not an object records no digest:
        # verification names every file instead of crashing, and a
        # mapped load, which skips verification, still serves.
        path = served.save(tmp_path / "b")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["checksums"] = 5
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError,
                           match="6 file.*no recorded checksum"):
            ServedIndex.load(path)
        mapped = ServedIndex.load(path, config=ServingConfig(mmap=True))
        assert mapped.n_documents == served.n_documents
        for extra in ([], ["--json"]):
            assert main(["serve-stats", str(path), "--verify",
                         *extra]) == 2
            assert "no recorded checksum" in "".join(capsys.readouterr())

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_legacy_schema_refused(self, served, version, tmp_path,
                                   capsys):
        from repro.cli import main

        # Schemas 1 and 2 kept their arrays in one arrays.npz (v1 the
        # factors only); schema 3 kept one .npy per array, with vt and
        # the raw store doc_vectors beside doc_unit.  None is read any
        # more, mapped or eager, and no older checkout writes schema 4.
        path = served.save(tmp_path / "b")
        model = served.model
        doc_unit, doc_norms = served._writer.store
        arrays = {"u": model.svd.u,
                  "singular_values": model.svd.singular_values,
                  "vt": model.svd.vt,
                  "frobenius_norm_sq": np.float64(
                      model.svd.frobenius_norm_sq),
                  "doc_vectors": model.document_vectors(),
                  "doc_unit": doc_unit, "doc_norms": doc_norms,
                  "tombstones": np.zeros(0, dtype=np.int64)}
        names = {1: ("u", "singular_values", "vt", "frobenius_norm_sq"),
                 2: ("u", "singular_values", "vt", "frobenius_norm_sq",
                     "doc_vectors", "tombstones"),
                 3: tuple(arrays)}[version]
        for npy in path.glob("*.npy"):
            npy.unlink()
        if version == 3:
            for name in names:
                np.save(path / f"{name}.npy", arrays[name])
            files = [f"{name}.npy" for name in names]
        else:
            np.savez(path / "arrays.npz",
                     **{name: arrays[name] for name in names})
            files = ["arrays.npz"]
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["schema_version"] = version
        manifest["checksums"] = {name: sha256_file(path / name)
                                 for name in files}
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        for mmap in (False, True):
            with pytest.raises(PersistenceError,
                               match=f"schema_version {version}.*rebuild"):
                ServedIndex.load(path, config=ServingConfig(mmap=mmap))
        assert main(["serve-stats", str(path)]) == 2
        assert f"schema_version {version}" in capsys.readouterr().err

    def test_sharded_directory_refused(self, served, queries, tmp_path,
                                       capsys):
        from repro.cli import main

        # The sharded layout is no longer read: its top-level manifest
        # is refused by name, and each shard-NNN/ inside it stays a
        # schema-3 bundle that loads on its own, with its global ids in
        # shard-NNN.ids.npy.
        expected = served.rank_batch(queries, top_k=10)
        path = tmp_path / "cluster"
        served.save(path / "shard-000")
        np.save(path / "shard-000.ids.npy",
                np.arange(served.n_documents))
        marker = "repro-lsi-sharded-index"
        shard = {"bundle": "shard-000", "ids_file": "shard-000.ids.npy",
                 "n_documents": served.n_documents,
                 "n_active": served.n_active}
        (path / MANIFEST_NAME).write_text(json.dumps({
            "format": marker, "schema_version": 1,
            "assignment": "contiguous", "cursor": 0, "n_shards": 1,
            "n_documents": served.n_documents,
            "n_active": served.n_active, "shards": [shard]}))
        for mmap in (False, True):
            with pytest.raises(PersistenceError, match=marker):
                ServedIndex.load(path, config=ServingConfig(mmap=mmap))
        assert main(["serve-stats", str(path)]) == 2
        assert marker in capsys.readouterr().err
        loaded = ServedIndex.load(path / "shard-000")
        global_ids = np.load(path / "shard-000.ids.npy")
        assert np.array_equal(
            global_ids[loaded.rank_batch(queries, top_k=10)], expected)


class TestServedIndex:
    def test_satisfies_retriever_protocol(self, served, model,
                                          tiny_matrix):
        from repro.core.two_step import TwoStepLSI
        from repro.ir.bm25 import BM25Model
        from repro.ir.vsm import VectorSpaceModel

        assert isinstance(served, Retriever)
        assert isinstance(model, Retriever)
        assert isinstance(
            VectorSpaceModel.fit(tiny_matrix), Retriever)
        assert isinstance(BM25Model.fit(tiny_matrix), Retriever)
        assert isinstance(
            TwoStepLSI.fit(tiny_matrix, 4, 20, seed=0), Retriever)

    def test_rankings_match_plain_model(self, served, model, queries):
        for i in range(queries.shape[1]):
            assert np.array_equal(
                served.rank_documents(queries[:, i], top_k=5),
                model.rank_documents(queries[:, i], top_k=5))

    def test_repeat_query_hits_cache(self, served, queries):
        query = queries[:, 0]
        first = served.rank_documents(query, top_k=5)
        second = served.rank_documents(query, top_k=5)
        assert np.array_equal(first, second)
        stats = served.stats()
        assert stats.cache_hits == 1
        assert stats.queries_served == 2

    def test_update_invalidates_cache(self, served, queries, rng):
        query = queries[:, 0]
        served.rank_documents(query, top_k=5)
        generation_before = served.index_version
        served.add_documents(rng.random((served.n_terms, 2)))
        assert served.index_version != generation_before
        served.rank_documents(query, top_k=5)
        assert served.stats().cache_hits == 0

    def test_batch_mixes_cached_and_fresh(self, served, model, queries):
        served.rank_documents(queries[:, 2], top_k=4)
        batched = served.rank_batch(queries, top_k=4)
        assert served.stats().cache_hits == 1
        engine = BatchQueryEngine(
            model.term_basis, *normalize_columns(model.document_vectors()))
        assert np.array_equal(batched,
                              engine.rank_batch(queries, top_k=4))

    def test_removed_documents_leave_rankings(self, served, queries):
        removed = int(served.rank_documents(queries[:, 0], top_k=1)[0])
        served.remove_documents([removed])
        ranked = served.rank_documents(queries[:, 0])
        assert removed not in ranked
        assert ranked.shape[0] == served.n_active

    def test_refit_restores_health(self, served, dense_matrix, rng):
        served = ServedIndex(
            served.model,
            config=ServingConfig(drift_threshold=1e-6))
        served.add_documents(rng.random((served.n_terms, 4)))
        assert served.needs_refit
        served.refit(dense_matrix, engine="exact")
        assert not served.needs_refit
        assert served.stats().refits == 1

    def test_stats_accumulate_across_roundtrip(self, served, queries,
                                               tmp_path):
        served.rank_batch(queries, top_k=3)
        saved_queries = served.stats().queries_served
        loaded = ServedIndex.load(served.save(tmp_path / "b"))
        loaded.rank_documents(queries[:, 0], top_k=3)
        assert loaded.stats().queries_served == saved_queries + 1

    @pytest.mark.parametrize("doc_ids", [[3, 3], [2.7], [True]],
                             ids=["repeated", "float", "bool"])
    def test_bad_remove_changes_nothing(self, served, doc_ids):
        def state():
            return (served.drift, served.stats().deletes_since_refit,
                    served.generation, served.tombstones)

        before = state()
        with pytest.raises(ValidationError):
            served.remove_documents(doc_ids)
        assert state() == before

    def test_fold_in_during_engine_build_is_not_served_as_new(
            self, model, queries, rng, monkeypatch):
        from repro.serving import index as index_module

        # A write that lands while the engine is built, as when a
        # dispatcher's flusher races a writer thread, must leave that
        # engine tagged with the generation it was built for.
        query = queries[:, 0]
        new_docs = rng.random((model.n_terms, 3))
        old_ranking = ServedIndex(model).rank_documents(query)
        reference = ServedIndex(model)
        reference.add_documents(new_docs)
        new_ranking = reference.rank_documents(query)
        index = ServedIndex(model)

        class FoldsInWhileBuilt(BatchQueryEngine):
            fired = False

            def __init__(self, *args, **kwargs):
                if not FoldsInWhileBuilt.fired:
                    FoldsInWhileBuilt.fired = True
                    index.add_documents(new_docs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(index_module, "BatchQueryEngine",
                            FoldsInWhileBuilt)
        # The racing call ranks the store it read; the next rebuilds.
        assert np.array_equal(index.rank_documents(query), old_ranking)
        assert index.score(query).shape == (model.n_documents + 3,)
        assert np.array_equal(index.rank_documents(query), new_ranking)

    @pytest.mark.parametrize("write", ["add", "remove", "refit"])
    def test_a_write_drops_the_superseded_engine(self, model,
                                                 dense_matrix, queries,
                                                 rng, write):
        index = ServedIndex(model)
        index.rank_documents(queries[:, 0], top_k=3)
        engine = weakref.ref(index._engine())
        if write == "add":
            index.add_documents(rng.random((model.n_terms, 2)))
        elif write == "remove":
            index.remove_documents([0])
        else:
            index.refit(dense_matrix, engine="exact")
        gc.collect()
        assert engine() is None

    def test_concurrent_readers_share_one_engine(self, rng):
        import sys
        import threading

        # A dispatcher's flusher and its callers rank through one
        # engine at once; it holds no state a call writes.
        model = LSIModel.fit(rng.random((64, 3000)), 16, engine="exact")
        index = ServedIndex(model,
                            config=ServingConfig(cache_capacity=0))
        blocks = [rng.random((64, 8)) for _ in range(4)]
        serial = [index.rank_batch(block, top_k=10) for block in blocks]
        errors = []

        def reader(block, expected):
            try:
                for _ in range(100):
                    ranking = index.rank_batch(block, top_k=10)
                    if not np.array_equal(ranking, expected):
                        errors.append("ranking differs from serial")
            except Exception as error:  # noqa: BLE001 - recorded
                errors.append(repr(error))

        threads = [threading.Thread(target=reader, args=pair)
                   for pair in zip(blocks, serial)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestServeStatsCLI:
    def test_text_output(self, served, queries, tmp_path, capsys):
        from repro.cli import main

        served.rank_batch(queries, top_k=5)
        path = served.save(tmp_path / "b")
        assert main(["serve-stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "queries served" in out and "drift" in out

    def test_json_output(self, served, tmp_path, capsys):
        from repro.cli import main

        path = served.save(tmp_path / "b")
        assert main(["serve-stats", str(path), "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["format"] == BUNDLE_FORMAT

    def test_verify_detects_corruption(self, served, tmp_path,
                                       capsys):
        from repro.cli import main

        path = served.save(tmp_path / "b")
        arrays = path / "u.npy"
        blob = bytearray(arrays.read_bytes())
        blob[-1] ^= 0xFF
        arrays.write_bytes(bytes(blob))
        assert main(["serve-stats", str(path), "--verify"]) == 2
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "u.npy" in captured.err
        assert "expected" in captured.err

    def test_non_bundle_path_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["serve-stats", str(tmp_path / "nope")]) == 2
        assert "not an index bundle" in capsys.readouterr().err


class TestServingStats:
    def test_dict_roundtrip_ignores_unknown_keys(self):
        stats = ServingStats(queries_served=3, cache_hits=1,
                             cache_misses=1)
        payload = stats.as_dict()
        payload["from_the_future"] = 42
        assert ServingStats.from_dict(payload) == stats

    def test_hit_rate(self):
        assert ServingStats().cache_hit_rate == 0.0
        stats = ServingStats(cache_hits=3, cache_misses=1)
        assert stats.cache_hit_rate == pytest.approx(0.75)
