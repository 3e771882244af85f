"""Tests for the streaming/out-of-core SVD subsystem.

Covers the mergeable :class:`PartialSVD` algebra (associativity up to
a rotation, energy monotonicity, error-bound validity — the hypothesis
properties the merge math promises, checked on ``exact_svd`` inputs),
the direct block kernel against the exact SVD, the block iterators,
``fit_streamed`` on models and served indexes, both modes of the
writer's ``refit()`` and the options each takes, the ``serve-stats``
writer-state report, and a subprocess peak-RSS check that the streamed
path actually stays out-of-core.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus, Document, corpus_column_blocks
from repro.core.lsi import LSIModel
from repro.errors import EmptyCorpusError, RankError, ValidationError
from repro.linalg import sin_theta_distance, truncated_svd
from repro.linalg.incremental import (
    DIRECT_SPLIT_WIDTH,
    PartialSVD,
    block_updates,
    concat_columns,
    iter_column_blocks,
    merge,
)
from repro.linalg.dense import normalize_columns
from repro.linalg.sparse import CSRMatrix
from repro.linalg.svd import SVDResult, exact_svd
from repro.serving import IndexWriter, ServedIndex, ServingConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


def low_rank_matrix(rng, n, m, rank, noise=0.01):
    """A planted rank-``rank`` matrix plus small dense noise."""
    left = rng.standard_normal((n, rank))
    right = rng.standard_normal((rank, m))
    return left @ right + noise * rng.standard_normal((n, m))


def exact_part(block, rank):
    """The exact rank-``rank`` SVD of ``block`` as a merge input."""
    return PartialSVD.from_svd_result(
        exact_svd(block).truncate(min(rank, *block.shape)))


def score_batch(model, queries):
    """Score a ``(n_terms, q)`` query block: ``(n_docs, q)`` cosines."""
    return np.stack([model.score(queries[:, j])
                     for j in range(queries.shape[1])], axis=1)


def assert_models_close(a, b, atol=1e-10):
    """Two LSI models have the same factors within ``atol``."""
    for left, right in ((a.svd.u, b.svd.u),
                        (a.svd.singular_values, b.svd.singular_values),
                        (a.svd.vt, b.svd.vt)):
        np.testing.assert_allclose(left, right, rtol=0, atol=atol)


def top_k_overlap(a_scores, b_scores, k):
    """Mean top-``k`` set overlap between two score matrices."""
    a_top = np.argsort(-a_scores, axis=0)[:k]
    b_top = np.argsort(-b_scores, axis=0)[:k]
    overlaps = [
        len(set(a_top[:, j]) & set(b_top[:, j])) / k
        for j in range(a_scores.shape[1])
    ]
    return float(np.mean(overlaps))


# ---------------------------------------------------------------------------
# Block iterators
# ---------------------------------------------------------------------------

class TestIterColumnBlocks:
    def test_dense_widths_and_reassembly(self, rng):
        matrix = rng.standard_normal((17, 300))
        blocks = list(iter_column_blocks(matrix, 64))
        assert [b.shape[1] for b in blocks] == [64, 64, 64, 64, 44]
        assert all(b.shape[0] == 17 for b in blocks)
        assert np.array_equal(np.hstack(blocks), matrix)

    def test_dense_blocks_are_views(self, rng):
        matrix = rng.standard_normal((5, 20))
        block = next(iter_column_blocks(matrix, 8))
        assert block.base is matrix

    def test_csr_reassembly_exact(self, rng):
        dense = rng.standard_normal((23, 97))
        dense[dense < 0.7] = 0.0
        sparse = CSRMatrix.from_dense(dense)
        blocks = list(iter_column_blocks(sparse, 10))
        assert all(isinstance(b, CSRMatrix) for b in blocks)
        assert [b.shape[1] for b in blocks] == [10] * 9 + [7]
        rebuilt = np.hstack([b.to_dense() for b in blocks])
        assert np.array_equal(rebuilt, dense)

    def test_oversized_block_size_yields_single_block(self, rng):
        matrix = rng.standard_normal((4, 9))
        blocks = list(iter_column_blocks(matrix, 100))
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], matrix)

    def test_invalid_inputs_raise(self, rng):
        with pytest.raises(ValidationError):
            list(iter_column_blocks(rng.standard_normal((4, 4)), 0))
        with pytest.raises(ValidationError):
            list(iter_column_blocks(np.ones(5), 2))


class TestCorpusColumnBlocks:
    @pytest.fixture
    def corpus(self, rng):
        docs = []
        for _ in range(37):
            terms = rng.choice(50, size=rng.integers(1, 8),
                               replace=False)
            docs.append(Document(
                {int(t): int(rng.integers(1, 5)) for t in terms},
                universe_size=50))
        return Corpus(docs)

    @pytest.mark.parametrize("weighting",
                             ["count", "binary", "tf", "log_tf"])
    def test_blocks_match_full_matrix(self, corpus, weighting):
        full = corpus.term_document_matrix(
            weighting=weighting).to_dense()
        blocks = list(corpus_column_blocks(corpus, 10,
                                           weighting=weighting))
        assert [b.shape[1] for b in blocks] == [10, 10, 10, 7]
        rebuilt = np.hstack([b.to_dense() for b in blocks])
        assert np.allclose(rebuilt, full)

    def test_global_weighting_rejected(self, corpus):
        with pytest.raises(ValidationError, match="column-local"):
            list(corpus_column_blocks(corpus, 10, weighting="tfidf"))

    def test_non_corpus_rejected(self, rng):
        with pytest.raises(ValidationError):
            list(corpus_column_blocks(rng.random((4, 4)), 2))


# ---------------------------------------------------------------------------
# PartialSVD value type
# ---------------------------------------------------------------------------

class TestPartialSVD:
    def test_from_block_accounting(self, rng):
        block = rng.standard_normal((30, 12))
        part = PartialSVD.from_block(block, 5)
        assert part.rank == 5 and part.n_terms == 30
        assert part.n_columns == 12 and part.merges == 0
        assert part.frobenius_norm_sq == pytest.approx(
            float(np.sum(block * block)))
        # Pythagorean: bound of a direct fit IS the exact residual.
        exact = exact_svd(block)
        tail = float(np.sum(exact.singular_values[5:] ** 2))
        assert part.error_bound == pytest.approx(np.sqrt(tail),
                                                 rel=1e-8)
        assert part.residual_energy() == pytest.approx(tail, rel=1e-8)
        assert 0.0 < part.energy_fraction() <= 1.0

    def test_rank_clamped_to_block_shape(self, rng):
        part = PartialSVD.from_block(rng.standard_normal((30, 3)), 10)
        assert part.rank == 3

    def test_truncate_grows_bound_and_is_idempotent(self, rng):
        part = PartialSVD.from_block(rng.standard_normal((20, 15)), 8)
        cut = part.truncate(5)
        assert cut.rank == 5
        dropped = float(np.sum(part.singular_values[5:] ** 2))
        assert cut.error_bound == pytest.approx(
            part.error_bound + np.sqrt(dropped))
        assert cut.truncate(5) is cut
        assert part.truncate(8) is part

    def test_invariant_violations_raise(self, rng):
        u, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        good = np.array([3.0, 2.0, 1.0])
        vt = rng.standard_normal((3, 5))
        with pytest.raises(ValidationError, match="non-increasing"):
            PartialSVD(u, good[::-1].copy(), vt, 20.0)
        with pytest.raises(ValidationError, match="ranks"):
            PartialSVD(u, good[:2], vt, 20.0)
        with pytest.raises(ValidationError, match="non-negative"):
            PartialSVD(u, good, vt, -1.0)


# ---------------------------------------------------------------------------
# Merge algebra — hypothesis properties
# ---------------------------------------------------------------------------

@st.composite
def block_triples(draw):
    """Three column-disjoint blocks over one term space."""
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(6, 20))
    widths = [draw(st.integers(2, 10)) for _ in range(3)]
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((n, w)) for w in widths]
    return blocks, rank


class TestMergeProperties:
    @given(block_triples())
    @settings(max_examples=40, deadline=None)
    def test_merge_associative_up_to_rotation(self, case):
        blocks, rank = case
        parts = [exact_part(b, rank) for b in blocks]
        left = merge(merge(parts[0], parts[1]), parts[2])
        right = merge(parts[0], merge(parts[1], parts[2]))
        # Same spectrum and, away from tolerance-sized directions,
        # the same retained subspace up to rotation.  The rank-
        # revealing merge may keep different numbers of ~null
        # directions per association order, so compare only the
        # leading triplets with clearly nonzero singular values.
        k = min(left.rank, right.rank)
        assert np.allclose(left.singular_values[:k],
                           right.singular_values[:k], atol=1e-7)
        top = max(left.singular_values[0], right.singular_values[0],
                  1e-12)
        solid = int(min(np.sum(left.singular_values > 1e-6 * top),
                        np.sum(right.singular_values > 1e-6 * top)))
        if solid:
            assert sin_theta_distance(left.u[:, :solid],
                                      right.u[:, :solid]) < 1e-6
        assert left.captured_energy() == pytest.approx(
            right.captured_energy(), rel=1e-9, abs=1e-9)

    @given(block_triples())
    @settings(max_examples=40, deadline=None)
    def test_captured_energy_monotone_across_merges(self, case):
        blocks, rank = case
        parts = [exact_part(b, rank) for b in blocks]
        accumulated = parts[0]
        for part in parts[1:]:
            # keep >= max(k1, k2): monotonicity is guaranteed.
            keep = max(accumulated.rank, part.rank)
            grown = merge(accumulated, part, rank=keep)
            tol = 1e-9 * (1.0 + accumulated.captured_energy())
            assert grown.captured_energy() >= \
                accumulated.captured_energy() - tol
            assert grown.captured_energy() >= \
                part.captured_energy() - tol
            accumulated = grown

    @given(block_triples())
    @settings(max_examples=40, deadline=None)
    def test_error_bound_dominates_true_residual(self, case):
        blocks, rank = case
        full = np.hstack(blocks)
        accumulated = block_updates(iter(blocks), rank, oversample=2)
        approx = (accumulated.u * accumulated.singular_values) \
            @ accumulated.vt
        actual = float(np.linalg.norm(full - approx))
        assert accumulated.error_bound >= actual - 1e-8
        # Energy conservation: frobenius bookkeeping is exact.
        assert accumulated.frobenius_norm_sq == pytest.approx(
            float(np.sum(full * full)), rel=1e-9)


@st.composite
def direct_blocks(draw, wide=False):
    """A block, its working rank and its storage for the direct kernel.

    ``structure`` plants the rank-deficient cases: repeated columns,
    zeroed columns and an all-zero block.  Wide blocks are wider than
    ``DIRECT_SPLIT_WIDTH`` and exactly rank ``≤ rank``, so splitting
    and merging them truncates nothing and ``exact`` is the reference.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rank = draw(st.integers(1, 12))
    if wide:
        n = draw(st.integers(2, 30))
        b = draw(st.integers(DIRECT_SPLIT_WIDTH + 1,
                             DIRECT_SPLIT_WIDTH + 80))
        inner = draw(st.integers(1, rank))
        block = rng.standard_normal((n, inner)) \
            @ rng.standard_normal((inner, b))
    else:
        n = draw(st.integers(1, 40))
        b = draw(st.integers(1, 30))
        block = rng.standard_normal((n, b))
        structure = draw(st.sampled_from(
            ["generic", "duplicate", "zero_columns", "all_zero"]))
        if structure == "duplicate":
            block = block[:, rng.integers(0, max(1, b // 2), b)]
        elif structure == "zero_columns":
            block[:, rng.random(b) < 0.5] = 0.0
        elif structure == "all_zero":
            block[:] = 0.0
    if draw(st.booleans()):
        return CSRMatrix.from_dense(block), block, rank
    return block, block, rank


class TestDirectKernelProperties:
    """The block kernel (Gram + Rayleigh–Ritz) against ``exact``."""

    @staticmethod
    def _check_matches_exact(block, dense, rank):
        direct = PartialSVD.from_block(block, rank)
        exact = truncated_svd(dense, min(rank, *dense.shape),
                              engine="exact")
        top = max(float(exact.singular_values[0]), 1e-300)
        k = min(direct.rank, exact.rank)
        assert np.all(np.abs(direct.singular_values[:k]
                             - exact.singular_values[:k])
                      <= 1e-10 * top)
        # Any triplets only one side kept are numerically zero.
        assert np.all(direct.singular_values[k:] <= 1e-10 * top)
        assert np.all(exact.singular_values[k:] <= 1e-10 * top)
        gram = direct.u.T @ direct.u
        assert np.abs(gram - np.eye(direct.rank)).max() <= 1e-12
        approx = (direct.u * direct.singular_values) @ direct.vt
        actual = float(np.linalg.norm(dense - approx))
        # ‖B‖² − Σσ² cancels to about sqrt(eps)·‖B‖ when the residual
        # is tiny; beyond that the Pythagorean bound is exact.
        norm = float(np.linalg.norm(dense))
        assert direct.error_bound >= actual - 1e-8 * max(norm, 1.0)
        assert direct.n_columns == dense.shape[1]
        assert direct.frobenius_norm_sq == pytest.approx(
            norm * norm, rel=1e-12, abs=1e-300)
        return direct, exact

    @given(direct_blocks())
    @settings(max_examples=80, deadline=None)
    def test_matches_exact(self, case):
        block, dense, rank = case
        direct, exact = self._check_matches_exact(block, dense, rank)
        # Narrow blocks (b < w included) keep min(n, b, rank) triplets.
        assert direct.rank == exact.rank == min(rank, *dense.shape)
        assert direct.merges == 0

    @given(direct_blocks(wide=True))
    @settings(max_examples=15, deadline=None)
    def test_wide_blocks_split_and_merge(self, case):
        block, dense, rank = case
        direct, _ = self._check_matches_exact(block, dense, rank)
        assert direct.merges == 1   # two pieces of ≤ 256 + 80 columns

    def test_empty_block_raises(self):
        with pytest.raises(ValidationError, match="empty block"):
            PartialSVD.from_block(np.zeros((5, 0)), 2)


@st.composite
def raw_merges(draw):
    """A partial SVD, a raw block to merge into it, and the rank.

    The block is dense or CSR: generic, with repeated or zeroed
    columns, all zero, narrower than the rank, or wider than
    ``DIRECT_SPLIT_WIDTH``.  A wide block is exactly low rank and the
    rank leaves room for it beside ``a``, so merging it piece by piece
    truncates nothing the factored block keeps.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 30))
    left = rng.standard_normal((n, draw(st.integers(1, 20))))
    a = PartialSVD.from_block(left, draw(st.integers(1, 6)))
    structure = draw(st.sampled_from(
        ["generic", "duplicate", "zero_columns", "all_zero", "narrow",
         "wide"]))
    if structure == "wide":
        rank = a.rank + draw(st.integers(1, 6))
        inner = draw(st.integers(1, rank - a.rank))
        block = rng.standard_normal((n, inner)) @ rng.standard_normal(
            (inner, draw(st.integers(DIRECT_SPLIT_WIDTH + 1,
                                     DIRECT_SPLIT_WIDTH + 80))))
    else:
        rank = draw(st.integers(1, 12))
        b = draw(st.integers(1, rank - 1)) \
            if structure == "narrow" and rank > 1 \
            else draw(st.integers(1, 30))
        block = rng.standard_normal((n, b))
        if structure == "duplicate":
            block = block[:, rng.integers(0, max(1, b // 2), b)]
        elif structure == "zero_columns":
            block[:, rng.random(b) < 0.5] = 0.0
        elif structure == "all_zero":
            block[:] = 0.0
    raw = CSRMatrix.from_dense(block) if draw(st.booleans()) else block
    return a, left, raw, block, rank


class TestRawBlockMerge:
    """``merge`` takes a raw block through its Ritz pairs."""

    @given(raw_merges())
    @settings(max_examples=80, deadline=None)
    def test_raw_block_merge_matches_the_factored_block(self, case):
        a, left, raw, block, rank = case
        merged = merge(a, raw, rank=rank)
        gram = merged.u.T @ merged.u
        assert np.abs(gram - np.eye(merged.rank)).max() <= 1e-12
        spectrum = merged.singular_values
        assert np.all(np.isfinite(spectrum))
        assert np.all(np.diff(spectrum) <= 0.0)
        full = np.hstack([left, block])
        approx = (merged.u * spectrum) @ merged.vt
        actual = float(np.linalg.norm(full - approx))
        # ‖B‖² − ‖B·V‖² cancels to about sqrt(eps)·‖B‖_F when the
        # residual is tiny (see TestDirectKernelProperties).
        norm = float(np.linalg.norm(full))
        assert merged.error_bound >= actual - 1e-8 * max(norm, 1.0)
        assert merged.n_columns == full.shape[1]
        assert merged.frobenius_norm_sq == pytest.approx(
            norm * norm, rel=1e-12)
        factored = merge(a, PartialSVD.from_block(raw, rank), rank=rank)
        assert abs(merged.captured_energy() - factored.captured_energy()) \
            <= 1e-12 * factored.captured_energy()

    def test_empty_block_raises(self, rng):
        a = PartialSVD.from_block(rng.standard_normal((6, 4)), 2)
        with pytest.raises(ValidationError, match="empty block"):
            merge(a, np.zeros((6, 0)))
        with pytest.raises(ValidationError, match="term spaces"):
            merge(a, rng.standard_normal((7, 3)))


class TestMergeValidation:
    def test_mismatched_term_spaces_raise(self, rng):
        a = exact_part(rng.standard_normal((8, 4)), 2)
        b = exact_part(rng.standard_normal((9, 4)), 2)
        with pytest.raises(ValidationError, match="term spaces"):
            merge(a, b)

    def test_merge_exact_on_disjoint_subspaces(self):
        # Two exactly low-rank blocks in orthogonal subspaces merge
        # losslessly: the spectrum is the union of the inputs'.
        a_block = np.zeros((6, 3))
        a_block[0, 0], a_block[1, 1] = 4.0, 2.0
        b_block = np.zeros((6, 3))
        b_block[2, 0], b_block[3, 1] = 3.0, 1.0
        merged = merge(exact_part(a_block, 2), exact_part(b_block, 2))
        assert np.allclose(merged.singular_values, [4.0, 3.0, 2.0, 1.0])
        assert merged.error_bound == pytest.approx(0.0, abs=1e-9)
        assert merged.n_columns == 6 and merged.merges == 1


# ---------------------------------------------------------------------------
# block_updates
# ---------------------------------------------------------------------------

class TestBlockUpdates:
    def test_empty_stream_raises(self):
        with pytest.raises(EmptyCorpusError):
            block_updates(iter([]), 3)

    def test_inconsistent_rows_raise(self, rng):
        blocks = [rng.standard_normal((8, 4)),
                  rng.standard_normal((9, 4))]
        with pytest.raises(ValidationError, match="rows"):
            block_updates(iter(blocks), 2)

    def test_rechunking_oversized_blocks(self, rng):
        matrix = low_rank_matrix(rng, 20, 90, 4)
        direct = block_updates(iter_column_blocks(matrix, 16), 4)
        rechunked = block_updates(iter([matrix]), 4, block_size=16)
        assert rechunked.n_columns == 90
        assert np.allclose(direct.singular_values,
                           rechunked.singular_values, atol=1e-8)

    def test_streamed_recovers_planted_spectrum(self, rng):
        matrix = low_rank_matrix(rng, 40, 200, 5, noise=0.001)
        streamed = block_updates(iter_column_blocks(matrix, 32), 5,
                                 oversample=8)
        exact = truncated_svd(matrix, 5, engine="exact")
        assert np.allclose(streamed.singular_values,
                           exact.singular_values, rtol=1e-3)
        assert sin_theta_distance(streamed.u, exact.u) < 1e-2
        assert streamed.energy_fraction() > 0.999


class TestIncrementalEngine:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_exact_on_low_rank(self, rng, sparse):
        matrix = low_rank_matrix(rng, 50, 300, 6, noise=0.0)
        source = CSRMatrix.from_dense(matrix) if sparse else matrix
        result = LSIModel.fit_streamed(source, 6, block_size=64).svd
        exact = truncated_svd(matrix, 6, engine="exact")
        assert np.allclose(result.singular_values,
                           exact.singular_values, rtol=1e-6)
        assert sin_theta_distance(result.u, exact.u) < 1e-6


# ---------------------------------------------------------------------------
# fit_streamed — model and served index
# ---------------------------------------------------------------------------

class TestFitStreamed:
    def test_stream_matches_eager_rankings(self, rng):
        matrix = low_rank_matrix(rng, 60, 400, 8, noise=0.01)
        eager = LSIModel.fit(matrix, 8, engine="exact")
        streamed = LSIModel.fit_streamed(
            iter_column_blocks(matrix, 64), 8, oversample=16)
        queries = rng.random((60, 12))
        overlap = top_k_overlap(score_batch(eager, queries),
                                score_batch(streamed, queries), 10)
        assert overlap >= 0.99
        assert streamed.n_documents == 400

    def test_matrix_input_is_chunked(self, rng):
        matrix = low_rank_matrix(rng, 30, 100, 4)
        model = LSIModel.fit_streamed(matrix, 4, block_size=25)
        assert model.rank == 4 and model.n_documents == 100

    def test_empty_stream_raises(self):
        with pytest.raises(EmptyCorpusError):
            LSIModel.fit_streamed(iter([]), 3)

    def test_served_index_fit_streamed(self, rng):
        matrix = low_rank_matrix(rng, 40, 150, 5)
        config = ServingConfig(stream_block_size=32,
                               stream_oversample=12)
        index = ServedIndex.fit_streamed(
            iter_column_blocks(matrix, 32), 5, config=config)
        assert index.n_documents == 150 and index.rank == 5
        eager = LSIModel.fit(matrix, 5, engine="exact")
        queries = rng.random((40, 6))
        assert top_k_overlap(score_batch(eager, queries),
                             score_batch(index.model, queries),
                             10) >= 0.95

    def test_corpus_stream_end_to_end(self, rng):
        docs = []
        for _ in range(60):
            terms = rng.choice(30, size=rng.integers(2, 9),
                               replace=False)
            docs.append(Document(
                {int(t): int(rng.integers(1, 4)) for t in terms},
                universe_size=30))
        corpus = Corpus(docs)
        # oversample=26 lifts the working rank to the term-universe
        # size, so the merge is lossless and the streamed model must
        # agree with the eager one in full.
        streamed = LSIModel.fit_streamed(
            corpus_column_blocks(corpus, 16, weighting="log_tf"), 4,
            oversample=26)
        full = corpus.term_document_matrix(weighting="log_tf")
        eager = LSIModel.fit(full, 4, engine="exact")
        queries = rng.random((30, 8))
        assert top_k_overlap(score_batch(eager, queries),
                             score_batch(streamed, queries),
                             10) >= 0.99

    def test_stream_config_knobs_validate(self):
        with pytest.raises(ValidationError):
            ServingConfig(stream_block_size=0)
        with pytest.raises(ValidationError):
            ServingConfig(stream_oversample=-1)

    def test_served_fit_ignores_seed(self, rng):
        # The block kernel draws no random numbers, which is what
        # documenting ServedIndex.fit_streamed's seed as unused rests on.
        matrix = CSRMatrix.from_dense(low_rank_matrix(rng, 40, 300, 5))
        config = ServingConfig(stream_block_size=64)
        first, second = (ServedIndex.fit_streamed(matrix, 5, seed=seed,
                                                  config=config)
                         for seed in (0, 1))
        assert_models_close(first.model, second.model, atol=0.0)


# ---------------------------------------------------------------------------
# Incremental refit
# ---------------------------------------------------------------------------

class TestIncrementalRefit:
    @pytest.fixture
    def matrix(self, rng):
        return low_rank_matrix(rng, 50, 200, 6, noise=0.02)

    @pytest.fixture
    def writer(self, matrix):
        model = LSIModel.fit(matrix, 6, engine="exact")
        return IndexWriter(model, drift_threshold=1e-9)

    def test_incremental_refit_absorbs_folds(self, writer, matrix,
                                             rng):
        new_docs = low_rank_matrix(rng, 50, 30, 6, noise=0.02)
        writer.add_documents(new_docs)
        assert writer.can_refit_incrementally
        assert writer.pending_columns == 30
        before_drift = writer.drift
        assert before_drift > 0.0
        assert writer.refit(oversample=16) is None
        model = writer.model
        assert writer.refits == 1
        assert writer.fold_ins_since_refit == 0
        assert writer.pending_columns == 0
        assert writer.drift == pytest.approx(0.0, abs=1e-12)
        assert model.n_documents == 230
        # Agreement with a full refit over the concatenated corpus.
        full = LSIModel.fit(np.hstack([matrix, new_docs]), 6,
                            engine="exact")
        queries = rng.random((50, 10))
        assert top_k_overlap(score_batch(full, queries),
                             score_batch(model, queries), 10) >= 0.9

    def test_incremental_refit_keeps_tombstones(self, writer, rng):
        writer.add_documents(rng.random((50, 4)))
        writer.remove_documents([0, 3])
        delete_drift_energy = writer.unabsorbed_energy
        writer.refit(oversample=16)
        assert writer.tombstones == (0, 3)
        assert writer.deletes_since_refit == 2
        # Fold energy cleared; deleted mass still unabsorbed.
        assert 0.0 < writer.unabsorbed_energy <= delete_drift_energy

    def test_full_refit_purges_everything(self, writer, matrix, rng):
        writer.add_documents(rng.random((50, 4)))
        writer.remove_documents([1])
        writer.refit(matrix)
        assert writer.tombstones == ()
        assert writer.unabsorbed_energy == 0.0
        assert writer.pending_columns == 0

    def test_full_keyword_is_rejected(self, writer):
        # refit(matrix) selects the full mode; a stray keyword is not
        # dropped even when an incremental refit has nothing to merge.
        for target in (writer, ServedIndex(writer.model)):
            with pytest.raises(ValidationError,
                               match=r"unknown option\(s\) \['full'\]"):
                target.refit(full=True)

    def test_refit_after_bundle_reload_raises(self, writer, matrix,
                                              rng, tmp_path):
        index = ServedIndex(writer.model)
        index.add_documents(rng.random((50, 3)))
        loaded = ServedIndex.load(index.save(tmp_path / "b"))
        # The fold buffer is not persisted: a loaded bundle with
        # pre-save folds must demand a full refit.
        with pytest.raises(ValidationError, match="full refit"):
            loaded.refit()

    def test_served_index_refit_threads_config(self, matrix, rng):
        model = LSIModel.fit(matrix, 6, engine="exact")
        index = ServedIndex(
            model, config=ServingConfig(stream_block_size=8,
                                        stream_oversample=16))
        index.add_documents(low_rank_matrix(rng, 50, 20, 6))
        index.refit()
        assert index.model.n_documents == 220
        assert index.n_documents == 220

    def test_incremental_refit_without_folds_is_noop_model(
            self, writer):
        writer.refit()
        assert writer.model.n_documents == writer.n_documents
        assert writer.refits == 1

    def test_refit_merges_once_per_block_of_the_buffer(
            self, writer, rng, monkeypatch):
        folds = [low_rank_matrix(rng, 50, 7, 6) for _ in range(10)]
        once = IndexWriter(writer.model)
        once.add_documents(np.hstack(folds))
        for fold in folds:
            writer.add_documents(fold)
        merges = []

        def counting_merge(*args, **kwargs):
            merges.append(1)
            return merge(*args, **kwargs)

        monkeypatch.setattr("repro.serving.writer.merge", counting_merge)
        pending = writer.pending_columns
        writer.refit(block_size=16)
        assert len(merges) == math.ceil(pending / 16) == 5
        once.refit(block_size=16)
        assert_models_close(writer.model, once.model)

    @pytest.mark.parametrize("options, named", [
        pytest.param({"engine": "lanczos"}, "'engine'", id="engine"),
        pytest.param({"tol": 1e-3}, "'tol'", id="option"),
        pytest.param({"engine": "randomized", "power_iterations": 2},
                     "'engine', 'power_iterations'", id="both"),
    ])
    def test_incremental_mode_rejects_engine_options(self, writer, rng,
                                                     options, named):
        # The incremental mode factors with the one block kernel; an
        # engine or engine option is refused before any state changes.
        for target in (writer, ServedIndex(writer.model)):
            target.add_documents(rng.random((50, 4)))
            before = target.model
            with pytest.raises(ValidationError,
                               match=rf"unknown option\(s\) \[{named}\]"):
                target.refit(**options)
            assert target.model is before
        assert writer.pending_columns == 4

    @pytest.mark.parametrize("oversample", [-5, 2.5])
    def test_incremental_refit_rejects_bad_oversample(self, writer, rng,
                                                      oversample):
        # A negative headroom would merge below the served rank and
        # shrink it.
        writer.add_documents(rng.random((50, 4)))
        with pytest.raises(ValidationError, match="oversample"):
            writer.refit(oversample=oversample)
        assert writer.model.rank == 6 and writer.pending_columns == 4

    @pytest.mark.parametrize("rank", [2.7, True, 0, -1, "3"])
    def test_incremental_refit_rejects_an_invalid_rank(self, writer, rng,
                                                       rank):
        # int() would truncate 2.7 to rank 2 and read True as rank 1.
        for target in (writer, ServedIndex(writer.model)):
            target.add_documents(rng.random((50, 4)))
            before = target.model
            with pytest.raises(ValidationError, match="rank"):
                target.refit(rank=rank)
            assert target.model is before
        assert writer.pending_columns == 4

    @pytest.mark.parametrize("folds", [0, 10])
    def test_incremental_refit_rejects_a_higher_rank(self, writer, rng,
                                                     folds):
        # A merge cannot recover directions the basis already dropped,
        # so the answer must not depend on what the buffer holds.
        for target in (writer, ServedIndex(writer.model)):
            for _ in range(folds):
                target.add_documents(rng.random((50, 1)))
            before = target.model
            with pytest.raises(RankError, match="rank=10"):
                target.refit(rank=10)
            assert target.model is before
        assert writer.pending_columns == folds

    def test_incremental_refit_lowers_the_rank(self, writer, rng):
        writer.add_documents(rng.random((50, 4)))
        writer.refit(rank=4)
        assert writer.model.rank == 4
        writer.refit(rank=4)
        assert writer.model.rank == 4
        assert writer.pending_columns == 0

    def test_incremental_refit_ignores_seed(self, matrix, rng):
        folds = low_rank_matrix(rng, 50, 40, 6)
        models = []
        for seed in (0, 1):
            writer = IndexWriter(LSIModel.fit(matrix, 6, engine="exact"))
            writer.add_documents(folds)
            writer.refit(seed=seed, block_size=16)
            models.append(writer.model)
        assert_models_close(*models, atol=0.0)

    def test_mixed_dense_and_csr_buffer_refits(self, writer, rng):
        folds = [low_rank_matrix(rng, 50, 9, 6) for _ in range(3)]
        dense = IndexWriter(writer.model)
        dense.add_documents(np.hstack(folds))
        writer.add_documents(folds[0])
        writer.add_documents(CSRMatrix.from_dense(folds[1]))
        writer.add_documents(folds[2])
        assert writer.pending_columns == 27
        writer.refit()
        dense.refit()
        assert_models_close(writer.model, dense.model)


@st.composite
def refit_cases(draw):
    """A fitted writer's size and updates for two incremental refits.

    Each refit folds in a dense block, a CSR block and a zero
    document, removes a document, and merges in blocks narrower than
    what is pending, at the served rank or a lower one.  The fitted
    spectrum may end in a zero singular value.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    n_terms = draw(st.integers(12, 40))
    rank = draw(st.integers(2, 8))
    refits = [(draw(st.integers(1, 12)), draw(st.integers(1, 12)),
               draw(st.integers(1, 8)), draw(st.integers(0, 1)))
              for _ in range(2)]
    return seed, n_terms, rank, draw(st.booleans()), refits


def reference_refit(model, folds, block_size, rank):
    """The refit as a derived model: factor each block of the folds,
    merge it into the model's factors, normalise ``Σ·Vᵀ``."""
    work_rank = model.rank + 8
    partial = PartialSVD.from_svd_result(model.svd)
    for block in iter_column_blocks(concat_columns(folds), block_size):
        partial = merge(partial, PartialSVD.from_block(block, work_rank),
                        rank=work_rank)
    partial = partial.truncate(min(rank, partial.rank))
    doc_unit, doc_norms = normalize_columns(
        partial.singular_values[:, None] * partial.vt)
    return partial.u, partial.singular_values, doc_unit, doc_norms


class TestStoreCoordinateRefit:
    """An incremental refit rotates the store instead of deriving
    ``Vᵀ``, and agrees with the path that derives it."""

    @given(refit_cases())
    @settings(max_examples=40, deadline=None)
    def test_refit_matches_the_derived_model_path(self, case):
        seed, n_terms, rank, zero_sigma, refits = case
        rng = np.random.default_rng(seed)
        fitted = exact_svd(rng.random((n_terms, 3 * rank))).truncate(rank)
        spectrum = fitted.singular_values.copy()
        if zero_sigma:
            spectrum[-1] = 0.0
        writer = IndexWriter(LSIModel(SVDResult(
            fitted.u, spectrum, fitted.vt, fitted.frobenius_norm_sq)))
        for dense_width, sparse_width, block_size, lower in refits:
            sparse = rng.random((n_terms, sparse_width))
            sparse[sparse < 0.6] = 0.0
            folds = [rng.random((n_terms, dense_width)),
                     CSRMatrix.from_dense(sparse), np.zeros((n_terms, 1))]
            for columns in folds:
                writer.add_documents(columns)
            live = sorted(set(range(writer.n_documents))
                          - set(writer.tombstones))
            writer.remove_documents(int(rng.choice(live)))
            # Narrower than the pending width, which is one more.
            block_size = min(block_size, dense_width + sparse_width)
            target = max(1, writer.term_basis.shape[1] - lower)
            u, sigma, doc_unit, doc_norms = reference_refit(
                writer.model, folds, block_size, target)
            writer.refit(rank=target, block_size=block_size)
            top = float(sigma[0])
            np.testing.assert_allclose(writer.singular_values, sigma,
                                       rtol=1e-12, atol=1e-12 * top)
            unit, norms = writer.store
            np.testing.assert_allclose(norms, doc_norms, rtol=1e-12,
                                       atol=1e-12 * top)
            # Singular vectors carry an arbitrary sign, so compare each
            # document as a term-space direction.
            cosines = np.sum((u @ doc_unit) * (writer.term_basis @ unit),
                             axis=0)
            assert np.all(cosines[doc_norms > 1e-9 * top] >= 1 - 1e-12)
            assert writer.n_documents == writer.n_original


class TestFullRefitOptions:
    """``refit(matrix)`` hands its options to the full fit's engine."""

    @pytest.fixture
    def matrix(self, rng):
        return rng.random((60, 80))

    @pytest.fixture(params=["writer", "served"])
    def target(self, request, matrix):
        model = LSIModel.fit(matrix, 5, engine="exact")
        if request.param == "writer":
            return IndexWriter(model)
        return ServedIndex(model)

    def test_oversample_reaches_the_engine(self, target, matrix):
        target.refit(matrix, engine="randomized", seed=3, oversample=40)
        refitted = target.model
        wanted = LSIModel.fit(matrix, 5, engine="randomized", seed=3,
                              oversample=40)
        # Uₖ and Σ are served as fitted; .model derives Vᵀ from the
        # store, which rounds it.
        assert np.array_equal(refitted.svd.u, wanted.svd.u)
        assert np.array_equal(refitted.svd.singular_values,
                              wanted.svd.singular_values)
        assert_models_close(refitted, wanted, atol=1e-14)
        default = LSIModel.fit(matrix, 5, engine="randomized", seed=3)
        assert not np.array_equal(refitted.svd.u, default.svd.u)

    def test_engine_without_oversample_rejects_it(self, target, matrix):
        before = target.model
        with pytest.raises(ValidationError,
                           match=r"unknown option\(s\) \['oversample'\] "
                                 r"for SVD engine 'lanczos'"):
            target.refit(matrix, engine="lanczos", oversample=40)
        assert target.model is before

    def test_block_size_with_matrix_raises(self, target, matrix):
        before = target.model
        with pytest.raises(ValidationError, match="block_size"):
            target.refit(matrix, block_size=7)
        assert target.model is before


class TestNoDensify:
    """CSR input stays sparse through the default streamed paths."""

    @pytest.fixture
    def refuse_to_dense(self, monkeypatch):
        def refuse(self):
            raise AssertionError("CSRMatrix.to_dense was called")

        monkeypatch.setattr(CSRMatrix, "to_dense", refuse)

    @staticmethod
    def _sparse_low_rank(rng, n, m):
        """Exactly rank 6, with half its rows empty."""
        matrix = low_rank_matrix(rng, n, m, 6, noise=0.0)
        matrix[rng.random(n) < 0.5] = 0.0
        return matrix

    @pytest.mark.parametrize("block_size", [None, 600])
    def test_fit_streamed_on_csr(self, rng, refuse_to_dense,
                                 block_size):
        # 600-column blocks also split inside the direct kernel.
        dense = self._sparse_low_rank(rng, 60, 700)
        model = LSIModel.fit_streamed(CSRMatrix.from_dense(dense), 6,
                                      block_size=block_size)
        exact = truncated_svd(dense, 6, engine="exact")
        assert np.allclose(model.svd.singular_values,
                           exact.singular_values, rtol=1e-10)

    def test_incremental_refit_of_csr_folds(self, rng, refuse_to_dense):
        dense = self._sparse_low_rank(rng, 60, 400)
        writer = IndexWriter(LSIModel.fit(dense[:, :200], 6,
                                          engine="exact"))
        for start in range(200, 400, 50):
            writer.add_documents(
                CSRMatrix.from_dense(dense[:, start:start + 50]))
        writer.refit(block_size=64)
        model = writer.model
        exact = truncated_svd(dense, 6, engine="exact")
        assert np.allclose(model.svd.singular_values,
                           exact.singular_values, rtol=1e-10)

    def test_concat_columns_keeps_csr_sparse(self, rng,
                                             refuse_to_dense):
        dense = [self._sparse_low_rank(rng, 9, w) for w in (3, 1, 5)]
        joined = concat_columns([CSRMatrix.from_dense(d) for d in dense])
        assert joined == CSRMatrix.from_dense(np.hstack(dense))


# ---------------------------------------------------------------------------
# serve-stats writer state
# ---------------------------------------------------------------------------

class TestServeStatsWriterState:
    def _mid_write_bundle(self, rng, tmp_path):
        matrix = low_rank_matrix(rng, 30, 80, 4)
        index = ServedIndex.fit(matrix, 4, engine="exact",
                                config=ServingConfig(
                                    drift_threshold=0.5))
        index.add_documents(rng.random((30, 6)))
        index.remove_documents([2])
        return index.save(tmp_path / "bundle")

    def test_text_report_shows_writer_state(self, rng, tmp_path,
                                            capsys):
        from repro.cli import main

        path = self._mid_write_bundle(rng, tmp_path)
        assert main(["serve-stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "writer state" in out
        assert "fold-ins pending=6" in out
        assert "tombstoned=1" in out
        assert "unabsorbed=" in out and "captured=" in out
        assert "full refit(matrix)" in out
        assert "threshold 0.5" in out

    def test_clean_bundle_reports_no_pending(self, rng, tmp_path,
                                             capsys):
        from repro.cli import main

        matrix = low_rank_matrix(rng, 20, 40, 3)
        path = ServedIndex.fit(matrix, 3,
                               engine="exact").save(tmp_path / "b")
        assert main(["serve-stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "none pending" in out

    def test_json_manifest_carries_captured_energy(self, rng,
                                                   tmp_path, capsys):
        from repro.cli import main

        path = self._mid_write_bundle(rng, tmp_path)
        assert main(["serve-stats", str(path), "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["captured_energy"] > 0.0
        assert manifest["unabsorbed_energy"] > 0.0


# ---------------------------------------------------------------------------
# Out-of-core memory behaviour (subprocess peak RSS)
# ---------------------------------------------------------------------------

class TestStreamedPeakRss:
    def test_streamed_fit_peak_rss_well_below_eager(self):
        # The tentpole claim at unit-test scale: fitting from a block
        # stream must never materialise the matrix, so its peak RSS
        # stays well under the eager fit's.  The scale bench gates the
        # real < 0.5x claim on a 10x corpus; this asserts the same
        # inequality on a ~160 MB synthetic one.  Fresh subprocesses
        # because peak RSS is a process high-water mark.  The eager arm
        # peaks at np.hstack, before its fit starts; the randomized
        # engine reaches that peak as Lanczos does, in a fraction of
        # Lanczos's time on this flat-spectrum matrix.
        child = r"""
import resource, sys
import numpy as np
from repro.core.lsi import LSIModel


def peak_rss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


N_TERMS, N_DOCS, BLOCK, RANK = 1024, 20480, 256, 8


def blocks():
    for start in range(0, N_DOCS, BLOCK):
        rng = np.random.default_rng(start)
        yield rng.standard_normal((N_TERMS, BLOCK))


if sys.argv[1] == "eager":
    full = np.hstack(list(blocks()))
    LSIModel.fit(full, RANK, engine="randomized", seed=0)
else:
    LSIModel.fit_streamed(blocks(), RANK, oversample=8)
print(peak_rss_kb())
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        rss = {}
        for mode in ("eager", "streamed"):
            proc = subprocess.run(
                [sys.executable, "-c", child, mode],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            rss[mode] = int(proc.stdout.strip())
        assert rss["streamed"] < 0.5 * rss["eager"], rss
