"""Tests for polysemy construction/analysis and folding-in."""

import numpy as np
import pytest

from repro.core.folding import folding_drift
from repro.core.lsi import LSIModel
from repro.core.polysemy import (
    context_disambiguation,
    sense_superposition,
    topic_directions,
)
from repro.corpus import build_separable_model, generate_corpus
from repro.corpus.polysemy import merge_matrix_terms, merge_topic_terms
from repro.errors import ValidationError
from repro.linalg.dense import normalize_columns
from repro.serving import ServedIndex


@pytest.fixture(scope="module")
def poly_setup():
    model = build_separable_model(120, 4, primary_mass=0.95,
                                  length_low=40, length_high=60)
    merged = merge_topic_terms(model, 0, 3 * 30 + 0)  # topics 0 and 3
    corpus = generate_corpus(merged, 200, seed=51)
    matrix = corpus.term_document_matrix()
    lsi = LSIModel.fit(matrix, 4, engine="exact")
    return merged, corpus, matrix, lsi


class TestMergeTopicTerms:
    def test_universe_shrinks(self, poly_setup):
        merged, *_ = poly_setup
        assert merged.universe_size == 119

    def test_distributions_valid(self, poly_setup):
        merged, *_ = poly_setup
        for topic in merged.topics:
            assert topic.probabilities.sum() == pytest.approx(1.0)

    def test_polyseme_in_both_primaries(self, poly_setup):
        merged, *_ = poly_setup
        owners = [t for t in merged.topics if 0 in t.primary_terms]
        assert len(owners) == 2

    def test_same_term_rejected(self):
        model = build_separable_model(50, 2)
        with pytest.raises(ValidationError):
            merge_topic_terms(model, 3, 3)

    def test_out_of_range(self):
        model = build_separable_model(50, 2)
        with pytest.raises(ValidationError):
            merge_topic_terms(model, 3, 999)


class TestMergeMatrixTerms:
    def test_counts_conserved(self, tiny_matrix):
        merged = merge_matrix_terms(tiny_matrix, 2, 5)
        assert merged.shape == (tiny_matrix.shape[0] - 1,
                                tiny_matrix.shape[1])
        combined = tiny_matrix.get_row(2) + tiny_matrix.get_row(5)
        assert np.allclose(merged.get_row(2), combined)

    def test_later_rows_shift(self, tiny_matrix):
        merged = merge_matrix_terms(tiny_matrix, 2, 5)
        assert np.allclose(merged.get_row(5), tiny_matrix.get_row(6))
        assert np.allclose(merged.get_row(merged.shape[0] - 1),
                           tiny_matrix.get_row(tiny_matrix.shape[0] - 1))

    def test_total_mass_conserved(self, tiny_matrix):
        merged = merge_matrix_terms(tiny_matrix, 2, 5)
        assert merged.row_sums().sum() == pytest.approx(
            tiny_matrix.row_sums().sum())


class TestSenseAnalysis:
    def test_topic_directions_unit(self, poly_setup):
        _, corpus, _, lsi = poly_setup
        directions = topic_directions(lsi, corpus.topic_labels())
        assert directions.shape == (4, 4)
        assert np.allclose(np.linalg.norm(directions, axis=1), 1.0)

    def test_polyseme_superposed(self, poly_setup):
        _, corpus, _, lsi = poly_setup
        report = sense_superposition(lsi, corpus.topic_labels(), 0,
                                     (0, 3))
        assert report.is_superposed
        assert report.sense_mass_fraction > 0.8

    def test_ordinary_term_not_superposed(self, poly_setup):
        _, corpus, _, lsi = poly_setup
        # Term 40: a primary term of topic 1 only.
        report = sense_superposition(lsi, corpus.topic_labels(), 40,
                                     (0, 3))
        assert not report.is_superposed

    def test_context_disambiguates(self, poly_setup):
        merged, corpus, _, lsi = poly_setup
        labels = corpus.topic_labels()
        context = [t for t in merged.topics[0].primary_terms
                   if t != 0][:3]
        report = context_disambiguation(lsi, labels, 0, 0, context)
        assert report.contextual_precision >= 0.9
        assert report.context_helps

    def test_out_of_range_term(self, poly_setup):
        _, corpus, _, lsi = poly_setup
        with pytest.raises(ValidationError):
            sense_superposition(lsi, corpus.topic_labels(), 9999, (0, 1))


@pytest.fixture(scope="module")
def folding_setup():
    model = build_separable_model(150, 4)
    base = generate_corpus(model, 120, seed=61)
    new = generate_corpus(model, 30, seed=62)
    return (model, base.term_document_matrix(),
            new.term_document_matrix())


class TestFoldingIndex:
    """Folding-in as a served index does it (``add_documents``)."""

    def test_fold_in_grows_store(self, folding_setup):
        _, base, new = folding_setup
        index = ServedIndex(LSIModel.fit(base, 4, engine="exact"))
        assert index._writer.n_folded == 0
        ids = index.add_documents(new)
        assert np.array_equal(ids, np.arange(120, 150))
        doc_unit, doc_norms = index._writer.store
        assert doc_unit.shape == (4, 150)
        assert doc_norms.shape == (150,)
        assert index.n_documents == 150
        assert index._writer.n_folded == 30

    def test_folded_vectors_are_projections(self, folding_setup):
        _, base, new = folding_setup
        model = LSIModel.fit(base, 4, engine="exact")
        index = ServedIndex(model)
        index.add_documents(new)
        doc_unit, doc_norms = index._writer.store
        # Folded vectors are Uₖᵀ·c, stored as normalize_columns gives
        # them inside the C-ordered (k, m) store.
        unit, norms = normalize_columns(
            np.ascontiguousarray(model.project_documents(new)))
        assert np.array_equal(doc_unit[:, 120:], unit)
        assert np.array_equal(doc_norms[120:], norms)

    def test_retrieval_reaches_folded_documents(self, folding_setup):
        _, base, new = folding_setup
        index = ServedIndex(LSIModel.fit(base, 4, engine="exact"))
        index.add_documents(new)
        query = new.get_column(0)
        top = index.rank_documents(query, top_k=5)
        assert any(int(d) >= 120 for d in top)

    def test_scores_cover_all_documents(self, folding_setup):
        _, base, new = folding_setup
        index = ServedIndex(LSIModel.fit(base, 4, engine="exact"))
        index.add_documents(new)
        assert index.score(new.get_column(0)).shape == (150,)

    def test_wrap_type_checked(self):
        with pytest.raises(ValidationError):
            ServedIndex("not a model")


class TestFoldingDrift:
    def test_in_model_drift_small(self, folding_setup):
        _, base, new = folding_setup
        drift = folding_drift(base, new, 4)
        assert drift.subspace_drift < 0.3
        assert drift.residual_excess < 0.05
        assert drift.folded_fraction == pytest.approx(30 / 150)

    def test_more_folding_more_drift(self, folding_setup):
        model = build_separable_model(150, 4)
        _, base, _ = folding_setup
        small = generate_corpus(model, 10, seed=63) \
            .term_document_matrix()
        large = generate_corpus(model, 100, seed=63) \
            .term_document_matrix()
        drift_small = folding_drift(base, small, 4)
        drift_large = folding_drift(base, large, 4)
        assert drift_large.residual_excess >= \
            drift_small.residual_excess - 1e-6

    def test_term_space_mismatch(self, folding_setup):
        _, base, _ = folding_setup
        with pytest.raises(ValidationError):
            folding_drift(base, np.zeros((3, 2)), 2)
