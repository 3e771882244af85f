"""Tests for the LSI model and the skewness machinery."""

import numpy as np
import pytest

from repro.core.lsi import LSIModel
from repro.core.skewness import (
    angle_statistics,
    pairwise_angle_table,
    skewness,
)
from repro.errors import RankError, ValidationError


@pytest.fixture(scope="module")
def fitted(tiny_matrix_module):
    return LSIModel.fit(tiny_matrix_module, 4, engine="exact")


@pytest.fixture(scope="module")
def tiny_matrix_module(tiny_corpus_module):
    return tiny_corpus_module.term_document_matrix()


@pytest.fixture(scope="module")
def tiny_corpus_module():
    from repro.corpus import build_separable_model, generate_corpus

    model = build_separable_model(120, 4, primary_mass=0.95,
                                  length_low=30, length_high=50)
    return generate_corpus(model, 80, seed=777)


class TestFit:
    def test_dimensions(self, fitted, tiny_matrix_module):
        assert fitted.rank == 4
        assert fitted.n_terms == tiny_matrix_module.shape[0]
        assert fitted.n_documents == tiny_matrix_module.shape[1]

    def test_term_basis_orthonormal(self, fitted):
        basis = fitted.term_basis
        assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-9)

    def test_singular_values_descending(self, fitted):
        assert np.all(np.diff(fitted.singular_values) <= 1e-9)

    def test_rank_too_large(self, tiny_matrix_module):
        with pytest.raises(RankError):
            LSIModel.fit(tiny_matrix_module, 10_000)

    def test_engines_agree_on_documents(self, tiny_matrix_module):
        exact = LSIModel.fit(tiny_matrix_module, 4, engine="exact")
        lanczos = LSIModel.fit(tiny_matrix_module, 4, engine="lanczos",
                               seed=1)
        # Representations agree up to rotation: compare Gram matrices.
        g_exact = exact.document_vectors().T @ exact.document_vectors()
        g_lanczos = (lanczos.document_vectors().T
                     @ lanczos.document_vectors())
        assert np.allclose(g_exact, g_lanczos, atol=1e-6)


class TestRepresentation:
    def test_document_vectors_match_projection(self, fitted,
                                               tiny_matrix_module):
        vectors = fitted.document_vectors()
        expected = fitted.term_basis.T @ tiny_matrix_module.to_dense()
        assert np.allclose(vectors, expected, atol=1e-9)

    def test_document_vector_single(self, fitted):
        assert np.allclose(fitted.document_vector(3),
                           fitted.document_vectors()[:, 3])

    def test_document_vector_out_of_range(self, fitted):
        with pytest.raises(ValidationError):
            fitted.document_vector(9999)

    def test_project_query_folding(self, fitted, tiny_matrix_module):
        # Folding in an indexed document reproduces its LSI vector.
        column = tiny_matrix_module.get_column(5)
        assert np.allclose(fitted.project_query(column),
                           fitted.document_vector(5), atol=1e-9)

    def test_project_query_wrong_size(self, fitted):
        with pytest.raises(ValidationError):
            fitted.project_query(np.zeros(3))

    def test_project_documents_batch(self, fitted, tiny_matrix_module):
        projected = fitted.project_documents(tiny_matrix_module)
        assert np.allclose(projected, fitted.document_vectors(),
                           atol=1e-9)


class TestRetrieval:
    def test_self_retrieval(self, fitted, tiny_matrix_module):
        query = tiny_matrix_module.get_column(7)
        scores = fitted.score(query)
        assert np.argmax(scores) == 7 or scores[7] >= 0.99

    def test_scores_in_cosine_range(self, fitted, tiny_matrix_module):
        scores = fitted.score(tiny_matrix_module.get_column(0))
        assert np.all(scores <= 1.0 + 1e-9)
        assert np.all(scores >= -1.0 - 1e-9)

    def test_rank_documents_topically(self, fitted, tiny_corpus_module,
                                      tiny_matrix_module):
        labels = tiny_corpus_module.topic_labels()
        top = fitted.rank_documents(tiny_matrix_module.get_column(0),
                                    top_k=10)
        hits = sum(1 for d in top if labels[d] == labels[0])
        assert hits >= 9

    def test_score_in_lsi_space(self, fitted):
        vector = fitted.document_vector(2)
        scores = fitted.score_in_lsi_space(vector)
        assert scores[2] == pytest.approx(1.0, abs=1e-9)

    def test_score_in_lsi_space_wrong_rank(self, fitted):
        with pytest.raises(ValidationError):
            fitted.score_in_lsi_space(np.zeros(99))

    def test_similarities_symmetric(self, fitted):
        sims = fitted.similarities()
        assert np.allclose(sims, sims.T, atol=1e-10)
        assert np.allclose(np.diag(sims), 1.0, atol=1e-9)


class TestApproximationQuality:
    def test_reconstruct_shape(self, fitted, tiny_matrix_module):
        assert fitted.reconstruct().shape == tiny_matrix_module.shape

    def test_residual_matches_direct(self, fitted, tiny_matrix_module):
        direct = np.linalg.norm(tiny_matrix_module.to_dense()
                                - fitted.reconstruct())
        assert fitted.residual_norm() == pytest.approx(direct, rel=1e-6)

    def test_energy_fraction_in_unit_interval(self, fitted):
        assert 0.0 < fitted.energy_fraction() <= 1.0


class TestSkewness:
    def test_perfectly_separated(self):
        # Two orthogonal clusters of identical vectors.
        vectors = np.array([[1.0, 1.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0, 1.0]])
        assert skewness(vectors, [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_collapsed_clusters_score_one(self):
        vectors = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert skewness(vectors, [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_intratopic_spread_counts(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert skewness(vectors, [0, 0]) == pytest.approx(1.0)

    def test_single_document(self):
        assert skewness(np.array([[1.0]]), [0]) == 0.0

    def test_label_mismatch(self):
        with pytest.raises(ValidationError):
            skewness(np.zeros((2, 3)), [0, 1])

    def test_lsi_beats_raw_on_separable_corpus(self, fitted,
                                               tiny_corpus_module,
                                               tiny_matrix_module):
        labels = tiny_corpus_module.topic_labels()
        raw = skewness(tiny_matrix_module.to_dense(), labels)
        lsi = skewness(fitted.document_vectors(), labels)
        assert lsi < raw


class TestAngleStatistics:
    def test_matches_manual_computation(self):
        vectors = np.array([[1.0, 1.0, 0.0],
                            [0.0, 1.0, 1.0]])
        labels = [0, 0, 1]
        stats = angle_statistics(vectors, labels)
        assert stats.intratopic_mean == pytest.approx(np.pi / 4)
        assert stats.n_intratopic_pairs == 1
        assert stats.n_intertopic_pairs == 2

    def test_no_intertopic_pairs_nan(self):
        vectors = np.array([[1.0, 0.5]])
        stats = angle_statistics(vectors, [0, 0])
        assert np.isnan(stats.intertopic_mean)
        assert stats.n_intertopic_pairs == 0

    def test_table_rendering(self, fitted, tiny_corpus_module,
                             tiny_matrix_module):
        labels = tiny_corpus_module.topic_labels()
        original = angle_statistics(tiny_matrix_module.to_dense(), labels)
        lsi = angle_statistics(fitted.document_vectors(), labels)
        tables = pairwise_angle_table(original, lsi)
        assert len(tables) == 2
        assert "Intratopic" in tables[0].render()
        assert "LSI space" in tables[1].render()

    def test_as_rows_structure(self, fitted, tiny_corpus_module):
        labels = tiny_corpus_module.topic_labels()
        stats = angle_statistics(fitted.document_vectors(), labels)
        rows = stats.as_rows()
        assert set(rows) == {"intratopic", "intertopic"}
        assert len(rows["intratopic"]) == 4
