"""Unit tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.linalg.dense import (
    angle_between,
    cosine_similarity,
    cosine_similarity_matrix,
    fold_rows,
    gram_matrix,
    normalize_columns,
    orthonormalize_columns,
    pairwise_angles,
    principal_angles,
    project_onto_basis,
    reconstruct_from_basis,
    relative_error,
    spectral_norm,
)


class TestFoldRows:
    """The touched-rows query fold shared by LSIModel and the engine."""

    @pytest.mark.parametrize("n_queries", [None, 1, 5])
    @pytest.mark.parametrize("nonzeros", [1, 3, 40])
    def test_matches_dense_product(self, rng, n_queries, nonzeros):
        basis = rng.standard_normal((60, 7))
        shape = (60,) if n_queries is None else (60, n_queries)
        queries = np.zeros(shape)
        for _ in range(4):
            rows = rng.choice(60, size=nonzeros, replace=False)
            queries[rows] = rng.integers(1, 4, size=(nonzeros,)
                                         + shape[1:])
        rows = np.flatnonzero(np.any(queries.reshape(60, -1), axis=1))
        folded = fold_rows(basis, rows, queries[rows])
        assert folded.shape == (7,) + shape[1:]
        np.testing.assert_allclose(folded, basis.T @ queries,
                                   rtol=0, atol=1e-12)

    def test_every_row_multiplies_in_place(self, rng):
        # A dense block takes the plain product, bit for bit.
        basis = rng.standard_normal((30, 5))
        block = rng.random((30, 4))
        out = np.empty((5, 4))
        assert fold_rows(basis, np.arange(30), block, out=out) is out
        assert np.array_equal(out, np.matmul(basis.T, block))

    def test_no_rows_is_zero(self, rng):
        basis = rng.standard_normal((30, 5))
        rows = np.zeros(0, dtype=np.intp)
        assert np.array_equal(fold_rows(basis, rows, np.zeros(0)),
                              np.zeros(5))


class TestGramAndNormalize:
    def test_gram(self, rng):
        a = rng.standard_normal((6, 4))
        assert np.allclose(gram_matrix(a), a.T @ a)

    def test_normalize_columns_unit_norm(self, rng):
        a = rng.standard_normal((5, 3))
        normalized, norms = normalize_columns(a)
        assert np.allclose(np.linalg.norm(normalized, axis=0), 1.0)
        assert np.allclose(norms, np.linalg.norm(a, axis=0))

    def test_normalize_zero_column_left_alone(self):
        a = np.zeros((4, 2))
        a[:, 0] = [1.0, 0, 0, 0]
        normalized, norms = normalize_columns(a)
        assert np.allclose(normalized[:, 1], 0.0)
        assert norms[1] == 0.0


class TestOrthonormalize:
    def test_output_is_orthonormal(self, rng):
        a = rng.standard_normal((10, 6))
        q = orthonormalize_columns(a)
        assert np.allclose(q.T @ q, np.eye(6), atol=1e-10)

    def test_spans_same_space(self, rng):
        a = rng.standard_normal((8, 3))
        q = orthonormalize_columns(a)
        # Every original column must be reproducible from the basis.
        assert np.allclose(q @ (q.T @ a), a, atol=1e-10)

    def test_rank_deficiency_drops_columns(self, rng):
        column = rng.standard_normal((7, 1))
        duplicated = np.hstack([column, 2 * column, column])
        q = orthonormalize_columns(duplicated)
        assert q.shape[1] == 1

    def test_empty_input(self):
        q = orthonormalize_columns(np.zeros((4, 0)))
        assert q.shape == (4, 0)

    def test_all_zero_columns(self):
        q = orthonormalize_columns(np.zeros((4, 3)))
        assert q.shape == (4, 0)


class TestProjection:
    def test_project_vector(self, rng):
        q = orthonormalize_columns(rng.standard_normal((9, 4)))
        v = rng.standard_normal(9)
        assert np.allclose(project_onto_basis(v, q), q.T @ v)

    def test_project_matrix(self, rng):
        q = orthonormalize_columns(rng.standard_normal((9, 4)))
        m = rng.standard_normal((9, 5))
        assert np.allclose(project_onto_basis(m, q), q.T @ m)

    def test_reconstruct_round_trip_in_span(self, rng):
        q = orthonormalize_columns(rng.standard_normal((9, 4)))
        coords = rng.standard_normal(4)
        vector = reconstruct_from_basis(coords, q)
        assert np.allclose(project_onto_basis(vector, q), coords)

    def test_dimension_mismatch_rejected(self, rng):
        q = orthonormalize_columns(rng.standard_normal((9, 4)))
        with pytest.raises(ShapeError):
            project_onto_basis(np.zeros(5), q)


class TestCosine:
    def test_parallel_vectors(self):
        assert cosine_similarity([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_opposite_vectors(self):
        assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)

    def test_zero_vector_scores_zero(self):
        assert cosine_similarity([0, 0], [1, 1]) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_matrix_agrees_with_scalar(self, rng):
        a = rng.standard_normal((6, 4))
        sims = cosine_similarity_matrix(a)
        for i in range(4):
            for j in range(4):
                assert sims[i, j] == pytest.approx(
                    cosine_similarity(a[:, i], a[:, j]), abs=1e-10)

    def test_matrix_two_sets(self, rng):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 2))
        assert cosine_similarity_matrix(a, b).shape == (3, 2)

    def test_matrix_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            cosine_similarity_matrix(rng.standard_normal((6, 3)),
                                     rng.standard_normal((5, 2)))


class TestAngles:
    def test_angle_between_right_angle(self):
        assert angle_between([1, 0], [0, 1]) == pytest.approx(np.pi / 2)

    def test_angle_between_parallel(self):
        assert angle_between([1, 1], [2, 2]) == pytest.approx(0.0,
                                                              abs=1e-6)

    def test_pairwise_angles_diagonal_zero(self, rng):
        a = rng.standard_normal((5, 4))
        angles = pairwise_angles(a)
        assert np.allclose(np.diag(angles), 0.0, atol=1e-6)

    def test_principal_angles_identical_subspaces(self, rng):
        basis = rng.standard_normal((8, 3))
        angles = principal_angles(basis, basis)
        assert np.allclose(angles, 0.0, atol=1e-7)

    def test_principal_angles_orthogonal_subspaces(self):
        a = np.eye(6)[:, :2]
        b = np.eye(6)[:, 3:5]
        angles = principal_angles(a, b)
        assert np.allclose(angles, np.pi / 2)

    def test_principal_angles_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            principal_angles(rng.standard_normal((5, 2)),
                             rng.standard_normal((6, 2)))


class TestNormsAndErrors:
    def test_spectral_norm_matches_svd(self, rng):
        a = rng.standard_normal((12, 9))
        assert spectral_norm(a) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0])

    def test_spectral_norm_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_relative_error(self, rng):
        a = rng.standard_normal((4, 4))
        assert relative_error(a, a) == pytest.approx(0.0)
        assert relative_error(2 * a, a) == pytest.approx(1.0)

    def test_relative_error_zero_target_rejected(self):
        with pytest.raises(ValidationError):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))
