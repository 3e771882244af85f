"""Unit tests for the from-scratch CSR matrix."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.linalg.sparse import CSRMatrix


class TestConstruction:
    def test_from_triplets_round_trip(self):
        matrix = CSRMatrix.from_triplets(3, 4, [0, 1, 2], [1, 2, 3],
                                         [1.0, 2.0, 3.0])
        expected = np.zeros((3, 4))
        expected[0, 1], expected[1, 2], expected[2, 3] = 1.0, 2.0, 3.0
        assert np.array_equal(matrix.to_dense(), expected)

    def test_duplicates_are_summed(self):
        matrix = CSRMatrix.from_triplets(2, 2, [0, 0, 0], [1, 1, 0],
                                         [1.0, 2.0, 4.0])
        assert matrix.to_dense()[0, 1] == 3.0
        assert matrix.to_dense()[0, 0] == 4.0

    def test_duplicates_rejected_when_disallowed(self):
        with pytest.raises(ValidationError):
            CSRMatrix.from_triplets(2, 2, [0, 0], [1, 1], [1.0, 2.0],
                                    sum_duplicates=False)

    def test_explicit_zeros_dropped(self):
        matrix = CSRMatrix.from_triplets(2, 2, [0, 1], [0, 1], [0.0, 5.0])
        assert matrix.nnz == 1

    def test_duplicates_cancelling_to_zero_dropped(self):
        matrix = CSRMatrix.from_triplets(2, 2, [0, 0], [1, 1], [2.0, -2.0])
        assert matrix.nnz == 0

    def test_from_dense_round_trip(self, small_dense):
        assert np.array_equal(CSRMatrix.from_dense(small_dense).to_dense(),
                              small_dense)

    def test_from_columns(self):
        matrix = CSRMatrix.from_columns(4, [{0: 2.0}, {1: 1.0, 3: 5.0}])
        assert matrix.shape == (4, 2)
        assert matrix.get_column(1)[3] == 5.0

    def test_zeros_and_identity(self):
        assert CSRMatrix.zeros(3, 5).nnz == 0
        identity = CSRMatrix.identity(4)
        assert np.array_equal(identity.to_dense(), np.eye(4))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValidationError):
            CSRMatrix.from_triplets(2, 2, [0], [5], [1.0])
        with pytest.raises(ValidationError):
            CSRMatrix.from_triplets(2, 2, [-1], [0], [1.0])

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValidationError):
            CSRMatrix.from_triplets(2, 2, [0], [0], [np.nan])

    def test_mismatched_triplet_lengths_rejected(self):
        with pytest.raises(ShapeError):
            CSRMatrix.from_triplets(2, 2, [0, 1], [0], [1.0])

    def test_indices_sorted_within_rows(self):
        matrix = CSRMatrix.from_triplets(1, 5, [0, 0, 0], [4, 0, 2],
                                         [1.0, 2.0, 3.0])
        assert list(matrix.indices) == [0, 2, 4]

    def test_equality(self, small_dense):
        a = CSRMatrix.from_dense(small_dense)
        b = CSRMatrix.from_dense(small_dense)
        assert a == b
        assert a != b.scale(2.0)

    def test_copy_is_deep(self, small_sparse):
        clone = small_sparse.copy()
        assert clone == small_sparse
        assert clone.data is not small_sparse.data


class TestProperties:
    def test_nnz_and_density(self):
        matrix = CSRMatrix.from_triplets(2, 5, [0, 1], [0, 4], [1.0, 1.0])
        assert matrix.nnz == 2
        assert matrix.density == pytest.approx(0.2)

    def test_mean_nonzeros_per_column(self, small_dense):
        matrix = CSRMatrix.from_dense(small_dense)
        expected = np.count_nonzero(small_dense) / small_dense.shape[1]
        assert matrix.mean_nonzeros_per_column() == pytest.approx(expected)

    def test_repr_mentions_shape(self, small_sparse):
        assert "shape=(20, 15)" in repr(small_sparse)


class TestProducts:
    def test_matvec_matches_dense(self, small_dense, small_sparse, rng):
        x = rng.standard_normal(15)
        assert np.allclose(small_sparse.matvec(x), small_dense @ x)

    def test_rmatvec_matches_dense(self, small_dense, small_sparse, rng):
        y = rng.standard_normal(20)
        assert np.allclose(small_sparse.rmatvec(y), small_dense.T @ y)

    def test_matmat_matches_dense(self, small_dense, small_sparse, rng):
        block = rng.standard_normal((15, 3))
        assert np.allclose(small_sparse.matmat(block), small_dense @ block)

    def test_rmatmat_matches_dense(self, small_dense, small_sparse, rng):
        block = rng.standard_normal((20, 4))
        assert np.allclose(small_sparse.rmatmat(block),
                           small_dense.T @ block)

    def test_gram_matches_dense(self, small_dense, small_sparse):
        assert np.allclose(small_sparse.gram(),
                           small_dense.T @ small_dense)

    @pytest.mark.parametrize("panel", [1, 16, 45, 1 << 16])
    def test_gram_over_row_panels(self, rng, monkeypatch, panel):
        # Panels of 1, 1, 3 and all 20 rows of 15 columns, empty rows
        # included, against the per-row outer-product sum.
        dense = rng.standard_normal((20, 15))
        dense[dense < 0.5] = 0.0
        dense[[3, 4, 11]] = 0.0
        sparse = CSRMatrix.from_dense(dense)
        reference = np.zeros((15, 15))
        for i in range(20):
            lo, hi = sparse.indptr[i], sparse.indptr[i + 1]
            cols, vals = sparse.indices[lo:hi], sparse.data[lo:hi]
            reference[np.ix_(cols, cols)] += np.outer(vals, vals)
        monkeypatch.setattr("repro.linalg.sparse.GRAM_PANEL_ELEMENTS",
                            panel)
        gram = sparse.gram()
        # Summation order differs: float64 rounding, not an algorithm.
        assert np.allclose(gram, reference, rtol=1e-13, atol=1e-13)
        assert np.array_equal(gram, gram.T)

    def test_matmat_bits_match_scaling_before_the_gather(
            self, small_sparse, rng):
        block = rng.standard_normal((small_sparse.shape[1], 4))
        products = small_sparse.data[:, None] \
            * block[small_sparse.indices]
        nonempty = np.flatnonzero(np.diff(small_sparse.indptr) > 0)
        expected = np.zeros((small_sparse.shape[0], 4))
        expected[nonempty] = np.add.reduceat(
            products, small_sparse.indptr[:-1][nonempty], axis=0)
        assert np.array_equal(small_sparse.matmat(block), expected)

    def test_cogram_matches_dense(self, small_dense, small_sparse):
        assert np.allclose(small_sparse.cogram(),
                           small_dense @ small_dense.T)

    def test_matvec_wrong_length_rejected(self, small_sparse):
        with pytest.raises(ShapeError):
            small_sparse.matvec(np.zeros(3))

    def test_rmatvec_wrong_length_rejected(self, small_sparse):
        with pytest.raises(ShapeError):
            small_sparse.rmatvec(np.zeros(3))

    def test_empty_row_handling(self):
        matrix = CSRMatrix.from_triplets(3, 2, [0, 2], [0, 1], [1.0, 2.0])
        result = matrix.matvec(np.array([1.0, 1.0]))
        assert np.array_equal(result, [1.0, 0.0, 2.0])


class TestNorms:
    def test_frobenius(self, small_dense, small_sparse):
        assert small_sparse.frobenius_norm() == pytest.approx(
            np.linalg.norm(small_dense))

    def test_column_norms(self, small_dense, small_sparse):
        assert np.allclose(small_sparse.column_norms(),
                           np.linalg.norm(small_dense, axis=0))

    def test_row_norms(self, small_dense, small_sparse):
        assert np.allclose(small_sparse.row_norms(),
                           np.linalg.norm(small_dense, axis=1))

    def test_column_sums(self, small_dense, small_sparse):
        assert np.allclose(small_sparse.column_sums(),
                           small_dense.sum(axis=0))

    def test_row_sums(self, small_dense, small_sparse):
        assert np.allclose(small_sparse.row_sums(),
                           small_dense.sum(axis=1))

    def test_document_frequency(self, small_dense, small_sparse):
        expected = np.count_nonzero(small_dense, axis=1)
        assert np.array_equal(small_sparse.document_frequency(), expected)


class TestTransforms:
    def test_transpose(self, small_dense, small_sparse):
        assert np.array_equal(small_sparse.transpose().to_dense(),
                              small_dense.T)

    def test_transpose_involution(self, small_sparse):
        assert small_sparse.transpose().transpose() == small_sparse

    def test_scale(self, small_dense, small_sparse):
        assert np.allclose(small_sparse.scale(2.5).to_dense(),
                           2.5 * small_dense)

    def test_scale_by_zero_gives_empty(self, small_sparse):
        assert small_sparse.scale(0.0).nnz == 0

    def test_scale_rows(self, small_dense, small_sparse, rng):
        weights = rng.random(20) + 0.5
        assert np.allclose(small_sparse.scale_rows(weights).to_dense(),
                           weights[:, None] * small_dense)

    def test_scale_columns(self, small_dense, small_sparse, rng):
        weights = rng.random(15) + 0.5
        assert np.allclose(small_sparse.scale_columns(weights).to_dense(),
                           small_dense * weights[None, :])

    def test_map_data(self, small_dense, small_sparse):
        mapped = small_sparse.map_data(lambda d: d ** 2)
        assert np.allclose(mapped.to_dense(), small_dense ** 2)

    def test_map_data_shape_change_rejected(self, small_sparse):
        with pytest.raises(ShapeError):
            small_sparse.map_data(lambda d: d[:1])

    def test_select_columns(self, small_dense, small_sparse):
        chosen = [3, 0, 3, 7]
        assert np.array_equal(
            small_sparse.select_columns(chosen).to_dense(),
            small_dense[:, chosen])

    def test_select_rows(self, small_dense, small_sparse):
        chosen = [5, 5, 1]
        assert np.array_equal(
            small_sparse.select_rows(chosen).to_dense(),
            small_dense[chosen])

    @pytest.mark.parametrize("chosen", [[7, 2, 19, 0], [4, 4, 4, 11, 4],
                                        []],
                             ids=["reordered", "repeated", "empty"])
    def test_select_rows_is_csr_equal(self, small_dense, small_sparse,
                                      chosen):
        selected = small_sparse.select_rows(chosen)
        expected = CSRMatrix.from_dense(small_dense[chosen])
        assert selected.shape == expected.shape
        assert np.array_equal(selected.indptr, expected.indptr)
        assert np.array_equal(selected.indices, expected.indices)
        assert np.array_equal(selected.data, expected.data)

    def test_select_rows_rejects_bad_indices(self, small_sparse):
        with pytest.raises(ShapeError):
            small_sparse.select_rows([[0, 1]])
        with pytest.raises(ValidationError):
            small_sparse.select_rows([20])
        with pytest.raises(ValidationError):
            small_sparse.select_rows([-1])

    def test_select_columns_out_of_range(self, small_sparse):
        with pytest.raises(ValidationError):
            small_sparse.select_columns([99])

    def test_get_column_and_row(self, small_dense, small_sparse):
        assert np.array_equal(small_sparse.get_column(4),
                              small_dense[:, 4])
        assert np.array_equal(small_sparse.get_row(9), small_dense[9])

    def test_get_column_out_of_range(self, small_sparse):
        with pytest.raises(ValidationError):
            small_sparse.get_column(100)

    def test_add(self, small_dense, small_sparse):
        doubled = small_sparse.add(small_sparse)
        assert np.allclose(doubled.to_dense(), 2 * small_dense)

    def test_add_shape_mismatch(self, small_sparse):
        with pytest.raises(ShapeError):
            small_sparse.add(CSRMatrix.zeros(2, 2))

    def test_add_cancellation_stays_sparse(self):
        a = CSRMatrix.from_triplets(2, 2, [0], [0], [3.0])
        b = CSRMatrix.from_triplets(2, 2, [0], [0], [-3.0])
        assert a.add(b).nnz == 0
