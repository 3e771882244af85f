"""Folding-in: incremental LSI updates without refitting the SVD.

Production LSI systems do not recompute the SVD per arriving document;
they *fold in*: project the new document onto the existing ``Uₖ`` basis
(exactly like a query) and append it to the document store.  The cost of
that shortcut is drift — folded documents do not influence the basis, so
as the folded fraction grows the index degrades relative to a refit.

:meth:`repro.serving.index.ServedIndex.add_documents` implements the
practice; :func:`folding_drift` quantifies the degradation so users can
schedule refits, connecting back to Lemma 1: a batch of in-model
documents is a small perturbation of the corpus matrix, so the refit
basis stays close to the old one and folding stays accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.core.lsi import LSIModel
from repro.linalg.operator import as_operator
from repro.linalg.perturbation import sin_theta_distance

__all__ = ["FoldingDrift", "folding_drift"]


@dataclass(frozen=True)
class FoldingDrift:
    """Folding vs refitting, measured.

    Attributes:
        subspace_drift: sin-Θ distance between the old ``Uₖ`` basis and
            the basis refit on the full (original + new) matrix.
        residual_excess: ``‖A_full − P_old·A_full‖_F /
            ‖A_full − P_new·A_full‖_F − 1`` — the extra reconstruction
            error of keeping the stale basis (0 = refit-equivalent).
        folded_fraction: new documents as a fraction of the total.
    """

    subspace_drift: float
    residual_excess: float
    folded_fraction: float


def folding_drift(original_matrix, new_columns, rank: int, *,
                  engine: str = "exact", seed=None) -> FoldingDrift:
    """Measure the cost of folding ``new_columns`` instead of refitting.

    Args:
        original_matrix: the matrix the stale basis was fitted on.
        new_columns: the arriving documents (same term space).
        rank: LSI rank.
        engine: SVD engine used for both fits.
        seed: RNG seed for iterative engines.
    """
    old_op = as_operator(original_matrix)
    new_op = as_operator(new_columns)
    if old_op.shape[0] != new_op.shape[0]:
        raise ValidationError(
            f"term spaces differ: {old_op.shape[0]} vs {new_op.shape[0]}")

    old = LSIModel.fit(original_matrix, rank, engine=engine, seed=seed)
    full_dense = np.concatenate(
        [old_op.to_dense(), new_op.to_dense()],  # reprolint: disable=R004
        axis=1)
    refit = LSIModel.fit(full_dense, rank, engine=engine, seed=seed)

    drift = sin_theta_distance(old.term_basis, refit.term_basis)

    def residual(basis: np.ndarray) -> float:
        projected = basis @ (basis.T @ full_dense)
        return float(np.linalg.norm(full_dense - projected))

    stale = residual(old.term_basis)
    fresh = residual(refit.term_basis)
    excess = stale / fresh - 1.0 if fresh > 0 else 0.0
    total = full_dense.shape[1]
    return FoldingDrift(
        subspace_drift=drift,
        residual_excess=float(max(excess, 0.0)),
        folded_fraction=new_op.shape[1] / total)
