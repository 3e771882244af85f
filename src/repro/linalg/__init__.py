"""Linear-algebra substrate: sparse matrices, SVD engines, perturbation theory.

This package is the computational foundation of the reproduction:

- :mod:`repro.linalg.sparse` — a compressed-sparse-row matrix implemented
  from scratch (term–document matrices are sparse, and the paper's cost
  model counts ``c`` nonzeros per document column).
- :mod:`repro.linalg.dense` — dense kernels: Gram products, modified
  Gram–Schmidt, projections, the touched-rows query fold and stable
  top-``k`` that LSI retrieval and the serving engine share, principal
  angles.
- :mod:`repro.linalg.power_iteration` — dominant eigenpairs and block
  subspace iteration on Gram operators.
- :mod:`repro.linalg.lanczos` — Golub–Kahan–Lanczos bidiagonalisation with
  full reorthogonalisation (our stand-in for the paper's SVDPACK).
- :mod:`repro.linalg.svd` — the common :class:`~repro.linalg.svd.SVDResult`
  container and the engine front-end :func:`~repro.linalg.svd.truncated_svd`.
- :mod:`repro.linalg.perturbation` — sin-Θ subspace distances, Procrustes
  alignment, and the Stewart/Lemma-1 machinery behind Theorems 2–3.
- :mod:`repro.linalg.incremental` — streaming, out-of-core SVD: mergeable
  :class:`~repro.linalg.incremental.PartialSVD` block factorisations with
  an explicit merge error bound, behind ``LSIModel.fit_streamed``.
"""

from repro.linalg.dense import (
    cosine_similarity_matrix,
    gram_matrix,
    normalize_columns,
    orthonormalize_columns,
    principal_angles,
    project_onto_basis,
)
from repro.linalg.incremental import (
    PartialSVD,
    block_updates,
    iter_column_blocks,
    merge,
)
from repro.linalg.lanczos import lanczos_svd
from repro.linalg.perturbation import (
    align_bases,
    residual_after_rotation,
    sin_theta_distance,
    stewart_invariant_subspace_bound,
)
from repro.linalg.power_iteration import (
    dominant_eigenpair,
    subspace_iteration_svd,
)
from repro.linalg.randomized import (
    adaptive_rank_svd,
    randomized_range_finder,
    randomized_svd,
)
from repro.linalg.sparse import CSRMatrix
from repro.linalg.svd import (
    SVDResult,
    exact_svd,
    low_rank_residual,
    truncated_svd,
)

__all__ = [
    "CSRMatrix",
    "PartialSVD",
    "SVDResult",
    "adaptive_rank_svd",
    "align_bases",
    "block_updates",
    "cosine_similarity_matrix",
    "dominant_eigenpair",
    "exact_svd",
    "gram_matrix",
    "iter_column_blocks",
    "lanczos_svd",
    "low_rank_residual",
    "merge",
    "normalize_columns",
    "orthonormalize_columns",
    "principal_angles",
    "project_onto_basis",
    "randomized_range_finder",
    "randomized_svd",
    "residual_after_rotation",
    "sin_theta_distance",
    "stewart_invariant_subspace_bound",
    "subspace_iteration_svd",
    "truncated_svd",
]
