"""Dense linear-algebra kernels used across the library.

These are the small building blocks the SVD engines, the analysis code
and the query path share: Gram products, column normalisation, modified
Gram–Schmidt orthonormalisation, orthogonal projections, the
touched-rows query fold (:func:`fold_rows`), cosine similarity, stable
top-``k`` selection, and principal angles between subspaces.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.utils.validation import check_matrix, check_vector

__all__ = [
    "ZERO_NORM_TOL",
    "angle_between",
    "cosine_similarity",
    "cosine_similarity_matrix",
    "fold_rows",
    "gram_matrix",
    "normalize_columns",
    "orthonormalize_columns",
    "pairwise_angles",
    "principal_angles",
    "project_onto_basis",
    "reconstruct_from_basis",
    "relative_error",
    "spectral_norm",
    "stable_top_k",
]

#: Columns with norm below this are treated as numerically zero.
ZERO_NORM_TOL = 1e-12


def gram_matrix(matrix) -> np.ndarray:
    """Return ``AᵀA`` for a dense matrix ``A``."""
    matrix = check_matrix(matrix, "matrix")
    return matrix.T @ matrix


def normalize_columns(
        matrix, *, zero_tol: float = ZERO_NORM_TOL,
) -> "tuple[np.ndarray, np.ndarray]":
    """Scale each column of ``matrix`` to unit Euclidean norm.

    Columns whose norm is below ``zero_tol`` are left as zero vectors
    rather than being divided by ~0.

    Returns:
        ``(normalized, norms)`` — the normalised matrix and the original
        column norms.
    """
    matrix = check_matrix(matrix, "matrix")
    norms = np.linalg.norm(matrix, axis=0)
    safe = np.where(norms > zero_tol, norms, 1.0)
    return matrix / safe, norms


def orthonormalize_columns(matrix, *, zero_tol: float = ZERO_NORM_TOL,
                           passes: int = 2) -> np.ndarray:
    """Orthonormalise the columns of ``matrix`` by modified Gram–Schmidt.

    Runs ``passes`` sweeps (two by default — the classical "twice is
    enough" rule) and drops columns that become numerically zero, so the
    result may have fewer columns than the input when the input is
    rank-deficient.

    Returns an ``(n, r)`` matrix with orthonormal columns spanning the
    column space of the input (``r ≤`` input columns).
    """
    matrix = check_matrix(matrix, "matrix").copy()
    if matrix.shape[1] == 0:
        return matrix
    kept: list[np.ndarray] = []
    for j in range(matrix.shape[1]):
        v = matrix[:, j].copy()
        for _ in range(passes):
            for q in kept:
                v -= (q @ v) * q
        norm = np.linalg.norm(v)
        if norm > zero_tol:
            kept.append(v / norm)
    if not kept:
        return np.zeros((matrix.shape[0], 0))
    return np.column_stack(kept)


def project_onto_basis(vectors, basis) -> np.ndarray:
    """Coordinates of ``vectors`` (columns) in an orthonormal ``basis``.

    ``basis`` is ``(n, k)`` with orthonormal columns; ``vectors`` is
    ``(n,)`` or ``(n, p)``.  Returns ``basisᵀ·vectors`` with matching
    dimensionality — the projection used to fold queries into the LSI
    space.
    """
    basis = check_matrix(basis, "basis")
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != basis.shape[0]:
            raise ShapeError(
                f"vector length {arr.shape[0]} does not match basis rows "
                f"{basis.shape[0]}")
        return basis.T @ arr
    if arr.ndim == 2:
        if arr.shape[0] != basis.shape[0]:
            raise ShapeError(
                f"vectors have {arr.shape[0]} rows but basis has "
                f"{basis.shape[0]}")
        return basis.T @ arr
    raise ShapeError(f"vectors must be 1-D or 2-D, got shape {arr.shape}")


def fold_rows(basis, rows, values) -> np.ndarray:
    """``basisᵀ·x`` for columns ``x`` that are zero outside ``rows``.

    The query fold of LSI (``q ↦ Uₖᵀ·q``) at the cost the paper's §5
    model charges it: a query with ``c`` nonzero terms reads ``c`` rows
    of the basis, ``Uₖ[rows]ᵀ·q[rows]``, not all ``n``.  When ``rows``
    covers every row, the basis is multiplied in place with no gather,
    so a dense column costs (and gives the bits of) the plain GEMV.

    The library folds every query alone, one 1-D ``values`` per call:
    :meth:`~repro.core.lsi.LSIModel.project_query` and the serving
    engine make the same call, so a query folds to the same bits in
    both and whatever block it is served in.  A 2-D ``values`` is one
    product, whose columns' bits can depend on how many it holds.

    Args:
        basis: ``(n, k)`` array, e.g. the LSI term basis ``Uₖ``.
        rows: ascending distinct row ids the columns touch.
        values: the columns restricted to ``rows``: ``(len(rows),)``
            or ``(len(rows), q)``.

    Returns:
        ``(k,)`` or ``(k, q)``, matching ``values``.
    """
    touched = basis if len(rows) == basis.shape[0] else basis[rows]
    return np.matmul(touched.T, values)


def reconstruct_from_basis(coordinates, basis) -> np.ndarray:
    """Inverse of :func:`project_onto_basis`: ``basis @ coordinates``."""
    basis = check_matrix(basis, "basis")
    coords = np.asarray(coordinates, dtype=np.float64)
    return basis @ coords


def cosine_similarity(u, v, *, zero_tol: float = ZERO_NORM_TOL) -> float:
    """Cosine of the angle between two vectors (0.0 if either is ~zero)."""
    u = check_vector(u, "u")
    v = check_vector(v, "v")
    if u.shape != v.shape:
        raise ShapeError(f"shape mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu <= zero_tol or nv <= zero_tol:
        return 0.0
    return float(np.clip((u @ v) / (nu * nv), -1.0, 1.0))


def cosine_similarity_matrix(columns_a, columns_b=None,
                             *, zero_tol: float = ZERO_NORM_TOL) -> np.ndarray:
    """All-pairs cosine similarity between column sets.

    ``columns_a`` is ``(n, p)``; ``columns_b`` defaults to ``columns_a``.
    Returns a ``(p, q)`` matrix of cosines, with rows/columns of ~zero
    vectors set to 0.
    """
    a = check_matrix(columns_a, "columns_a")
    b = a if columns_b is None else check_matrix(columns_b, "columns_b")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(
            f"column sets live in different dimensions: {a.shape[0]} vs "
            f"{b.shape[0]}")
    a_unit, a_norms = normalize_columns(a, zero_tol=zero_tol)
    b_unit, b_norms = normalize_columns(b, zero_tol=zero_tol)
    sims = a_unit.T @ b_unit
    sims[a_norms <= zero_tol, :] = 0.0
    sims[:, b_norms <= zero_tol] = 0.0
    return np.clip(sims, -1.0, 1.0)


def stable_top_k(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Top-``top_k`` indices by descending score, stable ties by id.

    Bit-for-bit equivalent to ``np.argsort(-scores, kind="stable")
    [:top_k]`` but ``O(m + top_k·log top_k)`` instead of
    ``O(m·log m)``: an ``np.partition`` selects the cutoff value, ties
    at the boundary are filled in ascending id order (exactly the
    stable-sort policy), and only the selected candidates are sorted.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    top_k = min(int(top_k), n)
    if top_k <= 0:
        return np.empty(0, dtype=np.int64)
    if top_k >= n:
        return (-scores).argsort(kind="stable")
    cutoff = np.partition(scores, n - top_k)[n - top_k]
    above = (scores > cutoff).nonzero()[0]
    ties = (scores == cutoff).nonzero()[0]
    candidates = np.concatenate([above, ties[:top_k - above.size]])
    return candidates[(-scores[candidates]).argsort(kind="stable")]


def angle_between(u, v) -> float:
    """Angle between two vectors in radians, in [0, π].

    The paper's experimental table measures raw angles ("not some
    function of the angle such as the cosine"), so this is the primitive
    behind :mod:`repro.core.skewness`.
    """
    cos = cosine_similarity(u, v)
    return float(np.arccos(cos))


def pairwise_angles(columns) -> np.ndarray:
    """Angles (radians) between all column pairs; shape ``(p, p)``."""
    sims = cosine_similarity_matrix(columns)
    return np.arccos(np.clip(sims, -1.0, 1.0))


def principal_angles(basis_a, basis_b) -> np.ndarray:
    """Principal angles between the subspaces spanned by two bases.

    Both bases are orthonormalised internally, so callers may pass any
    full-column-rank spanning sets.  Returns angles in ascending order,
    length ``min(rank_a, rank_b)``.
    """
    qa = orthonormalize_columns(check_matrix(basis_a, "basis_a"))
    qb = orthonormalize_columns(check_matrix(basis_b, "basis_b"))
    if qa.shape[0] != qb.shape[0]:
        raise ShapeError(
            f"bases live in different dimensions: {qa.shape[0]} vs "
            f"{qb.shape[0]}")
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    sigma = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sigma, -1.0, 1.0))


def spectral_norm(matrix, *, exact_threshold: int = 512) -> float:
    """The 2-norm (largest singular value) of a dense matrix.

    Small matrices use an exact SVD; larger ones fall back to power
    iteration on the Gram operator for speed.
    """
    matrix = check_matrix(matrix, "matrix")
    if matrix.size == 0:
        return 0.0
    if min(matrix.shape) <= exact_threshold:
        return float(np.linalg.svd(matrix, compute_uv=False)[0])
    from repro.linalg.power_iteration import dominant_singular_value

    return dominant_singular_value(matrix)


def relative_error(approx, exact, *, zero_tol: float = ZERO_NORM_TOL) -> float:
    """Frobenius relative error ``‖approx − exact‖_F / ‖exact‖_F``."""
    approx = check_matrix(approx, "approx")
    exact = check_matrix(exact, "exact")
    if approx.shape != exact.shape:
        raise ShapeError(
            f"shape mismatch: {approx.shape} vs {exact.shape}")
    denom = np.linalg.norm(exact)
    if denom <= zero_tol:
        raise ValidationError("exact matrix is numerically zero")
    return float(np.linalg.norm(approx - exact) / denom)
