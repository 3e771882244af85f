"""Singular value decomposition front-end.

All in-memory SVD consumers in the library go through
:func:`truncated_svd`, which dispatches to one of four engines:

- ``"lanczos"`` — Golub–Kahan–Lanczos bidiagonalisation
  (:mod:`repro.linalg.lanczos`), the default and the stand-in for the
  paper's SVDPACK;
- ``"subspace"`` — block subspace iteration
  (:mod:`repro.linalg.power_iteration`);
- ``"randomized"`` — the Halko-style randomized range-finder SVD
  (:mod:`repro.linalg.randomized`), the modern descendant of the
  paper's §5 random-projection idea;
- ``"exact"`` — dense LAPACK SVD, used as ground truth in tests and for
  matrices small enough that densifying is free.

Streams of column blocks take the out-of-core path instead:
:mod:`repro.linalg.incremental` factors each block directly and merges
the factors (``LSIModel.fit_streamed``).

The engines all return an :class:`SVDResult`, which also carries the
Eckart–Young residual bookkeeping the paper's Theorem 1 and Theorem 5 are
phrased in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.linalg.operator import as_operator
from repro.utils.rng import SeedLike
from repro.utils.validation import check_rank

__all__ = [
    "ENGINES",
    "SVDResult",
    "best_rank_k_error",
    "engine_options",
    "exact_svd",
    "low_rank_residual",
    "truncated_svd",
]

#: Names of the available SVD engines.
ENGINES = ("lanczos", "subspace", "randomized", "exact")

#: Engine name → tuning options its ``**engine_kwargs`` accepts.
_ENGINE_OPTIONS = {
    "lanczos": ("extra_steps", "max_steps", "tol"),
    "subspace": ("oversample", "max_iter", "tol"),
    "randomized": ("oversample", "power_iterations"),
    "exact": (),
}


def engine_options(engine: str) -> tuple[str, ...]:
    """The tuning options :func:`truncated_svd` accepts for ``engine``.

    Raises:
        ValidationError: if ``engine`` is not one of :data:`ENGINES`.
    """
    try:
        return _ENGINE_OPTIONS[engine]
    except KeyError:
        raise ValidationError(
            f"unknown SVD engine {engine!r}; expected one of {ENGINES}"
        ) from None


def _check_engine_kwargs(engine: str, engine_kwargs) -> None:
    """Reject unknown ``**engine_kwargs`` instead of ignoring typos."""
    allowed = engine_options(engine)
    unknown = sorted(set(engine_kwargs) - set(allowed))
    if unknown:
        valid = ", ".join(allowed) if allowed else "(none)"
        raise ValidationError(
            f"unknown option(s) {unknown} for SVD engine {engine!r}; "
            f"valid options: {valid}")


@dataclass(frozen=True)
class SVDResult:
    """A (possibly truncated) singular value decomposition ``A ≈ U·S·Vᵀ``.

    Attributes:
        u: ``(n, k)`` left singular vectors (orthonormal columns) — the
           basis of the LSI space when ``A`` is a term–document matrix.
        singular_values: length-``k`` singular values, descending.
        vt: ``(k, m)`` right singular vectors (orthonormal rows).
        frobenius_norm_sq: ``‖A‖_F²`` of the *original* matrix, retained so
           residual energies can be reported without keeping ``A`` around.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray
    frobenius_norm_sq: float

    def __post_init__(self):
        if self.u.ndim != 2 or self.vt.ndim != 2:
            raise ValidationError("u and vt must be 2-D")
        k = self.singular_values.shape[0]
        if self.u.shape[1] != k or self.vt.shape[0] != k:
            raise ValidationError(
                f"inconsistent ranks: u has {self.u.shape[1]} columns, "
                f"vt has {self.vt.shape[0]} rows, {k} singular values")
        if np.any(np.diff(self.singular_values) > 1e-9):
            raise ValidationError("singular values must be non-increasing")
        if np.any(self.singular_values < -1e-12):
            raise ValidationError("singular values must be non-negative")

    @property
    def rank(self) -> int:
        """Number of retained singular triplets ``k``."""
        return int(self.singular_values.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(n, m)`` of the decomposed matrix."""
        return (self.u.shape[0], self.vt.shape[1])

    def truncate(self, rank: int) -> "SVDResult":
        """Drop all but the leading ``rank`` triplets."""
        rank = check_rank(rank, self.rank, "rank")
        return SVDResult(self.u[:, :rank].copy(),
                         self.singular_values[:rank].copy(),
                         self.vt[:rank].copy(),
                         self.frobenius_norm_sq)

    def reconstruct(self) -> np.ndarray:
        """Materialise the rank-``k`` approximation ``Aₖ = U·S·Vᵀ``."""
        return (self.u * self.singular_values) @ self.vt

    def document_vectors(self) -> np.ndarray:
        """LSI document representations: the rows of ``Vₖ·Dₖ``, as columns.

        Returns a ``(k, m)`` array whose column ``j`` is document ``j``'s
        coordinate vector in the LSI space — exactly ``Uₖᵀ·A`` column ``j``.
        """
        return self.singular_values[:, None] * self.vt

    def captured_energy(self) -> float:
        """``‖Aₖ‖_F² = Σ σᵢ²`` over retained triplets.

        Summed with :func:`math.fsum` so prefixes of the spectrum yield
        non-decreasing energies — numpy's pairwise summation can round a
        4-term prefix *above* the full 10-term sum, which breaks the
        monotonicity of :meth:`residual_norm` under :meth:`truncate`.
        """
        return math.fsum(float(s) * float(s)
                         for s in self.singular_values)

    def residual_energy(self) -> float:
        """``‖A − Aₖ‖_F² = ‖A‖_F² − ‖Aₖ‖_F²`` (clamped at 0).

        Valid by Pythagoras because ``Aₖ`` is an orthogonal projection of
        ``A`` — the identity the Theorem 5 proof leans on.
        """
        return max(0.0, self.frobenius_norm_sq - self.captured_energy())

    def residual_norm(self) -> float:
        """``‖A − Aₖ‖_F``."""
        return float(np.sqrt(self.residual_energy()))

    def energy_fraction(self) -> float:
        """Fraction of ``‖A‖_F²`` captured by the retained triplets."""
        if self.frobenius_norm_sq == 0:
            return 1.0
        return min(1.0, self.captured_energy() / self.frobenius_norm_sq)


def exact_svd(matrix) -> SVDResult:
    """Full dense SVD via LAPACK; returns all ``min(n, m)`` triplets."""
    op = as_operator(matrix)
    dense = op.to_dense()
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    return SVDResult(u, s, vt, float(np.sum(dense * dense)))


def truncated_svd(matrix, rank, *, engine: str = "lanczos",
                  seed: SeedLike = None,
                  **engine_kwargs) -> SVDResult:
    """Leading-``rank`` SVD of a dense or CSR matrix.

    Args:
        matrix: ``n × m`` dense array or
            :class:`~repro.linalg.sparse.CSRMatrix`.
        rank: number of singular triplets to retain (the LSI ``k``).
        engine: one of :data:`ENGINES` (``"lanczos"``, ``"subspace"``,
            ``"randomized"``, ``"exact"``).
        seed: RNG seed forwarded to iterative engines.
        **engine_kwargs: engine-specific tuning (e.g. ``extra_steps`` for
            Lanczos, ``oversample`` for subspace iteration); unknown
            options raise :class:`~repro.errors.ValidationError` listing
            the valid ones (see :func:`engine_options`).

    Returns:
        :class:`SVDResult` with exactly ``rank`` triplets.
    """
    _check_engine_kwargs(engine, engine_kwargs)
    op = as_operator(matrix)
    rank = check_rank(rank, min(op.shape), "rank")
    norm_sq = op.frobenius_norm() ** 2

    if engine == "exact":
        return exact_svd(op).truncate(rank)
    if engine == "lanczos":
        from repro.linalg.lanczos import lanczos_svd

        u, s, vt = lanczos_svd(op, rank, seed=seed, **engine_kwargs)
    elif engine == "subspace":
        from repro.linalg.power_iteration import subspace_iteration_svd

        u, s, vt = subspace_iteration_svd(op, rank, seed=seed,
                                          **engine_kwargs)
    elif engine == "randomized":
        from repro.linalg.randomized import randomized_svd

        u, s, vt = randomized_svd(op, rank, seed=seed, **engine_kwargs)
    else:
        raise ValidationError(
            f"unknown SVD engine {engine!r}; expected one of {ENGINES}")
    return SVDResult(u, s, vt, norm_sq)


def low_rank_residual(matrix, svd_result: SVDResult) -> float:
    """Exact ``‖A − Aₖ‖_F`` computed against the original matrix.

    Unlike :meth:`SVDResult.residual_norm` (which uses the Pythagorean
    shortcut), this materialises the difference — the cross-check used by
    the Eckart–Young tests.
    """
    op = as_operator(matrix)
    dense = op.to_dense()
    return float(np.linalg.norm(dense - svd_result.reconstruct()))


def best_rank_k_error(matrix, rank: int) -> float:
    """The Eckart–Young optimum ``‖A − Aₖ‖_F = sqrt(Σ_{i>k} σᵢ²)``."""
    op = as_operator(matrix)
    rank = check_rank(rank, min(op.shape), "rank")
    sigma = np.linalg.svd(op.to_dense(), compute_uv=False)
    return float(np.sqrt(np.sum(sigma[rank:] ** 2)))
