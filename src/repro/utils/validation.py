"""Argument-validation helpers.

These functions raise the library's :class:`~repro.errors.ValidationError`
family with messages that name the offending argument, so failures surface
at the public API boundary instead of deep inside numpy kernels.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.errors import DistributionError, ShapeError, ValidationError

__all__ = [
    "PROBABILITY_ATOL",
    "check_fraction",
    "check_matrix",
    "check_non_negative_int",
    "check_positive_int",
    "check_probability_vector",
    "check_rank",
    "check_same_length",
    "check_stochastic_matrix",
    "check_top_k",
    "check_vector",
]

#: Default tolerance for "sums to one" checks on probability vectors.
PROBABILITY_ATOL = 1e-8


def check_positive_int(value, name: str) -> int:
    """Return ``value`` as an int, requiring it to be a positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative_int(value, name: str) -> int:
    """Return ``value`` as an int, requiring it to be a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_top_k(top_k, n_documents, name: str = "top_k") -> int:
    """Normalise a retrieval cutoff: ``None`` = all, else a positive int.

    This is the single ``top_k`` policy shared by every retrieval engine
    (:class:`~repro.core.lsi.LSIModel`, the :mod:`repro.ir` baselines,
    and the serving layer): ``None`` means the whole corpus, any other
    value must be a positive integer, and cutoffs beyond the corpus size
    are clamped to it.

    Args:
        top_k: the requested cutoff (``None`` for "all documents").
        n_documents: corpus size the cutoff applies to.
        name: argument name used in error messages.

    Returns:
        The effective cutoff as an int in ``[0, n_documents]``.
    """
    n_documents = check_non_negative_int(n_documents, "n_documents")
    if top_k is None:
        return n_documents
    if isinstance(top_k, bool) or not isinstance(top_k, (int, np.integer)):
        raise ValidationError(
            f"{name} must be None or a positive integer, got {top_k!r}")
    if top_k <= 0:
        raise ValidationError(
            f"{name} must be None or a positive integer, got {top_k}")
    return min(int(top_k), n_documents)


def check_fraction(value, name: str, *, inclusive_low=True,
                   inclusive_high=True) -> float:
    """Return ``value`` as a float in the unit interval [0, 1].

    ``inclusive_low``/``inclusive_high`` control whether the endpoints are
    permitted.  Only real numbers qualify: a bool or a string is
    rejected, not converted.
    """
    if isinstance(value, (bool, np.bool_)) \
            or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        low = "[" if inclusive_low else "("
        high = "]" if inclusive_high else ")"
        raise ValidationError(
            f"{name} must lie in {low}0, 1{high}, got {value}")
    return value


def check_matrix(array, name: str, *, dtype=np.float64) -> np.ndarray:
    """Coerce ``array`` to a 2-D float ndarray, rejecting anything else."""
    matrix = np.asarray(array, dtype=dtype)
    if matrix.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {matrix.shape}")
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise ValidationError(f"{name} contains non-finite entries")
    return matrix


def check_vector(array, name: str, *, dtype=np.float64) -> np.ndarray:
    """Coerce ``array`` to a 1-D float ndarray, rejecting anything else."""
    vector = np.asarray(array, dtype=dtype)
    if vector.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {vector.shape}")
    if vector.size and not np.all(np.isfinite(vector)):
        raise ValidationError(f"{name} contains non-finite entries")
    return vector


def check_probability_vector(array, name: str, *,
                             atol: float = PROBABILITY_ATOL) -> np.ndarray:
    """Validate a probability vector: non-negative, finite, sums to one."""
    vector = check_vector(array, name)
    if vector.size == 0:
        raise DistributionError(f"{name} must be non-empty")
    if np.any(vector < 0):
        raise DistributionError(f"{name} has negative entries")
    total = float(vector.sum())
    if abs(total - 1.0) > atol:
        raise DistributionError(
            f"{name} must sum to 1 (got {total:.12g}, atol={atol:g})")
    return vector


def check_stochastic_matrix(array, name: str, *,
                            atol: float = PROBABILITY_ATOL) -> np.ndarray:
    """Validate a row-stochastic matrix (each row a probability vector)."""
    matrix = check_matrix(array, name)
    if matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(
            f"{name} must be square, got shape {matrix.shape}")
    if np.any(matrix < 0):
        raise DistributionError(f"{name} has negative entries")
    row_sums = matrix.sum(axis=1)
    bad = np.flatnonzero(np.abs(row_sums - 1.0) > atol)
    if bad.size:
        raise DistributionError(
            f"{name} row {int(bad[0])} sums to {row_sums[bad[0]]:.12g}, "
            f"expected 1 (atol={atol:g})")
    return matrix


def check_rank(rank, max_rank: int, name: str = "rank") -> int:
    """Validate a truncation rank against the maximum usable rank."""
    rank = check_positive_int(rank, name)
    if rank > max_rank:
        from repro.errors import RankError

        raise RankError(
            f"{name}={rank} exceeds the maximum usable rank {max_rank}")
    return rank


def check_same_length(a, b, name_a: str, name_b: str) -> None:
    """Require two sized arguments to have equal length."""
    if len(a) != len(b):
        raise ShapeError(
            f"{name_a} and {name_b} must have the same length "
            f"({len(a)} != {len(b)})")
