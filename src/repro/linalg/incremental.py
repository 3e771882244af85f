"""Streaming, out-of-core SVD via mergeable partial factorisations.

The paper's guarantees are statements about the rank-``k`` spectral
structure of a corpus, but :func:`~repro.linalg.svd.truncated_svd` can
only obtain that structure by holding the whole term–document matrix in
RAM.  This module removes that constraint with the one-pass merge
algorithm popularised by gensim's LSI: fold fixed-width *column
blocks* one at a time into a running factorisation with an orthogonal
merge.  A merge's factorisation costs ``O(n·w² + w³)`` at working rank
``w`` whatever the documents absorbed; carrying the right factor ``vt``
adds an ``O(w²·m)`` rotation over the ``m`` columns absorbed so far.
Only streamed fits still pay that rotation: an incremental refit
(:mod:`repro.serving.writer`) starts its merge from the ``k × k``
identity and rotates ``k`` plus the new columns.

A block enters through its Gram matrix: for a block ``B`` (``n × b``)
at working rank ``w``, the top-``w`` eigenvectors ``V`` of ``BᵀB`` are
its Ritz vectors and ``B·V`` its scaled left factor (``U·S = B·V``,
``Vᵀ`` the right factor).  ``B·V·Vᵀ`` is an orthogonal projection of
``B``, so its Pythagorean residual is a valid error bound, and a thin
block needs no iterative solver.  :meth:`PartialSVD.from_block`
factors a stream's first block from them (``Q = qr(B·V)`` and a small
SVD of ``QᵀB``); every later block is merged as it is (:func:`merge`
takes a raw block), where the merge's own rank-revealing SVD of the
residual does that work, so a merged block is never factored on its
own.  Blocks wider than :data:`DIRECT_SPLIT_WIDTH` are split into
pieces that wide.  The kernel is deterministic: it takes no seed and
no options.

The merge of ``A₁ ≈ U₁·S₁·V₁ᵀ`` with the columns ``A₂ ≈ W₂·V₂ᵀ``
(``W₂ = U₂·S₂`` for a partial SVD, ``B·V`` for a raw block) for the
column concatenation ``[A₁ A₂]`` is exact on the inputs' approximants:

1. project: ``C = U₁ᵀ·W₂``;
2. orthogonalise the out-of-subspace part rank-revealingly:
   ``Q·R ≈ W₂ − U₁·C`` with the ``j ≤ k₂`` directions not already in
   ``span(U₁)`` (detected by SVD, so heavily-overlapping or
   ``k₁+k₂ > n`` merges stay orthonormal);
3. small SVD of the ``(k₁+j) × (k₁+k₂)`` middle matrix
   ``K = [[S₁, C], [0, R]] = Uₖ·Sₖ·Vₖᵀ``;
4. rotate: ``U = [U₁ Q]·Uₖ``, ``S = Sₖ``,
   ``Vᵀ = Vₖᵀ·diag(V₁ᵀ, V₂ᵀ)``, truncated back to the working rank.

Because ``[U₁ Q]`` has orthonormal columns and ``[C; R]`` is
``W₂`` in that basis, step 3 conserves energy exactly
(``‖K‖_F² = ‖S₁‖² + ‖W₂‖²``), so every Frobenius unit lost is lost in
an explicit truncation whose discarded tail is added to a running
triangle-inequality error bound (:attr:`PartialSVD.error_bound`).

:class:`PartialSVD` is the mergeable value type, :func:`merge` the
pairwise combiner, and :func:`block_updates` folds a whole block
stream into one :class:`PartialSVD`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import EmptyCorpusError, ValidationError
from repro.linalg.operator import as_operator
from repro.linalg.sparse import CSRMatrix
from repro.utils.validation import check_non_negative_int, \
    check_positive_int

__all__ = [
    "DIRECT_SPLIT_WIDTH",
    "PartialSVD",
    "block_updates",
    "concat_columns",
    "iter_column_blocks",
    "merge",
]

#: Widest block the direct kernel factors in one piece.  Wider blocks
#: are split into pieces this wide and merged: split-and-merge beat
#: one larger factorisation at every width measured
#: (``docs/INCREMENTAL.md``), and the Gram matrix stays 512 KiB.
DIRECT_SPLIT_WIDTH = 256


def iter_column_blocks(matrix, block_size: int):
    """Yield fixed-width column blocks of ``matrix``, last one ragged.

    Every block but the last has exactly ``block_size`` columns; the
    final block carries the ``n_columns % block_size`` remainder (when
    nonzero).  Dense inputs yield views (no copy); CSR inputs are
    transposed once and sliced in O(nnz) total, not O(nnz) per block.

    Args:
        matrix: dense ``(n, m)`` array or
            :class:`~repro.linalg.sparse.CSRMatrix`.
        block_size: positive width of each yielded block.

    Yields:
        Column blocks of the same type as the input (dense ndarray or
        :class:`~repro.linalg.sparse.CSRMatrix`), in column order.

    Raises:
        ValidationError: on a ``block_size`` that is not a positive
            integer, or a dense input that is not 2-D.
    """
    block_size = check_positive_int(block_size, "block_size")
    if isinstance(matrix, CSRMatrix):
        yield from _iter_csr_blocks(matrix, block_size)
        return
    dense = np.asarray(matrix)
    if dense.ndim != 2:
        raise ValidationError(
            f"matrix must be 2-D, got shape {dense.shape}")
    for start in range(0, dense.shape[1], block_size):
        yield dense[:, start:start + block_size]


def _iter_csr_blocks(matrix: CSRMatrix, block_size: int):
    """CSR column blocks via one transpose + indptr slicing."""
    transposed = matrix.transpose()   # rows become documents
    n_terms, n_columns = matrix.shape
    for start in range(0, n_columns, block_size):
        stop = min(start + block_size, n_columns)
        lo = int(transposed.indptr[start])
        hi = int(transposed.indptr[stop])
        counts = np.diff(transposed.indptr[start:stop + 1])
        rows = transposed.indices[lo:hi]
        cols = np.repeat(np.arange(stop - start, dtype=np.int64),
                         counts)
        yield CSRMatrix.from_triplets(
            n_terms, stop - start, rows, cols,
            transposed.data[lo:hi])


def concat_columns(blocks):
    """Concatenate column blocks over one term space into one block.

    Args:
        blocks: non-empty sequence of dense ``(n, bᵢ)`` arrays and
            :class:`~repro.linalg.sparse.CSRMatrix` blocks.

    Returns:
        The ``(n, Σbᵢ)`` block: a :class:`~repro.linalg.sparse.CSRMatrix`
        when every input is one (never densified), otherwise a dense
        array.  A single block is returned as it is.

    Raises:
        ValidationError: on no blocks or differing row counts.
    """
    blocks = list(blocks)
    rows = {int(block.shape[0]) for block in blocks}
    if len(rows) != 1:
        raise ValidationError(
            f"concat_columns needs blocks over one term space; got "
            f"row counts {sorted(rows)}")
    if len(blocks) == 1:
        return blocks[0]
    if not all(isinstance(block, CSRMatrix) for block in blocks):
        return np.hstack([
            block.to_dense() if isinstance(block, CSRMatrix)
            else np.asarray(block, dtype=np.float64)
            for block in blocks])
    offsets = np.cumsum([0] + [block.shape[1] for block in blocks])
    return CSRMatrix.from_triplets(
        blocks[0].shape[0], int(offsets[-1]),
        np.concatenate([np.repeat(np.arange(block.shape[0]),
                                  np.diff(block.indptr))
                        for block in blocks]),
        np.concatenate([block.indices + offset
                        for block, offset in zip(blocks, offsets)]),
        np.concatenate([block.data for block in blocks]))


def _ritz_pairs(op, rank: int):
    """The top-``rank`` eigenpairs of ``BᵀB``, largest first: the Ritz
    values ``λ`` and vectors ``V`` of the block behind ``op``."""
    values, vectors = np.linalg.eigh(op.gram())     # ascending
    return values[::-1][:rank], vectors[:, ::-1][:, :rank]


def _direct_svd(op, rank: int):
    """Factor one block by its Gram matrix and a Rayleigh–Ritz step.

    The top-``rank`` eigenvectors ``V`` of ``BᵀB`` span (to rounding)
    the block's leading right singular subspace; ``Q = qr(B·V)`` is an
    orthonormal basis for its image, and the small SVD of ``QᵀB``
    gives ``U·S·Vᵀ = QQᵀB``.  Whatever the rounding in ``V``, that is
    an orthogonal projection of ``B``, so the returned result's
    Pythagorean residual is its true residual.
    """
    from repro.linalg.svd import SVDResult

    rank = min(rank, *op.shape)
    basis = np.linalg.qr(op.matmat(_ritz_pairs(op, rank)[1]))[0]
    u_small, s, vt = np.linalg.svd(op.rmatmat(basis).T,
                                   full_matrices=False)
    return SVDResult(basis @ u_small, s, vt, op.frobenius_norm() ** 2)


def _pieces(block, op):
    """``op``'s column pieces, each at most :data:`DIRECT_SPLIT_WIDTH`
    wide, as operators (``op`` itself when it is that narrow)."""
    if op.shape[1] <= DIRECT_SPLIT_WIDTH:
        yield op
        return
    source = block if isinstance(block, CSRMatrix) else op.to_dense()
    for piece in iter_column_blocks(source, DIRECT_SPLIT_WIDTH):
        yield as_operator(piece)


@dataclass(frozen=True)
class PartialSVD:
    """A mergeable partial factorisation ``A ≈ U·S·Vᵀ`` of a column stream.

    The streaming counterpart of :class:`~repro.linalg.svd.SVDResult`:
    the same orthonormal-``U`` / descending-``S`` invariants, plus the
    bookkeeping a merge tree needs — how many columns have been
    absorbed, their total energy, and an explicit upper bound on the
    Frobenius error accumulated by every truncation on the way here.

    Attributes:
        u: ``(n, k)`` orthonormal left factor.
        singular_values: length-``k`` singular values, descending.
        vt: ``(k, m)`` right factor over the columns absorbed so
            far (the documents' coordinates).
        frobenius_norm_sq: ``‖A‖_F²`` of *all* absorbed columns.
        error_bound: triangle-inequality bound on
            ``‖A − U·S·Vᵀ‖_F`` — the sum of each block fit's
            Pythagorean residual plus ``sqrt(Σ discarded σ²)`` of every
            merge/truncate on the path to this value.
        merges: number of pairwise merges folded into this value.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray
    frobenius_norm_sq: float
    error_bound: float = 0.0
    merges: int = 0

    def __post_init__(self):
        if self.u.ndim != 2:
            raise ValidationError("u must be 2-D")
        k = self.singular_values.shape[0]
        if self.u.shape[1] != k:
            raise ValidationError(
                f"inconsistent ranks: u has {self.u.shape[1]} columns "
                f"but there are {k} singular values")
        if np.any(np.diff(self.singular_values) > 1e-9):
            raise ValidationError(
                "singular values must be non-increasing")
        if np.any(self.singular_values < -1e-12):
            raise ValidationError(
                "singular values must be non-negative")
        if self.vt.ndim != 2 or self.vt.shape[0] != k:
            raise ValidationError(
                f"vt must be (k, m) with k={k}; got {self.vt.shape}")
        if self.frobenius_norm_sq < 0 or self.error_bound < 0:
            raise ValidationError(
                "energies and error bounds must be non-negative")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_block(cls, block, rank: int) -> "PartialSVD":
        """Factor one column block into a mergeable partial SVD.

        Uses the direct Gram/Rayleigh–Ritz kernel of the module
        docstring.  A block wider than :data:`DIRECT_SPLIT_WIDTH` is
        split into pieces that wide: the first is factored, and each
        later piece is merged into it raw, as :func:`merge` merges a
        raw block.

        Args:
            block: dense ``(n, b)`` array or
                :class:`~repro.linalg.sparse.CSRMatrix` column block.
            rank: triplets to retain, clamped to ``min(n, b)`` so
                ragged final blocks never over-ask.

        Returns:
            A :class:`PartialSVD` over the block's columns whose
            ``error_bound`` is the block fit's Pythagorean residual,
            plus, for a block wider than :data:`DIRECT_SPLIT_WIDTH`,
            what the merges of its pieces truncate.

        Raises:
            ValidationError: on an empty block or a ``rank`` that is
                not a positive integer.
        """
        op = as_operator(block)
        if min(op.shape) == 0:
            raise ValidationError(
                f"cannot factor an empty block of shape {op.shape}")
        rank = min(check_positive_int(rank, "rank"), min(op.shape))
        pieces = _pieces(block, op)
        first = cls.from_svd_result(_direct_svd(next(pieces), rank))
        return functools.reduce(
            lambda left, piece: _merge_ritz(left, piece, rank), pieces,
            first)

    @classmethod
    def from_svd_result(cls, result) -> "PartialSVD":
        """Lift an :class:`~repro.linalg.svd.SVDResult` into the merge
        algebra (its Pythagorean residual becomes the initial bound)."""
        return cls(u=result.u,
                   singular_values=result.singular_values,
                   vt=result.vt,
                   frobenius_norm_sq=result.frobenius_norm_sq,
                   error_bound=result.residual_norm())

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def rank(self) -> int:
        """Number of retained singular triplets ``k``."""
        return int(self.singular_values.shape[0])

    @property
    def n_terms(self) -> int:
        """Row dimension ``n`` shared by every merged block."""
        return int(self.u.shape[0])

    @property
    def n_columns(self) -> int:
        """Number of matrix columns absorbed so far (``vt``'s width)."""
        return int(self.vt.shape[1])

    def captured_energy(self) -> float:
        """``Σ σᵢ²`` over retained triplets (:func:`math.fsum`-stable).

        Monotone non-decreasing under :func:`merge` as long as the
        merge keeps at least ``max(k₁, k₂)`` triplets: the middle
        matrix ``K`` contains ``[S₁; 0]`` and an orthonormal multiple
        of ``S₂`` as column sub-blocks, so its leading singular values
        dominate both inputs'.
        """
        return math.fsum(float(s) * float(s)
                         for s in self.singular_values)

    def residual_energy(self) -> float:
        """``‖A‖_F² − Σ σᵢ²`` — energy of the stream not represented."""
        return max(0.0, self.frobenius_norm_sq - self.captured_energy())

    def energy_fraction(self) -> float:
        """Fraction of the absorbed columns' energy retained."""
        if self.frobenius_norm_sq == 0:
            return 1.0
        return min(1.0, self.captured_energy() / self.frobenius_norm_sq)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def truncate(self, rank: int) -> "PartialSVD":
        """Keep the leading ``rank`` triplets, growing the error bound.

        The discarded tail adds ``sqrt(Σ dropped σᵢ²)`` to
        :attr:`error_bound` — the exact Frobenius cost of the cut.
        """
        rank = check_positive_int(rank, "rank")
        if rank >= self.rank:
            return self
        dropped = math.fsum(
            float(s) * float(s) for s in self.singular_values[rank:])
        return replace(
            self,
            u=self.u[:, :rank].copy(),
            singular_values=self.singular_values[:rank].copy(),
            vt=self.vt[:rank].copy(),
            error_bound=self.error_bound + math.sqrt(max(0.0, dropped)))

    def to_svd_result(self):
        """Convert to an :class:`~repro.linalg.svd.SVDResult`."""
        from repro.linalg.svd import SVDResult

        return SVDResult(self.u, self.singular_values, self.vt,
                         self.frobenius_norm_sq)

    def __repr__(self) -> str:
        return (f"PartialSVD(k={self.rank}, n={self.n_terms}, "
                f"columns={self.n_columns}, merges={self.merges}, "
                f"energy={self.energy_fraction():.3f})")


def merge(a: PartialSVD, b: "PartialSVD | np.ndarray | CSRMatrix", *,
          rank: "int | None" = None) -> PartialSVD:
    """Merge a partial SVD with the columns that follow it, ``[A B]``.

    The stacked-factor QR/small-SVD merge from the module docstring:
    exact on the inputs' rank-``k`` approximants, with any truncation
    to ``rank`` accounted into the result's ``error_bound``.  The
    operation is associative up to a rotation of the retained subspace
    (and exactly energy-conserving before truncation), so a merge tree
    of any shape over the same blocks spans the same space.

    ``b`` is either the partial SVD of the next columns or the columns
    themselves: a raw dense or :class:`~repro.linalg.sparse.CSRMatrix`
    block enters through its top Ritz pairs (the eigenvectors ``V`` of
    ``BᵀB``: ``U₂·S₂ = B·V``, ``V₂ᵀ = Vᵀ``), at most ``rank`` of them
    per :data:`DIRECT_SPLIT_WIDTH`-wide piece, so it is never factored
    on its own.  Ritz values at or below ``max(n, b)·ε·λ₁`` are
    dropped; the energy they and any unkept pairs carry is charged to
    ``error_bound``.

    Args:
        a: left partial factorisation (its columns come first).
        b: the right :class:`PartialSVD`, or a raw ``(n, b)`` column
            block.
        rank: triplets to keep (default: all ``k₁ + k₂``).  Keeping at
            least ``max(k₁, k₂)`` preserves the monotonicity of
            ``captured_energy``.

    Returns:
        The merged :class:`PartialSVD` over ``a``'s then ``b``'s
        columns.  Each piece of a raw block counts as one merge.

    Raises:
        ValidationError: when the inputs' term dimensions differ, on
            an empty raw block, or on a ``rank`` that is not a
            positive integer.
    """
    if rank is not None:
        rank = check_positive_int(rank, "rank")
    if isinstance(b, PartialSVD):
        _check_term_space(a, b.n_terms)
        return _merge_columns(
            a, b.u * b.singular_values, b.singular_values ** 2, b.vt,
            frobenius_norm_sq=b.frobenius_norm_sq,
            error_bound=b.error_bound, merges=b.merges + 1, rank=rank)
    op = as_operator(b)
    _check_term_space(a, op.shape[0])
    if op.shape[1] == 0:
        raise ValidationError(
            f"cannot merge an empty block of shape {op.shape}")
    for piece in _pieces(b, op):
        a = _merge_ritz(a, piece, rank)
    return a


def _check_term_space(a: PartialSVD, n_terms: int) -> None:
    if a.n_terms != n_terms:
        raise ValidationError(
            f"cannot merge columns over different term spaces "
            f"({a.n_terms} vs {n_terms} rows)")


def _merge_ritz(a: PartialSVD, op, rank: "int | None") -> PartialSVD:
    """Merge one raw piece (at most :data:`DIRECT_SPLIT_WIDTH` wide)
    through its top-``rank`` Ritz pairs."""
    values, vectors = _ritz_pairs(
        op, min(op.shape) if rank is None else min(rank, *op.shape))
    kept = int(np.sum(values > max(op.shape) * np.finfo(np.float64).eps
                      * values[0]))
    vectors = np.ascontiguousarray(vectors[:, :kept])
    scaled = op.matmat(vectors)                      # U₂·S₂ = B·V
    energies = np.einsum("ij,ij->j", scaled, scaled)
    frobenius_norm_sq = op.frobenius_norm() ** 2
    # B·V·Vᵀ is an orthogonal projection of B: what it misses, the
    # dropped and unkept Ritz pairs included, is its Pythagorean
    # residual.
    return _merge_columns(
        a, scaled, energies, vectors.T,
        frobenius_norm_sq=frobenius_norm_sq,
        error_bound=math.sqrt(max(
            0.0, frobenius_norm_sq - math.fsum(energies))),
        merges=1, rank=rank)


def _merge_columns(a: PartialSVD, scaled, energies, vt, *,
                   frobenius_norm_sq: float, error_bound: float,
                   merges: int, rank: "int | None") -> PartialSVD:
    """Merge ``a`` with the columns ``scaled·vt``, where ``scaled`` is
    their ``U₂·S₂`` and ``energies`` its squared column norms; the
    keywords are the columns' own bookkeeping."""
    k1, k2 = a.rank, scaled.shape[1]

    projection = a.u.T @ scaled                    # (k1, k2)
    residual = scaled - a.u @ projection
    # Second Gram–Schmidt pass: keeps the new directions numerically
    # orthogonal to span(U₁) even when the overlap is large.
    residual -= a.u @ (a.u.T @ residual)
    # The residual is rank-deficient whenever span(W₂) overlaps
    # span(U₁) (always when k₁ + k₂ > n), so its numerical rank is
    # detected with an SVD rather than trusted from an unpivoted QR.
    # Rounding leaves about ε·‖W₂‖ in it, so the tolerance scales with
    # W₂, not with the residual: columns wholly inside span(U₁) then
    # add no direction.
    q, res_sv, _ = np.linalg.svd(residual, full_matrices=False)
    tol = max(residual.shape) * np.finfo(np.float64).eps \
        * math.sqrt(float(np.max(energies, initial=0.0)))
    j = int(np.sum(res_sv > tol))
    q = q[:, :j]                                   # (n, j), q ⟂ U₁
    r = q.T @ residual                             # (j, k2)

    middle = np.zeros((k1 + j, k1 + k2))
    middle[:k1, :k1] = np.diag(a.singular_values)
    middle[:k1, k1:] = projection
    middle[k1:, k1:] = r
    u_mid, s_mid, vt_mid = np.linalg.svd(middle, full_matrices=False)

    keep = k1 + j if rank is None else min(rank, k1 + j)
    # Everything lost here is either an explicit truncation tail or
    # the (tolerance-sized) null directions dropped above; charging
    # the full energy deficit covers both.
    retained = math.fsum(float(s) * float(s) for s in s_mid[:keep])
    dropped = max(0.0, a.captured_energy() + math.fsum(energies)
                  - retained)

    return PartialSVD(
        u=np.hstack([a.u, q]) @ u_mid[:, :keep],
        singular_values=s_mid[:keep],
        vt=np.hstack([vt_mid[:keep, :k1] @ a.vt,
                      vt_mid[:keep, k1:] @ vt]),
        frobenius_norm_sq=a.frobenius_norm_sq + frobenius_norm_sq,
        error_bound=a.error_bound + error_bound + math.sqrt(dropped),
        merges=a.merges + merges)


def block_updates(stream, rank: int, *,
                  block_size: "int | None" = None,
                  oversample: int = 8) -> PartialSVD:
    """Consume a stream of column blocks into one partial SVD.

    The first block is factored at the working rank
    ``rank + oversample`` by :meth:`PartialSVD.from_block`; every
    later one is merged as it is (:func:`merge` takes a raw block)
    at that rank, left to right, and the final result is truncated to
    ``rank``.  Peak memory is one block plus the factors — the stream
    is never concatenated.

    Args:
        stream: iterable of column blocks (dense arrays or
            :class:`~repro.linalg.sparse.CSRMatrix`), all with the
            same number of rows.
        rank: triplets to retain in the final result (clamped down
            when the stream has fewer columns).
        block_size: when given, re-chunk oversized incoming blocks to
            this width via :func:`iter_column_blocks` before factoring
            (narrow blocks are processed as-is).
        oversample: extra working-rank headroom carried through the
            merges; more headroom means less truncation error.

    Returns:
        The accumulated :class:`PartialSVD` over every streamed column.

    Raises:
        EmptyCorpusError: when the stream yields no blocks.
        ValidationError: on inconsistent block row counts or invalid
            parameters.
    """
    rank = check_positive_int(rank, "rank")
    oversample = check_non_negative_int(oversample, "oversample")
    work_rank = rank + oversample
    accumulated: "PartialSVD | None" = None
    for block in _rechunked(stream, block_size):
        if accumulated is None:
            accumulated = PartialSVD.from_block(block, work_rank)
        else:
            accumulated = merge(accumulated, block, rank=work_rank)
    if accumulated is None:
        raise EmptyCorpusError("block_updates received an empty stream")
    return accumulated.truncate(min(rank, accumulated.rank))


def _rechunked(stream, block_size: "int | None"):
    """Pass blocks through, splitting any wider than ``block_size``."""
    if block_size is None:
        yield from stream
        return
    for block in stream:
        yield from iter_column_blocks(block, block_size)
