"""Latent semantic indexing (§2 of the paper).

Given the ``n × m`` term–document matrix ``A`` with SVD ``A = U·D·Vᵀ``,
rank-``k`` LSI keeps the ``k`` largest singular values:
``Aₖ = Uₖ·Dₖ·Vₖᵀ``.  Documents are represented by the rows of ``Vₖ·Dₖ``
(equivalently: columns of ``A`` projected onto the span of ``Uₖ``, the
*LSI space*), and queries are projected into the same space
(``q ↦ Uₖᵀ·q``) before cosine ranking.

:class:`LSIModel` packages fit → represent → retrieve, exposes the
Eckart–Young residual accounting (Theorem 1), and shares the retrieval
interface of :class:`~repro.ir.vsm.VectorSpaceModel` so experiments can
swap the two engines.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError, ValidationError
from repro.linalg.dense import cosine_similarity_matrix
from repro.linalg.svd import SVDResult, truncated_svd
from repro.utils.validation import check_top_k, check_vector

__all__ = ["LSIModel"]


class LSIModel:
    """A fitted rank-``k`` LSI index.

    Build with :meth:`fit`; then :meth:`project_query`,
    :meth:`document_vectors`, :meth:`score`, :meth:`rank`, and
    :meth:`similarities` operate in the LSI space.

    Attributes:
        svd: the underlying truncated :class:`~repro.linalg.svd.SVDResult`.
        rank: the LSI dimension ``k``.
    """

    def __init__(self, svd: SVDResult):
        if not isinstance(svd, SVDResult):
            raise ValidationError("LSIModel wraps an SVDResult")
        self.svd = svd
        self._doc_vectors = svd.document_vectors()  # (k, m)

    @classmethod
    def fit(cls, matrix, rank, *, engine: str = "lanczos",
            seed=None, **engine_kwargs) -> "LSIModel":
        """Fit rank-``rank`` LSI on a term–document matrix.

        Args:
            matrix: ``n × m`` dense array or
                :class:`~repro.linalg.sparse.CSRMatrix` (rows = terms).
            rank: the LSI dimension ``k`` — in the §4 theorems, the
                number of topics.
            engine: SVD engine (``"lanczos"``, ``"subspace"``,
                ``"exact"``).
            seed: RNG seed for iterative engines.
            **engine_kwargs: engine-specific options; unknown options
                raise :class:`~repro.errors.ValidationError` listing the
                valid ones (see
                :func:`~repro.linalg.svd.engine_options`).
        """
        svd = truncated_svd(matrix, rank, engine=engine, seed=seed,
                            **engine_kwargs)
        return cls(svd)

    @classmethod
    def fit_streamed(cls, blocks, rank, *, engine: str = "lanczos",
                     seed=None, block_size: "int | None" = None,
                     oversample: int = 8, polish_iterations: int = 0,
                     **engine_kwargs) -> "LSIModel":
        """Fit rank-``rank`` LSI from a stream of column blocks.

        The out-of-core fitting path: blocks are factored one at a
        time by a direct engine and folded together with the
        :mod:`repro.linalg.incremental` merge, so peak memory is one
        block plus the ``(n + m) × k`` factors — the full
        term–document matrix is never materialised.

        Args:
            blocks: an iterable of column blocks (dense arrays or
                :class:`~repro.linalg.sparse.CSRMatrix`, e.g. from
                :func:`~repro.corpus.io.corpus_column_blocks`), or a
                single in-memory matrix to be chunked via
                :func:`~repro.linalg.incremental.iter_column_blocks`.
            rank: the LSI dimension ``k``.
            engine: per-block SVD engine (any direct engine).
            seed: RNG seed for iterative engines.
            block_size: chunk width for a matrix input, and the
                re-chunk width for oversized stream blocks (``None``
                keeps stream blocks as produced; a matrix input
                defaults to 256-column chunks).
            oversample: working-rank headroom carried through merges.
            polish_iterations: power-iteration polish rounds after the
                merge — only valid for a (re-readable) matrix input; a
                one-shot block stream cannot be polished.
            **engine_kwargs: per-block engine tuning.

        Raises:
            ValidationError: when ``polish_iterations > 0`` with a
                one-shot block stream, or on invalid fit parameters.
            EmptyCorpusError: when the stream yields no blocks.
            ConvergenceError: when a per-block engine fails to
                converge.
        """
        from repro.linalg.incremental import block_updates, \
            iter_column_blocks, polish
        from repro.linalg.sparse import CSRMatrix

        is_matrix = isinstance(blocks, (CSRMatrix, np.ndarray))
        if is_matrix:
            width = 256 if block_size is None else block_size
            stream = iter_column_blocks(blocks, width)
        else:
            if polish_iterations > 0:
                raise ValidationError(
                    "polish_iterations requires a re-readable matrix "
                    "input; a one-shot block stream cannot be "
                    "re-scanned (pass the matrix itself, or polish "
                    "later with repro.linalg.incremental.polish)")
            stream = blocks
        partial = block_updates(
            stream, rank,
            block_size=None if is_matrix else block_size,
            engine=engine, oversample=oversample, seed=seed,
            keep_vt=True, **engine_kwargs)
        if is_matrix and polish_iterations > 0:
            partial = polish(partial, blocks,
                             iterations=polish_iterations)
            partial = partial.truncate(min(rank, partial.rank))
        return cls(partial.to_svd_result())

    # ------------------------------------------------------------------
    # Representation
    # ------------------------------------------------------------------

    @property
    def rank(self) -> int:
        """The LSI dimension ``k``."""
        return self.svd.rank

    @property
    def n_terms(self) -> int:
        """Universe size ``n``."""
        return int(self.svd.u.shape[0])

    @property
    def n_documents(self) -> int:
        """Corpus size ``m``."""
        return int(self.svd.vt.shape[1])

    @property
    def term_basis(self) -> np.ndarray:
        """``Uₖ`` — the orthonormal basis of the LSI space (n × k)."""
        return self.svd.u

    @property
    def singular_values(self) -> np.ndarray:
        """``σ₁ ≥ … ≥ σₖ``."""
        return self.svd.singular_values

    def document_vectors(self) -> np.ndarray:
        """LSI document representations as a ``(k, m)`` array.

        Column ``j`` is the paper's ``v_d`` for document ``j`` — row ``j``
        of ``Vₖ·Dₖ``.
        """
        return self._doc_vectors.copy()

    def term_vectors(self) -> np.ndarray:
        """LSI term representations: the rows of ``Uₖ·Dₖ``, ``(n, k)``.

        The term-side dual of :meth:`document_vectors`; synonymous terms
        become nearly parallel rows (the §4 synonymy analysis).
        """
        return self.svd.u * self.svd.singular_values

    def document_vector(self, doc_id: int) -> np.ndarray:
        """The LSI vector of one document."""
        doc_id = int(doc_id)
        if not 0 <= doc_id < self.n_documents:
            raise ValidationError(
                f"document id {doc_id} out of range for "
                f"{self.n_documents} documents")
        return self._doc_vectors[:, doc_id].copy()

    def project_query(self, query_vector) -> np.ndarray:
        """Fold a term-space query into the LSI space: ``Uₖᵀ·q``.

        Works for unseen documents too (folding-in).
        """
        query = check_vector(query_vector, "query_vector")
        if query.shape[0] != self.n_terms:
            raise ValidationError(
                f"query has {query.shape[0]} terms; model expects "
                f"{self.n_terms}")
        return self.svd.u.T @ query

    def project_documents(self, matrix) -> np.ndarray:
        """Fold a batch of term-space columns into the LSI space.

        Accepts a dense ``(n, p)`` array or a CSR matrix; returns
        ``(k, p)``.
        """
        from repro.linalg.operator import as_operator

        op = as_operator(matrix)
        if op.shape[0] != self.n_terms:
            raise ValidationError(
                f"columns have {op.shape[0]} terms; model expects "
                f"{self.n_terms}")
        return op.rmatmat(self.svd.u).T

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def score(self, query_vector) -> np.ndarray:
        """Cosine score of every document against a term-space query.

        The query is folded into the LSI space first; documents with a
        zero LSI vector score 0.
        """
        projected = self.project_query(query_vector)
        return self._cosine_against_documents(projected)

    def score_in_lsi_space(self, lsi_vector) -> np.ndarray:
        """Cosine scores for a query already in LSI coordinates."""
        lsi_vector = check_vector(lsi_vector, "lsi_vector")
        if lsi_vector.shape[0] != self.rank:
            raise ValidationError(
                f"LSI vector has {lsi_vector.shape[0]} coordinates; model "
                f"rank is {self.rank}")
        return self._cosine_against_documents(lsi_vector)

    def _cosine_against_documents(self, projected: np.ndarray) -> np.ndarray:
        sims = cosine_similarity_matrix(projected[:, None],
                                        self._doc_vectors)
        return sims[0]

    def rank_documents(self, query_vector, *, top_k=None) -> np.ndarray:
        """Document ids by descending LSI cosine score.

        ``top_k`` follows the engine-wide policy of
        :func:`~repro.utils.validation.check_top_k`: ``None`` returns the
        full ranking, otherwise a validated positive integer (clamped to
        the corpus size).
        """
        scores = self.score(query_vector)
        top_k = check_top_k(top_k, self.n_documents)
        order = np.argsort(-scores, kind="stable")
        return order[:top_k]

    def similarities(self) -> np.ndarray:
        """All-pairs document cosine similarity in the LSI space (m × m)."""
        return cosine_similarity_matrix(self._doc_vectors)

    # ------------------------------------------------------------------
    # Approximation quality (Theorem 1 bookkeeping)
    # ------------------------------------------------------------------

    def reconstruct(self) -> np.ndarray:
        """The rank-``k`` approximation ``Aₖ`` as a dense array."""
        return self.svd.reconstruct()

    def residual_norm(self) -> float:
        """``‖A − Aₖ‖_F`` — the Eckart–Young optimal residual."""
        return self.svd.residual_norm()

    def energy_fraction(self) -> float:
        """Fraction of ``‖A‖_F²`` the LSI space captures."""
        return self.svd.energy_fraction()

    def __repr__(self) -> str:
        return (f"LSIModel(k={self.rank}, n={self.n_terms}, "
                f"m={self.n_documents}, "
                f"energy={self.energy_fraction():.3f})")
