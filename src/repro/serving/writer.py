"""The mutating side of a served index: fold-in, deletion, refit.

Folding a new document in (:meth:`IndexWriter.add_documents`) projects
it onto the fitted ``Uₖ`` basis exactly like a query — cheap, but the
basis never learns from it.  The cost of that shortcut is *drift*, and
this module makes it a first-class, monotone metric grounded in the
Eckart–Young accounting of :class:`~repro.linalg.svd.SVDResult`:

- every folded column ``c`` contributes its out-of-subspace energy
  ``‖c‖² − ‖Uₖᵀc‖²`` — the part of the document the index cannot
  represent and a refit could absorb;
- every tombstoned document contributes its in-subspace energy
  ``‖v_d‖²`` — mass the basis was fitted to that no longer exists;
- ``drift = unabsorbed / (unabsorbed + ‖Aₖ‖_F²)`` where ``‖Aₖ‖_F²`` is
  the served factors' captured energy ``Σ σᵢ²``.

The numerator only grows between refits, so drift is monotone
non-decreasing in update operations (a perfectly in-subspace fold-in
adds exactly 0, which Lemma 1 says is the right answer: in-model
arrivals barely perturb the basis).  Crossing ``drift_threshold`` flips
:attr:`IndexWriter.needs_refit`.

:meth:`IndexWriter.refit` absorbs the accumulated updates.  Since the
incremental-SVD subsystem (:mod:`repro.linalg.incremental`) the default
is *not* a from-scratch decomposition: the writer buffers the folded
term-space columns and, on ``refit()``, concatenates them and merges
them, in fixed-width blocks, into the current factors — cost
proportional to the fold-in block, plus one pass over the store.  A
from-scratch decomposition is still available as
``refit(matrix)`` and remains the only way to *purge* tombstoned mass
from the basis (an incremental merge can add subspace directions but
never subtracts the deleted columns' contribution, so deleted energy
stays in the drift numerator until a full refit).

The document store is ``(doc_unit, doc_norms)``: each column ``Uₖᵀ·c``
of §2 as its direction and length, all cosine ranking needs.  The
writer keeps no other copy: :attr:`IndexWriter.model` derives the
fitted ``Vₖᵀ = Σ⁻¹·(doc_unit·doc_norms)`` on demand, and no refit
needs it.  An incremental refit works in the store's coordinates:
its merge starts from ``(Uₖ, Σ)`` with the fitted columns' right
factor the ``k × k`` identity, so it rotates ``k`` plus the new
columns, never the ``m`` documents (only streamed fits still pay the
``O(w²·m)`` ``vt`` rotation), and one ``(k′ × k)·(k × m)`` product
then writes the fitted part of the new store.  It reads only the
store, so it gives the same bits with or without a save and load in
between.

The store is appendable.  The writer holds it in a C-ordered
``(k, capacity)`` buffer and a ``(capacity,)`` norms buffer and
publishes their leading ``m`` columns; a fold-in projects and
normalises its ``p`` columns into the spare ones and publishes the
longer views, so it costs what it adds.  When the spare room runs out
the buffer grows to fit the fold plus an eighth of the store, which
copies the store: appending ``n`` columns one at a time copies it
O(log n) times.  Builds, refits and loads install exact, contiguous
stores, so the first fold-in after one of them copies too.

No write touches a column that a published store covers: a fold-in
writes only past the end of every view handed out, a removal touches
no column, and a refit installs new arrays.  That is what lets
:meth:`IndexWriter.from_state` adopt a bundle's read-only memory maps
as they are, and an engine built on one store keep ranking it while
later fold-ins fill the buffer behind it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.lsi import LSIModel
from repro.errors import ValidationError
from repro.linalg.dense import ZERO_NORM_TOL
from repro.linalg.incremental import PartialSVD, concat_columns, \
    iter_column_blocks, merge
from repro.linalg.operator import as_operator
from repro.linalg.sparse import CSRMatrix
from repro.linalg.svd import SVDResult
from repro.utils.validation import check_fraction, \
    check_non_negative_int, check_rank

__all__ = ["IndexWriter"]

#: A growing store reserves spare room for ``1/_GROWTH_DIVISOR`` of its
#: columns beyond the fold that outgrew it.  Geometric growth keeps the
#: copies O(log n) over n appends.  The fraction stays small because
#: numpy advises huge pages for arrays of 4 MB and up, so the spare
#: columns of a large C-ordered buffer are resident too.
_GROWTH_DIVISOR = 8


def _divisors(norms: np.ndarray) -> np.ndarray:
    """What :func:`~repro.linalg.dense.normalize_columns` divided each
    column by: its norm above ``ZERO_NORM_TOL``, else 1."""
    return np.where(norms > ZERO_NORM_TOL, norms, 1.0)


def _normalize_in_place(columns: np.ndarray) -> np.ndarray:
    """Scale ``(k, p)`` float64 columns to unit length; return their norms.

    The bits are those :func:`~repro.linalg.dense.normalize_columns`
    gives each column inside a C-ordered ``(k, m)`` store, whatever
    ``p`` and the layout: squares are summed row after row, as numpy
    reduces such a store (a lone column or a Fortran-ordered block it
    sums pairwise).  So fold-ins normalised batch by batch give the
    store normalising it whole would.
    """
    squares = columns[0] * columns[0]
    scratch = np.empty_like(squares)
    for row in columns[1:]:
        squares += np.multiply(row, row, out=scratch)
    norms = np.sqrt(squares)
    columns /= _divisors(norms)
    return norms


class IndexWriter:
    """Owns an index's document store and its update lifecycle.

    Args:
        model: the fitted :class:`~repro.core.lsi.LSIModel` to serve.
            The writer keeps its basis, spectrum and the unit store of
            its ``Σ·Vᵀ``, not the model itself.
        drift_threshold: drift level past which a refit is recommended;
            ``None`` disables the recommendation.

    The writer tracks three kinds of state: the ``(k, m)`` LSI document
    store (fitted + folded columns) as ``(doc_unit, doc_norms)``, the
    tombstone set, and the drift accounting described in the module
    docstring.
    """

    def __init__(self, model: LSIModel, *,
                 drift_threshold: "float | None" = 0.1):
        if not isinstance(model, LSIModel):
            raise ValidationError("IndexWriter wraps an LSIModel")
        if drift_threshold is not None:
            drift_threshold = check_fraction(drift_threshold,
                                             "drift_threshold")
        self.drift_threshold = drift_threshold
        self._tombstones: "set[int]" = set()
        # Deleted (and bundle-carried) drift energy: only a full refit
        # clears it.  Fold-in energy lives beside the fold buffer.
        self._deleted_energy = 0.0
        self._deletes = 0
        self._refits = 0
        self._install(model.svd)

    def _install(self, svd: SVDResult) -> None:
        """Serve ``svd``, with its ``Σ·Vᵀ`` normalised in place as the
        store (the model's cached ``Σ·Vᵀ`` is never filled)."""
        doc_unit = np.multiply(svd.singular_values[:, None], svd.vt,
                               order="C")
        doc_norms = _normalize_in_place(doc_unit)
        self._adopt(svd.u, svd.singular_values, svd.frobenius_norm_sq,
                    (doc_unit, doc_norms), doc_unit.shape[1])

    def _adopt(self, u, singular_values, frobenius_norm_sq, store,
               n_original) -> None:
        """Serve these arrays as they are, with an empty fold buffer.

        The store is its own buffer, with no spare room: the first
        fold-in copies it into one that has some.
        """
        self._u = u
        self._singular_values = singular_values
        self._frobenius_norm_sq = float(frobenius_norm_sq)
        self._store = store
        # (doc_unit, doc_norms) of which the store is the leading
        # columns; columns past them are spare room for fold-ins.
        self._store_buffer = store
        self._n_original = int(n_original)
        self._view: "LSIModel | None" = None
        # Fold-in columns, verbatim, for refit() to merge into the
        # factors, and the out-of-subspace energy it absorbs with them.
        self._fold_buffer: "list[np.ndarray | CSRMatrix]" = []
        self._fold_energy = 0.0
        self._fold_ins = 0

    # ------------------------------------------------------------------
    # Store inspection
    # ------------------------------------------------------------------

    @property
    def model(self) -> LSIModel:
        """The LSI model of the fitted columns, derived from the store.

        Built on first access and cached until the next refit: ``Uₖ``
        and ``Σ`` as served, and ``Vᵀ = Σ⁻¹·(doc_unit·doc_norms)`` over
        the :attr:`n_original` fitted columns, each scaled back by the
        divisor :func:`~repro.linalg.dense.normalize_columns` used (its
        norm above ``ZERO_NORM_TOL``, else 1); rows with ``σᵢ = 0`` are
        zero.  It costs one pass over the fitted store and one more
        ``(k, m)`` array; no query, fold-in, refit, save or load
        builds it.
        """
        view = self._view
        if view is None:
            doc_unit, doc_norms = self._store
            norms = doc_norms[:self._n_original]
            vt = np.multiply(doc_unit[:, :self._n_original],
                             _divisors(norms), order="C")
            positive = self._singular_values > 0
            vt /= np.where(positive, self._singular_values, 1.0)[:, None]
            vt[~positive] = 0.0
            view = LSIModel(SVDResult(self._u, self._singular_values, vt,
                                      self._frobenius_norm_sq))
            self._view = view
        return view

    @property
    def term_basis(self) -> np.ndarray:
        """``Uₖ``, the read-only ``(n_terms, k)`` basis."""
        return self._u

    @property
    def singular_values(self) -> np.ndarray:
        """``σ₁ ≥ … ≥ σₖ`` of the served factors."""
        return self._singular_values

    @property
    def frobenius_norm_sq(self) -> float:
        """``‖A‖_F²`` of the matrix the served factors decompose."""
        return self._frobenius_norm_sq

    @property
    def store(self) -> "tuple[np.ndarray, np.ndarray]":
        """The read-only document store ``(doc_unit, doc_norms)``.

        ``doc_unit`` is ``(k, m)``, every stored vector at unit length;
        ``doc_norms`` their lengths.  After a fold-in both are views of
        wider buffers (``doc_unit``'s row stride exceeds ``m``).  No
        write touches the columns a returned pair covers, and writes
        replace the pair in one assignment, so another thread never
        reads a mixed pair.
        """
        return self._store

    @property
    def n_documents(self) -> int:
        """Total stored documents (fitted + folded, incl. tombstoned)."""
        return int(self._store[0].shape[1])

    @property
    def n_original(self) -> int:
        """Documents that came from the (re)fit rather than folding."""
        return self._n_original

    @property
    def n_folded(self) -> int:
        """Documents added by folding since the last (re)fit."""
        return self.n_documents - self._n_original

    @property
    def n_tombstoned(self) -> int:
        """Deleted documents still occupying ids."""
        return len(self._tombstones)

    @property
    def n_active(self) -> int:
        """Documents eligible to be served."""
        return self.n_documents - self.n_tombstoned

    @property
    def tombstones(self) -> tuple:
        """Deleted document ids, ascending."""
        return tuple(sorted(self._tombstones))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add_documents(self, columns) -> np.ndarray:
        """Fold new term-space documents in; return their assigned ids.

        Args:
            columns: dense ``(n_terms, p)`` array or
                :class:`~repro.linalg.sparse.CSRMatrix` of new document
                columns.

        Each column is projected (``Uₖᵀ·c``), normalised on its own and
        written into the spare columns of the store's buffer, which
        grows (a copy of the store) only when it has no room for them.
        Its out-of-subspace energy is added to
        the drift numerator, so drift never decreases on an add.  The
        columns themselves are buffered (term space, verbatim) so the
        next ``refit()`` can absorb them into the basis incrementally;
        the buffer costs O(nnz of the folds since the last refit) and
        is dropped on every refit.

        Raises:
            ValidationError: if ``columns`` is dense but not 2-D, or
                does not span the served terms.
        """
        if isinstance(columns, CSRMatrix):
            stored: "np.ndarray | CSRMatrix" = columns
        else:
            dense = np.asarray(columns, dtype=np.float64)
            if dense.ndim != 2:
                raise ValidationError(
                    f"document columns must be 2-D (n_terms, p), got "
                    f"shape {dense.shape}")
            stored = dense.copy()
        operator = as_operator(stored)
        if operator.shape[0] != self._u.shape[0]:
            raise ValidationError(
                f"columns have {operator.shape[0]} terms; the index "
                f"serves {self._u.shape[0]}")
        projected = operator.rmatmat(self._u).T  # (k, p)
        total = stored.column_norms() ** 2 \
            if isinstance(stored, CSRMatrix) \
            else np.sum(stored * stored, axis=0)
        captured = np.sum(projected * projected, axis=0)
        self._fold_energy += float(
            np.sum(np.maximum(total - captured, 0.0)))
        first = self.n_documents
        end = first + projected.shape[1]
        unit, norms = self._store_buffer
        if end > unit.shape[1]:
            # No spare room below 8 columns, so every store with spare
            # columns is at least 9 wide: OpenBLAS's GEMV scores a
            # strided store of 3 or fewer columns with other bits than
            # the contiguous store a save and load give back.
            capacity = end + first // _GROWTH_DIVISOR
            doc_unit, doc_norms = self._store
            unit = np.empty((doc_unit.shape[0], capacity))
            unit[:, :first] = doc_unit
            norms = np.empty(capacity)
            norms[:first] = doc_norms
            self._store_buffer = (unit, norms)
        if end > first:  # even an empty write fails on a read-only map
            norms[first:end] = _normalize_in_place(projected)
            unit[:, first:end] = projected
            self._store = (unit[:, :end], norms[:end])
        self._fold_buffer.append(stored)
        self._fold_ins += projected.shape[1]
        return np.arange(first, end, dtype=np.int64)

    def remove_documents(self, doc_ids) -> None:
        """Tombstone documents (fold-out).

        Deleted ids keep their positions (so ids stay stable) but stop
        appearing in rankings; their in-subspace energy
        (``doc_norms[id]²``) joins the drift numerator because the
        basis still encodes mass that no longer exists.  The store is
        not touched.

        Raises:
            ValidationError: before any state changes, on an id that
                is not a non-negative integer (a float or bool), out
                of range, already deleted, or repeated in the call.
        """
        if np.ndim(doc_ids) == 0:
            doc_ids = [doc_ids]
        ids = [check_non_negative_int(d, "document id") for d in doc_ids]
        seen: "set[int]" = set()
        for doc_id in ids:
            if doc_id >= self.n_documents:
                raise ValidationError(
                    f"document id {doc_id} out of range for "
                    f"{self.n_documents} documents")
            if doc_id in self._tombstones:
                raise ValidationError(
                    f"document {doc_id} is already deleted")
            if doc_id in seen:
                raise ValidationError(
                    f"document {doc_id} is repeated in one call")
            seen.add(doc_id)
        self._deleted_energy += float(np.sum(self._store[1][ids] ** 2))
        self._tombstones.update(ids)
        self._deletes += len(ids)

    # ------------------------------------------------------------------
    # Drift accounting
    # ------------------------------------------------------------------

    @property
    def drift(self) -> float:
        """``unabsorbed / (unabsorbed + captured)`` in ``[0, 1)``."""
        captured = math.fsum(float(s) * float(s)
                             for s in self._singular_values)
        unabsorbed = self.unabsorbed_energy
        denominator = unabsorbed + captured
        if denominator <= 0:
            return 0.0
        return unabsorbed / denominator

    @property
    def unabsorbed_energy(self) -> float:
        """Accumulated out-of-subspace + deleted energy since refit."""
        return self._fold_energy + self._deleted_energy

    @property
    def pending_columns(self) -> int:
        """Fold-in columns buffered for the next incremental refit."""
        return sum(int(block.shape[1]) for block in self._fold_buffer)

    @property
    def can_refit_incrementally(self) -> bool:
        """Whether ``refit()`` (no matrix) can run.

        True when the fold buffer covers every folded document —
        which it always does for an in-process writer, but not after
        loading a bundle that was saved with unabsorbed fold-ins
        (term-space columns are not persisted).
        """
        return self.pending_columns == self.n_folded

    @property
    def fold_ins_since_refit(self) -> int:
        """Documents folded in since the last (re)fit."""
        return self._fold_ins

    @property
    def deletes_since_refit(self) -> int:
        """Documents tombstoned since the last (re)fit."""
        return self._deletes

    @property
    def refits(self) -> int:
        """Times :meth:`refit` ran over this writer's lifetime."""
        return self._refits

    @property
    def needs_refit(self) -> bool:
        """Whether drift has crossed the configured threshold."""
        return (self.drift_threshold is not None
                and self.drift >= self.drift_threshold)

    # ------------------------------------------------------------------
    # Refit
    # ------------------------------------------------------------------

    def refit(self, matrix=None, *, rank=None,
              engine: "str | None" = None, seed=None,
              block_size: "int | None" = None,
              oversample: "int | None" = None,
              **engine_kwargs) -> None:
        """Absorb the accumulated updates into the factors.

        Two modes, and neither replaces the other:

        - **Incremental (default)** — ``refit()`` with no matrix
          concatenates the buffered fold-in columns into one block
          and merges it, ``block_size`` columns at a time, into the
          served ``(Uₖ, Σ)`` with one
          :func:`repro.linalg.incremental.merge` call per block, the
          fitted columns' right factor standing as the ``k × k``
          identity.  One product of the merged factors with the
          store then writes the new store's fitted columns, so the
          refit reads only the store: it has the same bits whether
          or not the index was saved and loaded since its last
          refit, and it derives no :attr:`model`.  The refit merges
          ``⌈pending / block_size⌉`` times however many
          :meth:`add_documents` calls filled the buffer.  No
          from-scratch decomposition runs and no corpus matrix is
          needed; cost scales with the fold block, plus one pass over
          the store.
          Fold-in drift is absorbed; tombstones (and their deleted
          energy) survive, because a merge can only *add* subspace
          mass — purging deletions needs the full mode.
        - **Full** — ``refit(matrix)`` re-runs the SVD on an
          authoritative corpus matrix: the writer replaces its factors
          and document store, clears tombstones, and resets all drift
          accounting.

        Args:
            matrix: the ``n_terms × m_new`` corpus for a full refit;
                ``None`` selects the incremental merge.
            rank: LSI rank (defaults to the served rank).
                The incremental mode can keep or lower it only; raise
                it with ``refit(matrix)``.
            engine: full mode only — the SVD engine (``None``:
                ``lanczos``).
            seed: RNG seed for the full mode's iterative engines; the
                incremental mode is deterministic and ignores it.
            block_size: incremental mode only — width of the blocks
                the concatenated fold buffer is factored in (``None``
                factors it as one block).
            oversample: working-rank headroom: carried through the
                incremental merges (``None``: 8), or, when given with
                a matrix, the engine's own ``oversample`` option.
            **engine_kwargs: full mode only — the tuning options
                ``engine`` takes (see
                :func:`~repro.linalg.svd.engine_options`).

        Returns:
            None.  The writer keeps the new basis, spectrum and unit
            store; :attr:`model` derives the model from them on
            access, which a refit never pays for.

        Raises:
            ValidationError: on an option ``engine`` does not take;
                on an engine or engine option without a matrix, or a
                ``block_size`` with one; when the incremental mode's
                fold buffer does not cover the folded documents
                (bundle loads drop the buffer — supply the matrix
                instead); when the refit matrix's term space does not
                match the served one; or on invalid fit parameters.
            RankError: when the incremental mode's ``rank`` exceeds
                the served rank (a merge cannot recover directions the
                basis already dropped).
            ConvergenceError: when an iterative SVD engine fails to
                converge.
        """
        if matrix is None:
            if engine is not None:
                engine_kwargs["engine"] = engine
            if engine_kwargs:
                raise ValidationError(
                    f"unknown option(s) {sorted(engine_kwargs)} for the "
                    f"incremental refit; an engine and its options "
                    f"apply to refit(matrix) only")
            self._refit_incremental(
                rank=rank, block_size=block_size,
                oversample=8 if oversample is None else oversample)
            return
        if block_size is not None:
            raise ValidationError(
                "block_size applies to the incremental refit only; "
                "refit(matrix) decomposes the whole matrix")
        if oversample is not None:
            engine_kwargs["oversample"] = oversample
        self._refit_full(
            matrix, rank=rank,
            engine="lanczos" if engine is None else engine, seed=seed,
            **engine_kwargs)

    def _refit_full(self, matrix, *, rank, engine, seed,
                    **engine_kwargs) -> None:
        """From-scratch decomposition; resets every accounting bucket."""
        rank = int(self._u.shape[1]) if rank is None else rank
        model = LSIModel.fit(matrix, rank, engine=engine, seed=seed,
                             **engine_kwargs)
        if model.n_terms != self._u.shape[0]:
            raise ValidationError(
                f"refit matrix has {model.n_terms} terms; the index "
                f"serves {self._u.shape[0]}")
        self._install(model.svd)
        self._tombstones.clear()
        self._deleted_energy = 0.0
        self._deletes = 0
        self._refits += 1

    def _refit_incremental(self, *, rank, block_size,
                           oversample) -> None:
        """Merge the concatenated fold buffer into the served factors,
        ``block_size`` columns at a time, and rotate the store."""
        if not self.can_refit_incrementally:
            raise ValidationError(
                f"incremental refit needs the term-space fold "
                f"columns, but the buffer holds "
                f"{self.pending_columns} of {self.n_folded} folded "
                f"documents (bundles do not persist the buffer); "
                f"pass refit(matrix) for a full refit")
        # A merge cannot recover directions the basis already
        # dropped, so the rank can only stay or fall here.
        served_rank = int(self._u.shape[1])
        rank = served_rank if rank is None \
            else check_rank(rank, served_rank)
        work_rank = served_rank \
            + check_non_negative_int(oversample, "oversample")
        # The fitted columns are Uₖ·Σ·Vᵀ: merging into (Uₖ, Σ, I)
        # rotates the k coordinates Vᵀ stands for, not its m columns.
        partial = PartialSVD.from_svd_result(SVDResult(
            self._u, self._singular_values, np.eye(served_rank),
            self._frobenius_norm_sq))
        if self._fold_buffer:
            pending = concat_columns(self._fold_buffer)
            width = pending.shape[1] if block_size is None \
                else block_size
            for block in iter_column_blocks(pending, width):
                partial = merge(partial, block, rank=work_rank)
        partial = partial.truncate(min(rank, partial.rank))
        # Fold mass is now in the basis; deleted mass is not — a merge
        # never subtracts, so tombstones and their energy survive
        # until a full refit purges them.
        self._adopt(partial.u, partial.singular_values,
                    partial.frobenius_norm_sq, self._merged_store(partial),
                    self.n_documents)
        self._refits += 1

    def _merged_store(self, partial: PartialSVD):
        """The unit store of ``partial``'s ``Σ′·V′ᵀ``, in one new array.

        ``partial`` merged the fold columns into ``(Uₖ, Σ, I)``, so
        the first ``k`` columns ``M`` of its ``vt`` rotate the fitted
        columns' ``Vᵀ = Σ⁻¹·(doc_unit·divisors)`` and the rest are the
        fold columns' ``V′ᵀ``.  The fitted part is therefore
        ``G·doc_unit`` scaled by the divisors, with
        ``G = diag(σ′)·M·Σ⁻¹`` (zero where ``σᵢ = 0``, as in
        :attr:`model`): one ``(k′ × k)·(k × m)`` product.
        """
        spectrum = self._singular_values
        k = spectrum.shape[0]
        inverse = np.divide(1.0, spectrum, out=np.zeros(k),
                            where=spectrum > 0)
        scale = partial.singular_values[:, None]
        doc_unit, doc_norms = self._store
        fitted = self._n_original
        unit = np.empty((partial.rank, self.n_documents))
        np.matmul(scale * partial.vt[:, :k] * inverse,
                  doc_unit[:, :fitted], out=unit[:, :fitted])
        unit[:, :fitted] *= _divisors(doc_norms[:fitted])
        np.multiply(scale, partial.vt[:, k:], out=unit[:, fitted:])
        return unit, _normalize_in_place(unit)

    # ------------------------------------------------------------------
    # Persistence plumbing
    # ------------------------------------------------------------------

    @classmethod
    def from_state(cls, term_basis: np.ndarray,
                   singular_values: np.ndarray,
                   frobenius_norm_sq: float, doc_unit: np.ndarray,
                   doc_norms: np.ndarray, *, n_original: int,
                   tombstones=(), unabsorbed_energy: float = 0.0,
                   drift_threshold: "float | None" = 0.1,
                   fold_ins: int = 0, deletes: int = 0,
                   refits: int = 0) -> "IndexWriter":
        """Rebuild a writer from persisted bundle state.

        The writer adopts the basis, spectrum and store as they are —
        nothing is copied or computed, so restoring from a bundle's
        read-only memory maps touches no page of them.  That is safe
        because no write touches a column of a published store: the
        first fold-in copies the adopted store into a new buffer.

        Bundles do not persist the term-space fold buffer, so the
        restored ``unabsorbed_energy`` lands in the non-fold bucket
        (only a full refit clears it) and a restored writer with
        unabsorbed fold-ins reports
        ``can_refit_incrementally == False`` until its next refit.

        Raises:
            ValidationError: when ``term_basis``, ``singular_values``
                and ``doc_unit`` disagree on ``k``, ``doc_norms`` does
                not match ``doc_unit``'s column count, ``n_original``
                lies outside ``[0, m]``, or ``drift_threshold`` is not
                a fraction.
        """
        shapes = (term_basis.shape, singular_values.shape, doc_unit.shape)
        if len(shapes[0]) != 2 or len(shapes[2]) != 2 \
                or shapes[1] != shapes[0][1:] or shapes[2][0] != shapes[0][1]:
            raise ValidationError(
                f"term_basis {shapes[0]}, singular_values {shapes[1]} and "
                f"doc_unit {shapes[2]} must agree on the rank k")
        n_documents = int(shapes[2][1])
        if doc_norms.shape != (n_documents,):
            raise ValidationError(
                f"doc_norms has shape {doc_norms.shape}; doc_unit has "
                f"{n_documents} columns")
        if not 0 <= n_original <= n_documents:
            raise ValidationError(
                f"n_original={n_original} out of range for "
                f"{n_documents} stored documents")
        writer = cls.__new__(cls)
        if drift_threshold is not None:
            drift_threshold = check_fraction(drift_threshold,
                                             "drift_threshold")
        writer.drift_threshold = drift_threshold
        writer._adopt(term_basis, singular_values, frobenius_norm_sq,
                      (doc_unit, doc_norms), n_original)
        writer._tombstones = {int(d) for d in tombstones}
        writer._deleted_energy = float(unabsorbed_energy)
        writer._fold_ins = int(fold_ins)
        writer._deletes = int(deletes)
        writer._refits = int(refits)
        return writer

    def __repr__(self) -> str:
        return (f"IndexWriter(k={self._u.shape[1]}, "
                f"m={self.n_documents}, folded={self.n_folded}, "
                f"tombstoned={self.n_tombstoned}, "
                f"drift={self.drift:.4f})")
