"""End-to-end text indexing pipeline: raw strings → term–document matrix.

The front end a downstream user actually runs documents through:

    tokenize → stop-word filter → (optional) Porter stemming →
    vocabulary construction → count matrix → DF pruning → weighting

:class:`TextPipeline` is fitted on a training collection (fixing the
vocabulary) and then transforms further documents/queries into the same
term space — the contract LSI query folding requires.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from repro.errors import EmptyCorpusError, NotFittedError, ValidationError
from repro.corpus.stemmer import porter_stem
from repro.corpus.stopwords import ENGLISH_STOP_WORDS
from repro.corpus.text import tokenize
from repro.corpus.vocabulary import Vocabulary
from repro.corpus.weighting import WEIGHTING_SCHEMES, apply_weighting
from repro.linalg.sparse import CSRMatrix
from repro.utils.validation import check_fraction

__all__ = ["TextPipeline"]


class _TokenTable(NamedTuple):
    """Raw token → final term id (-1: dropped), as one fit resolved it
    under ``settings`` for ``vocabulary``."""

    vocabulary: "Vocabulary | None"
    settings: tuple
    ids: dict[str, int]


class TextPipeline:
    """A fit/transform text front end over a fixed vocabulary.

    A fit processes each distinct raw token once and keeps a table from
    raw token to final term id (or dropped) beside the vocabulary it
    fixes; :meth:`transform` and :meth:`query_vector` look tokens up in
    it.  A token the table lacks takes the per-token path uncached, so
    only a fit rebuilds the table, and it never holds more entries than
    the training collection has distinct tokens.  The table belongs to
    the fitted vocabulary and token options: once :attr:`vocabulary`,
    ``stem``, ``remove_stop_words`` or ``extra_stop_words`` is
    reassigned, every token takes the per-token path.  Either way the
    outputs equal :meth:`process_text` applied token by token, and
    several threads may call :meth:`transform` and :meth:`query_vector`
    at once (they only read the table).

    Args:
        stem: apply Porter stemming after stop-word removal.
        remove_stop_words: drop tokens on the English stop list.
        extra_stop_words: additional stop tokens (matched post-lowercase,
            pre-stemming).
        min_documents: drop terms appearing in fewer training documents.
        max_df_fraction: drop terms appearing in more than this fraction
            of training documents.
        weighting: scheme from
            :data:`repro.corpus.weighting.WEIGHTING_SCHEMES` applied by
            :meth:`fit_transform` (query vectors stay raw counts —
            cosine scoring makes query scaling irrelevant).
    """

    def __init__(self, *, stem: bool = True,
                 remove_stop_words: bool = True, extra_stop_words=(),
                 min_documents: int = 1, max_df_fraction: float = 1.0,
                 weighting: str = "count"):
        if weighting not in WEIGHTING_SCHEMES:
            raise ValidationError(
                f"unknown weighting {weighting!r}; expected one of "
                f"{sorted(WEIGHTING_SCHEMES)}")
        if min_documents < 1:
            raise ValidationError(
                f"min_documents must be >= 1, got {min_documents}")
        check_fraction(max_df_fraction, "max_df_fraction",
                       inclusive_low=False)
        self.stem = bool(stem)
        self.remove_stop_words = bool(remove_stop_words)
        self.extra_stop_words = frozenset(
            str(t).lower() for t in extra_stop_words)
        self.min_documents = int(min_documents)
        self.max_df_fraction = float(max_df_fraction)
        self.weighting = weighting
        self.vocabulary: Vocabulary | None = None
        self._token_table = _TokenTable(None, (), {})

    # ------------------------------------------------------------------
    # Token-level processing
    # ------------------------------------------------------------------

    def process_text(self, text: str) -> list[str]:
        """Tokenise, filter, and stem one string."""
        tokens = tokenize(text)
        if self.remove_stop_words:
            tokens = [t for t in tokens
                      if t not in ENGLISH_STOP_WORDS
                      and t not in self.extra_stop_words]
        elif self.extra_stop_words:
            tokens = [t for t in tokens
                      if t not in self.extra_stop_words]
        if self.stem:
            tokens = [porter_stem(t) for t in tokens]
        return tokens

    def _process_token(self, token: str) -> "str | None":
        """One raw token through :meth:`process_text`'s filter and
        stemmer (``None``: dropped)."""
        if token in self.extra_stop_words or (
                self.remove_stop_words and token in ENGLISH_STOP_WORDS):
            return None
        return porter_stem(token) if self.stem else token

    def _settings(self) -> tuple:
        """The options a token's processing depends on."""
        return (self.stem, self.remove_stop_words, self.extra_stop_words)

    def _token_ids(self, tokens, vocabulary: Vocabulary) -> np.ndarray:
        """Term ids of raw tokens over ``vocabulary`` (-1: dropped).

        Tokens are looked up in the fitted table when it belongs to
        ``vocabulary`` and the current options; any other token takes
        the per-token path, uncached.
        """
        table = self._token_table
        known = table.ids if table.vocabulary is vocabulary \
            and table.settings == self._settings() else {}
        tokens = list(tokens)
        ids = list(map(known.get, tokens))
        if None in ids:
            ids = [self._unseen_token_id(token, vocabulary)
                   if term_id is None else term_id
                   for token, term_id in zip(tokens, ids)]
        return np.array(ids, dtype=np.int64)

    def _unseen_token_id(self, token: str, vocabulary: Vocabulary) -> int:
        """The per-token path for a token the fitted table lacks."""
        term = self._process_token(token)
        if term is None or term not in vocabulary:
            return -1
        return vocabulary.term_id(term)

    # ------------------------------------------------------------------
    # Fit / transform
    # ------------------------------------------------------------------

    def fit_transform(self, texts) -> CSRMatrix:
        """Fix the vocabulary on ``texts`` and return their matrix.

        Document-frequency pruning happens here (against the training
        collection); the weighting scheme is applied to the result.
        Each distinct raw token is filtered and stemmed once, and the
        resulting raw token → term id table serves later
        :meth:`transform` and :meth:`query_vector` calls.
        """
        texts = list(texts)
        if not texts:
            raise EmptyCorpusError("fit_transform needs at least one "
                                   "document")
        documents = [tokenize(text) for text in texts]
        # Ids in order of first occurrence, as a pass over the
        # processed tokens would assign them.
        term_ids: dict[str, int] = {}
        raw_ids: dict[str, int] = {}
        for token in dict.fromkeys(itertools.chain.from_iterable(
                documents)):
            term = self._process_token(token)
            raw_ids[token] = -1 if term is None \
                else term_ids.setdefault(term, len(term_ids))
        if not term_ids:
            raise EmptyCorpusError(
                "no tokens survived preprocessing")
        ids = np.array(list(map(raw_ids.__getitem__,
                                itertools.chain.from_iterable(documents))),
                       dtype=np.int64)
        matrix = _count_matrix(len(term_ids), documents, ids)

        # DF pruning against the training collection.
        df = matrix.document_frequency()
        keep_mask = df >= self.min_documents
        if self.max_df_fraction < 1.0:
            keep_mask &= df <= self.max_df_fraction * matrix.shape[1]
        kept = np.flatnonzero(keep_mask)
        if kept.size == 0:
            raise EmptyCorpusError("pruning removed every term")
        if kept.size < len(term_ids):
            matrix = matrix.select_rows(kept)

        terms = list(term_ids)
        vocabulary = Vocabulary([terms[i] for i in kept])
        final = {old: new for new, old in enumerate(kept.tolist())}
        self._token_table = _TokenTable(
            vocabulary, self._settings(),
            {token: final.get(term_id, -1)
             for token, term_id in raw_ids.items()})
        self.vocabulary = vocabulary
        return apply_weighting(matrix, self.weighting)

    def _require_vocabulary(self) -> Vocabulary:
        if self.vocabulary is None:
            raise NotFittedError(
                "fit_transform must run before transform")
        return self.vocabulary

    def transform(self, texts) -> CSRMatrix:
        """Map new documents into the fitted term space (counts).

        Out-of-vocabulary tokens are dropped; documents may come out
        empty (all-zero columns), which cosine scoring handles.
        """
        vocabulary = self._require_vocabulary()
        documents = [tokenize(text) for text in texts]
        ids = self._token_ids(itertools.chain.from_iterable(documents),
                              vocabulary)
        return _count_matrix(len(vocabulary), documents, ids)

    def query_vector(self, text: str) -> np.ndarray:
        """One query as a dense count vector over the fitted vocabulary."""
        vocabulary = self._require_vocabulary()
        ids = self._token_ids(tokenize(text), vocabulary)
        return np.bincount(ids[ids >= 0], minlength=len(vocabulary)) \
            .astype(np.float64)

    def __repr__(self) -> str:
        fitted = "unfitted" if self.vocabulary is None else \
            f"vocab={len(self.vocabulary)}"
        return (f"TextPipeline(stem={self.stem}, "
                f"stop_words={self.remove_stop_words}, "
                f"weighting={self.weighting!r}, {fitted})")


def _count_matrix(n_terms: int, documents, ids: np.ndarray) -> CSRMatrix:
    """The ``n_terms × len(documents)`` count matrix of token ids.

    ``ids`` holds the term id of every token of ``documents``, in
    order, with -1 for a dropped token.
    """
    lengths = np.fromiter(map(len, documents), dtype=np.int64,
                          count=len(documents))
    columns = np.repeat(np.arange(len(documents)), lengths)
    kept = ids >= 0
    return CSRMatrix.from_triplets(n_terms, len(documents), ids[kept],
                                   columns[kept], np.ones(int(kept.sum())))
