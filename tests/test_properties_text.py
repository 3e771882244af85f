"""Property-based tests for the text stack and Boolean query algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.pipeline import TextPipeline
from repro.corpus.stemmer import porter_stem
from repro.corpus.text import tokenize
from repro.corpus.vocabulary import Vocabulary
from repro.corpus.weighting import WEIGHTING_SCHEMES, apply_weighting
from repro.errors import EmptyCorpusError
from repro.ir.boolean import BooleanRetriever
from repro.ir.index import InvertedIndex
from repro.linalg.sparse import CSRMatrix

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=15)


class TestStemmerProperties:
    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_never_longer_than_input(self, word):
        assert len(porter_stem(word)) <= len(word)

    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_output_nonempty_lowercase(self, word):
        stem = porter_stem(word)
        assert stem
        assert stem == stem.lower()

    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_deterministic(self, word):
        assert porter_stem(word) == porter_stem(word)

    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_case_insensitive(self, word):
        assert porter_stem(word.upper()) == porter_stem(word)

    @given(words)
    @settings(max_examples=200, deadline=None)
    def test_plural_conflates(self, word):
        # Regular plural conflates with its singular.  Words ending in
        # 's' or 'e' are excluded: "sse"+"s" hits the SSES->SS rule
        # while the singular keeps its 'e' — genuine Porter behaviour,
        # not a bug.
        if word.endswith(("s", "e")) or len(word) < 3:
            return
        assert porter_stem(word + "s") == porter_stem(word)


class TestTokenizeProperties:
    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_lowercase_alpha(self, text):
        for token in tokenize(text):
            assert token.isalpha()
            assert token == token.lower()

    @given(st.lists(words, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_joining_round_trips(self, tokens):
        assert tokenize(" ".join(tokens)) == tokens


#: Words the pipeline tests draw texts from: stop words, upper case,
#: punctuation, digits, Porter suffix classes and empty strings.
PIPELINE_WORDS = (
    "the", "The", "AND", "of", "is", "was", "",
    "relational", "conditional", "rational", "ponies", "ties",
    "caresses", "agreed", "feed", "plastered", "motoring", "sing",
    "hopping", "filing", "happy", "sky", "generalization", "hopefulness",
    "adjustable", "electricity", "probate", "controll", "connect",
    "Connected", "CONNECTING", "galaxy's", "end.", "x-ray", "!!",
    "abc123def", "42", "r2d2", "starship", "starships",
)
#: Words only the transformed texts and queries use (never fitted).
UNSEEN_WORDS = ("connections", "relate", "Galaxies", "zyzzyx", "feeds",
                "hopped", "conditionally", "ATE", "q9q")


def _texts(words, max_texts):
    """Strategy: lists of texts joined with varied separators."""
    text = st.lists(st.sampled_from(words), max_size=10).flatmap(
        lambda tokens: st.sampled_from((" ", ", ", "-", "\n", "7")).map(
            lambda sep: sep.join(tokens)))
    return st.lists(text, min_size=1, max_size=max_texts)


pipeline_options = st.fixed_dictionaries({
    "stem": st.booleans(),
    "remove_stop_words": st.booleans(),
    "extra_stop_words": st.lists(st.sampled_from(
        ("Connect", "sky", "ties", "feed", "galaxy")), max_size=2),
    "min_documents": st.integers(1, 3),
    "max_df_fraction": st.sampled_from((1.0, 0.8, 0.5, 0.25)),
    "weighting": st.sampled_from(sorted(WEIGHTING_SCHEMES)),
})


def reference_fit(pipeline, texts):
    """The per-token fit: vocabulary list and weighted matrix."""
    term_ids: dict = {}
    columns = []
    for text in texts:
        column: dict = {}
        for token in pipeline.process_text(text):
            term = term_ids.setdefault(token, len(term_ids))
            column[term] = column.get(term, 0.0) + 1.0
        columns.append(column)
    if not term_ids:
        raise EmptyCorpusError("no tokens survived preprocessing")
    matrix = CSRMatrix.from_columns(len(term_ids), columns)
    df = matrix.document_frequency()
    keep = df >= pipeline.min_documents
    if pipeline.max_df_fraction < 1.0:
        keep &= df <= pipeline.max_df_fraction * matrix.shape[1]
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        raise EmptyCorpusError("pruning removed every term")
    terms = list(term_ids)
    return ([terms[i] for i in kept],
            apply_weighting(matrix.select_rows(kept), pipeline.weighting))


def reference_transform(pipeline, vocabulary, texts):
    """The per-token transform over a vocabulary list (counts)."""
    term_ids = {term: i for i, term in enumerate(vocabulary)}
    columns = []
    for text in texts:
        column: dict = {}
        for token in pipeline.process_text(text):
            if token in term_ids:
                term = term_ids[token]
                column[term] = column.get(term, 0.0) + 1.0
        columns.append(column)
    return CSRMatrix.from_columns(len(vocabulary), columns)


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), name


class TestPipelineMatchesPerTokenReference:
    @given(options=pipeline_options,
           fitted=_texts(PIPELINE_WORDS, 6),
           later=_texts(PIPELINE_WORDS + UNSEEN_WORDS, 4))
    @settings(max_examples=200, deadline=None)
    def test_fit_transform_and_query_vector(self, options, fitted,
                                            later):
        pipeline = TextPipeline(**options)
        try:
            vocabulary, expected = reference_fit(pipeline, fitted)
        except EmptyCorpusError:
            with pytest.raises(EmptyCorpusError):
                pipeline.fit_transform(fitted)
            return
        assert_same_csr(pipeline.fit_transform(fitted), expected)
        assert list(pipeline.vocabulary) == vocabulary
        assert_same_csr(pipeline.transform(later),
                        reference_transform(pipeline, vocabulary, later))
        for text in later + fitted:
            wanted = reference_transform(
                pipeline, vocabulary, [text]).get_column(0)
            got = pipeline.query_vector(text)
            assert got.dtype == wanted.dtype == np.float64
            assert np.array_equal(got, wanted)


@st.composite
def boolean_worlds(draw):
    """A random small index plus two random single-term queries."""
    n_terms = draw(st.integers(2, 6))
    n_docs = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_terms, n_docs)) < 0.4).astype(float)
    matrix = CSRMatrix.from_dense(dense)
    vocabulary = Vocabulary([f"term{i}" for i in range(n_terms)])
    retriever = BooleanRetriever(InvertedIndex.from_matrix(matrix),
                                 vocabulary=vocabulary)
    a = f"term{draw(st.integers(0, n_terms - 1))}"
    b = f"term{draw(st.integers(0, n_terms - 1))}"
    return retriever, a, b


class TestBooleanAlgebraLaws:
    @given(boolean_worlds())
    @settings(max_examples=100, deadline=None)
    def test_de_morgan_or(self, world):
        retriever, a, b = world
        assert retriever.search(f"NOT ({a} OR {b})") == \
            retriever.search(f"NOT {a} AND NOT {b}")

    @given(boolean_worlds())
    @settings(max_examples=100, deadline=None)
    def test_de_morgan_and(self, world):
        retriever, a, b = world
        assert retriever.search(f"NOT ({a} AND {b})") == \
            retriever.search(f"NOT {a} OR NOT {b}")

    @given(boolean_worlds())
    @settings(max_examples=100, deadline=None)
    def test_double_negation(self, world):
        retriever, a, _ = world
        assert retriever.search(f"NOT NOT {a}") == retriever.search(a)

    @given(boolean_worlds())
    @settings(max_examples=100, deadline=None)
    def test_commutativity(self, world):
        retriever, a, b = world
        assert retriever.search(f"{a} AND {b}") == \
            retriever.search(f"{b} AND {a}")
        assert retriever.search(f"{a} OR {b}") == \
            retriever.search(f"{b} OR {a}")

    @given(boolean_worlds())
    @settings(max_examples=100, deadline=None)
    def test_idempotence(self, world):
        retriever, a, _ = world
        assert retriever.search(f"{a} AND {a}") == retriever.search(a)
        assert retriever.search(f"{a} OR {a}") == retriever.search(a)

    @given(boolean_worlds())
    @settings(max_examples=100, deadline=None)
    def test_excluded_middle(self, world):
        retriever, a, _ = world
        everything = set(range(retriever.n_documents))
        assert retriever.search(f"{a} OR NOT {a}") == everything
        assert retriever.search(f"{a} AND NOT {a}") == set()

    @given(boolean_worlds())
    @settings(max_examples=100, deadline=None)
    def test_and_bounded_by_or(self, world):
        retriever, a, b = world
        conj = retriever.search(f"{a} AND {b}")
        disj = retriever.search(f"{a} OR {b}")
        assert conj <= disj
