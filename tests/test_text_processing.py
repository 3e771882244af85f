"""Tests for the stemmer, stop words, and the text pipeline."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.corpus.pipeline import TextPipeline
from repro.corpus.stemmer import porter_stem, stem_tokens
from repro.corpus.stopwords import (
    ENGLISH_STOP_WORDS,
    high_document_frequency_terms,
    is_stop_word,
    low_document_frequency_terms,
    prune_terms,
    remove_stop_words,
)
from repro.corpus.vocabulary import Vocabulary, synthetic_words
from repro.errors import EmptyCorpusError, NotFittedError, ValidationError
from repro.linalg.sparse import CSRMatrix


class TestPorterStemmer:
    # The canonical examples from Porter's 1980 paper, step by step.
    @pytest.mark.parametrize("word,stem", [
        ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
        ("caress", "caress"), ("cats", "cat"),
    ])
    def test_step_1a(self, word, stem):
        assert porter_stem(word) == stem

    @pytest.mark.parametrize("word,stem", [
        ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
        ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
        ("conflated", "conflat"), ("troubled", "troubl"),
        ("sized", "size"), ("hopping", "hop"), ("tanned", "tan"),
        ("falling", "fall"), ("hissing", "hiss"), ("fizzed", "fizz"),
        ("failing", "fail"), ("filing", "file"),
    ])
    def test_step_1b(self, word, stem):
        assert porter_stem(word) == stem

    @pytest.mark.parametrize("word,stem", [
        ("happy", "happi"), ("sky", "sky"),
    ])
    def test_step_1c(self, word, stem):
        assert porter_stem(word) == stem

    @pytest.mark.parametrize("word,stem", [
        ("relational", "relat"), ("conditional", "condit"),
        ("rational", "ration"), ("valenci", "valenc"),
        ("digitizer", "digit"), ("conformabli", "conform"),
        ("radicalli", "radic"), ("differentli", "differ"),
        ("vileli", "vile"), ("analogousli", "analog"),
        ("vietnamization", "vietnam"), ("predication", "predic"),
        ("operator", "oper"), ("feudalism", "feudal"),
        ("decisiveness", "decis"), ("hopefulness", "hope"),
        ("callousness", "callous"), ("formaliti", "formal"),
        ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"),
    ])
    def test_step_2(self, word, stem):
        assert porter_stem(word) == stem

    @pytest.mark.parametrize("word,stem", [
        ("triplicate", "triplic"), ("formative", "form"),
        ("formalize", "formal"), ("electriciti", "electr"),
        ("electrical", "electr"), ("hopeful", "hope"),
        ("goodness", "good"),
    ])
    def test_step_3(self, word, stem):
        assert porter_stem(word) == stem

    @pytest.mark.parametrize("word,stem", [
        ("revival", "reviv"), ("allowance", "allow"),
        ("inference", "infer"), ("airliner", "airlin"),
        ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
        ("defensible", "defens"), ("irritant", "irrit"),
        ("replacement", "replac"), ("adjustment", "adjust"),
        ("dependent", "depend"), ("adoption", "adopt"),
        ("communism", "commun"), ("activate", "activ"),
        ("homologous", "homolog"), ("effective", "effect"),
        ("bowdlerize", "bowdler"),
    ])
    def test_step_4(self, word, stem):
        assert porter_stem(word) == stem

    @pytest.mark.parametrize("word,stem", [
        ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
        ("controll", "control"), ("roll", "roll"),
    ])
    def test_step_5(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_words_unchanged(self):
        assert porter_stem("at") == "at"
        assert porter_stem("by") == "by"

    def test_lowercases(self):
        assert porter_stem("Running") == porter_stem("running")

    def test_conflates_morphological_family(self):
        stems = {porter_stem(w) for w in
                 ("connect", "connected", "connecting", "connection",
                  "connections")}
        assert len(stems) == 1

    def test_stem_tokens(self):
        assert stem_tokens(["cats", "running"]) == ["cat", "run"]


class TestStopWords:
    def test_common_words_are_stops(self):
        for word in ("the", "and", "of", "is"):
            assert is_stop_word(word)
            assert is_stop_word(word.upper())

    def test_content_words_are_not(self):
        for word in ("galaxy", "starship", "automobile"):
            assert not is_stop_word(word)

    def test_remove_stop_words(self):
        tokens = ["the", "galaxy", "and", "starship"]
        assert remove_stop_words(tokens) == ["galaxy", "starship"]

    def test_remove_with_extra(self):
        assert remove_stop_words(["foo", "bar"], extra=["foo"]) == ["bar"]

    def test_stop_list_is_lowercase(self):
        assert all(w == w.lower() for w in ENGLISH_STOP_WORDS)


class TestDFPruning:
    @pytest.fixture
    def matrix(self):
        # Term 0 everywhere, term 1 in one doc, term 2 in half.
        return CSRMatrix.from_dense(np.array([
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0]]))

    def test_high_df(self, matrix):
        assert list(high_document_frequency_terms(matrix, 0.6)) == [0]

    def test_low_df(self, matrix):
        assert list(low_document_frequency_terms(matrix, 2)) == [1]

    def test_prune_both(self, matrix):
        pruned, kept = prune_terms(matrix, max_df_fraction=0.6,
                                   min_documents=2)
        assert list(kept) == [2]
        assert pruned.shape == (1, 4)

    def test_prune_everything_rejected(self, matrix):
        with pytest.raises(ValidationError):
            prune_terms(matrix, max_df_fraction=0.1, min_documents=5)


class TestTextPipeline:
    DOCS = [
        "The starships were connecting to the galaxy's relay",
        "Starship connections in the galaxy",
        "Databases store the employee and the manager salaries",
        "A database stores salaries for employees",
    ]

    def test_fit_transform_shapes(self):
        pipeline = TextPipeline()
        matrix = pipeline.fit_transform(self.DOCS)
        assert matrix.shape[1] == 4
        assert matrix.shape[0] == len(pipeline.vocabulary)

    def test_stop_words_removed(self):
        pipeline = TextPipeline()
        pipeline.fit_transform(self.DOCS)
        assert "the" not in pipeline.vocabulary
        assert "and" not in pipeline.vocabulary

    def test_stemming_conflates(self):
        pipeline = TextPipeline(stem=True)
        pipeline.fit_transform(self.DOCS)
        vocabulary = set(pipeline.vocabulary)
        # 'starships'/'starship' and 'connecting'/'connections'
        # conflate to one stem each.
        assert porter_stem("starships") in vocabulary
        assert "starships" not in vocabulary

    def test_no_stemming_keeps_forms(self):
        pipeline = TextPipeline(stem=False)
        pipeline.fit_transform(self.DOCS)
        assert "starships" in pipeline.vocabulary
        assert "starship" in pipeline.vocabulary

    def test_transform_matches_fit_space(self):
        pipeline = TextPipeline()
        trained = pipeline.fit_transform(self.DOCS)
        again = pipeline.transform(self.DOCS)
        # Same counts (fit_transform used count weighting by default).
        assert np.allclose(again.to_dense(), trained.to_dense())

    def test_transform_drops_oov(self):
        pipeline = TextPipeline()
        pipeline.fit_transform(self.DOCS)
        column = pipeline.transform(["zyzzyx unknownword"]).get_column(0)
        assert np.all(column == 0)

    def test_query_vector(self):
        pipeline = TextPipeline()
        pipeline.fit_transform(self.DOCS)
        query = pipeline.query_vector("galaxy starship")
        assert query.sum() == 2

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TextPipeline().transform(["text"])

    def test_min_documents_pruning(self):
        pipeline = TextPipeline(min_documents=2, stem=True)
        pipeline.fit_transform(self.DOCS)
        # 'relay' appears once; pruned.
        assert porter_stem("relay") not in pipeline.vocabulary
        assert porter_stem("galaxy") in pipeline.vocabulary

    def test_weighting_applied(self):
        pipeline = TextPipeline(weighting="binary")
        matrix = pipeline.fit_transform(
            ["galaxy galaxy galaxy", "galaxy starship"])
        assert set(np.unique(matrix.data)) <= {1.0}

    def test_bad_weighting_rejected(self):
        with pytest.raises(ValidationError):
            TextPipeline(weighting="bogus")

    def test_empty_collection_rejected(self):
        with pytest.raises(EmptyCorpusError):
            TextPipeline().fit_transform([])

    def test_all_stopword_collection_rejected(self):
        with pytest.raises(EmptyCorpusError):
            TextPipeline().fit_transform(["the and of", "is was"])

    def test_end_to_end_lsi_retrieval(self):
        from repro.core.lsi import LSIModel

        pipeline = TextPipeline()
        matrix = pipeline.fit_transform(self.DOCS)
        lsi = LSIModel.fit(matrix, 2, engine="exact")
        query = pipeline.query_vector("galaxy starships")
        top = lsi.rank_documents(query, top_k=2)
        assert set(int(d) for d in top) == {0, 1}


class TestTokenTable:
    """The fitted raw token → term id table behind transform and
    query_vector."""

    DOCS = TestTextPipeline.DOCS

    @staticmethod
    def per_token_query(pipeline, text):
        """The query vector ``process_text`` gives, token by token."""
        vocabulary = pipeline.vocabulary
        out = np.zeros(len(vocabulary))
        for term in pipeline.process_text(text):
            if term in vocabulary:
                out[vocabulary.term_id(term)] += 1.0
        return out

    def test_unseen_token_gets_its_fitted_stem(self):
        pipeline = TextPipeline()
        pipeline.fit_transform(["connect", "galaxy relay"])
        term = pipeline.vocabulary.term_id("connect")
        query = pipeline.query_vector("connections")
        assert query[term] == 1.0 and query.sum() == 1.0
        column = pipeline.transform(["connections connected"]).get_column(0)
        assert column[term] == 2.0 and column.sum() == 2.0

    def test_unseen_tokens_leave_the_table_unchanged(self):
        pipeline = TextPipeline()
        pipeline.fit_transform(self.DOCS)
        table = pipeline._token_table.ids
        size = len(table)
        unseen = [word for word in synthetic_words(10_500)
                  if word not in table][:10_000]
        assert len(unseen) == 10_000
        texts = [" ".join(unseen[i:i + 100])
                 for i in range(0, len(unseen), 100)]
        pipeline.transform(texts)
        for text in texts[:5]:
            pipeline.query_vector(text)
        assert pipeline._token_table.ids is table
        assert len(table) == size

    def test_reassigned_vocabulary_never_serves_old_ids(self):
        pipeline = TextPipeline()
        pipeline.fit_transform(self.DOCS)
        before = pipeline.query_vector("galaxy starships relay")
        pipeline.vocabulary = Vocabulary(
            list(pipeline.vocabulary)[::-1])
        after = pipeline.query_vector("galaxy starships relay")
        assert np.array_equal(after, before[::-1])
        assert np.array_equal(
            after, self.per_token_query(pipeline,
                                        "galaxy starships relay"))

    @pytest.mark.parametrize("option, fitted, changed", [
        pytest.param("stem", True, False, id="stem"),
        pytest.param("remove_stop_words", False, True,
                     id="remove_stop_words"),
        pytest.param("extra_stop_words", frozenset(),
                     frozenset({"galaxy"}), id="extra_stop_words"),
    ])
    def test_changed_token_options_bypass_the_table(self, option, fitted,
                                                    changed):
        pipeline = TextPipeline(**{option: fitted})
        pipeline.fit_transform(self.DOCS)
        text = "The galaxy connections"
        before = pipeline.query_vector(text)
        setattr(pipeline, option, changed)
        after = pipeline.query_vector(text)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, self.per_token_query(pipeline, text))

    def test_query_vector_from_threads_matches_serial(self):
        pipeline = TextPipeline()
        pipeline.fit_transform(self.DOCS)
        queries = [text for doc in self.DOCS
                   for text in (doc, doc.upper(), doc + " connections")]
        queries = queries * 20
        serial = [pipeline.query_vector(text) for text in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(pipeline.query_vector, text)
                           for text in queries]
                threaded = [future.result(timeout=60)
                            for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial):
            assert np.array_equal(got, want)
