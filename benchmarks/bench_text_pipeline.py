"""Bench P1: the text front end — fit, fold-in transform, query vectors.

``text_pipeline`` times the three calls every served path starts with —
:meth:`~repro.corpus.pipeline.TextPipeline.fit_transform` on a training
collection, :meth:`~repro.corpus.pipeline.TextPipeline.transform` on a
fold-in batch and :meth:`~repro.corpus.pipeline.TextPipeline.query_vector`
on short queries — over texts rendered from a Zipf-separable corpus
model (the paper's §3–4 corpus shape).  It gates that all three equal a
per-token reference: :meth:`~repro.corpus.pipeline.TextPipeline.process_text`
on every text, one ``{term id: count}`` dict per document, then
:meth:`~repro.linalg.sparse.CSRMatrix.from_columns` — the algorithm the
pipeline ran before it kept a token → term-id table, and the one
``tests/test_properties_text.py`` checks it against.
"""

import numpy as np

from harness import benchmark

from repro.corpus import Vocabulary, build_zipfian_separable_model, \
    generate_corpus
from repro.corpus.pipeline import TextPipeline
from repro.corpus.text import render_corpus
from repro.corpus.weighting import apply_weighting
from repro.linalg.sparse import CSRMatrix
from repro.utils.rng import as_generator
from repro.utils.timing import measure


def _reference_fit(pipeline, texts):
    """The per-token fit: vocabulary terms and the weighted matrix."""
    term_ids: dict = {}
    columns = []
    for text in texts:
        column: dict = {}
        for term in pipeline.process_text(text):
            term_id = term_ids.setdefault(term, len(term_ids))
            column[term_id] = column.get(term_id, 0.0) + 1.0
        columns.append(column)
    counts = CSRMatrix.from_columns(len(term_ids), columns)
    df = counts.document_frequency()
    keep = df >= pipeline.min_documents
    if pipeline.max_df_fraction < 1.0:
        keep &= df <= pipeline.max_df_fraction * counts.shape[1]
    kept = np.flatnonzero(keep)
    terms = list(term_ids)
    return ([terms[i] for i in kept],
            apply_weighting(counts.select_rows(kept), pipeline.weighting))


def _reference_transform(pipeline, terms, texts):
    """The per-token transform over the vocabulary ``terms`` (counts)."""
    term_ids = {term: i for i, term in enumerate(terms)}
    columns = []
    for text in texts:
        column: dict = {}
        for term in pipeline.process_text(text):
            if term in term_ids:
                term_id = term_ids[term]
                column[term_id] = column.get(term_id, 0.0) + 1.0
        columns.append(column)
    return CSRMatrix.from_columns(len(terms), columns)


def _same_csr(a, b) -> bool:
    """Equal shape and bit-identical ``indptr``/``indices``/``data``."""
    return a.shape == b.shape and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("indptr", "indices", "data"))


@benchmark(name="text_pipeline",
           tags=("corpus", "text"),
           sizes={"smoke": {"n_terms": 500, "n_topics": 10,
                            "n_documents": 200, "n_fold": 50,
                            "n_queries": 200},
                  "full": {"n_terms": 2000, "n_topics": 20,
                           "n_documents": 1000, "n_fold": 50,
                           "n_queries": 1000}},
           time_metrics=("fit_transform_seconds", "transform_ms_per_doc",
                         "query_vector_us"))
def bench_text_pipeline(params, seed):
    """P1: TextPipeline fit/transform/query timings, reference-exact."""
    model = build_zipfian_separable_model(params["n_terms"],
                                          params["n_topics"], seed=seed)
    rng = as_generator(seed)
    n_documents, n_fold = params["n_documents"], params["n_fold"]
    texts = render_corpus(
        generate_corpus(model, n_documents + n_fold, seed=rng),
        Vocabulary.synthetic(params["n_terms"]), seed=rng)
    training, folds = texts[:n_documents], texts[n_documents:]
    # Short queries: the first three tokens of successive texts.
    queries = [" ".join(texts[i % len(texts)].split()[:3])
               for i in range(params["n_queries"])]

    pipeline = TextPipeline(stem=True)
    fit = measure(lambda: pipeline.fit_transform(training),
                  warmup=1, repeats=3)
    fold = measure(lambda: pipeline.transform(folds), warmup=1,
                   repeats=5)
    query = measure(lambda: [pipeline.query_vector(text)
                             for text in queries], warmup=1, repeats=3)

    # Inflected ("+s") copies of the queries: their raw tokens never
    # occur in training, so the check also covers the per-token path.
    inflected = [" ".join(token + "s" for token in text.split())
                 for text in queries]
    terms, expected = _reference_fit(pipeline, training)
    matches = (list(pipeline.vocabulary) == terms
               and _same_csr(fit.result, expected)
               and _same_csr(fold.result,
                             _reference_transform(pipeline, terms, folds))
               and _same_csr(pipeline.transform(inflected),
                             _reference_transform(pipeline, terms,
                                                  inflected)))
    vectors = query.result + [pipeline.query_vector(text)
                              for text in inflected]
    reference_queries = _reference_transform(pipeline, terms,
                                             queries + inflected)
    matches = matches and all(
        vector.dtype == np.float64
        and np.array_equal(vector, reference_queries.get_column(j))
        for j, vector in enumerate(vectors))
    return {
        "fit_transform_seconds": fit.mean_seconds,
        "transform_ms_per_doc": fold.mean_seconds / n_fold * 1e3,
        "query_vector_us": query.mean_seconds / len(queries) * 1e6,
        "pipeline_matches_reference": bool(matches),
    }
