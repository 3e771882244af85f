"""Seeded workload inputs: corpus texts, the query pool and its stream.

Every input a workload feeds the library is drawn here from the
``--seed`` argument, so one seed always gives the same inputs, and the
library under test receives only the generated texts.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.corpus import Vocabulary, build_zipfian_separable_model, \
    generate_corpus
from repro.corpus.text import render_corpus

__all__ = ["CORPUS", "FOLDS", "corpus_model", "digest", "query_pool",
           "query_stream", "texts", "vocabulary"]

#: Term universe and topic count of the corpus model (the paper's §4).
N_TERMS = 2000
N_TOPICS = 20
#: Distinct query texts in the pool the stream draws from.
POOL_SIZE = 4000
#: Zipf exponent of query popularity.
ZIPF_EXPONENT = 1.0
#: Shortest and longest query, in primary terms of one topic.
QUERY_TERMS = (2, 4)

#: Independent random streams derived from one seed.
CORPUS, FOLDS, QUERIES, STREAM = range(4)


def corpus_model(seed: int):
    """The Zipf-separable corpus model every workload draws texts from."""
    return build_zipfian_separable_model(N_TERMS, N_TOPICS, seed=seed)


def vocabulary() -> Vocabulary:
    """Term strings for the model's term ids."""
    return Vocabulary.synthetic(N_TERMS)


def texts(model, vocab: Vocabulary, count: int, seed: int,
          stream: int) -> list:
    """``count`` documents drawn from ``model``, rendered as text."""
    rng = np.random.default_rng([seed, stream])
    return render_corpus(generate_corpus(model, count, seed=rng), vocab,
                         seed=rng)


def query_pool(model, vocab: Vocabulary, seed: int) -> list:
    """``POOL_SIZE`` distinct queries of 2–4 primary terms of one topic.

    Terms are drawn without replacement, weighted by the topic's own
    term probabilities, so a topic's popular terms recur across
    queries.
    """
    rng = np.random.default_rng([seed, QUERIES])
    pool: list = []
    seen: set = set()
    while len(pool) < POOL_SIZE:
        topic = model.topics[int(rng.integers(len(model.topics)))]
        primary = np.array(sorted(topic.primary_terms))
        weights = topic.probabilities[primary]
        length = int(rng.integers(QUERY_TERMS[0], QUERY_TERMS[1] + 1))
        terms = rng.choice(primary, size=length, replace=False,
                           p=weights / weights.sum())
        text = " ".join(vocab.term(int(t)) for t in sorted(terms))
        if text not in seen:
            seen.add(text)
            pool.append(text)
    return pool


def query_stream(seed: int, length: int) -> np.ndarray:
    """Pool indices with Zipf popularity: index ``i`` weighs ``1/(i+1)^s``."""
    rng = np.random.default_rng([seed, STREAM])
    weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** ZIPF_EXPONENT
    return rng.choice(POOL_SIZE, size=length, p=weights / weights.sum())


def digest(*parts) -> str:
    """A short content hash, to show two runs got the same inputs."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(part.tobytes())
        else:
            hasher.update(json.dumps(part).encode("utf-8"))
    return hasher.hexdigest()[:16]
