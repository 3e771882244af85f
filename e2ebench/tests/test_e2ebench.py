"""Tests of the benchmark's own machinery.

They cover the span wrappers (every entry point records spans, where
the library looks it up), the plain-numpy reference, the metric tables
against ``BENCHMARK.json``, and the runner's refusal to run without the
library.  Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import tracing  # noqa: E402
from reference import Reference, agrees, top_k  # noqa: E402
from repro.corpus import Vocabulary, build_zipfian_separable_model, \
    generate_corpus  # noqa: E402
from repro.corpus.pipeline import TextPipeline  # noqa: E402
from repro.corpus.text import render_corpus  # noqa: E402
from repro.serving.config import ServingConfig  # noqa: E402
from repro.serving.index import ServedIndex  # noqa: E402


@pytest.fixture(scope="module")
def texts():
    """120 short documents from a 200-term, 4-topic model."""
    model = build_zipfian_separable_model(200, 4, seed=3)
    corpus = generate_corpus(model, 120, seed=4)
    return render_corpus(corpus, Vocabulary.synthetic(200), seed=5)


def traced_lifecycle(texts, directory):
    """One traced pass through every layer; returns the spans."""
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        pipeline = TextPipeline(stem=True)
        matrix = pipeline.fit_transform(texts[:80])
        built = ServedIndex.fit_streamed(
            matrix, 6, seed=1, config=ServingConfig(stream_block_size=32))
        index = ServedIndex.load(built.save(directory),
                                 config=ServingConfig(mmap=True))
        for text in texts[:3] * 2:
            index.rank_documents(pipeline.query_vector(text), top_k=5)
        index.add_documents(pipeline.transform(texts[80:100]))
        index.rank_documents(pipeline.query_vector(texts[0]), top_k=5)
        index.refit(seed=1)
    finally:
        tracing.uninstall(undo)
    return tracer.spans


def test_every_entry_point_records_a_span(texts, tmp_path):
    recorded = {span[0] for span in traced_lifecycle(texts, tmp_path / "b")}
    missing = [entry[0] for entry in tracing.ENTRY_POINTS
               if entry[0] not in recorded]
    assert missing == []


def test_uninstall_restores_every_original(texts, tmp_path):
    import repro.linalg.incremental as incremental
    import repro.serving.engine as engine
    import repro.serving.index as index_module
    import repro.serving.writer as writer

    def looked_up():
        return [index_module.read_bundle, index_module.write_bundle,
                writer.merge, incremental.merge, engine.stable_top_k,
                ServedIndex.__dict__["load"],
                engine.BatchQueryEngine.__dict__["__init__"]]

    before = looked_up()
    traced_lifecycle(texts, tmp_path / "b")
    assert all(a is b for a, b in zip(before, looked_up()))


def test_spans_nest_and_self_time_excludes_children(texts, tmp_path):
    spans = traced_lifecycle(texts, tmp_path / "b")
    own = tracing.self_times(spans)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        assert 0 <= own[i] <= end - start
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    parents = {spans[span[3]][0] for span in spans
               if span[0] == "engine.rank_batch"}
    assert parents == {"index.rank_documents"}


def test_reference_agrees_with_served_rankings_after_a_fold_in(texts):
    pipeline = TextPipeline(stem=True)
    index = ServedIndex.fit(pipeline.fit_transform(texts[:100]), 6, seed=1)
    reference = Reference(index.model.term_basis,
                          index.model.document_vectors())
    columns = pipeline.transform(texts[100:])
    index.add_documents(columns)
    reference.fold(columns.to_dense())
    queries = np.stack([pipeline.query_vector(text) for text in texts[:15]],
                       axis=1)
    scores = reference.scores(queries)
    for row in range(queries.shape[1]):
        served = index.rank_documents(queries[:, row], top_k=10)
        assert agrees(served, top_k(scores[row], 10), scores[row])


def test_agrees_allows_only_swaps_of_tied_scores():
    scores = np.array([0.1, 0.9, 0.5, 0.9, 0.3])
    expected = top_k(scores, 3)
    assert expected.tolist() == [1, 3, 2]
    assert agrees(np.array([3, 1, 2]), expected, scores)
    assert not agrees(np.array([1, 3, 4]), expected, scores)
    assert not agrees(np.array([1, 1, 2]), expected, scores)


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] \
        == [entry[:3] for entry in metrics.PER_LAYER]


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "query_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
