"""Benches S1–S3, S5, S8 and S9: the serving layer.

Six families:

- ``serving_batched_queries`` — the tentpole perf claim: ranking a
  query block through :class:`~repro.serving.engine.BatchQueryEngine`'s
  single-GEMM path vs the per-query loop, asserting bit-identical
  rankings and reporting the speedup (the loop comparison is skipped at
  the ``scale`` tier, where throughput in queries/sec is the headline).
  A second, text-like block of 2–4 nonzero terms per query takes the
  engine's touched-rows fold and must rank like the loop too;
- ``serving_mmap_coldstart`` — O(manifest) cold start: subprocess
  loads of the same bundle eagerly vs memory-mapped, recording load
  seconds, post-load peak RSS and how much the load grew it, asserting
  bit-identical rankings;
- ``serving_bundle_roundtrip`` — save → load → rank reproduces the
  in-memory rankings exactly, plus wall-clock for both directions, for
  a freshly fitted index and again, eager and mapped, after a dense
  and a CSR fold-in and a removal, whose store is a view of a wider
  buffer;
- ``serving_foldin_drift`` — fold document batches into an index fitted
  on a subset and check the drift metric is monotone non-decreasing and
  crosses a low refit threshold;
- ``serving_microbatch_dispatch`` — the micro-batching dispatcher:
  single-query submissions coalesced into batches, recording
  throughput, mean flush size, and exactness against direct ranking;
- ``serving_two_stage_scan`` — the certified two-stage top-k: an engine
  over an in-memory store scans a float32 copy and rescores its
  candidates in float64, and must rank exactly like an engine over the
  same store mapped from disk, which scans in float64.  The store holds
  duplicated, zero and tombstoned documents; the per-miss times of both
  engines and their ratio are recorded.

The ``scale`` sizes serve from :func:`harness.fixtures.
synthetic_index_factors` instead of fitting LSI — at 100k documents
the SVD would dwarf the serving kernels under test.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from harness import benchmark
from harness.fixtures import separable_matrix, synthetic_index_factors

from repro.core.lsi import LSIModel
from repro.linalg.dense import normalize_columns
from repro.serving import BatchQueryEngine, MicroBatchDispatcher, \
    ServedIndex, ServingConfig
from repro.utils.rng import as_generator
from repro.utils.timing import measure


def _query_block(n_terms, n_queries, seed):
    """A dense block of random non-negative term-space queries."""
    rng = as_generator(seed)
    return rng.random((n_terms, n_queries))


def _sparse_query_block(n_terms, n_queries, seed):
    """Text-like queries: 2–4 distinct terms per column, small counts.

    Together the columns touch only part of the vocabulary, so the
    engine folds them through the rows of ``Uₖ`` they use.
    """
    rng = as_generator(seed)
    block = np.zeros((n_terms, n_queries))
    for column in range(n_queries):
        terms = rng.choice(n_terms, size=int(rng.integers(2, 5)),
                           replace=False)
        block[terms, column] = rng.integers(1, 4, size=terms.size)
    return block


def _serving_model(params, seed):
    """The LSI model under test: fitted, or synthetic at scale."""
    if params.get("synthetic"):
        svd = synthetic_index_factors(
            params["n_terms"], params["rank"], params["n_documents"],
            seed)
        return LSIModel(svd)
    matrix = separable_matrix(params["n_terms"], params["n_topics"],
                              params["n_documents"], seed)
    return LSIModel.fit(matrix, params["rank"], seed=seed)


def _rank_chunked(engine, queries, *, top_k, chunk):
    """Rank a query block in width-``chunk`` slices (bounds scratch)."""
    parts = [engine.rank_batch(queries[:, start:start + chunk],
                               top_k=top_k)
             for start in range(0, queries.shape[1], chunk)]
    return np.vstack(parts)


@benchmark(name="serving_batched_queries", tags=("serving", "perf"),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 400, "rank": 8,
                            "n_queries": 64},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1200, "rank": 12,
                           "n_queries": 256},
                  "scale": {"n_terms": 4096, "rank": 96,
                            "n_documents": 100_000, "n_queries": 512,
                            "chunk": 128, "synthetic": True,
                            "compare_loop": False, "repeats": 2}},
           time_metrics=("looped_seconds", "batched_seconds",
                         "batched_speedup", "queries_per_second"))
def bench_serving_batched_queries(params, seed):
    """S1: batched GEMM ranking vs per-query loop, same rankings, for
    dense and for text-like sparse query blocks."""
    model = _serving_model(params, seed)
    engine = BatchQueryEngine(model.term_basis,
                              *normalize_columns(model.document_vectors()))
    queries = _query_block(params["n_terms"], params["n_queries"],
                           seed + 1)
    top_k = 10
    chunk = params.get("chunk", queries.shape[1])
    repeats = params.get("repeats", 3)

    batched = measure(
        lambda: _rank_chunked(engine, queries, top_k=top_k,
                              chunk=chunk),
        warmup=1, repeats=repeats)
    metrics = {
        "batched_seconds": batched.mean_seconds,
        "queries_per_second": queries.shape[1]
        / max(batched.mean_seconds, 1e-12),
        "n_queries": queries.shape[1],
    }
    if params.get("compare_loop", True):
        looped = measure(
            lambda: np.stack([model.rank_documents(queries[:, i],
                                                   top_k=top_k)
                              for i in range(queries.shape[1])]),
            warmup=1, repeats=repeats)
        metrics["looped_seconds"] = looped.mean_seconds
        metrics["batched_speedup"] = looped.mean_seconds \
            / max(batched.mean_seconds, 1e-12)
        metrics["batched_matches_looped"] = \
            bool(np.array_equal(looped.result, batched.result))
        sparse = _sparse_query_block(params["n_terms"],
                                     params["n_queries"], seed + 2)
        metrics["sparse_batched_matches_looped"] = bool(np.array_equal(
            _rank_chunked(engine, sparse, top_k=top_k, chunk=chunk),
            np.stack([model.rank_documents(sparse[:, i], top_k=top_k)
                      for i in range(sparse.shape[1])])))
    return metrics


#: Child process for cold-start probes: one load, one query block.
#: Run in a subprocess because peak RSS is a process-lifetime
#: high-water mark — measuring eager and mmap loads in one process
#: would make the second mode inherit the first one's peak.  The child
#: reads the peak before and after the load, because the interpreter
#: and numpy alone hold ~35 MB: what the load adds is the growth.  The
#: child
#: reads ``VmHWM`` from ``/proc/self/status`` rather than
#: ``ru_maxrss``: on Linux the rusage counter is inherited across
#: fork+exec, so a child spawned from a large bench parent starts with
#: the parent's peak already recorded and every mode reports the same
#: (wrong) number.  ``VmHWM`` is reset by exec; ``ru_maxrss`` stays a
#: fallback for platforms without procfs.
_COLDSTART_CHILD = r"""
import hashlib, json, resource, sys, time

import numpy as np

from repro.serving import ServedIndex, ServingConfig


def peak_rss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


path, mode, n_queries, top_k, seed = sys.argv[1:6]
rss_before_load_kb = peak_rss_kb()
start = time.perf_counter()
index = ServedIndex.load(
    path, config=ServingConfig(mmap=(mode == "mmap")))
load_seconds = time.perf_counter() - start
rss_after_load_kb = peak_rss_kb()
rng = np.random.default_rng(int(seed))
queries = rng.random((index.n_terms, int(n_queries)))
start = time.perf_counter()
ranked = index.rank_batch(queries, top_k=int(top_k))
first_query_seconds = time.perf_counter() - start
print(json.dumps({
    "load_seconds": load_seconds,
    "first_query_seconds": first_query_seconds,
    "rss_after_load_kb": int(rss_after_load_kb),
    "rss_growth_kb": int(rss_after_load_kb - rss_before_load_kb),
    "rankings_sha": hashlib.sha256(
        np.ascontiguousarray(ranked).tobytes()).hexdigest(),
}))
"""


def _coldstart_probe(bundle_path, mode, *, n_queries, top_k, seed):
    """Load a bundle in a fresh interpreter and report its cold start."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep \
        + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _COLDSTART_CHILD, str(bundle_path),
         mode, str(n_queries), str(top_k), str(seed)],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"cold-start probe ({mode}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


@benchmark(name="serving_mmap_coldstart", tags=("serving",),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 300, "rank": 8,
                            "n_queries": 8},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1000, "rank": 12,
                           "n_queries": 16},
                  "scale": {"n_terms": 4096, "rank": 96,
                            "n_documents": 100_000, "n_queries": 32,
                            "synthetic": True,
                            "rss_ratio_max": 0.25}},
           time_metrics=("eager_load_seconds", "mmap_load_seconds",
                         "coldstart_speedup", "eager_rss_kb",
                         "mmap_rss_kb", "eager_rss_growth_kb",
                         "mmap_rss_growth_kb"))
def bench_serving_mmap_coldstart(params, seed):
    """S5: mmap load is O(manifest) — cheap, small, and bit-identical."""
    import tempfile

    model = _serving_model(params, seed)
    index = ServedIndex(model)
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = index.save(Path(tmp) / "bundle")
        probes = {
            mode: _coldstart_probe(bundle_path, mode,
                                   n_queries=params["n_queries"],
                                   top_k=10, seed=seed + 1)
            for mode in ("eager", "mmap")
        }
    eager, mapped = probes["eager"], probes["mmap"]
    # The load's growth of the peak, not the whole peak: the bare
    # interpreter is about a third of an eager schema-4 load's whole
    # peak at the scale size, so a ratio of whole peaks would measure
    # the interpreter rather than the load.
    rss_ratio = mapped["rss_growth_kb"] \
        / max(eager["rss_growth_kb"], 1)
    metrics = {
        "eager_load_seconds": eager["load_seconds"],
        "mmap_load_seconds": mapped["load_seconds"],
        "coldstart_speedup": eager["load_seconds"]
        / max(mapped["load_seconds"], 1e-12),
        "eager_rss_kb": eager["rss_after_load_kb"],
        "mmap_rss_kb": mapped["rss_after_load_kb"],
        "eager_rss_growth_kb": eager["rss_growth_kb"],
        "mmap_rss_growth_kb": mapped["rss_growth_kb"],
        "mmap_rss_ratio": rss_ratio,
        "mmap_rankings_exact":
            bool(eager["rankings_sha"] == mapped["rankings_sha"]),
    }
    ratio_max = params.get("rss_ratio_max")
    if ratio_max is not None:
        metrics["mmap_rss_under_quarter"] = \
            bool(rss_ratio < ratio_max)
    return metrics


@benchmark(name="serving_bundle_roundtrip", tags=("serving",),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 300, "rank": 8,
                            "n_queries": 16, "fold_width": 20},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1000, "rank": 12,
                           "n_queries": 64, "fold_width": 50}},
           time_metrics=("save_seconds", "load_seconds"))
def bench_serving_bundle_roundtrip(params, seed):
    """S2: save → load reproduces in-memory rankings exactly, fitted
    and after fold-ins and a removal."""
    import tempfile

    matrix = separable_matrix(params["n_terms"], params["n_topics"],
                              params["n_documents"], seed)
    index = ServedIndex.fit(matrix, params["rank"], seed=seed)
    queries = _query_block(params["n_terms"], params["n_queries"],
                           seed + 1)
    before = index.rank_batch(queries, top_k=20)
    width = params["fold_width"]
    folds = separable_matrix(params["n_terms"], params["n_topics"],
                             2 * width, seed + 2)

    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = Path(tmp) / "bundle"
        saved = measure(lambda: index.save(bundle_path))
        loaded = measure(lambda: ServedIndex.load(bundle_path))
        after = loaded.result.rank_batch(queries, top_k=20)
        index.add_documents(
            folds.select_columns(np.arange(width)).to_dense())
        index.add_documents(
            folds.select_columns(np.arange(width, 2 * width)))
        index.remove_documents(int(before[0, 0]))
        folded = index.rank_batch(queries, top_k=20)
        folded_path = index.save(Path(tmp) / "folded")
        reloaded = [ServedIndex.load(folded_path,
                                     config=ServingConfig(mmap=mmap))
                    .rank_batch(queries, top_k=20)
                    for mmap in (False, True)]
    return {
        "save_seconds": saved.mean_seconds,
        "load_seconds": loaded.mean_seconds,
        "roundtrip_rankings_exact":
            bool(np.array_equal(before, after)),
        "folded_roundtrip_rankings_exact":
            all(np.array_equal(folded, ranks) for ranks in reloaded),
        "n_documents": params["n_documents"],
    }


@benchmark(name="serving_foldin_drift", tags=("serving",),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 300, "rank": 8,
                            "n_batches": 5, "batch_size": 30},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1000, "rank": 12,
                           "n_batches": 8, "batch_size": 100}})
def bench_serving_foldin_drift(params, seed):
    """S3: drift is monotone in fold-ins and flags a refit."""
    n_fit = params["n_documents"] - \
        params["n_batches"] * params["batch_size"]
    matrix = separable_matrix(params["n_terms"], params["n_topics"],
                              params["n_documents"], seed)
    fitted_part = matrix.select_columns(np.arange(n_fit))
    index = ServedIndex.fit(fitted_part, params["rank"], seed=seed,
                            config=ServingConfig(
                                drift_threshold=0.01))

    drifts = [index.drift]
    for batch in range(params["n_batches"]):
        start = n_fit + batch * params["batch_size"]
        columns = matrix.select_columns(
            np.arange(start, start + params["batch_size"]))
        index.add_documents(columns)
        drifts.append(index.drift)
    monotone = all(later >= earlier - 1e-15
                   for earlier, later in zip(drifts, drifts[1:]))
    return {
        "drift_initial": drifts[0],
        "drift_final": drifts[-1],
        "drift_monotone": bool(monotone),
        "refit_recommended": bool(index.needs_refit),
        "n_folded": index.n_documents - n_fit,
    }


@benchmark(name="serving_microbatch_dispatch", tags=("serving",),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 400, "rank": 8,
                            "n_queries": 96},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1200, "rank": 12,
                           "n_queries": 256}},
           time_metrics=("dispatch_seconds", "dispatch_qps"))
def bench_serving_microbatch_dispatch(params, seed):
    """S8: the dispatcher coalesces singles into exact batched ranks."""
    model = _serving_model(params, seed)
    index = ServedIndex(model)
    queries = _query_block(params["n_terms"], params["n_queries"],
                           seed + 1)
    top_k = 10

    start = time.perf_counter()
    with MicroBatchDispatcher(index) as dispatcher:
        futures = [dispatcher.submit(queries[:, i], top_k=top_k)
                   for i in range(queries.shape[1])]
        results = [future.result() for future in futures]
    elapsed = time.perf_counter() - start
    stats = dispatcher.stats()

    exact = all(
        np.array_equal(results[i],
                       index.rank_documents(queries[:, i],
                                            top_k=top_k))
        for i in range(queries.shape[1]))
    return {
        "dispatch_seconds": elapsed,
        "dispatch_qps": queries.shape[1] / max(elapsed, 1e-12),
        "batches_flushed": stats.batches,
        "mean_flush_size": stats.completed / max(stats.batches, 1),
        "coalesced": stats.coalesced,
        "dispatch_exact": bool(exact),
    }


@benchmark(name="serving_two_stage_scan", tags=("serving", "perf"),
           sizes={"smoke": {"n_terms": 400, "rank": 16,
                            "n_documents": 4200, "n_queries": 48},
                  "full": {"n_terms": 2000, "rank": 64,
                           "n_documents": 8000, "n_queries": 128},
                  "scale": {"n_terms": 4096, "rank": 96,
                            "n_documents": 20_000, "n_queries": 256}},
           time_metrics=("float64_miss_us", "float32_miss_us",
                         "miss_speedup"))
def bench_serving_two_stage_scan(params, seed):
    """S9: a float32 scan plus float64 rescoring ranks exactly like a
    float64 scan of the same store, and costs less per cache miss."""
    import tempfile

    n_docs = params["n_documents"]
    svd = synthetic_index_factors(params["n_terms"], params["rank"],
                                  n_docs, seed)
    vectors = svd.singular_values[:, None] * svd.vt
    # The last eighth repeats the first (exact ties), and a few
    # documents are zero vectors.
    vectors[:, n_docs - n_docs // 8:] = vectors[:, :n_docs // 8]
    rng = as_generator(seed + 1)
    vectors[:, rng.choice(n_docs, size=n_docs // 50,
                          replace=False)] = 0.0
    doc_unit, doc_norms = normalize_columns(vectors)
    tombstones = rng.choice(n_docs, size=n_docs // 50,
                            replace=False).tolist()
    queries = _sparse_query_block(params["n_terms"], params["n_queries"],
                                  seed + 2)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc_unit.npy"
        np.save(path, doc_unit)
        # Same store, same bits: a mapped store is scanned in float64,
        # an in-memory one this size through a float32 copy.
        engines = {
            "float32": BatchQueryEngine(svd.u, doc_unit, doc_norms,
                                        tombstones=tombstones),
            "float64": BatchQueryEngine(svd.u,
                                        np.load(path, mmap_mode="r"),
                                        doc_norms, tombstones=tombstones),
        }
        exact = all(
            np.array_equal(engines["float32"].rank_batch(block, top_k=k),
                           engines["float64"].rank_batch(block, top_k=k))
            for block, k in ((queries, 1), (queries, 10),
                             (queries, 100), (queries[:, :8], None)))
        misses = {
            name: measure(
                lambda engine=engine: np.stack(
                    [engine.rank_documents(query, top_k=10)
                     for query in queries.T]),
                warmup=1, repeats=3)
            for name, engine in engines.items()}
        engines.clear()
    per_miss = {name: timing.mean_seconds / queries.shape[1] * 1e6
                for name, timing in misses.items()}
    exact = exact and np.array_equal(misses["float32"].result,
                                     misses["float64"].result)
    return {
        "float64_miss_us": per_miss["float64"],
        "float32_miss_us": per_miss["float32"],
        "miss_speedup": per_miss["float64"]
        / max(per_miss["float32"], 1e-12),
        "two_stage_rankings_exact": bool(exact),
    }
