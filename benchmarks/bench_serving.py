"""Benches S1–S5, S7 and S8: the serving layer.

Seven families:

- ``serving_batched_queries`` — the tentpole perf claim: ranking a
  query block through :class:`~repro.serving.engine.BatchQueryEngine`'s
  single-GEMM path vs the per-query loop, asserting bit-identical
  rankings and reporting the speedup (the loop comparison is skipped at
  the ``scale`` tier, where throughput in queries/sec is the headline);
- ``serving_float32_agreement`` — the precision-policy claim: the
  opt-in float32 compute path against float64 on identical queries,
  recording top-10 ranking agreement, max score delta, and speedup;
- ``serving_mmap_coldstart`` — O(manifest) cold start: subprocess
  loads of the same bundle eagerly vs memory-mapped, recording load
  seconds and post-load peak RSS, asserting bit-identical rankings;
- ``serving_bundle_roundtrip`` — save → load → rank reproduces the
  in-memory rankings exactly, plus wall-clock for both directions;
- ``serving_foldin_drift`` — fold document batches into an index fitted
  on a subset and check the drift metric is monotone non-decreasing and
  crosses a low refit threshold;
- ``serving_sharded_throughput`` — the sharded fan-out claim: ranking
  the same query block through a :class:`~repro.serving.sharded.
  ShardedIndex` at 1/2/4 shards, recording queries/sec plus single-query
  p50/p99 latency per shard count against one uncached index, and
  gating *merge exactness* — the sharded ranking bit-equal to the
  single-index one — as a measured 0/1 claim (column-subset GEMMs can
  round ±1 ULP, so exactness is verified on the actual corpus, never
  assumed);
- ``serving_microbatch_dispatch`` — the micro-batching dispatcher:
  single-query submissions coalesced into batches under
  ``max_batch``/``max_wait_ms``, recording throughput, mean flush
  size, and exactness against direct ranking.

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
from repro.serving import BatchQueryEngine, MicroBatchDispatcher, \
    ServedIndex, ServingConfig, ShardedIndex, ranking_overlap
from repro.utils.rng import as_generator
from repro.utils.timing import measure


def _query_block(n_terms, n_queries, seed):
    """A dense block of random non-negative term-space queries."""
    rng = as_generator(seed)
    return rng.random((n_terms, n_queries))


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
    """S1: batched GEMM ranking vs per-query loop, same rankings."""
    model = _serving_model(params, seed)
    engine = BatchQueryEngine(model.term_basis,
                              model.document_vectors())
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
    return metrics


@benchmark(name="serving_float32_agreement", tags=("serving", "perf"),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 400, "rank": 8,
                            "n_queries": 64},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1200, "rank": 12,
                           "n_queries": 256},
                  "scale": {"n_terms": 4096, "rank": 96,
                            "n_documents": 100_000, "n_queries": 512,
                            "chunk": 128, "synthetic": True,
                            "repeats": 2, "speedup_floor": 1.3}},
           time_metrics=("float64_seconds", "float32_seconds",
                         "float32_speedup"))
def bench_serving_float32_agreement(params, seed):
    """S4: float32 vs float64 scoring — agreement measured, not assumed."""
    model = _serving_model(params, seed)
    basis = model.term_basis
    docs = model.document_vectors()
    engine64 = BatchQueryEngine(basis, docs)
    engine32 = BatchQueryEngine(basis, docs, dtype="float32")
    queries = _query_block(params["n_terms"], params["n_queries"],
                           seed + 1)
    top_k = 10
    chunk = params.get("chunk", queries.shape[1])
    repeats = params.get("repeats", 3)

    timed64 = measure(
        lambda: _rank_chunked(engine64, queries, top_k=top_k,
                              chunk=chunk),
        warmup=1, repeats=repeats)
    timed32 = measure(
        lambda: _rank_chunked(engine32, queries, top_k=top_k,
                              chunk=chunk),
        warmup=1, repeats=repeats)
    agreement = ranking_overlap(timed64.result, timed32.result)
    speedup = timed64.mean_seconds / max(timed32.mean_seconds, 1e-12)

    probe = queries[:, :min(32, queries.shape[1])]
    scores64 = engine64.score_batch(probe)
    scores32 = engine32.score_batch(probe).astype(np.float64)
    max_delta = float(np.max(np.abs(scores64 - scores32)))

    metrics = {
        "float64_seconds": timed64.mean_seconds,
        "float32_seconds": timed32.mean_seconds,
        "float32_speedup": speedup,
        "float32_top10_agreement": agreement,
        "float32_max_score_delta": max_delta,
        "float32_agreement_ok": bool(agreement >= 0.99),
    }
    floor = params.get("speedup_floor")
    if floor is not None:
        metrics["float32_speedup_ok"] = bool(speedup >= floor)
    return metrics


#: Child process for cold-start probes: one load, one query block.
#: Run in a subprocess because peak RSS is a process-lifetime
#: high-water mark — measuring eager and mmap loads in one process
#: would make the second mode inherit the first one's peak.  The child
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
                         "mmap_rss_kb"))
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
    rss_ratio = mapped["rss_after_load_kb"] \
        / max(eager["rss_after_load_kb"], 1)
    metrics = {
        "eager_load_seconds": eager["load_seconds"],
        "mmap_load_seconds": mapped["load_seconds"],
        "coldstart_speedup": eager["load_seconds"]
        / max(mapped["load_seconds"], 1e-12),
        "eager_rss_kb": eager["rss_after_load_kb"],
        "mmap_rss_kb": mapped["rss_after_load_kb"],
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
                            "n_queries": 16},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1000, "rank": 12,
                           "n_queries": 64}},
           time_metrics=("save_seconds", "load_seconds"))
def bench_serving_bundle_roundtrip(params, seed):
    """S2: save → load reproduces in-memory rankings exactly."""
    import tempfile

    matrix = separable_matrix(params["n_terms"], params["n_topics"],
                              params["n_documents"], seed)
    index = ServedIndex.fit(matrix, params["rank"], seed=seed)
    queries = _query_block(params["n_terms"], params["n_queries"],
                           seed + 1)
    before = index.rank_batch(queries, top_k=20)

    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = Path(tmp) / "bundle"
        saved = measure(lambda: index.save(bundle_path))
        loaded = measure(lambda: ServedIndex.load(bundle_path))
        after = loaded.result.rank_batch(queries, top_k=20)
    return {
        "save_seconds": saved.mean_seconds,
        "load_seconds": loaded.mean_seconds,
        "roundtrip_rankings_exact":
            bool(np.array_equal(before, after)),
        "n_documents": index.n_documents,
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


def _latency_percentiles(index, queries, *, top_k, probes):
    """p50/p99 single-query latency (ms) over ``probes`` calls."""
    latencies = []
    for i in range(probes):
        column = queries[:, i % queries.shape[1]]
        start = time.perf_counter()
        index.rank_documents(column, top_k=top_k)
        latencies.append(time.perf_counter() - start)
    samples = np.asarray(latencies) * 1e3
    return (float(np.percentile(samples, 50)),
            float(np.percentile(samples, 99)))


@benchmark(name="serving_sharded_throughput",
           tags=("serving", "perf"),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 400, "rank": 8,
                            "n_queries": 64, "latency_probes": 12},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1200, "rank": 12,
                           "n_queries": 256, "latency_probes": 24},
                  "scale": {"n_terms": 4096, "rank": 96,
                            "n_documents": 100_000, "n_queries": 256,
                            "chunk": 128, "synthetic": True,
                            "latency_probes": 32, "repeats": 2}},
           time_metrics=("qps_1shard", "qps_2shard", "qps_4shard",
                         "p50_ms_1shard", "p99_ms_1shard",
                         "p50_ms_2shard", "p99_ms_2shard",
                         "p50_ms_4shard", "p99_ms_4shard",
                         "single_seconds", "sharded_speedup_4shard"))
def bench_serving_sharded_throughput(params, seed):
    """S7: sharded fan-out throughput + gated merge exactness.

    The exactness booleans are the claim the docs lean on: per-shard
    GEMMs may round a score ±1 ULP relative to the single GEMM, so
    "sharded ranking == single-index ranking" is measured on the
    actual corpus at every shard count and gated against the committed
    baseline, never assumed from the merge algebra alone.

    Every arm, the single-index reference included, runs with the
    result cache off: with it on, every timed repeat after the warmup
    would replay rankings from the cache instead of computing them.
    """
    model = _serving_model(params, seed)
    config = ServingConfig(cache_capacity=0)
    single = ServedIndex(model, config=config)
    queries = _query_block(params["n_terms"], params["n_queries"],
                           seed + 1)
    top_k = 10
    chunk = params.get("chunk", queries.shape[1])
    repeats = params.get("repeats", 3)
    probes = params["latency_probes"]

    def rank_all(index):
        return _rank_chunked(index, queries, top_k=top_k, chunk=chunk)

    reference = measure(lambda: rank_all(single), warmup=1,
                        repeats=repeats)
    metrics = {"single_seconds": reference.mean_seconds,
               "n_queries": queries.shape[1]}
    for n_shards in (1, 2, 4):
        sharded = ShardedIndex.shard(model, n_shards, config=config)
        timed = measure(lambda: rank_all(sharded), warmup=1,
                        repeats=repeats)
        p50, p99 = _latency_percentiles(sharded, queries,
                                        top_k=top_k, probes=probes)
        label = f"{n_shards}shard"
        metrics[f"qps_{label}"] = queries.shape[1] \
            / max(timed.mean_seconds, 1e-12)
        metrics[f"p50_ms_{label}"] = p50
        metrics[f"p99_ms_{label}"] = p99
        metrics[f"merge_exact_{label}"] = \
            bool(np.array_equal(reference.result, timed.result))
        sharded.close()
    metrics["sharded_speedup_4shard"] = reference.mean_seconds \
        / max(queries.shape[1] / metrics["qps_4shard"], 1e-12)
    return metrics


@benchmark(name="serving_microbatch_dispatch", tags=("serving",),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 400, "rank": 8,
                            "n_queries": 96, "max_batch": 16,
                            "max_wait_ms": 2.0},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 1200, "rank": 12,
                           "n_queries": 256, "max_batch": 32,
                           "max_wait_ms": 2.0}},
           time_metrics=("dispatch_seconds", "dispatch_qps"))
def bench_serving_microbatch_dispatch(params, seed):
    """S8: the dispatcher coalesces singles into exact batched ranks."""
    model = _serving_model(params, seed)
    index = ServedIndex(model)
    queries = _query_block(params["n_terms"], params["n_queries"],
                           seed + 1)
    top_k = 10
    config = ServingConfig(max_batch=params["max_batch"],
                           max_wait_ms=params["max_wait_ms"])

    start = time.perf_counter()
    with MicroBatchDispatcher(index, config=config) as dispatcher:
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
        "size_flushes": stats.size_flushes,
        "timeout_flushes": stats.timeout_flushes,
        "coalesced": stats.coalesced,
        "dispatch_exact": bool(exact),
    }
