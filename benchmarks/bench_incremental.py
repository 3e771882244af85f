"""Bench I1–I4: streaming, out-of-core LSI via mergeable block SVDs.

Four families:

- ``incremental_merge_throughput`` — the merge engine itself:
  :func:`~repro.linalg.incremental.block_updates` over a block stream,
  recording columns/sec and gating that the accumulated
  triangle-inequality ``error_bound`` really dominates the measured
  Frobenius residual (the bound the docs promise, checked on the
  actual corpus);
- ``incremental_streamed_agreement`` — the quality claim:
  ``LSIModel.fit_streamed`` against an eager in-memory fit of the same
  corpus, gating top-10 ranking overlap ≥ 0.99 on shared probe
  queries;
- ``incremental_memory_cap`` — the tentpole out-of-core claim: a
  subprocess indexes a corpus 10–100x the smoke tier from a block
  generator (the matrix never exists) vs an eager subprocess that
  materialises it, gating streamed peak RSS < 0.5x eager *and* top-10
  overlap ≥ 0.99 between the two children's rankings — memory saved
  must not cost retrieval quality;
- ``incremental_refit`` — the writer path: an
  :class:`~repro.serving.writer.IndexWriter` with buffered fold-ins
  refits incrementally (merge into the current factors) vs the
  from-scratch decomposition, recording the speedup and gating top-10
  agreement between the two refitted models.

Peak RSS is probed in fresh subprocesses (``VmHWM`` from
``/proc/self/status``, ``ru_maxrss`` fallback) because it is a
process-lifetime high-water mark — see ``bench_serving``'s cold-start
notes for why ``ru_maxrss`` alone would lie after fork+exec.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from harness import benchmark
from harness.fixtures import separable_matrix

from repro.core.lsi import LSIModel
from repro.linalg.incremental import block_updates, iter_column_blocks
from repro.serving import IndexWriter
from repro.utils.rng import as_generator
from repro.utils.timing import measure


def _top10_overlap(a_scores, b_scores):
    """Mean top-10 set overlap between two (n_docs, q) score blocks."""
    a_top = np.argsort(-a_scores, axis=0)[:10]
    b_top = np.argsort(-b_scores, axis=0)[:10]
    overlaps = [
        len(set(a_top[:, j]) & set(b_top[:, j])) / 10.0
        for j in range(a_scores.shape[1])
    ]
    return float(np.mean(overlaps))


def _score_block(model, queries):
    """Cosine scores of every document for each query column."""
    return np.stack([model.score(queries[:, j])
                     for j in range(queries.shape[1])], axis=1)


def _planted_matrix(n_terms, n_topics, n_documents, seed, *,
                    noise=0.05):
    """A dense near-low-rank corpus: topic mixtures plus noise.

    The agreement-gated benches run in the paper's regime — documents
    drawn from ``k`` topics with small perturbations — where streamed
    truncation provably tracks the eager fit.  (The merge-throughput
    bench keeps the heavy-tailed separable corpus on purpose: the
    error bound must hold even when the spectrum has no gap.)
    """
    rng = as_generator(seed)
    topics = rng.standard_normal((n_terms, n_topics))
    weights = rng.random((n_topics, n_documents))
    return topics @ weights \
        + noise * rng.standard_normal((n_terms, n_documents))


@benchmark(name="incremental_merge_throughput",
           tags=("incremental", "linalg"),
           sizes={"smoke": {"n_terms": 256, "n_topics": 8,
                            "n_documents": 2048, "rank": 16,
                            "block_size": 128},
                  "full": {"n_terms": 1024, "n_topics": 12,
                           "n_documents": 8192, "rank": 32,
                           "block_size": 256}},
           time_metrics=("merge_seconds", "columns_per_second"))
def bench_incremental_merge_throughput(params, seed):
    """I1: block-merge throughput, with the error bound verified."""
    matrix = separable_matrix(params["n_terms"], params["n_topics"],
                              params["n_documents"], seed)
    rank, block = params["rank"], params["block_size"]

    run = measure(
        lambda: block_updates(iter_column_blocks(matrix, block), rank),
        warmup=1, repeats=2)
    partial = block_updates(iter_column_blocks(matrix, block), rank)
    dense = matrix.to_dense()
    approx = (partial.u * partial.singular_values) @ partial.vt
    actual_residual = float(np.linalg.norm(dense - approx))
    return {
        "merge_seconds": run.mean_seconds,
        "columns_per_second": params["n_documents"]
        / max(run.mean_seconds, 1e-12),
        "n_merges": float(partial.merges),
        "energy_fraction": partial.energy_fraction(),
        "actual_residual": actual_residual,
        "error_bound": partial.error_bound,
        "bound_valid": bool(partial.error_bound
                            >= actual_residual - 1e-8),
    }


@benchmark(name="incremental_streamed_agreement",
           tags=("incremental", "linalg"),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 2000, "rank": 8,
                            "block_size": 128, "n_queries": 64},
                  "full": {"n_terms": 1500, "n_topics": 12,
                           "n_documents": 8000, "rank": 12,
                           "block_size": 256, "n_queries": 128}},
           time_metrics=("eager_fit_seconds", "streamed_fit_seconds"))
def bench_incremental_streamed_agreement(params, seed):
    """I2: streamed fit ranks like the eager fit of the same corpus."""
    matrix = _planted_matrix(params["n_terms"], params["n_topics"],
                             params["n_documents"], seed)
    rank, block = params["rank"], params["block_size"]

    eager_run = measure(
        lambda: LSIModel.fit(matrix, rank, seed=seed), repeats=1)
    streamed_run = measure(
        lambda: LSIModel.fit_streamed(
            iter_column_blocks(matrix, block), rank),
        repeats=1)
    eager = LSIModel.fit(matrix, rank, seed=seed)
    streamed = LSIModel.fit_streamed(
        iter_column_blocks(matrix, block), rank)

    rng = as_generator(seed + 1)
    queries = rng.random((params["n_terms"], params["n_queries"]))
    overlap = _top10_overlap(_score_block(eager, queries),
                             _score_block(streamed, queries))
    sigma_rel_err = float(np.max(np.abs(
        streamed.svd.singular_values - eager.svd.singular_values)
        / np.maximum(eager.svd.singular_values, 1e-12)))
    return {
        "eager_fit_seconds": eager_run.mean_seconds,
        "streamed_fit_seconds": streamed_run.mean_seconds,
        "streamed_top10_agreement": overlap,
        "streamed_agreement_ok": bool(overlap >= 0.99),
        "sigma_rel_err": sigma_rel_err,
        "streamed_energy_fraction":
            streamed.svd.captured_energy()
            / max(streamed.svd.frobenius_norm_sq, 1e-12),
    }


#: Child process for the out-of-core probe.  Both modes draw the same
#: corpus from per-block seeded generators (a shared topic basis plus
#: block-local weights and noise); ``eager`` materialises the full
#: matrix before fitting, ``streamed`` hands ``fit_streamed`` the
#: generator so at most one block is ever resident.  Each child ranks
#: the same probe queries so the parent can gate top-10 agreement
#: alongside the RSS ratio.
_MEMORY_CHILD = r"""
import json, resource, sys, time

import numpy as np

from repro.core.lsi import LSIModel


def peak_rss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


params = json.loads(sys.argv[1])
mode = sys.argv[2]
n_terms = params["n_terms"]
n_documents = params["n_documents"]
block = params["block_size"]
rank = params["rank"]
seed = params["seed"]

topics = np.random.default_rng(seed).standard_normal(
    (n_terms, params["n_topics"]))


def make_block(start, width):
    rng = np.random.default_rng(seed * 1_000_003 + start)
    weights = rng.random((params["n_topics"], width))
    noise = 0.05 * rng.standard_normal((n_terms, width))
    return topics @ weights + noise


def blocks():
    for start in range(0, n_documents, block):
        yield make_block(start, min(block, n_documents - start))


begin = time.perf_counter()
if mode == "eager":
    full = np.empty((n_terms, n_documents))
    for start in range(0, n_documents, block):
        width = min(block, n_documents - start)
        full[:, start:start + width] = make_block(start, width)
    model = LSIModel.fit(full, rank, engine="lanczos", seed=seed)
    del full
else:
    model = LSIModel.fit_streamed(blocks(), rank,
                                  oversample=params["oversample"])
fit_seconds = time.perf_counter() - begin

rng = np.random.default_rng(seed + 1)
queries = rng.random((n_terms, params["n_queries"]))
top10 = [np.argsort(-model.score(queries[:, j]),
                    kind="stable")[:10].tolist()
         for j in range(queries.shape[1])]
print(json.dumps({
    "fit_seconds": fit_seconds,
    "peak_rss_kb": int(peak_rss_kb()),
    "top10": top10,
}))
"""


def _memory_probe(params, mode, seed):
    """Fit the synthetic corpus in a fresh interpreter, one mode."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep \
        + env.get("PYTHONPATH", "")
    payload = dict(params)
    payload["seed"] = seed
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_CHILD, json.dumps(payload),
         mode],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"memory probe ({mode}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


@benchmark(name="incremental_memory_cap",
           tags=("serving", "incremental"),
           sizes={"smoke": {"n_terms": 1024, "n_topics": 16,
                            "n_documents": 20_480, "rank": 8,
                            "block_size": 256, "oversample": 8,
                            "n_queries": 32},
                  "full": {"n_terms": 1536, "n_topics": 24,
                           "n_documents": 32_768, "rank": 12,
                           "block_size": 256, "oversample": 8,
                           "n_queries": 32},
                  "scale": {"n_terms": 1536, "n_topics": 24,
                            "n_documents": 49_152, "rank": 16,
                            "block_size": 256, "oversample": 8,
                            "n_queries": 32}},
           time_metrics=("eager_fit_seconds", "streamed_fit_seconds",
                         "eager_rss_kb", "streamed_rss_kb"))
def bench_incremental_memory_cap(params, seed):
    """I3: streamed indexing under the memory cap, quality intact."""
    probes = {mode: _memory_probe(params, mode, seed)
              for mode in ("eager", "streamed")}
    overlaps = [
        len(set(a) & set(b)) / 10.0
        for a, b in zip(probes["eager"]["top10"],
                        probes["streamed"]["top10"])
    ]
    agreement = float(np.mean(overlaps))
    ratio = probes["streamed"]["peak_rss_kb"] \
        / max(probes["eager"]["peak_rss_kb"], 1)
    return {
        "eager_fit_seconds": probes["eager"]["fit_seconds"],
        "streamed_fit_seconds": probes["streamed"]["fit_seconds"],
        "eager_rss_kb": float(probes["eager"]["peak_rss_kb"]),
        "streamed_rss_kb": float(probes["streamed"]["peak_rss_kb"]),
        "rss_ratio": ratio,
        "streamed_rss_under_half": bool(ratio < 0.5),
        "streamed_top10_agreement": agreement,
        "streamed_agreement_ok": bool(agreement >= 0.99),
    }


@benchmark(name="incremental_refit",
           tags=("serving", "incremental"),
           sizes={"smoke": {"n_terms": 400, "n_topics": 8,
                            "n_documents": 1200, "n_folds": 120,
                            "rank": 8, "n_queries": 64},
                  "full": {"n_terms": 1024, "n_topics": 12,
                           "n_documents": 6000, "n_folds": 600,
                           "rank": 16, "n_queries": 128}},
           time_metrics=("refit_incremental_seconds",
                         "refit_full_seconds", "refit_speedup"))
def bench_incremental_refit(params, seed):
    """I4: incremental writer refit vs from-scratch redecomposition."""
    total = params["n_documents"] + params["n_folds"]
    dense = _planted_matrix(params["n_terms"], params["n_topics"],
                            total, seed)
    base, folds = dense[:, :params["n_documents"]], \
        dense[:, params["n_documents"]:]
    model = LSIModel.fit(base, params["rank"], seed=seed)

    incremental_writer = IndexWriter(model)
    incremental_writer.add_documents(folds)
    inc_run = measure(
        lambda: incremental_writer.refit(seed=seed), repeats=1)
    incremental_model = incremental_writer.model

    full_writer = IndexWriter(model)
    full_writer.add_documents(folds)
    full_run = measure(
        lambda: full_writer.refit(dense, seed=seed), repeats=1)
    full_model = full_writer.model

    rng = as_generator(seed + 1)
    queries = rng.random((params["n_terms"], params["n_queries"]))
    overlap = _top10_overlap(_score_block(full_model, queries),
                             _score_block(incremental_model, queries))
    return {
        "refit_incremental_seconds": inc_run.mean_seconds,
        "refit_full_seconds": full_run.mean_seconds,
        "refit_speedup": full_run.mean_seconds
        / max(inc_run.mean_seconds, 1e-12),
        "refit_top10_agreement": overlap,
        "refit_agreement_ok": bool(overlap >= 0.95),
        "n_folds": float(params["n_folds"]),
    }
