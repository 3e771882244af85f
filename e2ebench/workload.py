"""One benchmark workload, run in a fresh interpreter by ``run.py``.

Usage, from the repository root::

    python3 e2ebench/workload.py --workload query_zipf --seed 1 \\
        --seconds 8 --trace 0

Every workload runs the same phases, each with its own sizes and mix
(README.md says why):

1. set-up: draw the inputs from the seed and build the starting state,
   ``SETUP_REPEATS`` times;
2. build: texts or factors to a bundle on disk;
3. cold start: a memory-mapped ``ServedIndex.load`` plus a first query;
4. serving: a closed loop of one client, text in and top-10 ids out;
5. writes: 50-document fold-ins from raw text and incremental
   ``refit()`` calls.

Phases 2 to 5 repeat in rounds until ``--seconds`` of serving are done.
Each timing metric is a low percentile of its samples (a high one of a
rate), which are spread through the run; ``FAST_PERCENTILE`` says why.

Every served top-10 is checked against a plain-numpy reference outside
the timed windows.  The last line of standard output is one JSON
object: the end-to-end metrics, the run context, the operation counts
and, with ``--trace 1``, the per-layer metrics computed from the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from dataclasses import asdict
from itertools import cycle
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
from harness.fixtures import synthetic_index_factors  # noqa: E402
from reference import Reference, agrees, top_k  # noqa: E402
from repro.core.lsi import LSIModel  # noqa: E402
from repro.corpus.pipeline import TextPipeline  # noqa: E402
from repro.serving.config import ServingConfig  # noqa: E402
from repro.serving.index import ServedIndex  # noqa: E402

TOP_K = 10
#: Documents per fold-in: one write request.
FOLD_BATCH = 50
#: Set-up runs per workload: one at the start and one after each of the
#: first rounds.
SETUP_REPEATS = 5
#: Memory-mapped loads per round.
COLD_STARTS = 5
#: Queries per serving window; each window gives one qps, p50 and p99.
WINDOW_QUERIES = 1000
#: The percentile of an operation's samples that its metric reports, for
#: times (rates take ``100 - FAST_PERCENTILE``).  On a shared host the
#: same code runs at two speeds, about 2x apart, in stretches of seconds
#: as the neighbours' load comes and goes.  A median reports how much of
#: the run fell in the slow stretches; a low percentile reports what the
#: code costs when it has the core, as long as a twentieth of the run
#: does.
FAST_PERCENTILE = 5
#: Queries the reference scores per GEMM while verifying.
VERIFY_CHUNK = 32
#: Length of the pre-drawn query stream, cycled if a run outlasts it.
STREAM_LENGTH = 200_000
#: The configuration of every index a workload builds, and of its loads.
BUILD_CONFIG = ServingConfig()
LOAD_CONFIG = ServingConfig(mmap=True)
OUT_DIR = ROOT / ".e2ebench-out"
WORK_DIR = ROOT / ".e2ebench-work"

# query_zipf: a large synthetic index behind a text front end.
QZ_SAMPLE_DOCS = 1000
QZ_DOCS = 20_000
QZ_RANK = 96
#: Rounds of serving, each followed by builds, cold starts and writes.
QZ_ROUNDS = 10
QZ_BUILDS_PER_ROUND = 2
QZ_REFITS_PER_ROUND = 2
QZ_FOLDS_PER_REFIT = 3
QZ_FOLD_TEXTS = 600
# mixed_rw: texts to a streamed-fit bundle, then reads interleaved with
# fold-ins and refits, round after round.
MX_DOCS = 1000
MX_RANK = 20
MX_FOLD_TEXTS = 500
MX_READS_PER_FOLD = 30
MX_FOLDS_PER_REFIT = 10


def fast(samples, *, rate: bool = False) -> float:
    """The ``FAST_PERCENTILE`` of times, or of rates from the top."""
    percentile = 100 - FAST_PERCENTILE if rate else FAST_PERCENTILE
    return float(np.percentile(samples, percentile))


def peak_rss_mb() -> float:
    """This process's memory high-water mark (``VmHWM``), in MB.

    ``ru_maxrss`` is not used: it is inherited across fork+exec, so a
    workload started from a large parent would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Session:
    """Timings, served results and operation counts of one run."""

    def __init__(self, args, tracer):
        self.seed = args.seed
        self.seconds = args.seconds
        self.tracer = tracer
        self.work = WORK_DIR / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.inputs = ""
        self._make = None
        self.rank = 0
        self.tokens = 0
        self.stats = None
        self.setup_s: list = []
        self.build_s: list = []
        self.cold_s: list = []
        self.latencies: list = []
        self.windows: list = []
        self.position = 1
        self.fold_rates: list = []
        self.refit_s: list = []
        self.bundle_bytes = 0
        self.served: list = []
        self.vectors: dict = {}

    def begin(self) -> None:
        """Count one operation and tag the spans it records."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted

    def fail(self, message: str) -> None:
        """Count one failed or wrong operation."""
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def setup(self, make):
        """Time ``make()`` once and return its state.

        :meth:`repeat_setup` times the repeats, between rounds.
        """
        self._make = make
        start = time.perf_counter()
        state = make()
        self.setup_s.append(time.perf_counter() - start)
        self.inputs = inputs.digest(state.texts, state.folds, state.pool,
                                    state.stream)
        return state

    def repeat_setup(self, limit: int = SETUP_REPEATS) -> None:
        """Time set-up repeats until ``limit`` are timed; their state is
        dropped."""
        while len(self.setup_s) < min(limit, SETUP_REPEATS):
            start = time.perf_counter()
            state = self._make()
            self.setup_s.append(time.perf_counter() - start)
            if inputs.digest(state.texts, state.folds, state.pool,
                             state.stream) != self.inputs:
                self.fail("set-up drew different inputs from one seed")
            state = None

    def build(self, path: Path, make):
        """Time ``make()`` plus saving its index as a bundle at ``path``."""
        shutil.rmtree(path, ignore_errors=True)
        self.begin()
        start = time.perf_counter()
        index = make()
        index.save(path)
        self.build_s.append(time.perf_counter() - start)
        self.bundle_bytes = sum(f.stat().st_size for f in path.iterdir())
        return index

    def cold_start(self, path: Path, state, reference: Reference):
        """Map the bundle and answer a first query, ``COLD_STARTS`` times.

        Checks the answers against ``reference`` (the bundle's store) and
        returns the last index loaded.
        """
        qid = int(state.stream[0])
        index = None
        for _ in range(COLD_STARTS):
            index = None
            self.begin()
            start = time.perf_counter()
            index = ServedIndex.load(path, config=LOAD_CONFIG)
            vector = state.pipeline.query_vector(state.pool[qid])
            ids = index.rank_documents(vector, top_k=TOP_K)
            self.cold_s.append(time.perf_counter() - start)
            self._record(qid, vector, ids)
        self.verify(reference)
        return index

    def read(self, index, state, *, count=None, until=None) -> None:
        """A closed loop of one client over the query stream."""
        stream = state.stream
        done = 0
        while (count is None or done < count) \
                and (until is None or time.perf_counter() < until):
            qid = int(stream[self.position % len(stream)])
            self.position += 1
            done += 1
            self.begin()
            began = time.perf_counter()
            try:
                vector = state.pipeline.query_vector(state.pool[qid])
                ids = index.rank_documents(vector, top_k=TOP_K)
            # A failed query is counted, and the client goes on.
            except Exception as exc:  # reprolint: disable=R005
                self.fail(f"query {qid}: {exc!r}")
                continue
            self.latencies.append(time.perf_counter() - began)
            self._record(qid, vector, ids)
            if len(self.latencies) == WINDOW_QUERIES:
                self._close_window()

    def _close_window(self) -> None:
        """Turn the latencies since the last window into one qps, p50
        and p99 sample."""
        latencies = np.asarray(self.latencies)
        self.windows.append((latencies.size / latencies.sum(),
                             float(np.percentile(latencies, 50)) * 1e3,
                             float(np.percentile(latencies, 99)) * 1e3))
        self.latencies = []

    def end_round(self) -> None:
        """Time one more set-up repeat, until there are enough."""
        self.repeat_setup(len(self.setup_s) + 1)

    def _record(self, qid: int, vector, ids) -> None:
        self.served.append((qid, ids))
        if qid not in self.vectors:
            nonzero = np.flatnonzero(vector)
            self.vectors[qid] = (nonzero, vector[nonzero])

    def fold_in(self, index, pipeline, texts, reference=None) -> None:
        """Fold ``texts`` in from raw text; check the ids assigned."""
        first = index.n_documents
        self.begin()
        start = time.perf_counter()
        columns = pipeline.transform(texts)
        ids = index.add_documents(columns)
        self.fold_rates.append(len(texts) / (time.perf_counter() - start))
        if not np.array_equal(ids, np.arange(first, first + len(texts))):
            self.fail(f"fold-in at {first} assigned ids {ids.tolist()}")
        if reference is not None:
            reference.fold(columns.to_dense())

    def refit(self, index) -> None:
        """One incremental ``refit()``."""
        self.begin()
        start = time.perf_counter()
        index.refit(seed=self.seed)
        self.refit_s.append(time.perf_counter() - start)

    def verify(self, reference: Reference) -> None:
        """Check every ranking served since the last call."""
        by_query: dict = {}
        for qid, ids in self.served:
            by_query.setdefault(qid, []).append(ids)
        self.served = []
        qids = sorted(by_query)
        n_terms = reference.basis.shape[0]
        for lo in range(0, len(qids), VERIFY_CHUNK):
            chunk = qids[lo:lo + VERIFY_CHUNK]
            block = np.zeros((n_terms, len(chunk)))
            for column, qid in enumerate(chunk):
                nonzero, values = self.vectors[qid]
                block[nonzero, column] = values
            scores = reference.scores(block)
            for row, qid in enumerate(chunk):
                expected = top_k(scores[row], TOP_K)
                for ids in by_query[qid]:
                    if not agrees(ids, expected, scores[row]):
                        self.fail(f"query {qid}: served {ids.tolist()}, "
                                  f"expected {expected.tolist()}")

    def sample_counts(self) -> dict:
        """How many samples each timing metric was taken from."""
        return {"setup_s": len(self.setup_s),
                "query_windows": len(self.windows),
                "queries_per_window": WINDOW_QUERIES,
                "build_s": len(self.build_s),
                "cold_start_ms": len(self.cold_s),
                "write_docs_per_s": len(self.fold_rates),
                "refit_s": len(self.refit_s)}

    def e2e_metrics(self) -> dict:
        """Every end-to-end metric, from the untimed bookkeeping.

        Each timing is the ``FAST_PERCENTILE`` of its samples, which are
        spread through the run.
        """
        if not self.windows:
            self._close_window()
        qps, p50, p99 = zip(*self.windows)
        return {
            "setup_s": fast(self.setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "query_qps": fast(qps, rate=True),
            "query_p50_ms": fast(p50),
            "query_p99_ms": fast(p99),
            "build_s": fast(self.build_s),
            "cold_start_ms": fast(self.cold_s) * 1e3,
            "bundle_mb": self.bundle_bytes / 1e6,
            "write_docs_per_s": fast(self.fold_rates, rate=True),
            "refit_s": fast(self.refit_s),
        }


def _draw_inputs(seed: int, n_docs: int, n_fold_texts: int):
    model = inputs.corpus_model(seed)
    vocabulary = inputs.vocabulary()
    return SimpleNamespace(
        texts=inputs.texts(model, vocabulary, n_docs, seed, inputs.CORPUS),
        folds=inputs.texts(model, vocabulary, n_fold_texts, seed,
                           inputs.FOLDS),
        pool=inputs.query_pool(model, vocabulary, seed),
        stream=inputs.query_stream(seed, STREAM_LENGTH))


def _fold_batches(texts):
    """Endless fold-in batches of ``FOLD_BATCH`` texts, cycling."""
    return cycle([texts[i:i + FOLD_BATCH]
                  for i in range(0, len(texts), FOLD_BATCH)])


def _text_pipeline() -> TextPipeline:
    return TextPipeline(stem=True, weighting="count")


def query_zipf(session: Session) -> None:
    """Zipf text queries against a 20k-document memory-mapped index."""
    seed = session.seed

    def setup():
        state = _draw_inputs(seed, QZ_SAMPLE_DOCS, QZ_FOLD_TEXTS)
        state.pipeline = _text_pipeline()
        state.tokens = state.pipeline.fit_transform(state.texts).data.sum()
        # The unwrapped fixture: its in-process cache would make every
        # set-up after the first one free.
        state.factors = synthetic_index_factors.__wrapped__(
            len(state.pipeline.vocabulary), QZ_RANK, QZ_DOCS, seed)
        return state

    state = session.setup(setup)
    session.rank = QZ_RANK
    session.tokens = int(state.tokens)
    served = session.work / "served"
    rebuilt = session.work / "rebuilt"

    def build():
        return ServedIndex(LSIModel(state.factors),
                           vocabulary=list(state.pipeline.vocabulary),
                           config=BUILD_CONFIG)

    session.build(served, build)
    bundle_reference = Reference(state.factors.u,
                                 state.factors.document_vectors())
    index = session.cold_start(served, state, bundle_reference)
    reference = bundle_reference
    batches = _fold_batches(state.folds)
    for _ in range(QZ_ROUNDS):
        # One round: serve, rebuild the bundle and map it, then write
        # into the served index (which clears its cache).
        session.read(index, state, until=time.perf_counter()
                     + session.seconds / QZ_ROUNDS)
        session.verify(reference)
        for _ in range(QZ_BUILDS_PER_ROUND):
            session.build(rebuilt, build)
        session.cold_start(rebuilt, state, bundle_reference)
        for _ in range(QZ_REFITS_PER_ROUND):
            for _ in range(QZ_FOLDS_PER_REFIT):
                session.fold_in(index, state.pipeline, next(batches))
            session.refit(index)
        model = index.model
        reference = Reference(model.term_basis, model.document_vectors())
        session.end_round()
    session.stats = index.stats()


def mixed_rw(session: Session) -> None:
    """Text to a bundle, then reads interleaved with fold-ins and
    incremental refits, round after round."""
    seed = session.seed
    state = session.setup(lambda: _draw_inputs(seed, MX_DOCS,
                                               MX_FOLD_TEXTS))
    session.rank = MX_RANK
    path = session.work / "bundle"

    def build():
        state.pipeline = _text_pipeline()
        state.matrix = state.pipeline.fit_transform(state.texts)
        return ServedIndex.fit_streamed(
            state.matrix, MX_RANK, seed=seed,
            vocabulary=list(state.pipeline.vocabulary),
            config=BUILD_CONFIG)

    deadline = time.perf_counter() + session.seconds
    while True:
        # Every round builds the same bundle from the same texts, starts
        # from it and folds in the same texts, so every round does the
        # same work however many fit.
        index = None
        built = session.build(path, build)
        session.tokens = int(state.matrix.data.sum())
        basis = built.model.term_basis
        docs = built.model.document_vectors()
        built = None
        index = session.cold_start(path, state, Reference(basis, docs))
        reference = Reference(basis, docs)
        batches = _fold_batches(state.folds)
        for _ in range(MX_FOLDS_PER_REFIT):
            session.read(index, state, count=MX_READS_PER_FOLD)
            session.verify(reference)
            session.fold_in(index, state.pipeline, next(batches),
                            reference)
        session.refit(index)
        model = index.model
        session.read(index, state, count=MX_READS_PER_FOLD)
        session.verify(Reference(model.term_basis,
                                 model.document_vectors()))
        session.end_round()
        if time.perf_counter() >= deadline:
            break
    session.stats = index.stats()


WORKLOADS = {"query_zipf": query_zipf, "mixed_rw": mixed_rw}


def layer_metrics(spans, session: Session) -> dict:
    """The per-layer metrics of one traced run (see ``metrics.py``)."""
    own = tracing.self_times(spans)
    durations: dict = {}
    self_ns: dict = {}
    work: dict = {}
    fold_ns = fold_docs = 0
    for i, (name, start, end, parent, _, count) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        self_ns.setdefault(name, []).append(own[i])
        work[name] = work.get(name, 0) + count
        # Fold-in transforms only: query_vector calls transform too.
        if name == "pipeline.transform" and (
                parent < 0 or spans[parent][0] != "pipeline.query_vector"):
            fold_ns += end - start
            fold_docs += count

    def pct(name, q, scale, source=durations):
        values = source.get(name)
        return float(np.percentile(values, q)) / scale if values else 0.0

    def total(name, source=durations):
        return sum(source.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    builds = durations.get("engine.init", []) \
        + durations.get("engine.from_precomputed", [])
    rank_ns = total("engine.rank_batch")
    gemm_columns = work.get("engine.rank_batch", 0)
    stats = session.stats
    lookups = stats.cache_hits + stats.cache_misses
    return {
        "pipeline.query_vector_us_p50": pct("pipeline.query_vector", 50,
                                            1e3),
        "pipeline.fit_transform_s": pct("pipeline.fit_transform", 50, 1e9),
        "pipeline.tokens": session.tokens,
        "pipeline.transform_ms_per_doc":
            fold_ns / 1e6 / fold_docs if fold_docs else 0.0,
        "index.rank_self_us_p50": pct("index.rank_documents", 50, 1e3,
                                      self_ns),
        "index.load_ms": pct("index.load", 50, 1e6),
        "cache.hit_ratio": stats.cache_hits / lookups if lookups else 0.0,
        "cache.hash_us_p50": pct("cache.query_hash", 50, 1e3),
        "cache.evictions": stats.cache_evictions,
        "engine.rank_batch_ms_p50": pct("engine.rank_batch", 50, 1e6),
        "engine.rank_batch_ms_p99": pct("engine.rank_batch", 99, 1e6),
        "engine.topk_share": total("engine.stable_top_k", self_ns) / rank_ns
        if rank_ns else 0.0,
        # flops / ns = GFLOP/s; one query per rank_batch call here.
        "engine.gflops": 2 * session.rank * gemm_columns / rank_ns
        if rank_ns else 0.0,
        "engine.mb_per_query": 8 * session.rank * gemm_columns / 1e6
        / calls("engine.rank_batch") if rank_ns else 0.0,
        "engine.builds": len(builds),
        "engine.build_ms": float(np.median(builds)) / 1e6 if builds else 0.0,
        "svd.block_s": total("svd.from_block") / 1e9,
        "svd.blocks": calls("svd.from_block"),
        "svd.merge_s": total("svd.merge") / 1e9,
        "svd.merges": calls("svd.merge"),
        "bundle.write_s": pct("bundle.write", 50, 1e9),
        "bundle.read_ms": pct("bundle.read", 50, 1e6),
        "bundle.mb_written": work.get("bundle.write", 0) / 1e6
        / calls("bundle.write") if calls("bundle.write") else 0.0,
        "writer.add_documents_ms": pct("writer.add_documents", 50, 1e6),
        "writer.refit_s": pct("writer.refit", 50, 1e9),
    }


def blas_context() -> dict:
    """The BLAS library numpy was built with, and its thread settings."""
    context: dict = {"threads_env": {
        name: os.environ.get(name)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        context["library"] = {key: blas.get(key)
                              for key in ("name", "version")}
    except (TypeError, KeyError):  # numpy before 1.26 prints only
        context["library"] = None
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        context["pools"] = None
    else:
        context["pools"] = [
            {key: pool.get(key)
             for key in ("internal_api", "version", "num_threads")}
            for pool in threadpool_info()]
    return context


def run_context(seed: int) -> dict:
    """What a reader needs to compare two results."""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "blas": blas_context(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload in this interpreter.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = tracing.Tracer() if args.trace else None
    undo = tracing.install(tracer) if tracer is not None else []
    session = Session(args, tracer)
    try:
        WORKLOADS[args.workload](session)
        session.repeat_setup()
    finally:
        tracing.uninstall(undo)
        shutil.rmtree(session.work, ignore_errors=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "context": run_context(args.seed),
        "config": {"build": asdict(BUILD_CONFIG),
                   "load": asdict(LOAD_CONFIG)},
        "inputs": session.inputs,
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors,
        "e2e": session.e2e_metrics(),
        "samples": session.sample_counts(),
        "layers": None,
        "spans": None,
    }
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, session)
        result["spans"] = {entry[0]: 0 for entry in tracing.ENTRY_POINTS}
        for span in tracer.spans:
            result["spans"][span[0]] += 1
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
        print("# spans: " + ", ".join(
            f"{name}={count}" for name, count in result["spans"].items()))
    for error in session.errors:
        print(f"# failed: {error}")
    print(f"# context: {json.dumps(result['context'], sort_keys=True)}")
    print(f"# samples: {json.dumps(result['samples'])}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
