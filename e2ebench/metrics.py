"""The benchmark's workloads and metrics, in one place.

``run.py`` prints these names with their units; ``BENCHMARK.json``
declares the same names (a test keeps the two in step).  Each per-layer
entry also says which end-to-end metric it should move, and on which
workload, so a change to one layer can be checked against the number a
user sees.
"""

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOADS"]

WORKLOADS = ("query_zipf", "mixed_rw")

#: ``(name, unit, better)``; every workload reports every one.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("query_qps", "1/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
    ("build_s", "s", "lower"),
    ("cold_start_ms", "ms", "lower"),
    ("bundle_mb", "MB", "lower"),
    ("write_docs_per_s", "1/s", "higher"),
    ("refit_s", "s", "lower"),
)

#: ``(name, unit, better, end-to-end metric it should move)``.
PER_LAYER = (
    ("pipeline.query_vector_us_p50", "us", "lower",
     "query_p50_ms on query_zipf"),
    ("pipeline.fit_transform_s", "s", "lower", "build_s on mixed_rw"),
    ("pipeline.tokens", "count", "lower", "build_s on mixed_rw"),
    ("pipeline.transform_ms_per_doc", "ms", "lower",
     "write_docs_per_s on mixed_rw"),
    ("index.rank_self_us_p50", "us", "lower",
     "query_p50_ms on query_zipf"),
    ("index.load_ms", "ms", "lower", "cold_start_ms on mixed_rw"),
    ("cache.hit_ratio", "ratio", "higher",
     "query_qps on query_zipf (near 0.17 on mixed_rw)"),
    ("cache.hash_us_p50", "us", "lower", "query_p50_ms on query_zipf"),
    ("cache.evictions", "count", "lower", "query_qps on query_zipf"),
    ("engine.rank_batch_ms_p50", "ms", "lower",
     "query_p99_ms and query_qps on query_zipf"),
    ("engine.rank_batch_ms_p99", "ms", "lower",
     "query_p99_ms and query_qps on query_zipf"),
    ("engine.topk_share", "ratio", "lower", "query_p99_ms on query_zipf"),
    ("engine.gflops", "GFLOP/s", "higher", "query_qps on query_zipf"),
    ("engine.mb_per_query", "MB", "lower", "query_qps on query_zipf"),
    ("engine.builds", "count", "lower", "query_p99_ms on mixed_rw"),
    ("engine.build_ms", "ms", "lower", "query_p99_ms on mixed_rw"),
    ("svd.block_s", "s", "lower",
     "build_s and refit_s on mixed_rw"),
    ("svd.blocks", "count", "lower",
     "build_s and refit_s on mixed_rw"),
    ("svd.merge_s", "s", "lower",
     "build_s and refit_s on mixed_rw"),
    ("svd.merges", "count", "lower",
     "build_s and refit_s on mixed_rw"),
    ("bundle.write_s", "s", "lower", "build_s on mixed_rw"),
    ("bundle.read_ms", "ms", "lower", "cold_start_ms on mixed_rw"),
    ("bundle.mb_written", "MB", "lower", "bundle_mb on mixed_rw"),
    ("writer.add_documents_ms", "ms", "lower",
     "write_docs_per_s on mixed_rw"),
    ("writer.refit_s", "s", "lower", "refit_s on mixed_rw"),
    ("trace.overhead", "ratio", "lower",
     "none: traced against untraced query_qps"),
)
