"""Tests for the benchmark harness: registry, runner, report, gate."""

import json
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from harness import (  # noqa: E402
    REGISTRY,
    BenchmarkRegistry,
    BenchmarkSpec,
    benchmark,
    discover,
)
from harness.compare import compare_reports  # noqa: E402
from harness.main import main as harness_main  # noqa: E402
from harness.registry import DuplicateBenchmarkError  # noqa: E402
from harness.report import (  # noqa: E402
    SCHEMA,
    SCHEMA_VERSION,
    ReportError,
    build_report,
    load_report,
    render_summary,
    write_report,
)
from harness.runner import (  # noqa: E402
    BenchmarkOutcome,
    RunOptions,
    run_selected,
    run_variant,
)

from repro.cli import main as repro_main  # noqa: E402


def make_spec(fn, name="synthetic", *, sizes=None, time_metrics=(),
              tags=("test",)):
    """A registry-free spec for runner-level tests."""
    return BenchmarkSpec(name=name, fn=fn, tags=tags,
                         sizes=sizes or {"smoke": {"n": 4}},
                         time_metrics=time_metrics, module=__name__)


def only_variant(spec):
    variants = spec.variants()
    assert len(variants) == 1
    return variants[0]


class TestRegistry:
    def test_discover_finds_every_bench_script(self):
        registry = discover()
        scripts = sorted(BENCH_DIR.glob("bench_*.py"))
        assert len(scripts) == 20
        modules = {spec.module for spec in registry.specs()}
        assert modules == {path.stem for path in scripts}

    def test_every_spec_has_smoke_and_full_sizes(self):
        # smoke and full are mandatory tiers; the serving benches add
        # an optional scale tier on top (ROADMAP: serving at scale).
        registry = discover()
        assert len(registry) >= 16
        for spec in registry.specs():
            assert {"smoke", "full"} <= set(spec.sizes), spec.name
            assert set(spec.sizes) <= {"smoke", "full", "scale"}, \
                spec.name

    def test_scale_tier_covers_serving_benches(self):
        registry = discover()
        scale = registry.variants(size="scale")
        names = {v.spec.name for v in scale}
        assert {"serving_batched_queries",
                "serving_mmap_coldstart"} <= names
        assert all("serving" in v.spec.tags for v in scale)

    def test_variant_id_and_tags_include_size(self):
        registry = discover()
        variant = registry.variants(names=("retrieval_quality",),
                                    size="smoke")[0]
        assert variant.id == "retrieval_quality[smoke]"
        assert "smoke" in variant.tags
        assert set(variant.spec.tags) <= set(variant.tags)

    def test_tag_selection_picks_smoke_variants(self):
        registry = discover()
        smoke = registry.variants(tags=("smoke",))
        assert smoke
        assert all(v.size == "smoke" for v in smoke)
        assert len(smoke) == len(registry)

    def test_name_selection_accepts_name_and_id(self):
        registry = discover()
        by_name = registry.variants(names=("synonymy",))
        assert {v.id for v in by_name} == {"synonymy[smoke]",
                                           "synonymy[full]"}
        by_id = registry.variants(names=("synonymy[full]",))
        assert [v.id for v in by_id] == ["synonymy[full]"]

    def test_decorator_returns_function_unchanged(self):
        registry = BenchmarkRegistry()

        @benchmark(name="ret", registry=registry)
        def fn(params, seed):
            """Summary line."""
            return {"x": 1}

        assert fn({}, 0) == {"x": 1}
        assert "ret" in registry
        spec = registry.specs()[0]
        assert spec.summary == "Summary line."
        assert spec.sizes == {"full": {}}

    def test_duplicate_name_rejected_same_function_tolerated(self):
        registry = BenchmarkRegistry()

        def fn(params, seed):
            return {}

        registry.register(make_spec(fn, "dup"))
        registry.register(make_spec(fn, "dup"))  # same fn: no-op
        assert len(registry) == 1

        def other(params, seed):
            return {}

        with pytest.raises(DuplicateBenchmarkError):
            registry.register(make_spec(other, "dup"))


class TestRunner:
    def test_metrics_normalised_bools_become_01(self):
        def fn(params, seed):
            return {"claim": True, "other": False, "value": 2}

        outcome = run_variant(only_variant(make_spec(fn)))
        assert outcome.ok
        assert outcome.metrics == {"claim": 1.0, "other": 0.0,
                                   "value": 2.0}
        assert outcome.seed == RunOptions().seed
        assert len(outcome.wall_seconds) == 1

    def test_params_and_seed_are_threaded_through(self):
        seen = []

        def fn(params, seed):
            seen.append((dict(params), seed))
            return {"n": params["n"], "seed": seed}

        spec = make_spec(fn, sizes={"smoke": {"n": 7}})
        outcome = run_variant(only_variant(spec),
                              RunOptions(seed=99, repeats=2))
        assert outcome.metrics == {"n": 7.0, "seed": 99.0}
        # profiled run + 2 timed repeats, identical inputs each time
        assert seen == [({"n": 7}, 99)] * 3
        assert len(outcome.wall_seconds) == 2

    def test_error_is_captured_not_raised(self):
        def fn(params, seed):
            raise RuntimeError("boom")

        outcome = run_variant(only_variant(make_spec(fn)))
        assert outcome.status == "error"
        assert not outcome.ok
        assert "boom" in outcome.error
        assert outcome.metrics == {}

    def test_non_numeric_metric_is_a_protocol_error(self):
        def fn(params, seed):
            return {"bad": "a string"}

        outcome = run_variant(only_variant(make_spec(fn)))
        assert outcome.status == "error"
        assert "bad" in outcome.error

    def test_timeout_produces_timeout_status(self):
        def fn(params, seed):
            time.sleep(5.0)
            return {}

        outcome = run_variant(only_variant(make_spec(fn)),
                              RunOptions(timeout_seconds=0.2))
        assert outcome.status == "timeout"
        assert "0.2" in outcome.error

    def test_deterministic_rerun_of_a_real_benchmark(self):
        registry = discover()
        variant = registry.variants(names=("gram_cost[smoke]",))[0]
        options = RunOptions(seed=777)
        first = run_variant(variant, options)
        second = run_variant(variant, options)
        assert first.ok and second.ok
        timelike = set(variant.spec.time_metrics)
        stable_first = {k: v for k, v in first.metrics.items()
                        if k not in timelike}
        stable_second = {k: v for k, v in second.metrics.items()
                         if k not in timelike}
        assert stable_first == stable_second

    def test_run_selected_reports_progress(self):
        def fn(params, seed):
            return {"x": 1}

        lines = []
        outcomes = run_selected([only_variant(make_spec(fn))],
                                progress=lines.append)
        assert len(outcomes) == 1
        assert any("synthetic[smoke]" in line for line in lines)


class TestReport:
    def outcome(self, **overrides):
        base = dict(benchmark="b[smoke]", name="b", size="smoke",
                    tags=("smoke",), params={"n": 1}, seed=1,
                    status="ok", wall_seconds=(0.5, 0.7),
                    peak_alloc_bytes=100, peak_rss_kb=2048,
                    metrics={"m": 1.0}, time_metrics=())
        base.update(overrides)
        return BenchmarkOutcome(**base)

    def test_schema_round_trip(self, tmp_path):
        document = build_report([self.outcome()],
                                RunOptions(repeats=2, seed=1))
        path = write_report(document, tmp_path)
        assert path.name.startswith("BENCH_")
        assert path.suffix == ".json"
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(document))
        assert loaded["schema"] == SCHEMA
        assert loaded["schema_version"] == SCHEMA_VERSION
        entry = loaded["results"][0]
        assert entry["mean_seconds"] == pytest.approx(0.6)
        assert entry["best_seconds"] == pytest.approx(0.5)

    def test_same_second_reports_do_not_collide(self, tmp_path):
        document = build_report([self.outcome()])
        first = write_report(document, tmp_path)
        second = write_report(document, tmp_path)
        assert first != second
        assert load_report(second) == load_report(first)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"results": []}))
        with pytest.raises(ReportError, match="schema"):
            load_report(path)

    def test_future_schema_version_rejected(self, tmp_path):
        document = build_report([self.outcome()])
        document["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ReportError, match="schema_version"):
            load_report(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ReportError, match="no such report"):
            load_report(tmp_path / "nope.json")

    def test_env_fingerprint_is_recorded(self):
        document = build_report([])
        env = document["env"]
        assert env["python"] == sys.version.split()[0]
        assert "numpy" in env and "git_commit" in env

    def test_render_summary_mentions_every_benchmark(self):
        document = build_report([self.outcome()])
        rendered = render_summary(document)
        assert "b[smoke]" in rendered


class TestCompare:
    def report_with(self, metrics, *, benchmark_id="b[smoke]",
                    status="ok", time_metrics=(), mean_seconds=1.0):
        return {
            "schema": SCHEMA, "schema_version": SCHEMA_VERSION,
            "results": [{
                "benchmark": benchmark_id, "status": status,
                "metrics": metrics, "time_metrics": list(time_metrics),
                "mean_seconds": mean_seconds,
            }],
        }

    def test_identical_reports_pass(self):
        baseline = self.report_with({"m": 1.0, "claim": 1.0})
        result = compare_reports(baseline, baseline)
        assert result.ok()
        assert not result.regressions
        assert "PASS" in result.render()

    def test_small_drift_within_tolerance_passes(self):
        baseline = self.report_with({"m": 1.0})
        current = self.report_with({"m": 1.04})
        assert compare_reports(baseline, current,
                               tolerance=0.05).ok()

    def test_regression_beyond_tolerance_fails(self):
        baseline = self.report_with({"m": 1.0})
        current = self.report_with({"m": 0.9})
        result = compare_reports(baseline, current, tolerance=0.05)
        assert not result.ok()
        (bad,) = result.regressions
        assert bad.metric == "m"
        assert bad.delta == pytest.approx(-0.1)
        assert "FAIL" in result.render()

    def test_improvement_beyond_tolerance_also_fails(self):
        baseline = self.report_with({"m": 1.0})
        current = self.report_with({"m": 1.2})
        assert not compare_reports(baseline, current,
                                   tolerance=0.05).ok()

    def test_zero_baseline_uses_absolute_slack(self):
        baseline = self.report_with({"claim": 0.0})
        drifted = self.report_with({"claim": 1.0})
        assert not compare_reports(baseline, drifted).ok()
        same = self.report_with({"claim": 0.0})
        assert compare_reports(baseline, same).ok()

    def test_missing_benchmark_fails_unless_allowed(self):
        baseline = self.report_with({"m": 1.0})
        current = {"schema": SCHEMA,
                   "schema_version": SCHEMA_VERSION, "results": []}
        result = compare_reports(baseline, current)
        assert result.missing == ("b[smoke]",)
        assert not result.ok()
        assert result.ok(allow_missing=True)

    def test_added_benchmark_is_informational(self):
        baseline = {"schema": SCHEMA,
                    "schema_version": SCHEMA_VERSION, "results": []}
        current = self.report_with({"m": 1.0})
        result = compare_reports(baseline, current)
        assert result.added == ("b[smoke]",)
        assert result.ok()

    def test_broken_current_benchmark_fails(self):
        baseline = self.report_with({"m": 1.0})
        current = self.report_with({}, status="error")
        result = compare_reports(baseline, current)
        assert result.broken == ("b[smoke]",)
        assert not result.ok()

    def test_broken_baseline_benchmark_is_skipped(self):
        baseline = self.report_with({}, status="error")
        current = self.report_with({"m": 1.0})
        result = compare_reports(baseline, current)
        assert result.ok()
        assert not result.comparisons

    def test_time_metrics_skipped_unless_requested(self):
        baseline = self.report_with({"m": 1.0, "seconds": 1.0},
                                    time_metrics=("seconds",))
        current = self.report_with({"m": 1.0, "seconds": 10.0},
                                   time_metrics=("seconds",))
        assert compare_reports(baseline, current).ok()
        timed = compare_reports(baseline, current, check_time=True,
                                time_tolerance=0.5)
        assert not timed.ok()
        kinds = {c.metric: c.kind for c in timed.comparisons}
        assert kinds["seconds"] == "time"
        assert kinds["mean_seconds"] == "time"
        assert kinds["m"] == "metric"


class TestCli:
    def test_list_smoke_selection(self, capsys):
        assert harness_main(["list", "--tag", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "retrieval_quality[smoke]" in out
        assert "[full]" not in out

    def test_empty_selection_is_an_error(self, capsys):
        assert harness_main(["list", "--tag", "no-such-tag"]) == 1
        assert harness_main(["--tag", "no-such-tag"]) == 2

    def test_repro_cli_dispatches_bench(self, capsys):
        assert repro_main(["bench", "list", "--tag", "smoke"]) == 0
        assert "benchmark(s)" in capsys.readouterr().out

    def test_compare_cli_pass_and_fail(self, tmp_path, capsys):
        def fn(params, seed):
            return {"m": 1.0}

        outcome = run_variant(only_variant(make_spec(fn)))
        document = build_report([outcome])
        baseline = write_report(document, tmp_path / "a")
        current = write_report(document, tmp_path / "b")
        assert harness_main(["compare", str(baseline),
                             str(current)]) == 0
        drifted = json.loads(current.read_text())
        drifted["results"][0]["metrics"]["m"] = 2.0
        bad = tmp_path / "b" / "drifted.json"
        bad.write_text(json.dumps(drifted))
        assert harness_main(["compare", str(baseline),
                             str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_cli_load_error_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert harness_main(["compare", str(missing),
                             str(missing)]) == 2


class TestCommittedBaseline:
    BASELINE = BENCH_DIR / "baselines" / "smoke.json"

    def test_baseline_loads_and_covers_every_smoke_variant(self):
        document = load_report(self.BASELINE)
        recorded = {entry["benchmark"]
                    for entry in document["results"]}
        registered = {v.id for v in
                      discover().variants(tags=("smoke",))}
        assert recorded == registered
        assert all(entry["status"] == "ok"
                   for entry in document["results"])

    def test_baseline_passes_against_itself(self):
        document = load_report(self.BASELINE)
        assert compare_reports(document, document).ok()

    def test_interprocedural_claims_hold_in_baseline(self):
        # The interprocedural-lint acceptance claims, pinned to the
        # committed report: warm runs replay every record, the clean
        # chain stays clean, each mutation probe yields exactly one
        # finding, and editing only a callee re-concludes its caller.
        document = load_report(self.BASELINE)
        metrics = {entry["benchmark"]: entry["metrics"]
                   for entry in document["results"]}
        interproc = metrics["reprolint_interprocedural[smoke]"]
        assert interproc["interproc_warm_replays"] == 1.0
        assert interproc["interproc_findings_stable"] == 1.0
        assert interproc["tree_clean"] == 1.0
        assert interproc["r113_probe_exact_one"] == 1.0
        assert interproc["r120_probe_exact_one"] == 1.0
        assert interproc["callee_edit_flips_caller"] == 1.0
        assert interproc["callgraph_edges"] >= 20.0
        cache = metrics["reprolint_incremental_cache[smoke]"]
        assert cache["cache_fully_warm"] == 1.0
        assert cache["violations_stable"] == 1.0

    def test_incremental_claims_hold_in_baseline(self):
        # The streaming-SVD acceptance claims, pinned to the committed
        # report: the merge's triangle-inequality bound dominates the
        # true residual, streamed fitting agrees with the exact SVD at
        # top-10 >= 0.99, the streamed path stays under half the eager
        # path's subprocess peak RSS, and the incremental refit ranks
        # like a full refit.
        document = load_report(self.BASELINE)
        metrics = {entry["benchmark"]: entry["metrics"]
                   for entry in document["results"]}
        merge = metrics["incremental_merge_throughput[smoke]"]
        assert merge["bound_valid"] == 1.0
        streamed = metrics["incremental_streamed_agreement[smoke]"]
        assert streamed["streamed_top10_agreement"] >= 0.99
        assert streamed["streamed_agreement_ok"] == 1.0
        capped = metrics["incremental_memory_cap[smoke]"]
        assert capped["rss_ratio"] < 0.5
        assert capped["streamed_rss_under_half"] == 1.0
        assert capped["streamed_agreement_ok"] == 1.0
        refit = metrics["incremental_refit[smoke]"]
        assert refit["refit_agreement_ok"] == 1.0

    def test_batched_serving_claims_hold_in_baseline(self):
        # The batched engine's exactness claims, pinned to the committed
        # report: dense query blocks (the in-place GEMM) and text-like
        # blocks of 2-4 terms per query (the touched-rows fold) rank
        # exactly like the per-query loop.
        document = load_report(self.BASELINE)
        entry = next(entry for entry in document["results"]
                     if entry["benchmark"]
                     == "serving_batched_queries[smoke]")
        assert entry["metrics"]["batched_matches_looped"] == 1.0
        assert entry["metrics"]["sparse_batched_matches_looped"] == 1.0
        assert "sparse_batched_matches_looped" \
            not in entry["time_metrics"]

    def test_roundtrip_claims_hold_in_baseline(self):
        # Save → load exactness, pinned to the committed report: for a
        # fitted index, and, eager and mapped, for one whose store took
        # a dense and a CSR fold-in (a view of a wider buffer) and a
        # removal.
        document = load_report(self.BASELINE)
        entry = next(entry for entry in document["results"]
                     if entry["benchmark"]
                     == "serving_bundle_roundtrip[smoke]")
        assert entry["metrics"]["roundtrip_rankings_exact"] == 1.0
        assert entry["metrics"]["folded_roundtrip_rankings_exact"] == 1.0
        assert "folded_roundtrip_rankings_exact" \
            not in entry["time_metrics"]

    def test_two_stage_claim_holds_in_baseline(self):
        # The two-stage top-k's acceptance claim, pinned to the
        # committed report: a float32 scan plus float64 rescoring ranks
        # exactly like a float64 scan of the same store; the per-miss
        # timings stay ungated time metrics.
        document = load_report(self.BASELINE)
        entry = next(entry for entry in document["results"]
                     if entry["benchmark"]
                     == "serving_two_stage_scan[smoke]")
        assert entry["metrics"]["two_stage_rankings_exact"] == 1.0
        assert set(entry["time_metrics"]) == {
            "float64_miss_us", "float32_miss_us", "miss_speedup"}

    def test_text_pipeline_claim_holds_in_baseline(self):
        # The text front end's acceptance claim, pinned to the committed
        # report: fit, fold-in transform and query vectors equal the
        # per-token reference bit for bit; the three timings stay
        # ungated time metrics.
        document = load_report(self.BASELINE)
        entry = next(entry for entry in document["results"]
                     if entry["benchmark"] == "text_pipeline[smoke]")
        assert entry["metrics"]["pipeline_matches_reference"] == 1.0
        assert set(entry["time_metrics"]) == {
            "fit_transform_seconds", "transform_ms_per_doc",
            "query_vector_us"}


class TestScaleBaseline:
    BASELINE = BENCH_DIR / "baselines" / "scale.json"

    def test_baseline_covers_every_scale_variant(self):
        document = load_report(self.BASELINE)
        recorded = {entry["benchmark"]
                    for entry in document["results"]}
        registered = {v.id for v in
                      discover().variants(size="scale")}
        assert recorded == registered
        assert all(entry["status"] == "ok"
                   for entry in document["results"])

    def test_baseline_passes_against_itself(self):
        document = load_report(self.BASELINE)
        assert compare_reports(document, document).ok()

    def test_gated_serving_claims_hold_in_baseline(self):
        # The serving acceptance claims, pinned to the committed report:
        # mmap cold start is small and bit-identical, the streamed fit
        # stays under its memory cap, and the two-stage top-k ranks
        # exactly like a float64 scan.
        document = load_report(self.BASELINE)
        metrics = {entry["benchmark"]: entry["metrics"]
                   for entry in document["results"]}
        coldstart = metrics["serving_mmap_coldstart[scale]"]
        assert coldstart["mmap_rankings_exact"] == 1.0
        assert coldstart["mmap_rss_ratio"] < 0.25
        assert coldstart["mmap_rss_under_quarter"] == 1.0
        capped = metrics["incremental_memory_cap[scale]"]
        assert capped["rss_ratio"] < 0.5
        assert capped["streamed_rss_under_half"] == 1.0
        assert capped["streamed_agreement_ok"] == 1.0
        two_stage = metrics["serving_two_stage_scan[scale]"]
        assert two_stage["two_stage_rankings_exact"] == 1.0


class TestMarkdownSummary:
    def _report(self):
        def fn(params, seed):
            return {"float32_top10_agreement": 1.0,
                    "float32_agreement_ok": True,
                    "queries_per_second": 1234.5}

        spec = make_spec(fn, "served",
                         time_metrics=("queries_per_second",))
        outcome = run_variant(only_variant(spec))
        return build_report([outcome])

    def test_claims_and_timings_split_into_tables(self):
        from harness.summary import render_markdown_summary

        text = render_markdown_summary(self._report())
        assert "### Claims & agreement" in text
        assert "| served[smoke] | float32_agreement_ok | ✅ |" in text
        assert "### Timing & throughput (not gated)" in text
        assert "queries_per_second" in text

    def test_continuous_agreement_not_rendered_as_claim(self):
        from harness.summary import render_markdown_summary

        text = render_markdown_summary(self._report())
        assert "| served[smoke] | float32_top10_agreement | 1 |" \
            in text

    def test_baseline_column_shows_delta(self):
        from harness.summary import render_markdown_summary

        current = self._report()
        baseline = json.loads(json.dumps(current))
        baseline["results"][0]["metrics"]["queries_per_second"] = 1000.0
        text = render_markdown_summary(current, baseline)
        assert "(+23.4%)" in text

    def test_broken_benchmarks_listed(self):
        from harness.summary import render_markdown_summary

        def fn(params, seed):
            raise RuntimeError("boom")

        outcome = run_variant(only_variant(make_spec(fn, "broken")))
        text = render_markdown_summary(build_report([outcome]))
        assert "### Broken" in text
        assert "broken[smoke]" in text

    def test_empty_report_renders_placeholder(self):
        from harness.summary import render_markdown_summary

        text = render_markdown_summary(build_report([]))
        assert "no results to summarise" in text

    def test_summary_cli_roundtrip(self, tmp_path, capsys):
        path = write_report(self._report(), tmp_path)
        assert harness_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "## Bench summary" in out
        assert harness_main(["summary",
                             str(tmp_path / "nope.json")]) == 2


class TestFixtureDiskCache:
    def test_disk_cache_roundtrips_matrix(self, tmp_path, monkeypatch):
        from harness import fixtures

        monkeypatch.setenv(fixtures.CACHE_ENV, str(tmp_path))
        fixtures.clear_caches()
        first = fixtures.separable_matrix(60, 4, 40, 3)
        cached_files = list(tmp_path.glob("separable-matrix-*.npz"))
        assert len(cached_files) == 1
        fixtures.clear_caches()  # drop lru so the disk layer answers
        second = fixtures.separable_matrix(60, 4, 40, 3)
        assert second.shape == first.shape
        assert (second.indptr == first.indptr).all()
        assert (second.data == first.data).all()
        fixtures.clear_caches()

    def test_cache_disabled_without_env(self, tmp_path, monkeypatch):
        from harness import fixtures

        monkeypatch.delenv(fixtures.CACHE_ENV, raising=False)
        fixtures.clear_caches()
        fixtures.separable_matrix(60, 4, 40, 3)
        assert not list(tmp_path.glob("*.npz"))
        fixtures.clear_caches()

    def test_fingerprint_keys_cache_filenames(self, tmp_path,
                                              monkeypatch):
        from harness import fixtures

        monkeypatch.setenv(fixtures.CACHE_ENV, str(tmp_path))
        fixtures.clear_caches()
        factors = fixtures.synthetic_index_factors(64, 8, 32, 5)
        name = next(tmp_path.glob("index-factors-*.npz")).name
        assert fixtures.fixture_fingerprint() in name
        fixtures.clear_caches()
        again = fixtures.synthetic_index_factors(64, 8, 32, 5)
        assert (again.u == factors.u).all()
        assert (again.singular_values
                == factors.singular_values).all()
        fixtures.clear_caches()

    def test_synthetic_factors_are_wellformed(self):
        from harness import fixtures

        factors = fixtures.synthetic_index_factors(64, 8, 32, 5)
        assert factors.u.shape == (64, 8)
        assert factors.vt.shape == (8, 32)
        gram = factors.u.T @ factors.u
        assert abs(gram - __import__("numpy").eye(8)).max() < 1e-10
        sv = factors.singular_values
        assert (sv[:-1] >= sv[1:]).all()
        assert factors.frobenius_norm_sq > float((sv * sv).sum())
