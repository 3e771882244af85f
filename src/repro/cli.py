"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — show the reproducible experiments with one-line summaries;
- ``run <experiment> [--scale f] [--seed n]`` — run one experiment and
  print its paper-style tables;
- ``paper-table [--scale f]`` — shorthand for the paper's §4 table (T1);
- ``report [ids...] [--output path]`` — run experiments and write one
  Markdown report (all of them by default);
- ``info`` — version and experiment inventory summary;
- ``lint [...]`` — run the repo's static-analysis engine (reprolint)
  over the source tree; every argument passes straight through to
  reprolint (see ``repro lint --help``);
- ``bench [...]`` — the unified benchmark harness: run registered
  benchmarks into schema-versioned ``BENCH_*.json`` reports,
  ``bench list`` the registry, ``bench compare`` two reports as a
  regression gate (see ``repro bench --help``);
- ``serve-stats <bundle> [--json] [--verify]`` — inspect a saved index
  bundle's manifest: shape, drift accounting, and serving counters,
  without loading the array payload.

The CLI exists so a downstream user can regenerate any artifact without
writing Python; the benchmark harness remains the canonical driver.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro import __version__

__all__ = ["build_parser", "main"]

#: Experiment id → (module summary, config factory, runner import path).
_EXPERIMENTS = {
    "t1": ("the paper's section-4 angle-statistics table",
           "repro.experiments.angle_table",
           "AngleTableConfig", "run_angle_table"),
    "e2": ("skewness vs corpus size and epsilon (Theorems 2/3)",
           "repro.experiments.skewness_sweep",
           "SkewnessSweepConfig", "run_skewness_sweep"),
    "e3": ("Theorem 5 random-projection recovery",
           "repro.experiments.rp_recovery",
           "RPRecoveryConfig", "run_rp_recovery"),
    "e4": ("Johnson-Lindenstrauss distance distortion (Lemma 2)",
           "repro.experiments.jl_distortion",
           "JLDistortionConfig", "run_jl_distortion"),
    "e5": ("direct LSI vs two-step running time",
           "repro.experiments.timing",
           "TimingConfig", "run_timing"),
    "e6": ("synonym pairs under LSI",
           "repro.experiments.synonymy_exp",
           "SynonymyConfig", "run_synonymy"),
    "e7": ("Theorem 6 spectral subgraph discovery",
           "repro.experiments.graph_topics",
           "GraphTopicsConfig", "run_graph_topics"),
    "e8": ("retrieval quality: LSI vs VSM vs RP+LSI",
           "repro.experiments.retrieval_exp",
           "RetrievalConfig", "run_retrieval_experiment"),
    "e9": ("FKV sampling vs uniform sampling vs projection",
           "repro.experiments.fkv_exp",
           "FKVConfig", "run_fkv_experiment"),
    "e10": ("spectral collaborative filtering",
            "repro.experiments.cf_exp",
            "CFConfig", "run_cf_experiment"),
    "x1": ("extension: multi-topic (mixture) documents",
           "repro.experiments.mixture_ext",
           "MixtureConfig", "run_mixture_experiment"),
    "x2": ("extension: robustness to authorship styles",
           "repro.experiments.style_robustness",
           "StyleRobustnessConfig", "run_style_robustness"),
    "x3": ("extension: polysemous terms",
           "repro.experiments.polysemy_exp",
           "PolysemyConfig", "run_polysemy"),
    "x4": ("Theorem 2's spectral engine: block conductance and gaps",
           "repro.experiments.conductance_exp",
           "ConductanceConfig", "run_conductance_experiment"),
    "x5": ("folding-in drift vs refitting",
           "repro.experiments.folding_exp",
           "FoldingConfig", "run_folding_experiment"),
    "x6": ("document clustering/classification per space",
           "repro.experiments.classification_exp",
           "ClassificationConfig", "run_classification"),
    "x7": ("query repair (Rocchio PRF) vs space repair (LSI)",
           "repro.experiments.prf_exp",
           "PRFConfig", "run_prf_experiment"),
}


def _load_experiment(experiment_id: str):
    import importlib

    summary, module_name, config_name, runner_name = \
        _EXPERIMENTS[experiment_id]
    module = importlib.import_module(module_name)
    return getattr(module, config_name), getattr(module, runner_name)


def _apply_overrides(config, *, scale=None, seed=None):
    """Return a config with seed replaced and (for T1) scaling applied."""
    if scale is not None and hasattr(config, "scaled"):
        config = config.scaled(scale)
    if seed is not None and hasattr(config, "seed"):
        config = dataclasses.replace(config, seed=seed)
    return config


def _command_list(_args) -> int:
    width = max(len(k) for k in _EXPERIMENTS)
    for experiment_id, (summary, *_rest) in _EXPERIMENTS.items():
        print(f"  {experiment_id:<{width}}  {summary}")
    return 0


def _command_info(_args) -> int:
    print(f"repro {__version__} — reproduction of 'Latent Semantic "
          "Indexing: A Probabilistic Analysis' (PODS 1998)")
    print(f"{len(_EXPERIMENTS)} reproducible experiments; "
          "run `python -m repro list` to enumerate them")
    return 0


def _command_run(args) -> int:
    experiment_id = args.experiment.lower()
    if experiment_id not in _EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; choose from "
              f"{', '.join(_EXPERIMENTS)}", file=sys.stderr)
        return 2
    config_cls, runner = _load_experiment(experiment_id)
    config = _apply_overrides(config_cls(), scale=args.scale,
                              seed=args.seed)
    result = runner(config)
    print(result.render())
    return 0


def _command_report(args) -> int:
    from repro.experiments.report import write_report

    experiment_ids = args.experiments or None
    path = write_report(args.output, experiment_ids)
    print(f"wrote {path}")
    return 0


def _load_reprolint():
    """Import the reprolint CLI, reaching back to the repo checkout.

    reprolint lives in ``tools/`` (repository-side, not shipped in the
    wheel), so an src-layout import needs the repository root on
    ``sys.path``; for installed copies without the checkout we raise a
    clear error instead of an ImportError traceback.
    """
    try:
        from tools.reprolint import cli as reprolint_cli
    except ImportError:
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        if not (root / "tools" / "reprolint").is_dir():
            raise ModuleNotFoundError(
                "tools.reprolint not importable: `repro lint` runs "
                "from a repository checkout (tools/ is not packaged)")
        sys.path.insert(0, str(root))
        from tools.reprolint import cli as reprolint_cli
    return reprolint_cli


def _load_bench_harness():
    """Import the benchmark harness, reaching back to the checkout.

    Like reprolint, the harness lives repository-side
    (``benchmarks/harness``, not shipped in the wheel), so running
    ``repro bench`` needs the ``benchmarks/`` directory on ``sys.path``;
    installed copies without the checkout get a clear error.
    """
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    bench_dir = root / "benchmarks"
    if not (bench_dir / "harness").is_dir():
        raise ModuleNotFoundError(
            "benchmarks/harness not importable: `repro bench` runs "
            "from a repository checkout (benchmarks/ is not packaged)")
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    from harness import main as harness_main
    return harness_main


def _command_bench(bench_argv) -> int:
    """Delegate ``repro bench ...`` to the harness CLI."""
    try:
        harness_main = _load_bench_harness()
    except ModuleNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    return harness_main.main(list(bench_argv))


def _command_lint(lint_argv) -> int:
    """Delegate ``repro lint ...`` to the reprolint CLI."""
    try:
        reprolint_cli = _load_reprolint()
    except ModuleNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    return reprolint_cli.main(list(lint_argv))


def _print_serving_counters(stats, threshold) -> None:
    """The shared counter block of the ``serve-stats`` text report."""
    print(f"drift             {stats.drift:.6f} "
          f"(threshold={'-' if threshold is None else threshold}, "
          f"refit recommended={stats.refit_recommended})")
    print(f"queries served    {stats.queries_served} "
          f"in {stats.batches_served} batches")
    print(f"result cache      hits={stats.cache_hits} "
          f"misses={stats.cache_misses} "
          f"evictions={stats.cache_evictions} "
          f"hit rate={stats.cache_hit_rate:.3f}")
    print(f"updates           fold-ins={stats.fold_ins_since_refit} "
          f"deletes={stats.deletes_since_refit} "
          f"refits={stats.refits}")


def _print_writer_state(manifest, stats) -> None:
    """The writer drift-state block of the ``serve-stats`` report.

    Bundles saved mid-write (folded/tombstoned documents not yet
    absorbed by a refit) get their pending state spelled out: how many
    documents each refit mode would absorb, the energy split behind
    the drift number, and the remaining headroom to the configured
    ``drift_threshold``.
    """
    n_documents = manifest.get("n_documents") or 0
    n_original = manifest.get("n_original") or n_documents
    folded = max(0, n_documents - n_original)
    tombstoned = manifest.get("n_tombstoned") or 0
    unabsorbed = float(manifest.get("unabsorbed_energy") or 0.0)
    captured = manifest.get("captured_energy")
    threshold = manifest.get("drift_threshold")

    print(f"writer state      fold-ins pending={folded} "
          f"tombstoned={tombstoned}")
    if captured is not None:
        print(f"  energy          unabsorbed={unabsorbed:.6g} "
              f"captured={float(captured):.6g}")
    if threshold is None:
        print("  refit policy    disabled (no drift threshold)")
    else:
        headroom = float(threshold) - stats.drift
        state = "CROSSED — refit recommended" if headroom <= 0 \
            else f"headroom {headroom:.6f}"
        print(f"  refit policy    drift {stats.drift:.6f} of "
              f"threshold {threshold} ({state})")
    if folded > 0:
        print("  refit path      full refit(matrix) — bundles do not "
              "persist the term-space fold buffer the incremental "
              "merge needs")
    elif tombstoned > 0:
        print("  refit path      full refit(matrix) — tombstoned "
              "mass only leaves the basis on a from-scratch "
              "decomposition")
    else:
        print("  refit path      none pending (incremental refit() "
              "would be a no-op)")


def _command_serve_stats(args) -> int:
    """Render a saved index's manifest summary and serving counters.

    A directory that is not a schema-4 bundle exits 2 with the reason.
    With ``--verify``, checksum failures are reported per file (name
    plus expected/actual digest) and the command exits 2.  The text
    report checks the manifest's fields by the loader's rules
    (:func:`~repro.serving.bundle.check_manifest`) and exits 2 naming
    the first bad one; ``--json`` prints the manifest as it is.
    """
    import json

    from repro.errors import PersistenceError, ValidationError
    from repro.serving.bundle import check_manifest, checksum_failures, \
        read_manifest

    try:
        manifest = read_manifest(args.bundle)
    except PersistenceError as error:
        print(str(error), file=sys.stderr)
        return 2
    failures = []
    if args.verify:
        failures = [f.describe()
                    for f in checksum_failures(args.bundle, manifest)]
    if args.format == "json":
        payload = dict(manifest)
        if args.verify:
            payload["verification"] = {"ok": not failures,
                                       "failures": failures}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 2 if failures else 0

    try:
        stats = check_manifest(manifest)
    except ValidationError as error:
        print(f"bundle {args.bundle} has an invalid manifest value: "
              f"{error}", file=sys.stderr)
        return 2
    print(f"bundle            {args.bundle}")
    print(f"format            {manifest.get('format')} "
          f"(schema v{manifest.get('schema_version')})")
    print(f"index version     {manifest.get('index_version') or '-'}")
    print(f"created           {manifest.get('created_at') or '-'}")
    print(f"shape             rank={manifest.get('rank')} "
          f"terms={manifest.get('n_terms')} "
          f"documents={manifest.get('n_documents')} "
          f"(original={manifest.get('n_original')}, "
          f"tombstoned={manifest.get('n_tombstoned', 0)})")
    threshold = manifest.get("drift_threshold")
    _print_serving_counters(stats, threshold)
    _print_writer_state(manifest, stats)
    if failures:
        print(f"checksum          FAILED ({len(failures)} file(s))")
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 2
    if args.verify:
        print(f"checksum          verified "
              f"({len(manifest.get('checksums') or {})} file(s))")
    return 0


def _command_paper_table(args) -> int:
    config_cls, runner = _load_experiment("t1")
    config = _apply_overrides(config_cls(), scale=args.scale,
                              seed=args.seed)
    result = runner(config)
    print(result.render())
    from repro.experiments.angle_table import PAPER_REPORTED

    print("\npaper reported (radians):")
    for (kind, space), values in PAPER_REPORTED.items():
        print(f"  {kind:>10}/{space:<8} min={values[0]} max={values[1]} "
              f"avg={values[2]} std={values[3]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Latent Semantic Indexing: A "
                    "Probabilistic Analysis' (PODS 1998)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list reproducible experiments") \
        .set_defaults(handler=_command_list)
    subparsers.add_parser("info", help="version and inventory") \
        .set_defaults(handler=_command_info)

    run_parser = subparsers.add_parser(
        "run", help="run one experiment and print its tables")
    run_parser.add_argument("experiment",
                            help="experiment id (see `list`)")
    run_parser.add_argument("--scale", type=float, default=None,
                            help="scale factor for configs that "
                                 "support it (e.g. t1)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the experiment seed")
    run_parser.set_defaults(handler=_command_run)

    report_parser = subparsers.add_parser(
        "report",
        help="run experiments and write one Markdown report")
    report_parser.add_argument("--output", default="report.md",
                               help="output path (default report.md)")
    report_parser.add_argument("experiments", nargs="*",
                               help="experiment ids (default: all)")
    report_parser.set_defaults(handler=_command_report)

    table_parser = subparsers.add_parser(
        "paper-table",
        help="reproduce the paper's angle table (alias of `run t1`)")
    table_parser.add_argument("--scale", type=float, default=None)
    table_parser.add_argument("--seed", type=int, default=None)
    table_parser.set_defaults(handler=_command_paper_table)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the repo's static-analysis pass (see `repro lint "
             "--help`)")
    lint_parser.add_argument("lint_args", nargs=argparse.REMAINDER,
                             help="arguments for reprolint")
    lint_parser.set_defaults(
        handler=lambda args: _command_lint(args.lint_args))

    stats_parser = subparsers.add_parser(
        "serve-stats",
        help="inspect a saved index bundle's manifest and counters")
    stats_parser.add_argument("bundle",
                              help="path to a saved index bundle")
    stats_parser.add_argument("--json", dest="format",
                              action="store_const", const="json",
                              default="text",
                              help="print the raw manifest as JSON")
    stats_parser.add_argument("--verify", action="store_true",
                              help="recompute every array file's "
                                   "checksum; mismatches are listed "
                                   "per file")
    stats_parser.set_defaults(handler=_command_serve_stats)

    bench_parser = subparsers.add_parser(
        "bench",
        help="run/compare benchmarks (see `repro bench --help`)")
    bench_parser.add_argument("bench_args", nargs=argparse.REMAINDER,
                              help="arguments for the harness CLI")
    bench_parser.set_defaults(
        handler=lambda args: _command_bench(args.bench_args))
    return parser


#: Subcommands whose arguments go to another CLI unparsed.
_PASSTHROUGH = {"bench": _command_bench, "lint": _command_lint}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # `bench` and `lint` own their argv (flags like --tag would trip
    # argparse's REMAINDER handling), so dispatch before the main
    # parser runs.
    if argv and argv[0] in _PASSTHROUGH:
        return _PASSTHROUGH[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 1
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
