"""Bench L1: the reprolint incremental cache and interprocedural pass.

Two families.  ``reprolint_incremental_cache``: lint a synthetic
package tree twice through :func:`tools.reprolint.lint_paths` — a cold
run that populates the content-hash cache, then warm runs that replay
every per-file record and recompute only the project passes (import
cycles, the call-graph checks).  The paper-style claims are
booleans reported as 0/1:

- ``cache_fully_warm`` — the second run replays every file (hit rate
  1.0, zero misses);
- ``warm_speedup_ge_5x`` — the acceptance floor from the v2 issue: the
  cached run is at least 5x faster than the cold analysis;
- ``violations_stable`` — cold and warm runs render byte-identical
  findings, so the cache never changes lint semantics;
- ``fanout_findings_stable`` — a ``jobs=2`` process fan-out renders
  the same findings as the serial run (parallelism never changes
  lint semantics either);
- ``fanout_warm_replays`` — a warm fan-out run still replays every
  record from cache (the cache and the pool compose).

``reprolint_interprocedural``: a call-chain tree (every module calls
its predecessor under a module lock, with a taxonomy ``errors``
module) measured through the interprocedural layer — per-function
summary extraction and call-graph assembly timed separately from the
lint run — with the corresponding claims:

- ``interproc_warm_replays`` — a warm run with R113/R120 enabled
  replays every record and recomputes only the call-graph pass;
- ``interproc_findings_stable`` — cold and warm interprocedural runs
  render byte-identical findings;
- ``tree_clean`` — the synthetic chain is clean (no false positives);
- ``r113_probe_exact_one`` / ``r120_probe_exact_one`` — one seeded
  mutation probe per family yields exactly one finding;
- ``callee_edit_flips_caller`` — editing only a callee's body on a
  warm cache re-lints its caller (summary invalidation): the caller
  replays from cache yet gains the new transitive finding.

The trees are generated, not the live repo, so the measurement is
deterministic in (size, seed) and independent of unrelated source
churn.  Modules carry docstrings, ``__all__`` exports, numpy
arithmetic, and an acyclic import chain so every pass family (per-file
rules, R007 cycle detection, summaries) does real work.
"""

import ast
import sys
import tempfile
import textwrap
import types
from pathlib import Path

from harness import benchmark

from repro.utils.timing import measure

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT) not in sys.path:  # tools.* lives at the repo root
    sys.path.insert(0, str(_REPO_ROOT))

from tools.reprolint.callgraph import (build_call_graph,  # noqa: E402
                                       module_dependencies)
from tools.reprolint.config import Config  # noqa: E402
from tools.reprolint.cycles import module_name_for  # noqa: E402
from tools.reprolint.engine import lint_paths  # noqa: E402
from tools.reprolint.summaries import extract_summaries  # noqa: E402

_MODULE_TEMPLATE = '''\
"""Synthetic lint-corpus module {index}."""

{import_line}import numpy as np

__all__ = ["combine_{index}", "total_{index}"]


def combine_{index}(left, right):
    """Blend two operands through a rank-{rank} product.

    Args:
        left: left operand, broadcast against the product.
        right: right operand, broadcast against the product.
    """
    lhs = np.zeros(({rows}, {rank}))
    rhs = np.zeros(({rank}, {cols}))
    product = lhs @ rhs
    return product.sum(axis=0) + left + right


def total_{index}(values, weights=None):
    """Weighted total of ``values``.

    Args:
        values: array of addends.
        weights: optional multiplicative weights.
    """
    stacked = np.asarray(values, dtype=float)
    if weights is not None:
        stacked = stacked * weights
    return float(stacked.sum(axis=None))
'''


def _write_tree(root, n_modules, seed):
    """A clean, rule-exercising package of ``n_modules`` modules."""
    package = root / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        '"""Synthetic lint corpus."""\n\n__all__ = []\n')
    for index in range(n_modules):
        import_line = (f"from pkg import mod_{index - 1}\n"
                       if index else "")
        source = _MODULE_TEMPLATE.format(
            index=index, import_line=import_line,
            rank=2 + (seed + index) % 5,
            rows=3 + (seed + 2 * index) % 7,
            cols=4 + (seed + 3 * index) % 6)
        (package / f"mod_{index}.py").write_text(
            textwrap.dedent(source))
    return package


@benchmark(name="reprolint_incremental_cache",
           tags=("tooling", "perf"),
           sizes={"smoke": {"n_modules": 40},
                  "full": {"n_modules": 160}},
           time_metrics=("cold_seconds", "warm_seconds",
                         "warm_speedup", "fanout_cold_seconds",
                         "fanout_warm_seconds"))
def bench_reprolint_incremental_cache(params, seed):
    """L1: warm cached lint replays every record and is >=5x faster."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        package = _write_tree(root, params["n_modules"], seed)
        config = Config(root=root)
        cache = root / "lint.cache.json"

        def lint():
            return lint_paths([str(package)], config=config,
                              cache=str(cache))

        cold = measure(lint, warmup=0, repeats=1)
        warm = measure(lint, warmup=1, repeats=3)

        checked = warm.result.files_checked
        hits = warm.result.cache_hits
        hit_rate = hits / max(checked, 1)
        speedup = cold.mean_seconds / max(warm.mean_seconds, 1e-12)
        stable = ([v.render() for v in cold.result.violations]
                  == [v.render() for v in warm.result.violations])

        # Jobs scaling: the same tree through a jobs=2 process
        # fan-out, cold (fresh cache) then warm.  Wall time is
        # recorded for the baseline; the claims are semantic — the
        # pool must not change findings, and a warm fan-out must
        # still replay every record from cache.
        fanout_cache = root / "lint.fanout.cache.json"

        def lint_fanout():
            return lint_paths([str(package)], config=config,
                              cache=str(fanout_cache), jobs=2)

        fanout_cold = measure(lint_fanout, warmup=0, repeats=1)
        fanout_warm = measure(lint_fanout, warmup=0, repeats=1)
        fanout_stable = (
            [v.render() for v in fanout_cold.result.violations]
            == [v.render() for v in cold.result.violations])
        fanout_replays = (
            fanout_warm.result.cache_hits
            == fanout_warm.result.files_checked
            and fanout_warm.result.cache_misses == 0)
    return {
        "cold_seconds": cold.mean_seconds,
        "warm_seconds": warm.mean_seconds,
        "warm_speedup": speedup,
        "cache_hit_rate": hit_rate,
        "cache_fully_warm": int(hits == checked
                                and warm.result.cache_misses == 0),
        "warm_speedup_ge_5x": int(speedup >= 5.0),
        "violations_stable": int(stable),
        "fanout_cold_seconds": fanout_cold.mean_seconds,
        "fanout_warm_seconds": fanout_warm.mean_seconds,
        "fanout_findings_stable": int(fanout_stable),
        "fanout_warm_replays": int(fanout_replays),
        "files_checked": checked,
    }


_ERRORS_TEMPLATE = '''\
"""Synthetic project error taxonomy for the interproc corpus."""

__all__ = ["ChainError", "ValidationError"]


class ChainError(Exception):
    """Base class for synthetic chain failures."""


class ValidationError(ChainError):
    """An operand failed validation."""
'''

_CHAIN_TEMPLATE = '''\
"""Synthetic interproc chain module {index}."""

import threading

{import_line}from pkg.errors import ValidationError

__all__ = ["check_{index}", "work_{index}"]

_LOCK_{index} = threading.Lock()


def check_{index}(value):
    """Validate a chain operand.

    Args:
        value: candidate value.

    Raises:
        ValidationError: if ``value`` is negative.
    """
    if value < 0:
        raise ValidationError("negative chain operand")
    return value


def work_{index}(value):
    """Chain step {index}: validate, then recurse down the chain.

    Args:
        value: accumulated value.
    """
    with _LOCK_{index}:
        staged = check_{index}(value + {index})
        result = {tail_expr}
    return result
'''

_CHAIN_BLOCKING_TEMPLATE = '''\
"""Synthetic interproc chain module {index} (edited: now blocks)."""

import threading
import time

from pkg.errors import ValidationError

__all__ = ["check_{index}", "work_{index}"]

_LOCK_{index} = threading.Lock()


def check_{index}(value):
    """Validate a chain operand.

    Args:
        value: candidate value.

    Raises:
        ValidationError: if ``value`` is negative.
    """
    if value < 0:
        raise ValidationError("negative chain operand")
    return value


def work_{index}(value):
    """Chain step {index}: validate, then stall.

    Args:
        value: accumulated value.
    """
    with _LOCK_{index}:
        staged = check_{index}(value + {index})
        time.sleep(0.001)
    return staged
'''

_R113_PROBE = '''\
"""R113 mutation probe: a sleep while a module lock is held."""

import threading
import time

__all__ = ["stall"]

_GATE = threading.Lock()


def stall():
    """Hold the gate across a sleep."""
    with _GATE:
        time.sleep(0.001)
'''

_R120_PROBE = '''\
"""R120 mutation probe: a public raise with no Raises: section."""

from pkg.errors import ValidationError

__all__ = ["guard"]


def guard(value):
    """Reject negatives without documenting the contract.

    Args:
        value: candidate value.
    """
    if value < 0:
        raise ValidationError("negative probe operand")
    return value
'''


def _write_interproc_tree(root, n_modules):
    """A clean call-chain package: each module's ``work_i`` calls its
    predecessor while holding its own module lock (consistent order,
    no blocking), and every taxonomy raise is documented."""
    package = root / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        '"""Synthetic interproc corpus."""\n\n__all__ = []\n')
    (package / "errors.py").write_text(_ERRORS_TEMPLATE)
    for index in range(n_modules):
        import_line = (f"from pkg.mod_{index - 1} "
                       f"import work_{index - 1}\n" if index else "")
        tail_expr = (f"work_{index - 1}(staged)" if index
                     else "staged")
        (package / f"mod_{index}.py").write_text(
            _CHAIN_TEMPLATE.format(index=index,
                                   import_line=import_line,
                                   tail_expr=tail_expr))
    return package


_INTERPROC_SELECT = ("R113", "R120")


@benchmark(name="reprolint_interprocedural",
           tags=("tooling", "perf"),
           sizes={"smoke": {"n_modules": 24},
                  "full": {"n_modules": 96}},
           time_metrics=("summary_seconds", "callgraph_seconds",
                         "cold_seconds", "warm_seconds"))
def bench_reprolint_interprocedural(params, seed):
    """L1: summary/call-graph build cost and warm interproc replay."""
    del seed  # the chain corpus is fully determined by its size
    n_modules = params["n_modules"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        package = _write_interproc_tree(root, n_modules)
        config = Config(root=root)
        package_roots = {"pkg": "pkg"}

        # Isolated build metrics: parse once, then time the two
        # interprocedural stages — per-function effect summaries and
        # call-graph assembly — separately from the full lint run.
        rels = sorted(p.relative_to(root).as_posix()
                      for p in package.glob("*.py"))
        trees = {rel: ast.parse((root / rel).read_text())
                 for rel in rels}

        def build_summaries():
            return {
                rel: extract_summaries(
                    trees[rel], module_name_for(rel, package_roots))
                for rel in rels}

        summary_timing = measure(build_summaries, warmup=0, repeats=3)
        records = {
            rel: types.SimpleNamespace(summaries=summaries,
                                       imports=())
            for rel, summaries in summary_timing.result.items()}

        def build_graph():
            return build_call_graph(records, package_roots)

        graph_timing = measure(build_graph, warmup=0, repeats=3)
        graph = graph_timing.result
        edges = sum(len(deps) for deps in
                    module_dependencies(records,
                                        package_roots).values())

        # Cold populate, warm replay: the per-file records come back
        # from cache while the call-graph pass recomputes.
        cache = root / "lint.cache.json"

        def lint():
            return lint_paths([str(package)], config=config,
                              select=_INTERPROC_SELECT,
                              cache=str(cache))

        cold = measure(lint, warmup=0, repeats=1)
        warm = measure(lint, warmup=0, repeats=1)
        checked = warm.result.files_checked
        warm_replays = (warm.result.cache_hits == checked
                        and warm.result.cache_misses == 0)
        stable = ([v.render() for v in cold.result.violations]
                  == [v.render() for v in warm.result.violations])
        tree_clean = not cold.result.violations

        # Summary invalidation: edit only the deepest callee's body so
        # it blocks under its lock.  The warm re-lint must refresh that
        # one record, replay every caller from cache, and still flip
        # the immediate caller to a transitive R113 finding.
        (package / "mod_0.py").write_text(
            _CHAIN_BLOCKING_TEMPLATE.format(index=0))
        edited = lint()
        flipped = (edited.cache_misses == 1
                   and edited.cache_hits == checked - 1
                   and any(v.path.endswith("mod_1.py")
                           for v in edited.violations))

        # Mutation probes: one seeded defect per family in an
        # otherwise-clean two-module chain, each exactly one finding.
        probe_root = root / "probes"
        probe_pkg = _write_interproc_tree(probe_root, 2)
        (probe_pkg / "probe_block.py").write_text(_R113_PROBE)
        (probe_pkg / "probe_raise.py").write_text(_R120_PROBE)
        probe_config = Config(root=probe_root)
        r113 = lint_paths([str(probe_pkg)], config=probe_config,
                          select=("R113",))
        r120 = lint_paths([str(probe_pkg)], config=probe_config,
                          select=("R120",))
    return {
        "summary_seconds": summary_timing.mean_seconds,
        "callgraph_seconds": graph_timing.mean_seconds,
        "cold_seconds": cold.mean_seconds,
        "warm_seconds": warm.mean_seconds,
        "callgraph_functions": len(graph.functions),
        "callgraph_edges": edges,
        "interproc_warm_replays": int(warm_replays),
        "interproc_findings_stable": int(stable),
        "tree_clean": int(tree_clean),
        "callee_edit_flips_caller": int(flipped),
        "r113_probe_exact_one": int(
            len(r113.violations) == 1
            and r113.violations[0].rule == "R113"),
        "r120_probe_exact_one": int(
            len(r120.violations) == 1
            and r120.violations[0].rule == "R120"),
        "files_checked": checked,
    }
