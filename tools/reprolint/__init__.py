"""reprolint — a repo-aware static-analysis pass for numerical correctness.

The paper's guarantees (Theorems 2-5) hold only under disciplined
randomness and exact spectral bookkeeping: a silently reseeded global RNG
invalidates every probabilistic claim, and an accidental dense
materialization of a sparse term-document matrix destroys the
``O(m*l*(l+c))`` two-step speedup of section 5.  reprolint encodes those
repo-specific invariants as AST lint rules (stdlib :mod:`ast` only, no
runtime dependencies):

=====  ==============================================================
Rule   Checks
=====  ==============================================================
R001   RNG discipline: no ``np.random.*`` calls outside the blessed
       :mod:`repro.utils.rng` module (use ``as_generator`` /
       ``spawn_generators``).
R002   Float-literal ``==`` / ``!=`` comparisons.
R003   Mutable default arguments.
R004   Dense materialization of sparse matrices (``.toarray()``,
       ``.todense()``, ``.to_dense()``, ``np.asarray(sparse)``)
       outside an allowlist.
R005   Bare or overbroad ``except`` clauses that swallow exceptions.
R006   ``__all__`` consistency: every public module declares
       ``__all__`` and every exported name exists.
R007   Import cycles between modules of the linted package.
R111   Hot-path allocation: assign-back temporaries with an in-place
       / ``out=`` form, eager ``np.load`` without ``mmap_mode``, and
       loop-invariant ``np.linalg.norm`` recomputation (scoped via
       ``r111-scope``).
R112   Concurrency safety: module-level mutable state or shared
       Generators reachable from pool workers, non-picklable
       submissions to process pools, and unsynchronized cache
       classes (scoped via ``r112-scope``).
R113   Lock/blocking discipline (interprocedural): blocking calls
       reached — directly or through the call graph — while a
       ``threading`` lock is held, inconsistent lock-acquisition
       order across functions, and workers submitted under a lock
       they themselves acquire (scoped via ``r113-scope``).
R120   Exception-contract flow (interprocedural): transitively
       raised taxonomy exceptions, less those caught around the
       call, missing from ``Raises:`` docstrings, public APIs raising builtins outside the
       ``repro.errors`` taxonomy, and provably unreachable
       ``except`` clauses (scoped via ``r120-scope``).
=====  ==============================================================

The interprocedural families run on a project call graph assembled
from per-function effect summaries (raised exceptions, locks held,
blocking calls) that travel with the cached per-file records.

Violations are suppressed per line with ``# reprolint: disable=Rxxx``
and configured through the ``[tool.reprolint]`` table of
``pyproject.toml``.  Run as ``python -m tools.reprolint src/repro`` or
through the packaged CLI as ``repro lint``.  ``--fix`` applies the
safe, idempotent autofixes (R003/R005/R006/R111); ``--cache`` enables
the content-hash incremental cache; ``--explain Rxxx`` prints one
rule's catalogue entry; ``--format sarif``/``github`` target CI
surfaces.
"""

from tools.reprolint.config import Config, load_config
from tools.reprolint.engine import LintResult, Violation, lint_paths
from tools.reprolint.registry import RULES
from tools.reprolint.reporters import render_json, render_text

__all__ = [
    "Config",
    "LintResult",
    "RULES",
    "Violation",
    "lint_paths",
    "load_config",
    "main",
    "render_json",
    "render_text",
]


def main(argv=None) -> int:
    """Console entry point; see :mod:`tools.reprolint.cli`."""
    from tools.reprolint.cli import main as cli_main

    return cli_main(argv)
