"""The assembled rule registry.

The dataflow-backed rule families (R111 hot-path allocation, R112
concurrency safety) live in their own modules and import the
:class:`~tools.reprolint.rules.Rule` base — so the combined catalogue
cannot live in :mod:`tools.reprolint.rules` without a cycle.  This
module is the single place the engine and CLI look up "every per-file
rule" and "every rule summary".
"""

from __future__ import annotations

from tools.reprolint.concurrency import ConcurrencySafety
from tools.reprolint.hotpath import HotPathAllocation
from tools.reprolint.rules import FILE_RULES as _BASE_FILE_RULES

__all__ = ["CATALOGUE", "FILE_RULES", "RULES"]

#: Every per-file rule instance, in catalogue order.
FILE_RULES = (*_BASE_FILE_RULES, HotPathAllocation(),
              ConcurrencySafety())

#: code -> one-line summary for ``--list-rules``.  R007 is the
#: project-level cycle check from :mod:`tools.reprolint.cycles`;
#: R113/R120 are the interprocedural families from
#: :mod:`tools.reprolint.callgraph` — all three run on the assembled
#: records rather than per file, so they have no Rule instance.
RULES = {rule.code: rule.summary for rule in FILE_RULES}
RULES["R007"] = "import cycle between modules of the linted package"
RULES["R113"] = ("lock/blocking discipline: blocking calls reached "
                 "while a threading lock is held (transitively), "
                 "inconsistent lock order, worker submitted under a "
                 "lock it also takes")
RULES["R120"] = ("exception-contract flow: transitive raises missing "
                 "from Raises: docstrings, public APIs raising outside "
                 "the error taxonomy, provably unreachable except "
                 "clauses")
RULES = dict(sorted(RULES.items()))

#: code -> catalogue entry for ``--explain`` (and for SARIF/CI
#: annotations to link somewhere): what the rule proves, an example
#: finding as it would print, and how to fix one.
CATALOGUE = {
    "R001": {
        "description": (
            "Flags np.random.* calls outside repro.utils.rng. Every "
            "random draw must route through the project RNG helpers so "
            "one seed reproduces the whole pipeline."),
        "example": ("src/repro/corpus.py:12:8: R001 np.random.rand "
                    "call; route randomness through repro.utils.rng"),
        "fix": ("Accept a Generator built by repro.utils.rng (or take "
                "one as a parameter) instead of calling np.random "
                "directly; sanction intentional sites via r001-allow."),
    },
    "R002": {
        "description": (
            "Flags == / != comparisons against float literals, which "
            "silently depend on exact binary representation."),
        "example": ("src/repro/linalg/svd.py:40:11: R002 float "
                    "equality comparison; use math.isclose or an "
                    "explicit tolerance"),
        "fix": ("Compare with an explicit tolerance "
                "(np.isclose/math.isclose) or restructure to avoid "
                "exact float equality."),
    },
    "R003": {
        "description": (
            "Flags mutable default arguments (list/dict/set literals), "
            "which alias one object across every call."),
        "example": ("src/repro/serving/engine.py:88:23: R003 mutable "
                    "default argument"),
        "fix": "Default to None and materialise inside the function.",
    },
    "R004": {
        "description": (
            "Flags dense materialization of sparse matrices (toarray, "
            "todense, np.asarray on sparse) outside sanctioned linalg "
            "paths; term-document matrices must stay sparse."),
        "example": ("src/repro/corpus.py:61:15: R004 dense "
                    "materialization of a sparse matrix"),
        "fix": ("Keep the operand sparse (scipy.sparse ops, matvec "
                "products); sanction deliberate densification via "
                "r004-allow."),
    },
    "R005": {
        "description": (
            "Flags bare or overbroad except clauses that swallow "
            "without re-raising; errors in numerical code must "
            "surface, not decay into silent wrong answers."),
        "example": ("src/repro/serving/dispatch.py:200:8: R005 "
                    "overbroad except clause that does not re-raise"),
        "fix": ("Catch the specific exception, or re-raise after the "
                "cleanup; suppress only with an inline rationale."),
    },
    "R006": {
        "description": (
            "Requires public modules to declare a well-formed __all__ "
            "naming only defined exports, keeping the public surface "
            "deliberate."),
        "example": ("src/repro/serving/bundle.py:1:0: R006 __all__ "
                    "missing"),
        "fix": ("Add __all__ listing the intended exports; exempt "
                "scripts via r006-exempt."),
    },
    "R007": {
        "description": (
            "Project pass over the assembled import records: flags "
            "import cycles between modules of the linted package."),
        "example": ("src/repro/serving/engine.py:3:0: R007 import "
                    "cycle: repro.serving.engine -> repro.serving."
                    "bundle -> repro.serving.engine"),
        "fix": ("Break the cycle — move the shared piece into a leaf "
                "module or defer one import into the function that "
                "needs it."),
    },
    "R111": {
        "description": (
            "Hot-path allocation: assign-back temporaries, eager "
            "densification and per-call allocation inside loops on "
            "configured hot paths (r111-scope)."),
        "example": ("src/repro/serving/engine.py:140:12: R111 "
                    "allocation inside the per-query loop"),
        "fix": ("Hoist the allocation out of the loop or reuse a "
                "preallocated buffer (out= variants)."),
    },
    "R112": {
        "description": (
            "Concurrency safety: shared mutable state captured by "
            "pool workers, fork-unsafe module state, and executor "
            "misuse on configured paths (r112-scope)."),
        "example": ("src/repro/serving/sharded.py:310:8: R112 worker "
                    "closes over shared mutable state without a lock"),
        "fix": ("Pass state explicitly to the worker or guard it with "
                "the owning lock."),
    },
    "R113": {
        "description": (
            "Lock/blocking discipline on the project call graph: a "
            "blocking operation (Future.result, queue.get, sleep, "
            "file/array I/O, executor shutdown) executed — or reached "
            "through any chain of calls — while a threading.Lock/"
            "RLock is held; lock pairs acquired in opposite orders in "
            "different functions; and a worker submitted to a pool "
            "while the submitter holds a lock the worker also "
            "acquires."),
        "example": ("src/repro/serving/sharded.py:595:12: R113 "
                    "pool.shutdown(wait=True) while holding "
                    "ShardedIndex._pool_lock: every other thread "
                    "contending for the lock stalls behind this wait "
                    "(and a dependent task deadlocks); release the "
                    "lock before blocking"),
        "fix": ("Copy what you need under the lock, release it, then "
                "block; keep one global lock-acquisition order; never "
                "hold a lock the submitted worker needs."),
    },
    "R120": {
        "description": (
            "Exception-contract flow on the project call graph: "
            "taxonomy exceptions a public API can raise transitively "
            "but its Raises: docstring section omits; public APIs "
            "raising taxonomy exceptions with no Raises: section at "
            "all; public APIs raising builtin exceptions outside the "
            "repro.errors taxonomy; and except clauses no resolved "
            "callee can ever trigger."),
        "example": ("src/repro/serving/dispatch.py:141:4: R120 public "
                    "submit() raises DispatcherClosedError, "
                    "ValidationError but its docstring has no "
                    "Raises: section; document the exception "
                    "contract (callers cannot handle what the docs "
                    "never promise)"),
        "fix": ("Document every taxonomy exception (or a base class) "
                "in a Raises: section; wrap builtin raises in the "
                "matching repro.errors type; delete handlers nothing "
                "can reach."),
    },
}
