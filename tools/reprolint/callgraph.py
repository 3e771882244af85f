"""The project call graph and the interprocedural rule passes.

This is the project half of the interprocedural layer: it assembles the
per-file effect summaries (:mod:`tools.reprolint.summaries`) persisted
in every :class:`~tools.reprolint.cache.FileRecord` into one resolved
call graph, then recomputes the cross-function conclusions from scratch
each run.  Like the R007 project pass, *recompute-from-records* is
the invalidation story: editing only a callee's body refreshes that
one record, and because every caller's findings are re-derived against
the new summary, callers that did not change still get new conclusions
— cheaply, since their own per-file analysis replays from the cache.

Resolution goes through the same dotted-origin space as
:class:`~tools.reprolint.dataflow.ImportMap`: a call reference is an
absolute origin, a bare local name, a ``self.method`` (resolved through
the enclosing class and its recorded bases, i.e. method calls on
inferred self types), or a method on a variable whose class a
constructor call pinned.  Package ``__init__`` re-exports are followed
through the cached import records, so ``repro.serving.ServedIndex``
resolves to ``repro.serving.index.ServedIndex``.

Two rule families run on the resolved graph:

- **R113 lock/blocking discipline** — a blocking operation (or a call
  that transitively reaches one) while a ``threading.Lock``/``RLock``
  token is held; inconsistent lock-acquisition order across functions;
  a worker submitted to a pool while the submitter holds a lock the
  worker also acquires;
- **R120 exception-contract flow** — transitively raised taxonomy
  exceptions missing from an existing ``Raises:`` docstring section
  (less what an enclosing ``try`` catches at the call site);
  public APIs directly raising taxonomy exceptions with no ``Raises:``
  section at all; public APIs raising builtin exceptions outside the
  project's ``errors`` taxonomy; ``except`` clauses provably
  unreachable from the callee set.

Every check fails open: an unresolved callee or a foreign package
contributes nothing, so the families only speak when
both sides of a conclusion are positively known.
"""

from __future__ import annotations

from pathlib import Path

from tools.reprolint.cycles import module_name_for
from tools.reprolint.summaries import BUILTIN_EXCEPTIONS
from tools.reprolint.violations import Violation

__all__ = ["CallGraph", "build_call_graph", "check_interprocedural",
           "module_dependencies"]

#: Resolution fuel: alias expansion and base-class walks are bounded so
#: pathological self-referential import graphs cannot loop.
_FUEL = 16

#: Builtin exceptions a public API may raise without R120 comment —
#: idiomatic control-flow and abstractness markers, not contract
#: surface.
_EXEMPT_BUILTINS = frozenset({
    "NotImplementedError", "StopIteration", "StopAsyncIteration",
    "KeyboardInterrupt", "SystemExit", "AssertionError",
})


class CallGraph:
    """Every module's summaries, resolved into one function universe."""

    def __init__(self):
        #: function id (``module.qualname``) -> summary dict.
        self.functions: dict = {}
        #: class id (``module.ClassName``) -> class record.
        self.classes: dict = {}
        #: function/class id -> root-relative path of its file.
        self.paths: dict = {}
        #: function id -> its module id.
        self.module_of: dict = {}
        #: re-export aliases: dotted prefix -> dotted replacement.
        self.aliases: dict = {}
        #: every module id in the graph.
        self.modules: set = set()
        #: top-level package names covered by the graph.
        self.roots: set = set()
        self._blocking_memo: dict = {}
        self._locks_memo: dict = {}
        self._raises_memo: dict = {}
        self._taxonomy: "frozenset | None" = None
        self._ancestor_memo: dict = {}

    # ------------------------------------------------------------------
    # Reference resolution
    # ------------------------------------------------------------------

    def expand(self, dotted: str) -> str:
        """Follow re-export aliases to a canonical dotted name."""
        for _ in range(_FUEL):
            prefix = dotted
            while prefix and prefix not in self.aliases:
                prefix = prefix.rpartition(".")[0]
            if not prefix:
                return dotted
            dotted = self.aliases[prefix] + dotted[len(prefix):]
        return dotted

    def _class_method(self, class_id: str,
                      method: str) -> "str | None":
        """Resolve ``method`` through ``class_id``'s recorded bases."""
        queue = [class_id]
        seen = set()
        for _ in range(_FUEL):
            if not queue:
                return None
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            record = self.classes.get(current)
            if record is None:
                continue
            if method in record["methods"]:
                return f"{current}.{method}"
            module = self.module_of.get(current, "")
            for base in record.get("bases", ()):
                base_id = self._class_ref_id(module, base)
                if base_id is not None:
                    queue.append(base_id)
        return None

    def _class_ref_id(self, module: str, ref: dict) -> "str | None":
        if ref["kind"] == "origin":
            candidate = self.expand(ref["target"])
        elif ref["kind"] == "local":
            candidate = f"{module}.{ref['target']}"
        else:
            return None
        return candidate if candidate in self.classes else None

    def _resolve_dotted(self, dotted: str) -> "str | None":
        """The function id a dotted name lands on, if summarised."""
        dotted = self.expand(dotted)
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            init = f"{dotted}.__init__"
            # None for a class with no summarised __init__.
            return init if init in self.functions else None
        head, _, attr = dotted.rpartition(".")
        if head and head in self.classes:
            return self._class_method(head, attr)  # Class.method access
        return None

    def resolve(self, module: str, ref: dict) -> "str | None":
        """The function id one call reference lands on.

        Returns ``None`` when the reference does not land on a
        summarised function.
        """
        kind = ref.get("kind")
        if kind in ("origin", "local"):
            dotted = ref["target"] if kind == "origin" \
                else f"{module}.{ref['target']}"
            return self._resolve_dotted(dotted)
        if kind in ("self", "var"):
            if kind == "self":
                summary_cls = ref.get("_cls")
                class_id = f"{module}.{summary_cls}" \
                    if summary_cls else None
            else:
                class_id = self._class_ref_id(module, ref["cls"]) \
                    if isinstance(ref.get("cls"), dict) else None
            if class_id is None:
                return None
            method_name = ref["target"] if kind == "self" \
                else ref["method"]
            return self._class_method(class_id, method_name)
        return None

    def is_foreign(self, ref: dict) -> bool:
        """True when a reference provably leaves the linted packages.

        Such calls cannot raise taxonomy exceptions or touch project
        locks, so ``try`` bodies containing them stay decidable.
        """
        if ref.get("kind") == "builtin":
            return True
        if ref.get("kind") != "origin":
            return False
        root = self.expand(ref["target"]).split(".", 1)[0]
        return root not in self.roots

    # ------------------------------------------------------------------
    # Transitive closures (memoized, cycle-safe)
    # ------------------------------------------------------------------

    def _normalise_token(self, fid: str, token: str) -> str:
        module = self.module_of.get(fid, "")
        kind, _, rest = token.partition(":")
        if kind in ("a", "f", "g"):
            return f"{module}.{rest}"
        return token

    def blocking_chain(self, fid: str) -> "list | None":
        """Witness chain ``[qualname, ..., op]`` if ``fid`` can block."""
        memo = self._blocking_memo
        if fid in memo:
            return memo[fid]
        memo[fid] = None  # in-progress marker: cycles do not block
        summary = self.functions.get(fid)
        if summary is None:
            return None
        short = summary["name"]
        for op in summary.get("blocking", ()):
            memo[fid] = [short, op["op"]]
            return memo[fid]
        for call in summary.get("calls", ()):
            resolved = self._resolve_call(fid, call)
            if resolved is None:
                continue
            chain = self.blocking_chain(resolved)
            if chain is not None:
                memo[fid] = [short, *chain]
                return memo[fid]
        return None

    def locks_closure(self, fid: str) -> frozenset:
        """Every lock token ``fid`` (or a callee) may acquire."""
        memo = self._locks_memo
        if fid in memo:
            return memo[fid]
        memo[fid] = frozenset()  # in-progress marker
        summary = self.functions.get(fid)
        if summary is None:
            return frozenset()
        tokens = {self._normalise_token(fid, token)
                  for token in summary.get("locks", ())}
        for call in summary.get("calls", ()):
            resolved = self._resolve_call(fid, call)
            if resolved is not None:
                tokens |= self.locks_closure(resolved)
        memo[fid] = frozenset(tokens)
        return memo[fid]

    def raises_closure(self, fid: str) -> frozenset:
        """Canonical exception keys ``fid`` may raise, transitively.

        Keys are taxonomy class ids or ``("b", builtin-name)`` pairs;
        unresolved raise references and unresolved callees contribute
        nothing (fail-open).  What a callee raises inside a ``try``
        whose handler catches it (the type or an ancestor) stays there.
        """
        memo = self._raises_memo
        if fid in memo:
            return memo[fid]
        memo[fid] = frozenset()  # in-progress marker
        summary = self.functions.get(fid)
        if summary is None:
            return frozenset()
        module = self.module_of.get(fid, "")
        keys = set()
        for record in summary.get("raises", ()):
            key = self.exception_key(module, record["ref"])
            if key is not None:
                keys.add(key)
        for call in summary.get("calls", ()):
            resolved = self._resolve_call(fid, call)
            if resolved is None:
                continue
            handled = [self.exception_key(module, ref)
                       for ref in call.get("handled", ())]
            keys |= {key for key in self.raises_closure(resolved)
                     if not any(self.key_matches(key, caught)
                                for caught in handled)}
        memo[fid] = frozenset(keys)
        return memo[fid]

    def _resolve_call(self, fid: str, call: dict) -> "str | None":
        ref = dict(call["ref"])
        if ref.get("kind") == "self":
            ref["_cls"] = self.functions[fid].get("cls")
        return self.resolve(self.module_of.get(fid, ""), ref)

    # ------------------------------------------------------------------
    # Exception taxonomy
    # ------------------------------------------------------------------

    @property
    def taxonomy(self) -> frozenset:
        """Class ids forming the project's ``errors`` taxonomy.

        Seeded by every ``*Error`` class defined in a module whose last
        component is ``errors``, closed under recorded subclassing.
        """
        if self._taxonomy is not None:
            return self._taxonomy
        seeds = {cid for cid in self.classes
                 if cid.rsplit(".", 2)[-2:-1] == ["errors"]
                 and cid.rsplit(".", 1)[-1].endswith("Error")}
        members = set(seeds)
        changed = True
        while changed:
            changed = False
            for cid, record in self.classes.items():
                if cid in members:
                    continue
                module = self.module_of.get(cid, "")
                for base in record.get("bases", ()):
                    base_id = self._class_ref_id(module, base)
                    if base_id in members:
                        members.add(cid)
                        changed = True
                        break
        self._taxonomy = frozenset(members)
        return self._taxonomy

    def exception_key(self, module: str, ref: dict):
        """Canonical key for a raised/caught exception reference."""
        kind = ref.get("kind")
        if kind == "builtin":
            return ("b", ref["target"])
        if kind == "origin":
            candidate = self.expand(ref["target"])
        elif kind == "local":
            candidate = f"{module}.{ref['target']}"
        else:
            return None
        if candidate in self.classes:
            return candidate
        name = candidate.rsplit(".", 1)[-1]
        return ("b", name) if name in BUILTIN_EXCEPTIONS else None

    def ancestors(self, class_id: str) -> frozenset:
        """Every recorded ancestor key of ``class_id`` (classes + builtins)."""
        if class_id in self._ancestor_memo:
            return self._ancestor_memo[class_id]
        self._ancestor_memo[class_id] = frozenset()  # cycle guard
        record = self.classes.get(class_id)
        if record is None:
            return frozenset()
        module = self.module_of.get(class_id, "")
        found = set()
        for base in record.get("bases", ()):
            if base.get("kind") == "builtin":
                found.add(("b", base["target"]))
                continue
            base_id = self._class_ref_id(module, base)
            if base_id is not None:
                found.add(base_id)
                found |= self.ancestors(base_id)
            elif base.get("kind") == "local" \
                    and base["target"] in BUILTIN_EXCEPTIONS:
                found.add(("b", base["target"]))
        self._ancestor_memo[class_id] = frozenset(found)
        return self._ancestor_memo[class_id]

    def key_name(self, key) -> str:
        """Display name of an exception key."""
        if isinstance(key, tuple):
            return key[1]
        return key.rsplit(".", 1)[-1]

    def key_matches(self, raised, caught) -> bool:
        """Whether raising ``raised`` is caught by ``caught``."""
        if raised == caught:
            return True
        if isinstance(raised, str):
            return caught in self.ancestors(raised)
        return False


def build_call_graph(records: dict, package_roots: dict) -> CallGraph:
    """Assemble every record's summaries into one resolved graph."""
    graph = CallGraph()
    module_paths: dict = {}
    for rel, record in records.items():
        summaries = getattr(record, "summaries", None)
        if not summaries:
            continue
        module = module_name_for(rel, package_roots) \
            or Path(rel).stem
        module_paths[module] = rel
        graph.modules.add(module)
        graph.roots.add(module.split(".", 1)[0])
        for qualname, summary in summaries.get("functions",
                                               {}).items():
            fid = f"{module}.{qualname}"
            graph.functions[fid] = summary
            graph.paths[fid] = rel
            graph.module_of[fid] = module
        for name, class_record in summaries.get("classes",
                                                {}).items():
            cid = f"{module}.{name}"
            graph.classes[cid] = class_record
            graph.paths[cid] = rel
            graph.module_of[cid] = module
    # Re-export aliases from the cached import records, so origins that
    # name a package surface (repro.serving.ServedIndex) chase down to
    # the defining module.
    for rel, record in records.items():
        module = module_name_for(rel, package_roots)
        if module is None:
            continue
        is_package = rel.endswith("/__init__.py") \
            or rel == "__init__.py"
        package = module if is_package \
            else (module.rsplit(".", 1)[0] if "." in module else module)
        for imp in getattr(record, "imports", ()):
            if imp.get("kind") != "from":
                continue
            base = _from_base(imp, package)
            if base is None:
                continue
            for name in imp.get("names", ()):
                if name == "*":
                    continue
                alias = f"{module}.{name}"
                target = f"{base}.{name}"
                if alias != target:
                    graph.aliases[alias] = target
    return graph


def _from_base(record: dict, package: str) -> "str | None":
    if record.get("level", 0) == 0:
        return record.get("module")
    parts = package.split(".")
    if record["level"] > len(parts):
        return None
    base = parts[:len(parts) - record["level"] + 1]
    if record.get("module"):
        base.append(record["module"])
    return ".".join(base)


def module_dependencies(records: dict, package_roots: dict) -> dict:
    """``{rel-path: set-of-rel-paths}`` of summary-level dependencies.

    File A depends on file B when any call reference in A's summaries
    resolves to a function defined in B: the file-level edges along
    which a callee edit can change conclusions about its callers.
    """
    graph = build_call_graph(records, package_roots)
    dependencies: dict = {rel: set() for rel in records}
    for fid, summary in graph.functions.items():
        source = graph.paths[fid]
        for call in summary.get("calls", ()):
            resolved = graph._resolve_call(fid, call)
            if resolved is None:
                continue
            target = graph.paths.get(resolved)
            if target is not None and target != source:
                dependencies[source].add(target)
    return dependencies


# ----------------------------------------------------------------------
# The interprocedural checks
# ----------------------------------------------------------------------

def check_interprocedural(records: dict, package_roots: dict, config,
                          enabled) -> list:
    """Every interprocedural violation for the assembled records."""
    graph = build_call_graph(records, package_roots)
    if not graph.functions:
        return []
    violations: list = []
    if "R113" in enabled:
        violations.extend(_check_r113(graph, config))
    if "R120" in enabled:
        violations.extend(_check_r120(graph, config))
    return violations


def _in_scope(config, rel: str, patterns) -> bool:
    if not patterns:
        return True
    return config.path_matches(Path(config.root) / rel, patterns)


def _token_display(token: str) -> str:
    return ".".join(token.split(".")[-2:])


def _scoped_functions(graph: CallGraph, config, patterns):
    for fid in sorted(graph.functions):
        rel = graph.paths[fid]
        if _in_scope(config, rel, patterns):
            yield fid, graph.functions[fid], rel


# -- R113 --------------------------------------------------------------

def _check_r113(graph: CallGraph, config) -> list:
    patterns = getattr(config, "r113_scope", ())
    violations: list = []
    order_pairs: dict = {}
    for fid, summary, rel in _scoped_functions(graph, config, patterns):
        short = summary["name"]
        for op in summary.get("blocking", ()):
            for token in op.get("held", ()):
                absolute = graph._normalise_token(fid, token)
                violations.append(Violation(
                    path=rel, line=op["line"], col=op["col"],
                    rule="R113",
                    message=(f"{op['op']} while holding "
                             f"{_token_display(absolute)}: every other "
                             "thread contending for the lock stalls "
                             "behind this wait (and a dependent task "
                             "deadlocks); release the lock before "
                             "blocking")))
        for call in summary.get("calls", ()):
            held = call.get("held", ())
            callee = graph._resolve_call(fid, call)
            if callee is None:
                continue
            if held:
                chain = graph.blocking_chain(callee)
                if chain is not None:
                    arrows = " -> ".join([short, *chain])
                    for token in held:
                        absolute = graph._normalise_token(fid, token)
                        violations.append(Violation(
                            path=rel, line=call["line"],
                            col=call["col"], rule="R113",
                            message=(f"call to "
                                     f"{graph.key_name(callee)}() can "
                                     f"block ({arrows}) while holding "
                                     f"{_token_display(absolute)}; "
                                     "move the blocking work outside "
                                     "the lock")))
            # Acquisition-order edges: direct nesting plus locks the
            # callee's closure acquires while these are held.
            callee_locks = graph.locks_closure(callee) if held else ()
            for token in held:
                absolute = graph._normalise_token(fid, token)
                for acquired in callee_locks:
                    if acquired != absolute:
                        order_pairs.setdefault(
                            (absolute, acquired),
                            (rel, call["line"], call["col"], short))
        for outer, inner in summary.get("lock_pairs", ()):
            pair = (graph._normalise_token(fid, outer),
                    graph._normalise_token(fid, inner))
            order_pairs.setdefault(
                pair, (rel, summary["line"], summary["col"], short))
        for submit in summary.get("submits", ()):
            held = submit.get("held", ())
            if not held:
                continue
            worker = graph.resolve(
                graph.module_of.get(fid, ""),
                dict(submit["worker"],
                     _cls=summary.get("cls"))
                if submit["worker"].get("kind") == "self"
                else submit["worker"])
            if worker is None:
                continue
            worker_locks = graph.locks_closure(worker)
            for token in held:
                absolute = graph._normalise_token(fid, token)
                if absolute in worker_locks:
                    violations.append(Violation(
                        path=rel, line=submit["line"],
                        col=submit["col"], rule="R113",
                        message=(f"worker {graph.key_name(worker)}() "
                                 "submitted while holding "
                                 f"{_token_display(absolute)}, and the "
                                 "worker acquires the same lock; if "
                                 "the submitter waits on the result "
                                 "(or the pool is saturated) this "
                                 "deadlocks")))
    for (first, second), witness in sorted(order_pairs.items()):
        if first >= second:
            continue  # report each unordered pair once, from its
            # lexicographically smaller orientation
        reverse = order_pairs.get((second, first))
        if reverse is None:
            continue
        rel, line, col, func = witness
        violations.append(Violation(
            path=rel, line=line, col=col, rule="R113",
            message=(f"inconsistent lock order: {func} acquires "
                     f"{_token_display(first)} then "
                     f"{_token_display(second)}, but {reverse[3]} "
                     f"({reverse[0]}:{reverse[1]}) acquires them in "
                     "the opposite order; two threads taking one lock "
                     "each then waiting for the other deadlock — pick "
                     "one global order")))
    return violations


# -- R120 --------------------------------------------------------------

def _module_public(rel: str) -> bool:
    stem = Path(rel).stem
    return stem == "__init__" or not stem.startswith("_")


def _check_r120(graph: CallGraph, config) -> list:
    patterns = getattr(config, "r120_scope", ())
    taxonomy = graph.taxonomy
    violations: list = []
    for fid, summary, rel in _scoped_functions(graph, config, patterns):
        module = graph.module_of.get(fid, "")
        short = summary["name"]
        is_public_api = summary.get("public") and _module_public(rel)
        direct_keys = []
        for record in summary.get("raises", ()):
            key = graph.exception_key(module, record["ref"])
            if key is not None:
                direct_keys.append((key, record))
        if is_public_api and taxonomy:
            violations.extend(_r120_docstring(
                graph, fid, summary, rel, short, direct_keys))
        violations.extend(_r120_unreachable(graph, fid, summary, rel))
    return violations


def _r120_docstring(graph, fid, summary, rel, short,
                    direct_keys) -> list:
    taxonomy = graph.taxonomy
    violations: list = []
    documented = set(summary.get("doc_raises", ()))
    if summary.get("doc_raises_section"):
        transitive = {key for key in graph.raises_closure(fid)
                      if isinstance(key, str) and key in taxonomy}
        missing = []
        for key in transitive:
            covers = {graph.key_name(key)} | {
                graph.key_name(ancestor)
                for ancestor in graph.ancestors(key)
                if ancestor in taxonomy}
            if not (documented & covers):
                missing.append(graph.key_name(key))
        for name in sorted(set(missing)):
            violations.append(Violation(
                path=rel, line=summary["line"], col=summary["col"],
                rule="R120",
                message=(f"{short}() can raise {name} (transitively, "
                         "via its callees) but the docstring Raises: "
                         "section does not document it or a base "
                         "class; the exception contract drifted from "
                         "the code")))
    else:
        direct_taxonomy = sorted({
            graph.key_name(key) for key, _record in direct_keys
            if isinstance(key, str) and key in taxonomy})
        if direct_taxonomy:
            violations.append(Violation(
                path=rel, line=summary["line"], col=summary["col"],
                rule="R120",
                message=(f"public {short}() raises "
                         f"{', '.join(direct_taxonomy)} but its "
                         "docstring has no Raises: section; document "
                         "the exception contract (callers cannot "
                         "handle what the docs never promise)")))
    for key, record in direct_keys:
        if isinstance(key, tuple) and key[1] not in _EXEMPT_BUILTINS:
            violations.append(Violation(
                path=rel, line=record["line"], col=record["col"],
                rule="R120",
                message=(f"public {short}() raises builtin {key[1]} "
                         "outside the project error taxonomy; raise "
                         "the matching taxonomy exception so callers "
                         "can catch the library's errors uniformly")))
    return violations


def _r120_unreachable(graph, fid, summary, rel) -> list:
    taxonomy = graph.taxonomy
    module = graph.module_of.get(fid, "")
    violations: list = []
    for record in summary.get("trys", ()):
        possible = set()
        decidable = True
        for ref in record.get("body_raises", ()):
            key = graph.exception_key(module, ref)
            if key is None:
                decidable = False
                break
            possible.add(key)
        if decidable:
            for ref in record.get("body_calls", ()):
                if graph.is_foreign(ref):
                    continue
                resolved = graph.resolve(
                    module, dict(ref, _cls=summary.get("cls"))
                    if ref.get("kind") == "self" else ref)
                if resolved is None:
                    decidable = False
                    break
                possible |= graph.raises_closure(resolved)
        if not decidable:
            continue
        caught_keys = []
        for ref in record.get("caught", ()):
            key = graph.exception_key(module, ref)
            if key is None:
                caught_keys = None
                break
            caught_keys.append(key)
        if not caught_keys:
            continue
        taxonomy_only = all(isinstance(key, str) and key in taxonomy
                            for key in caught_keys)
        if not taxonomy_only:
            continue
        reachable = any(
            graph.key_matches(raised, caught)
            for caught in caught_keys for raised in possible)
        if not reachable:
            names = ", ".join(graph.key_name(key)
                              for key in caught_keys)
            violations.append(Violation(
                path=rel, line=record["line"], col=record["col"],
                rule="R120",
                message=(f"except {names}: is unreachable — nothing "
                         "in the try body (or its resolved callees) "
                         "raises it; dead handlers hide the real "
                         "error path, so catch what is actually "
                         "thrown or delete the clause")))
    return violations
