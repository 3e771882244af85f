"""R112: concurrency and fork-safety.

The sharded serving plan on the ROADMAP fans queries out over
``ProcessPoolExecutor``/``ThreadPoolExecutor`` workers.  Both pools
make the same category of bug easy to write and hard to see:

- a **process** pool forks (or spawns) workers, so a worker that
  mutates module-level state mutates its *copy* — the update is
  silently lost in the parent, and a module-level ``Generator``
  inherited across fork replays the identical stream in every worker,
  collapsing the independent draws the paper's tail bounds assume;
- a **thread** pool shares the state for real, so the same mutation is
  a data race instead of a silent no-op;
- a process pool additionally pickles every submitted callable, and a
  ``lambda`` or a function defined inside the submitting scope is not
  picklable — that one at least fails loudly, but only at runtime on
  the first submit.

Three findings:

1. **non-picklable submission** — a ``lambda`` or locally-defined
   function handed to a process pool's ``submit``/``map``/…
   (``functools.partial`` is looked through to its target);
2. **shared state reachable from a worker** — a module-level function
   submitted to any pool whose body mutates a module-level
   dict/list/set (or calls methods on a module-level ``Generator``):
   lost updates under processes, races under threads, correlated
   streams either way;
3. **unsynchronized cache class** — a class whose name contains
   ``cache`` with methods that mutate ``self`` container attributes
   but no ``threading.Lock``/``RLock`` evidence anywhere in the class
   (neither a ``self.x = threading.Lock()`` assignment nor a
   ``with self.x:`` block): the future threaded serving layer will
   race on it, exactly the way an OrderedDict LRU races on
   ``move_to_end`` + eviction.

Everything is positive-knowledge: pools are tracked only when their
constructor resolves via the import map, workers only when they are
module-level defs in the same file, and cache mutation only on
``self.<attr>`` containers — unknown callables and foreign classes are
never flagged.
"""

from __future__ import annotations

import ast

from tools.reprolint.dataflow import (
    GENERATOR_ORIGINS,
    ImportMap,
    bound_names,
    iter_scopes,
)
from tools.reprolint.rules import ModuleContext, Rule

__all__ = ["ConcurrencySafety"]

#: Pool constructor origin -> worker kind.
_POOL_ORIGINS = {
    "concurrent.futures.ProcessPoolExecutor": "process",
    "concurrent.futures.process.ProcessPoolExecutor": "process",
    "concurrent.futures.ThreadPoolExecutor": "thread",
    "concurrent.futures.thread.ThreadPoolExecutor": "thread",
    "multiprocessing.Pool": "process",
    "multiprocessing.pool.Pool": "process",
    "multiprocessing.pool.ThreadPool": "thread",
    "multiprocessing.dummy.Pool": "thread",
}

#: Pool methods whose first argument is the submitted callable.
_SUBMIT_METHODS = frozenset({
    "submit", "map", "imap", "imap_unordered", "starmap",
    "starmap_async", "apply", "apply_async", "map_async",
})

#: Calls building module-level mutable containers.
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "collections.OrderedDict",
    "collections.defaultdict", "collections.Counter",
    "collections.deque",
})

#: Method names that mutate a container in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "clear", "setdefault", "remove", "discard", "move_to_end",
    "appendleft", "extendleft",
})

#: Lock constructors that count as synchronization evidence.
_LOCK_ORIGINS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})


class ConcurrencySafety(Rule):
    """R112: fork/thread safety of pool workers and cache classes."""

    code = "R112"
    summary = ("concurrency safety: shared state in pool workers, "
               "non-picklable submissions, unsynchronized caches")

    def check(self, ctx: ModuleContext):
        scope_patterns = getattr(ctx.config, "r112_scope", ())
        if scope_patterns and not ctx.config.path_matches(
                ctx.abspath, scope_patterns):
            return
        imports = ImportMap(ctx.tree, getattr(ctx, "module_name", None))
        module = _ModuleFacts(ctx.tree, imports)
        for scope in iter_scopes(ctx.tree):
            yield from self._check_scope(ctx, scope, imports, module)
        yield from self._check_cache_classes(ctx, imports)

    # ------------------------------------------------------------------
    # Pool submissions
    # ------------------------------------------------------------------

    def _check_scope(self, ctx, scope, imports, module):
        pools: dict = {}  # pool variable name -> "process" | "thread"
        local_defs = {stmt.name for stmt in scope.node.body
                      if isinstance(stmt, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))} \
            if not scope.is_module else set()
        reported: set = set()
        for stmt in scope.statements:
            self._track_pools(stmt, pools, imports)
            # Only this statement's own expressions: nested statements
            # are yielded separately by the flattened scope walk.
            for call in self._expression_calls(stmt):
                if not isinstance(call.func, ast.Attribute):
                    continue
                kind = pools.get(call.func.value.id) \
                    if isinstance(call.func.value, ast.Name) else None
                if kind is None \
                        or call.func.attr not in _SUBMIT_METHODS:
                    continue
                yield from self._check_submission(
                    ctx, call, kind, imports, module, local_defs,
                    reported)

    @staticmethod
    def _expression_calls(stmt):
        stack = [child for child in ast.iter_child_nodes(stmt)
                 if not isinstance(child, ast.stmt)]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Call):
                yield node
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if not isinstance(child, ast.stmt))

    @staticmethod
    def _track_pools(stmt, pools, imports) -> None:
        bindings = []
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            bindings.append((stmt.targets[0].id, stmt.value))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    bindings.append(
                        (item.optional_vars.id, item.context_expr))
        for name, value in bindings:
            if isinstance(value, ast.Call):
                kind = _POOL_ORIGINS.get(imports.resolve(value.func))
                if kind is not None:
                    pools[name] = kind
                    continue
            pools.pop(name, None)

    def _check_submission(self, ctx, call, kind, imports, module,
                          local_defs, reported):
        if not call.args:
            return
        target = call.args[0]
        # Look through functools.partial to the wrapped callable.
        if isinstance(target, ast.Call) and imports.resolve(
                target.func) in ("functools.partial", "partial"):
            if not target.args:
                return
            target = target.args[0]
        if kind == "process" and isinstance(target, ast.Lambda):
            yield self.violation(
                ctx, target,
                "lambda submitted to a process pool is not picklable; "
                "the submit fails at runtime — use a module-level "
                "function (with functools.partial for bound "
                "arguments)")
            return
        if not isinstance(target, ast.Name):
            return
        if kind == "process" and target.id in local_defs:
            yield self.violation(
                ctx, target,
                f"locally-defined function {target.id!r} submitted to "
                "a process pool is not picklable; move it to module "
                "level so workers can import it")
            return
        worker = module.functions.get(target.id)
        if worker is None or target.id in reported:
            return
        reported.add(target.id)
        yield from self._check_worker_body(ctx, worker, kind, module)

    def _check_worker_body(self, ctx, worker, kind, module):
        local = set(argument.arg for argument in [
            *worker.args.posonlyargs, *worker.args.args,
            *worker.args.kwonlyargs])
        if worker.args.vararg:
            local.add(worker.args.vararg.arg)
        if worker.args.kwarg:
            local.add(worker.args.kwarg.arg)
        for node in ast.walk(worker):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                local |= bound_names(node.target)
        consequence = ("the worker mutates its forked copy and the "
                       "update is silently lost in the parent"
                       if kind == "process" else
                       "concurrent workers race on the shared object")
        for node in ast.walk(worker):
            name = self._mutated_module_name(node, module.mutable,
                                             local)
            if name is not None:
                yield self.violation(
                    ctx, node,
                    f"pool worker {worker.name!r} mutates "
                    f"module-level {name!r}: {consequence}; pass "
                    "state in and return results instead")
                continue
            generator = self._generator_use(node, module.generators,
                                            local)
            if generator is not None:
                yield self.violation(
                    ctx, node,
                    f"pool worker {worker.name!r} draws from "
                    f"module-level generator {generator!r}: workers "
                    "inherit the same state and replay identical "
                    "streams; spawn per-worker generators from an "
                    "explicit seed instead")

    @staticmethod
    def _mutated_module_name(node, mutable, local) -> "str | None":
        """Module-level mutable name ``node`` mutates, if any."""
        def shared_root(expr) -> "str | None":
            while isinstance(expr, (ast.Subscript, ast.Attribute)):
                expr = expr.value
            if isinstance(expr, ast.Name) and expr.id in mutable \
                    and expr.id not in local:
                return expr.id
            return None

        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = shared_root(target)
                    if name is not None:
                        return name
        elif isinstance(node, ast.AugAssign):
            return shared_root(node.target)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS:
            return shared_root(node.func.value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    name = shared_root(target)
                    if name is not None:
                        return name
        return None

    @staticmethod
    def _generator_use(node, generators, local) -> "str | None":
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name):
            name = node.func.value.id
            if name in generators and name not in local:
                return name
        return None

    # ------------------------------------------------------------------
    # Cache classes
    # ------------------------------------------------------------------

    def _check_cache_classes(self, ctx, imports):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) \
                    or "cache" not in node.name.lower():
                continue
            mutated = self._self_container_mutations(node)
            if not mutated:
                continue
            if self._has_lock_evidence(node, imports):
                continue
            attrs = ", ".join(sorted(mutated))
            yield self.violation(
                ctx, node,
                f"cache class {node.name!r} mutates {attrs} with no "
                "lock: get/put from concurrent threads race on the "
                "container (OrderedDict move_to_end + eviction is not "
                "atomic); guard the mutating methods with one "
                "threading.Lock")

    @staticmethod
    def _self_container_mutations(class_node) -> set:
        """``self.<attr>`` names the class's methods mutate in place."""
        mutated: set = set()
        for node in ast.walk(class_node):
            target = None
            if isinstance(node, ast.Assign):
                for assign_target in node.targets:
                    if isinstance(assign_target, ast.Subscript):
                        target = assign_target.value
            elif isinstance(node, ast.Delete):
                for del_target in node.targets:
                    if isinstance(del_target, ast.Subscript):
                        target = del_target.value
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATOR_METHODS:
                target = node.func.value
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                mutated.add(f"self.{target.attr}")
        return mutated

    @staticmethod
    def _has_lock_evidence(class_node, imports) -> bool:
        for node in ast.walk(class_node):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call) \
                    and imports.resolve(node.value.func) \
                    in _LOCK_ORIGINS:
                return True
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Attribute) \
                            and isinstance(expr.value, ast.Name) \
                            and expr.value.id == "self":
                        return True
        return False


class _ModuleFacts:
    """Module-level mutable containers, generators, and functions."""

    def __init__(self, tree: ast.Module, imports: ImportMap):
        #: Names bound at module level to mutable containers.
        self.mutable: set = set()
        #: Names bound at module level to numpy Generators.
        self.generators: set = set()
        #: Module-level function definitions by name.
        self.functions: dict = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
                continue
            value, targets = None, []
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) \
                    and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            if value is None:
                continue
            names = [target.id for target in targets
                     if isinstance(target, ast.Name)]
            if not names:
                continue
            category = self._categorize(value, imports)
            for name in names:
                if category == "mutable":
                    self.mutable.add(name)
                elif category == "generator":
                    self.generators.add(name)

    @staticmethod
    def _categorize(value, imports) -> "str | None":
        if isinstance(value, (ast.Dict, ast.List, ast.Set,
                              ast.DictComp, ast.ListComp, ast.SetComp)):
            return "mutable"
        if isinstance(value, ast.Call):
            origin = imports.resolve(value.func)
            if origin in GENERATOR_ORIGINS:
                return "generator"
            if origin in _MUTABLE_FACTORIES:
                return "mutable"
            if isinstance(value.func, ast.Name) \
                    and value.func.id in ("dict", "list", "set"):
                return "mutable"
        return None
