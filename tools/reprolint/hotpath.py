"""R111: hot-path allocation discipline.

The serving layer's latency budget is dominated by memory traffic, not
flops: a batched query scores as one GEMM, and everything after it —
clipping, normalising, thresholding — is bandwidth-bound.  An avoidable
temporary in that tail doubles the traffic of the step that allocates
it, and a bundle load that reads every array eagerly pays the
whole index's footprint before the first query.  None of this shows up
as a wrong answer, only as a slow one, so the rule makes the
allocations visible at lint time — but only inside the configured
``r111-scope`` hot paths, because everywhere else clarity beats a saved
temporary.

Four findings:

1. **assign-back binop** — ``x = x + y`` / ``x = x * s`` where ``x``
   carries array evidence allocates a fresh array and immediately
   drops the old one; ``x += y`` (or the ufunc ``out=`` form) reuses
   the buffer;
2. **assign-back ufunc** — ``x = np.clip(x, ...)`` (and friends) for a
   ufunc that accepts ``out=``: pass ``out=x`` and skip the temporary;
3. **eager bundle load** — ``np.load(path)`` without ``mmap_mode``
   maps the *whole* archive into fresh pages; ``mmap_mode="r"`` lets
   the OS page in only the slices a query touches (autofixable — the
   kwarg is ignored for zip archives, so the rewrite is always safe);
4. **loop-invariant norm** — ``np.linalg.norm(x)`` inside a
   ``for``/``while`` body where ``x`` is never rebound in the loop
   recomputes an O(n) reduction every iteration; hoist it above the
   loop.

Array evidence is the usual positive-knowledge bar: a name only counts
as an array if the flow saw it bound from a numpy constructor, a
matmul, a factor attribute, or an array-preserving method — parameters
and foreign calls stay unknown and unflagged.
"""

from __future__ import annotations

import ast

from tools.reprolint.dataflow import ImportMap, bound_names, iter_scopes
from tools.reprolint.rules import ModuleContext, Rule

__all__ = ["HotPathAllocation"]

#: numpy callables that return arrays (seed array evidence).
_ARRAY_CONSTRUCTORS = frozenset({
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.eye",
    "numpy.identity", "numpy.full", "numpy.asarray", "numpy.array",
    "numpy.ascontiguousarray", "numpy.asfortranarray", "numpy.copy",
    "numpy.linspace", "numpy.arange", "numpy.zeros_like",
    "numpy.ones_like", "numpy.empty_like", "numpy.full_like",
    "numpy.clip", "numpy.sqrt", "numpy.abs", "numpy.absolute",
    "numpy.exp", "numpy.log", "numpy.maximum", "numpy.minimum",
    "numpy.add", "numpy.subtract", "numpy.multiply", "numpy.divide",
    "numpy.dot", "numpy.matmul", "numpy.concatenate", "numpy.stack",
    "numpy.vstack", "numpy.hstack", "numpy.load",
})

#: Methods whose result is an array when the receiver is one.
_ARRAY_METHODS = frozenset({
    "copy", "astype", "reshape", "transpose", "ravel", "flatten",
    "clip",
})

#: Generator sampling methods — results are fresh arrays.
_SAMPLER_METHODS = frozenset({
    "random", "standard_normal", "normal", "uniform", "integers",
    "beta", "gamma", "permutation", "choice",
})

#: numpy ufuncs accepting ``out=`` that we suggest in assign-back form.
_OUT_UFUNCS = frozenset({
    "numpy.clip", "numpy.add", "numpy.subtract", "numpy.multiply",
    "numpy.divide", "numpy.sqrt", "numpy.exp", "numpy.log",
    "numpy.absolute", "numpy.abs", "numpy.maximum", "numpy.minimum",
})

#: Binary operators with an in-place (``+=`` …) array form.
_INPLACE_OPS = {
    ast.Add: "+=", ast.Sub: "-=", ast.Mult: "*=", ast.Div: "/=",
}

#: Method calls on a name that may rebind/mutate its buffer in a loop.
_MUTATOR_METHODS = frozenset({
    "sort", "fill", "resize", "put", "partition", "setfield",
    "append", "extend", "insert", "pop", "remove", "clear", "update",
})


class HotPathAllocation(Rule):
    """R111: avoidable temporaries and eager loads in hot paths."""

    code = "R111"
    summary = ("hot-path allocation: assign-back temporaries, eager "
               "np.load, loop-invariant norms")

    def check(self, ctx: ModuleContext):
        scope_patterns = getattr(ctx.config, "r111_scope", ())
        if scope_patterns and not ctx.config.path_matches(
                ctx.abspath, scope_patterns):
            return
        imports = ImportMap(ctx.tree, getattr(ctx, "module_name", None))
        for scope in iter_scopes(ctx.tree):
            yield from _ScopeCheck(ctx, self, imports).run(scope)


class _ScopeCheck:
    """One forward pass over a scope: evidence, then the four checks."""

    def __init__(self, ctx, rule, imports: ImportMap):
        self.ctx = ctx
        self.rule = rule
        self.imports = imports
        #: Names positively known to hold numpy arrays.
        self.arrays: set = set()

    def run(self, scope):
        for stmt in scope.statements:
            yield from self._check_statement(stmt)
            self._update_evidence(stmt)
        # Loop-invariant norms need loop *structure*, which the
        # flattened statement walk deliberately erases — do a second
        # structural pass over the scope's own loops.
        for loop in self._own_loops(scope.node):
            yield from self._check_loop_invariant_norms(loop)

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------

    def _is_array_expr(self, node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.arrays
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.MatMult):
                return True
            return self._is_array_expr(node.left) \
                or self._is_array_expr(node.right)
        if isinstance(node, ast.Attribute) and node.attr == "T":
            return self._is_array_expr(node.value)
        if isinstance(node, ast.Subscript):
            return self._is_array_expr(node.value)
        if isinstance(node, ast.Call):
            origin = self.imports.resolve(node.func)
            if origin in _ARRAY_CONSTRUCTORS:
                return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _ARRAY_METHODS:
                    return self._is_array_expr(node.func.value)
                if node.func.attr in _SAMPLER_METHODS:
                    return True
        return False

    def _update_evidence(self, stmt) -> None:
        if isinstance(stmt, ast.Assign):
            is_array = self._is_array_expr(stmt.value)
            for target in stmt.targets:
                for name in bound_names(target):
                    if is_array and isinstance(target, ast.Name):
                        self.arrays.add(name)
                    else:
                        self.arrays.discard(name)
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            if stmt.value is not None \
                    and self._is_array_expr(stmt.value):
                self.arrays.add(stmt.target.id)
            else:
                self.arrays.discard(stmt.target.id)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in bound_names(stmt.target):
                self.arrays.discard(name)

    # ------------------------------------------------------------------
    # Per-statement checks
    # ------------------------------------------------------------------

    def _check_statement(self, stmt):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            yield from self._check_assign_back(stmt, name)
        for call in self._expression_calls(stmt):
            yield from self._check_np_load(call)

    def _check_assign_back(self, stmt, name):
        value = stmt.value
        if isinstance(value, ast.BinOp) \
                and type(value.op) in _INPLACE_OPS \
                and isinstance(value.left, ast.Name) \
                and value.left.id == name \
                and name in self.arrays:
            op = _INPLACE_OPS[type(value.op)]
            yield self.rule.violation(
                self.ctx, stmt,
                f"assign-back allocates a temporary: '{name} = {name} "
                f"{op[0]} ...' builds a fresh array and drops the old "
                f"buffer; use the in-place form '{name} {op} ...'")
        elif isinstance(value, ast.Call):
            origin = self.imports.resolve(value.func)
            if origin in _OUT_UFUNCS and value.args \
                    and isinstance(value.args[0], ast.Name) \
                    and value.args[0].id == name \
                    and name in self.arrays \
                    and not any(kw.arg == "out"
                                for kw in value.keywords):
                short = origin.replace("numpy.", "np.")
                yield self.rule.violation(
                    self.ctx, value,
                    f"assign-back ufunc allocates a temporary: "
                    f"{short}({name}, ...) writes a new array only to "
                    f"replace {name}; pass out={name} to reuse the "
                    "buffer")

    def _check_np_load(self, call):
        if self.imports.resolve(call.func) != "numpy.load":
            return
        if any(kw.arg == "mmap_mode" for kw in call.keywords) \
                or len(call.args) >= 2:
            return
        yield self.rule.violation(
            self.ctx, call,
            "np.load without mmap_mode reads the whole array file "
            "eagerly; pass mmap_mode=\"r\" so the OS pages in only "
            "the slices that are touched")

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

    # ------------------------------------------------------------------
    # Loop-invariant norms
    # ------------------------------------------------------------------

    @staticmethod
    def _own_loops(scope_node):
        """For/While nodes belonging to this scope (not nested defs)."""
        stack = list(scope_node.body)
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, (ast.For, ast.While)):
                yield node
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if isinstance(child, ast.stmt))

    def _check_loop_invariant_norms(self, loop):
        touched = self._touched_names(loop)
        for node in ast.walk(loop):
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                continue
            if not isinstance(node, ast.Call):
                continue
            if self.imports.resolve(node.func) != "numpy.linalg.norm":
                continue
            if len(node.args) != 1 \
                    or not isinstance(node.args[0], ast.Name):
                continue
            name = node.args[0].id
            if name in touched:
                continue
            yield self.rule.violation(
                self.ctx, node,
                f"loop-invariant norm: np.linalg.norm({name}) is "
                f"recomputed every iteration but {name} is never "
                "rebound in the loop; hoist the norm above the loop")

    @staticmethod
    def _touched_names(loop) -> set:
        """Names the loop body may rebind or mutate (conservative)."""
        touched: set = set()
        if isinstance(loop, ast.For):
            touched |= bound_names(loop.target)
        for node in ast.walk(loop):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    touched |= bound_names(target)
                    touched |= _store_roots(target)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                touched |= bound_names(node.target)
                touched |= _store_roots(node.target)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                touched |= bound_names(node.target)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name):
                # Any method call on a bare name may mutate it.
                touched.add(node.func.value.id)
            elif isinstance(node, ast.withitem) \
                    and node.optional_vars is not None:
                touched |= bound_names(node.optional_vars)
        return touched


def _store_roots(target) -> set:
    """Root names of subscript/attribute stores (``x[i] = …`` → x)."""
    roots: set = set()
    stack = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Subscript, ast.Attribute)):
            inner = node.value
            while isinstance(inner, (ast.Subscript, ast.Attribute)):
                inner = inner.value
            if isinstance(inner, ast.Name):
                roots.add(inner.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
    return roots
