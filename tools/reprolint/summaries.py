"""Per-function effect summaries: the per-file half of interprocedural
analysis.

Every rule family before this one stopped at function boundaries.  The
interprocedural layer splits cross-function reasoning the same way the
import-cycle check does: a **pure per-file extraction** (this
module) producing a JSON-able summary the incremental cache persists,
and a **project resolution pass** (:mod:`tools.reprolint.callgraph`)
that recomputes from the assembled summaries every run — which is what
makes a callee edit invalidate conclusions about callers that did not
change.

For every function a module defines (top level, methods, nested defs),
the summary records what the project pass needs:

- **calls** — semi-resolved callee references: an :class:`ImportMap`
  origin (``np.zeros`` → ``numpy.zeros``), a bare local name, a
  ``self.method`` reference carrying the enclosing class, or a method
  on a variable whose class was inferred from a constructor call —
  each with the lock tokens held at the call site;
- **locks** — ``threading.Lock``/``RLock`` tokens acquired via
  ``with`` (instance attributes, module globals, function locals),
  the nested acquisition order pairs, and the blocking operations /
  calls made while each token is held;
- **blocking** — operations that can wait: ``time.sleep``,
  ``Future.result()``, queue ``get``, thread ``join``, executor
  ``shutdown`` (unless ``wait=False``), ``open()`` and file/array I/O;
- **raises** — directly raised exception references plus the parsed
  Google-style ``Raises:`` docstring entries, and per-``try`` records
  (caught types, body calls/raises) for the unreachable-``except``
  check.

Summaries are plain dicts of str/int/list/dict so they pickle across
the ``--jobs`` process fan-out and serialize into the cache untouched;
:func:`summary_hash` gives the per-function content hash the
invalidation tests key on.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re

from tools.reprolint.dataflow import (ImportMap, bound_names,
                                      _calls_in_statement,
                                      flat_statements)

__all__ = ["extract_summaries", "function_hashes",
           "parse_docstring_raises", "summary_hash"]

#: Lock constructors whose values become R113 lock tokens.  Condition/
#: Semaphore are deliberately excluded: ``cond.wait()`` inside ``with
#: cond:`` is the canonical condition-variable idiom, not a bug.
LOCK_ORIGINS = frozenset({"threading.Lock", "threading.RLock"})

#: Queue constructors whose ``get`` blocks.
QUEUE_ORIGINS = frozenset({
    "queue.Queue", "queue.SimpleQueue", "queue.LifoQueue",
    "queue.PriorityQueue", "multiprocessing.Queue",
    "multiprocessing.JoinableQueue",
})

#: Thread constructors whose ``join`` blocks.
THREAD_ORIGINS = frozenset({"threading.Thread"})

#: Blocking callables by dotted origin.
_BLOCKING_ORIGINS = {
    "time.sleep": "time.sleep()",
    "numpy.load": "np.load() file I/O",
    "numpy.save": "np.save() file I/O",
    "numpy.savez": "np.savez() file I/O",
    "numpy.savez_compressed": "np.savez_compressed() file I/O",
}

#: Blocking file-I/O methods (pathlib-style receivers).
_IO_METHODS = frozenset({
    "read_text", "read_bytes", "write_text", "write_bytes",
})

#: Builtin exception names R120 recognises without an import.
BUILTIN_EXCEPTIONS = frozenset({
    "ArithmeticError", "AssertionError", "AttributeError",
    "BaseException", "BufferError", "EOFError", "Exception",
    "FileExistsError", "FileNotFoundError", "FloatingPointError",
    "IOError", "ImportError", "IndexError", "InterruptedError",
    "IsADirectoryError", "KeyError", "KeyboardInterrupt",
    "LookupError", "MemoryError", "ModuleNotFoundError", "NameError",
    "NotADirectoryError", "NotImplementedError", "OSError",
    "OverflowError", "PermissionError", "RecursionError",
    "ReferenceError", "RuntimeError", "StopAsyncIteration",
    "StopIteration", "SystemError", "SystemExit", "TimeoutError",
    "TypeError", "UnicodeDecodeError", "UnicodeEncodeError",
    "UnicodeError", "ValueError", "ZeroDivisionError",
})

#: Bare-name builtins whose calls are effect-free for every
#: interprocedural purpose (they never raise taxonomy exceptions, never
#: block, never acquire project locks) — so ``try`` bodies calling them
#: stay resolvable.
_BUILTIN_CALLS = frozenset({
    "abs", "all", "any", "bool", "bytes", "callable", "dict",
    "divmod", "enumerate", "filter", "float", "format", "frozenset",
    "getattr", "hasattr", "hash", "id", "int", "isinstance",
    "issubclass", "iter", "len", "list", "map", "max", "min", "next",
    "object", "print", "range", "repr", "reversed", "round", "set",
    "setattr", "slice", "sorted", "str", "sum", "tuple", "type",
    "vars", "zip",
})


#: Google-style docstring section headers; each one ends the block
#: before it.
_SECTION = re.compile(
    r"^(Args|Arguments|Returns|Yields|Raises|Attributes|Example"
    r"s?|Notes?|Warns|See Also)\s*:\s*$")

#: One documented exception: ``Name:`` / ``pkg.Name:`` /
#: ``:class:`~pkg.Name`:`` — anything up to the entry's colon.
_RAISE_ENTRY = re.compile(r"^(?P<ref>[~`:\w.]+)\s*:")


def parse_docstring_raises(docstring: "str | None") -> tuple:
    """``(has_section, names)`` from a Google-style ``Raises:`` section.

    ``names`` keeps the bare class name of each documented entry
    (``repro.errors.ShapeError`` and ``:class:`~...ShapeError``` both
    yield ``ShapeError``), deduplicated in order of appearance —
    exactly what the R120 exception-contract pass compares transitive
    raise sets against.
    """
    if not docstring:
        return False, []
    has_section = False
    names: list = []
    in_raises = False
    entry_indent = None
    for line in docstring.splitlines():
        stripped = line.strip()
        if _SECTION.match(stripped):
            in_raises = stripped.split(":")[0] == "Raises"
            has_section = has_section or in_raises
            entry_indent = None
            continue
        if not in_raises or not stripped:
            continue
        indent = len(line) - len(line.lstrip())
        if entry_indent is None:
            entry_indent = indent
        if indent > entry_indent:
            continue  # continuation line of the previous entry
        if indent < entry_indent:
            in_raises = False
            continue
        match = _RAISE_ENTRY.match(stripped)
        if match:
            name = re.sub(r"\W", "", match["ref"].split(".")[-1])
            if name and name not in names:
                names.append(name)
    return has_section, names


def summary_hash(payload) -> str:
    """Stable sha256 of one JSON-able summary (the invalidation key)."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def function_hashes(summaries: "dict | None") -> dict:
    """``{qualname: summary-hash}`` for one module's summaries."""
    if not summaries:
        return {}
    return {name: summary_hash(summary)
            for name, summary in summaries.get("functions", {}).items()}


# ----------------------------------------------------------------------
# Reference forms
# ----------------------------------------------------------------------

def _callable_ref(func, imports: ImportMap, cls: "str | None",
                  var_types: dict) -> dict:
    """Semi-resolved reference for a call's callee expression."""
    if isinstance(func, ast.Name):
        origin = imports.resolve(func)
        if origin is not None:
            return {"kind": "origin", "target": origin}
        if func.id in _BUILTIN_CALLS:
            return {"kind": "builtin", "target": func.id}
        return {"kind": "local", "target": func.id}
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls") \
                and cls is not None:
            return {"kind": "self", "target": func.attr}
        origin = imports.resolve(func)
        if origin is not None:
            return {"kind": "origin", "target": origin}
        if isinstance(base, ast.Name):
            inferred = var_types.get(base.id)
            if inferred is not None:
                return {"kind": "var", "cls": inferred,
                        "method": func.attr}
            return {"kind": "local",
                    "target": f"{base.id}.{func.attr}"}
    return {"kind": "unknown"}


def _exception_ref(node, imports: ImportMap) -> "dict | None":
    """Reference for a raised/caught exception expression."""
    if node is None:
        return None
    if isinstance(node, ast.Call):
        node = node.func
    origin = imports.resolve(node)
    if origin is not None:
        return {"kind": "origin", "target": origin}
    if isinstance(node, ast.Name):
        if node.id in BUILTIN_EXCEPTIONS:
            return {"kind": "builtin", "target": node.id}
        return {"kind": "local", "target": node.id}
    if isinstance(node, ast.Attribute):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return {"kind": "local",
                    "target": ".".join(reversed(parts))}
    return {"kind": "unknown"}


def _base_ref(node, imports: ImportMap) -> "dict | None":
    """Reference for a class base expression (same forms as raises)."""
    return _exception_ref(node, imports)


# ----------------------------------------------------------------------
# Module-level discovery
# ----------------------------------------------------------------------

def _constructed_origin(value, imports: ImportMap) -> "str | None":
    """Dotted origin of ``value`` when it is a constructor call."""
    if isinstance(value, ast.Call):
        return imports.resolve(value.func)
    return None


def _module_lock_names(tree: ast.Module, imports: ImportMap) -> set:
    """Module-level names bound to ``threading.Lock()``/``RLock()``."""
    names: set = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            origin = _constructed_origin(stmt.value, imports)
            if origin in LOCK_ORIGINS:
                for target in stmt.targets:
                    names |= bound_names(target)
    return names


def _class_record(node: ast.ClassDef, imports: ImportMap) -> dict:
    """Bases, methods, and typed attributes of one class definition."""
    bases = []
    for base in node.bases:
        ref = _base_ref(base, imports)
        if ref is not None and ref["kind"] != "unknown":
            bases.append(ref)
    methods = []
    lock_attrs: set = set()
    attr_types: dict = {}

    def note(attr, origin):
        if origin in LOCK_ORIGINS:
            lock_attrs.add(attr)
        elif origin in QUEUE_ORIGINS:
            attr_types[attr] = "queue"
        elif origin in THREAD_ORIGINS:
            attr_types[attr] = "thread"

    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(child.name)
            for stmt in ast.walk(child):
                if not isinstance(stmt, ast.Assign):
                    continue
                origin = _constructed_origin(stmt.value, imports)
                if origin is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        note(target.attr, origin)
        elif isinstance(child, ast.Assign):
            origin = _constructed_origin(child.value, imports)
            if origin is not None:
                for name in set().union(*map(bound_names,
                                             child.targets)):
                    note(name, origin)
    return {
        "line": node.lineno,
        "bases": bases,
        "methods": sorted(methods),
        "lock_attrs": sorted(lock_attrs),
        "attr_types": dict(sorted(attr_types.items())),
    }


def _iter_definitions(body, prefix: str, cls: "str | None"):
    """Yield ``(qualname, class-name, node)`` for every function def."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = prefix + node.name
            yield qual, cls, node
            yield from _iter_definitions(node.body, qual + ".", cls)
        elif isinstance(node, ast.ClassDef):
            yield from _iter_definitions(node.body,
                                         prefix + node.name + ".",
                                         prefix + node.name)


# ----------------------------------------------------------------------
# Per-function effect walk (locks, blocking, calls, raises, trys)
# ----------------------------------------------------------------------

class _EffectWalker:
    """One recursive held-lock-context walk over a function body."""

    def __init__(self, imports, qualname, cls, class_record,
                 module_locks):
        self.imports = imports
        self.qualname = qualname
        self.cls = cls
        self.cls_locks = frozenset(class_record["lock_attrs"]) \
            if class_record else frozenset()
        self.cls_attr_types = class_record["attr_types"] \
            if class_record else {}
        self.module_locks = module_locks
        self.local_locks: set = set()
        self.var_types: dict = {}
        self.calls: list = []
        self.blocking: list = []
        self.locks: set = set()
        self.lock_pairs: set = set()
        self.submits: list = []
        self.raises: list = []
        self.trys: list = []

    # -- token / type helpers ------------------------------------------

    def _lock_token(self, expr) -> "str | None":
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" \
                and expr.attr in self.cls_locks:
            return f"a:{self.cls}.{expr.attr}"
        if isinstance(expr, ast.Name):
            if expr.id in self.local_locks:
                return f"f:{self.qualname}.{expr.id}"
            if expr.id in self.module_locks:
                return f"g:{expr.id}"
        return None

    def _receiver_type(self, node) -> "str | None":
        """``queue``/``thread``/``lock`` type of a method receiver."""
        if isinstance(node, ast.Name):
            constructed = self.var_types.get(node.id)
            if constructed is not None \
                    and constructed["kind"] == "origin":
                origin = constructed["target"]
                if origin in QUEUE_ORIGINS:
                    return "queue"
                if origin in THREAD_ORIGINS:
                    return "thread"
            return None
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return self.cls_attr_types.get(node.attr)
        return None

    # -- driver --------------------------------------------------------

    def walk(self, body, held: tuple) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # separate scopes
            self._track_bindings(stmt)
            self._scan_statement(stmt, held)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held
                for item in stmt.items:
                    token = self._lock_token(item.context_expr)
                    if token is None:
                        continue
                    for outer in inner:
                        if outer != token:
                            self.lock_pairs.add((outer, token))
                    self.locks.add(token)
                    inner = (*inner, token)
                self.walk(stmt.body, inner)
                continue
            if isinstance(stmt, ast.Try):
                self._record_try(stmt)
                self.walk(stmt.body, held)
                for handler in stmt.handlers:
                    self.walk(handler.body, held)
                self.walk(stmt.orelse, held)
                self.walk(stmt.finalbody, held)
                continue
            if isinstance(stmt, ast.Match):
                for case in stmt.cases:
                    self.walk(case.body, held)
                continue
            for _field, value in ast.iter_fields(stmt):
                if isinstance(value, list):
                    nested = [child for child in value
                              if isinstance(child, ast.stmt)]
                    if nested:
                        self.walk(nested, held)

    # -- per-statement effects -----------------------------------------

    def _track_bindings(self, stmt) -> None:
        if not isinstance(stmt, ast.Assign):
            return
        origin = _constructed_origin(stmt.value, self.imports)
        if isinstance(stmt.value, ast.Call):
            ref = _callable_ref(stmt.value.func, self.imports,
                                self.cls, self.var_types)
        else:
            ref = None
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            self.local_locks.discard(target.id)
            self.var_types.pop(target.id, None)
            if origin in LOCK_ORIGINS:
                self.local_locks.add(target.id)
            elif ref is not None and ref["kind"] in ("origin", "local"):
                self.var_types[target.id] = ref

    def _scan_statement(self, stmt, held: tuple) -> None:
        if isinstance(stmt, ast.Raise):
            ref = _exception_ref(stmt.exc, self.imports)
            if ref is not None:
                self.raises.append({"line": stmt.lineno,
                                    "col": stmt.col_offset,
                                    "ref": ref})
        for call in _calls_in_statement(stmt):
            self._scan_call(call, held)

    def _scan_call(self, call: ast.Call, held: tuple) -> None:
        ref = _callable_ref(call.func, self.imports, self.cls,
                            self.var_types)
        blocked = self._blocking_op(call, ref)
        if blocked is not None:
            self.blocking.append({"line": call.lineno,
                                  "col": call.col_offset,
                                  "op": blocked,
                                  "held": sorted(held)})
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr == "submit" and call.args:
            worker = _callable_ref(call.args[0], self.imports,
                                   self.cls, self.var_types) \
                if isinstance(call.args[0], (ast.Name, ast.Attribute)) \
                else None
            # A callable argument is a reference, not a call: Name
            # workers resolve through _callable_ref's Name branch and
            # self._method workers through its Attribute branch.
            if worker is not None and worker["kind"] != "unknown":
                self.submits.append({"line": call.lineno,
                                     "col": call.col_offset,
                                     "worker": worker,
                                     "held": sorted(held)})
        if ref["kind"] in ("origin", "local", "self", "var"):
            self.calls.append({"line": call.lineno,
                               "col": call.col_offset,
                               "ref": ref,
                               "held": sorted(held)})

    def _blocking_op(self, call: ast.Call, ref: dict) -> "str | None":
        if ref["kind"] == "origin":
            return _BLOCKING_ORIGINS.get(ref["target"])
        if isinstance(call.func, ast.Name) and call.func.id == "open" \
                and self.imports.resolve(call.func) is None:
            return "open() file I/O"
        if not isinstance(call.func, ast.Attribute):
            return None
        attr = call.func.attr
        if attr == "result":
            return "Future.result()"
        if attr == "shutdown":
            explicit_nowait = any(
                kw.arg == "wait" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False for kw in call.keywords)
            return None if explicit_nowait else "Executor.shutdown()"
        if attr == "get" \
                and self._receiver_type(call.func.value) == "queue":
            nowait = any(
                kw.arg == "block" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False for kw in call.keywords)
            return None if nowait else "Queue.get()"
        if attr == "join" \
                and self._receiver_type(call.func.value) == "thread":
            return "Thread.join()"
        if attr in _IO_METHODS:
            return f".{attr}() file I/O"
        return None

    # -- try records ---------------------------------------------------

    def _record_try(self, stmt: ast.Try) -> None:
        body_calls: list = []
        body_raises: list = []
        for inner in flat_statements(stmt.body):
            if isinstance(inner, ast.Raise):
                ref = _exception_ref(inner.exc, self.imports)
                body_raises.append(ref if ref is not None
                                   else {"kind": "unknown"})
            for call in _calls_in_statement(inner):
                body_calls.append(_callable_ref(
                    call.func, self.imports, self.cls, self.var_types))
        for handler in stmt.handlers:
            caught = self._caught_refs(handler.type)
            if not caught:
                continue
            self.trys.append({"line": handler.lineno,
                              "col": handler.col_offset,
                              "caught": caught,
                              "body_calls": body_calls,
                              "body_raises": body_raises})

    def _caught_refs(self, node) -> list:
        if node is None:
            return []
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        refs = []
        for element in elements:
            ref = _exception_ref(element, self.imports)
            refs.append(ref if ref is not None else {"kind": "unknown"})
        return refs


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def _function_summary(node, qualname, cls, class_record, imports,
                      module_locks) -> dict:
    walker = _EffectWalker(imports, qualname, cls, class_record,
                           module_locks)
    walker.walk(node.body, ())
    docstring = ast.get_docstring(node)
    has_raises, doc_raises = parse_docstring_raises(docstring)
    summary = {
        "name": qualname,
        "line": node.lineno,
        "col": node.col_offset,
        "cls": cls,
        "public": all(not part.startswith("_")
                      for part in qualname.split(".")),
        "doc": docstring is not None,
        "doc_raises_section": has_raises,
        "doc_raises": doc_raises,
        "raises": walker.raises,
        "calls": walker.calls,
        "blocking": walker.blocking,
        "locks": sorted(walker.locks),
        "lock_pairs": sorted(list(pair) for pair in walker.lock_pairs),
        "submits": walker.submits,
        "trys": walker.trys,
    }
    # Empty collections and false flags carry no information; pruning
    # them keeps the cache (one record per file, every function) small.
    return {key: value for key, value in summary.items()
            if value or key in ("name", "line", "col")}


def extract_summaries(tree: ast.Module,
                      module_name: "str | None" = None) -> dict:
    """Effect summaries for one parsed module (JSON-able, cacheable).

    Returns ``{"functions": {qualname: summary}, "classes": {name:
    {bases, methods, lock_attrs, attr_types}}}``; the project pass
    (:func:`tools.reprolint.callgraph.build_call_graph`) resolves the
    semi-qualified references inside against every module's summaries.
    """
    imports = ImportMap(tree, module_name)
    module_locks = _module_lock_names(tree, imports)
    classes: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            classes[node.name] = _class_record(node, imports)
    # Nested classes register under their bare name above and their
    # dotted qualname below, so both reference spellings resolve.
    functions: dict = {}
    for qualname, cls, node in _iter_definitions(tree.body, "", None):
        class_record = classes.get(cls.split(".")[-1]) if cls else None
        functions[qualname] = _function_summary(
            node, qualname, cls, class_record, imports, module_locks)
    dotted_classes: dict = {}
    for qualname, cls, _node in _iter_definitions(tree.body, "", None):
        if cls and "." in cls and cls not in classes:
            base = classes.get(cls.split(".")[-1])
            if base is not None:
                dotted_classes[cls] = base
    classes.update(dotted_classes)
    return {"functions": functions, "classes": classes}
