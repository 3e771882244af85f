"""The intra-module dataflow core shared by the flow-based rules.

The per-node pattern rules (R001-R006) need no more than the AST; the
flow-based families (R111 hot-path allocation, R112 concurrency safety)
and the effect summaries behind R113/R120 need to know *where a value
came from*.  This module provides the shared building blocks:

- :class:`ImportMap` — resolves a ``Name``/``Attribute`` expression to
  the dotted origin it was imported from (``np.zeros`` →
  ``numpy.zeros``, an aliased ``as_generator`` →
  ``repro.utils.rng.as_generator``), honouring ``import``/``from``
  aliases and relative imports;
- :func:`iter_scopes` / :func:`flat_statements` — walk every analysis
  scope (module body, each function) yielding its statements in source
  order *without* descending into nested scopes, so a rule can run a
  simple forward flow over assignments;
- :func:`bound_names` — the names a (possibly destructuring) assignment
  target binds.

The flow model is deliberately approximate: statements are visited in
textual order and branch bodies are folded in sequentially
(last-write-wins).  That is unsound as program analysis and exactly
right for lint — it never misses the straight-line case that dominates
numerical code, and the rules built on it only flag when both operands
of a conclusion are positively known.
"""

from __future__ import annotations

import ast

__all__ = [
    "ImportMap",
    "Scope",
    "bound_names",
    "flat_statements",
    "iter_scopes",
]

#: Calls whose value is a numpy Generator (origin dotted names): the
#: project's RNG helpers and the raw numpy constructors.
GENERATOR_ORIGINS = frozenset({
    "repro.utils.rng.as_generator",
    "repro.utils.rng.spawn_generators",
    "numpy.random.default_rng",
    "numpy.random.Generator",
})

class ImportMap:
    """Name → dotted-origin resolution for one module.

    Built once from the module tree; ``resolve`` then maps an
    expression like ``np.random.default_rng`` (an ``Attribute`` chain
    rooted at an imported name) to the absolute dotted path it refers
    to, or ``None`` for local names.

    ``module_name`` (the importing module's own dotted name, when
    known) lets relative ``from . import x`` forms resolve absolutely;
    without it they resolve against a ``"."``-prefixed placeholder and
    simply never match any absolute origin — a safe miss.
    """

    def __init__(self, tree: ast.Module,
                 module_name: "str | None" = None):
        self._names: dict = {}
        package = None
        if module_name is not None:
            package = module_name.rsplit(".", 1)[0] \
                if "." in module_name else module_name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    self._names[bound] = origin
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node, package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self._names[alias.asname or alias.name] = \
                        f"{base}.{alias.name}"

    @staticmethod
    def _from_base(node: ast.ImportFrom,
                   package: "str | None") -> "str | None":
        if node.level == 0:
            return node.module
        if package is None:
            prefix = "." * node.level
            return prefix + (node.module or "")
        parts = package.split(".")
        if node.level > len(parts):
            return None
        base = parts[:len(parts) - node.level + 1]
        if node.module:
            base.append(node.module)
        return ".".join(base)

    def resolve(self, node) -> "str | None":
        """Dotted origin of a Name/Attribute expression, if imported."""
        trailer: list = []
        while isinstance(node, ast.Attribute):
            trailer.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._names.get(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(trailer)])


class Scope:
    """One analysis scope: a module body or a function body."""

    def __init__(self, node, *, is_module: bool):
        #: The owning ``ast`` node (``Module`` or a function def).
        self.node = node
        #: Whether this is the module's top-level scope.
        self.is_module = is_module

    @property
    def statements(self) -> list:
        """The scope's statements, flattened in source order."""
        return list(flat_statements(self.node.body))


def iter_scopes(tree: ast.Module):
    """Yield the module scope, then every (nested) function scope.

    Class bodies are not scopes of their own — their statements are
    class-construction time code, which for lint purposes behaves like
    module-level code of the class; methods inside them *are* scopes.
    """
    yield Scope(tree, is_module=True)
    stack = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield Scope(node, is_module=False)
            stack = list(node.body) + stack
        elif isinstance(node, ast.ClassDef):
            stack = list(node.body) + stack
        else:
            stack = [child for child in ast.iter_child_nodes(node)
                     if isinstance(child, ast.stmt)] + stack


def flat_statements(body):
    """Statements of ``body`` in source order, entering control flow.

    Descends into ``if``/``for``/``while``/``with``/``try`` (and
    ``match``) bodies sequentially, and into class bodies — which run
    at definition time in the enclosing flow — but never into nested
    function definitions, which are separate scopes.  The resulting
    order folds all branches in, which for a forward last-write-wins
    flow is the standard lint approximation.
    """
    stack = list(body)
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested: list = []
        for _field, value in ast.iter_fields(node):
            if isinstance(value, list):
                nested.extend(child for child in value
                              if isinstance(child, ast.stmt))
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                nested.extend(handler.body)
        stack = nested + stack


def bound_names(target) -> set:
    """Every plain name a (possibly destructuring) target binds."""
    names: set = set()
    stack = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
    return names


def _calls_in_statement(stmt):
    """Every Call in the expressions belonging to one statement.

    Child *statements* are excluded — :func:`flat_statements` already
    yields those separately, and a nested function's body is a
    different scope entirely.  Decorator and default-value expressions
    (which execute in the enclosing flow) are included, as are lambda
    bodies.
    """
    stack = [child for child in ast.iter_child_nodes(stmt)
             if not isinstance(child, ast.stmt)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, ast.stmt))
