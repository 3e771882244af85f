"""The autofix engine: mechanical, idempotent rewrites for lint findings.

Safety policy (documented in docs/STATIC_ANALYSIS.md): a rewrite ships
only when it is

- **mechanically derivable** from the AST — no guessing at intent
  beyond what the rule itself already concluded;
- **idempotent** — running ``--fix`` twice produces byte-identical
  output, because every fix removes its own trigger;
- **reviewable** — each fix is a local edit at the finding's site (plus
  at most a guard insertion for R003), never a reflow of the file.

Four rule families qualify:

=====  =============================================================
R003   ``def f(p=[])`` → ``p=None`` default plus an ``if p is None:``
       guard after the docstring.  Deliberately behaviour-changing:
       the shared-across-calls default *is* the bug.
R005   Bare ``except:`` → ``except Exception:``.  Strictly narrowing
       (releases SystemExit/KeyboardInterrupt); the broad-without-
       re-raise finding may remain and needs a human.
R006   ``__all__`` sync: drop names the module never defines, drop
       duplicates, and declare a missing ``__all__`` from the
       module's public bindings.
R111   ``np.load(path)`` → ``np.load(path, mmap_mode="r")`` at
       findings in the configured hot paths.  numpy ignores the
       kwarg for ``.npz`` archives, so the rewrite never changes
       behaviour for them and only defers page-in for ``.npy``.
=====  =============================================================

Suppressed lines are never touched: an inline
``# reprolint: disable=Rxxx`` documents intent the fixer must respect.
"""

from __future__ import annotations

import ast
import re

from tools.reprolint.cycles import module_name_for
from tools.reprolint.hotpath import HotPathAllocation
from tools.reprolint.rules import AllConsistency, ModuleContext, \
    MutableDefault

__all__ = ["Fix", "FixResult", "compute_fixes", "fix_paths"]

#: Rules the fixer knows how to rewrite.
FIXABLE_RULES = ("R003", "R005", "R006", "R111")

_BARE_EXCEPT = re.compile(r"except(\s*):")


class Fix:
    """One source edit: replace ``[start, end)`` with ``text``.

    Positions are ``(line, col)`` with 1-based lines and 0-based
    columns, matching the AST.  An insertion is a zero-width span.
    """

    def __init__(self, rule, start, end, text, description):
        self.rule = rule
        self.start = start
        self.end = end
        self.text = text
        self.description = description

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Fix({self.rule}, {self.start}->{self.end}, "
                f"{self.text!r})")


class FixResult:
    """Outcome of one ``--fix`` run."""

    def __init__(self):
        #: path -> number of fixes applied (or applicable, in check
        #: mode).
        self.fixed: dict = {}
        #: Human-readable "path:line rule description" lines.
        self.descriptions: list = []

    @property
    def total(self) -> int:
        return sum(self.fixed.values())


def _suppressed(source: str) -> dict:
    """line -> codes silenced there (empty set = every code)."""
    from tools.reprolint.engine import _suppression_records
    return {line: frozenset(codes)
            for line, codes in _suppression_records(source)}


def _line_suppresses(table, line, rule) -> bool:
    codes = table.get(line)
    return codes is not None and (not codes or rule in codes)


def compute_fixes(source: str, ctx: ModuleContext) -> list:
    """Every applicable fix for one module, in document order."""
    tree = ctx.tree
    suppressions = _suppressed(source)
    lines = source.splitlines()
    fixes = []
    fixes += _fix_mutable_defaults(tree, suppressions)
    fixes += _fix_bare_excepts(tree, lines, suppressions)
    fixes += _fix_dunder_all(ctx, tree, lines, suppressions)
    fixes += _fix_np_load_mmap(ctx, lines, suppressions)
    fixes.sort(key=lambda fix: (fix.start, fix.end))
    return _drop_overlaps(fixes)


def _drop_overlaps(fixes) -> list:
    """Keep the first fix of any overlapping pair (re-run catches it)."""
    kept: list = []
    last_end = (0, 0)
    for fix in fixes:
        if fix.start < last_end:
            continue
        kept.append(fix)
        if fix.end > last_end:
            last_end = fix.end
    return kept


def apply_fixes(source: str, fixes) -> str:
    """``source`` with every fix applied (edits are non-overlapping)."""
    lines = source.splitlines(keepends=True)
    for fix in sorted(fixes, key=lambda f: (f.start, f.end),
                      reverse=True):
        (start_line, start_col), (end_line, end_col) = fix.start, fix.end
        head = lines[start_line - 1][:start_col]
        tail = lines[end_line - 1][end_col:]
        replacement = (head + fix.text + tail).splitlines(keepends=True)
        if not replacement:
            replacement = [""]
        lines[start_line - 1:end_line] = replacement
    return "".join(lines)


# ----------------------------------------------------------------- R003

def _fix_mutable_defaults(tree, suppressions) -> list:
    checker = MutableDefault()
    fixes = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # lambdas have no body to guard; not fixable
        body = node.body
        docstring_offset = 1 if (body and isinstance(body[0], ast.Expr)
                                 and isinstance(body[0].value,
                                                ast.Constant)
                                 and isinstance(body[0].value.value,
                                                str)) else 0
        if len(body) <= docstring_offset:
            continue  # nothing after the docstring to anchor a guard
        anchor = body[docstring_offset]
        if anchor.lineno == node.lineno:
            continue  # single-line def; a guard line cannot be placed
        pairs = []
        combined = node.args.posonlyargs + node.args.args
        positional = combined[-len(node.args.defaults):] \
            if node.args.defaults else []
        pairs += zip(positional, node.args.defaults)
        pairs += [(arg, default) for arg, default
                  in zip(node.args.kwonlyargs, node.args.kw_defaults)
                  if default is not None]
        guards = []
        for arg, default in pairs:
            if not checker._is_mutable(default):
                continue
            if _line_suppresses(suppressions, default.lineno, "R003"):
                continue
            fixes.append(Fix(
                "R003",
                (default.lineno, default.col_offset),
                (default.end_lineno, default.end_col_offset),
                "None",
                f"default {arg.arg}={ast.unparse(default)} -> None "
                "with an in-body guard"))
            guards.append((arg.arg, ast.unparse(default)))
        if guards:
            indent = " " * anchor.col_offset
            text = "".join(
                f"{indent}if {name} is None:\n"
                f"{indent}    {name} = {literal}\n"
                for name, literal in guards)
            fixes.append(Fix("R003", (anchor.lineno, 0),
                             (anchor.lineno, 0), text,
                             "insert is-None guards"))
    return fixes


# ----------------------------------------------------------------- R005

def _fix_bare_excepts(tree, lines, suppressions) -> list:
    fixes = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is not None:
            continue
        if _line_suppresses(suppressions, node.lineno, "R005"):
            continue
        line = lines[node.lineno - 1]
        match = _BARE_EXCEPT.search(line, node.col_offset)
        if match is None:
            continue  # pragma: no cover - defensive
        fixes.append(Fix(
            "R005", (node.lineno, match.start()),
            (node.lineno, match.end()), "except Exception:",
            "bare except -> except Exception (narrowing)"))
    return fixes


# ----------------------------------------------------------------- R111

def _call_at(tree, line, col):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.lineno == line \
                and node.col_offset == col:
            return node
    return None


def _fix_np_load_mmap(ctx, lines, suppressions) -> list:
    """``np.load(path)`` → ``np.load(path, mmap_mode="r")``."""
    fixes = []
    for violation in HotPathAllocation().check(ctx):
        if "mmap_mode" not in violation.message:
            continue  # the allocation findings need a human
        if _line_suppresses(suppressions, violation.line, "R111"):
            continue
        call = _call_at(ctx.tree, violation.line, violation.col)
        if call is None:
            continue  # pragma: no cover - defensive
        end_line, end_col = call.end_lineno, call.end_col_offset
        if lines[end_line - 1][end_col - 1] != ")":
            continue  # pragma: no cover - defensive
        text = ', mmap_mode="r"' if (call.args or call.keywords) \
            else 'mmap_mode="r"'
        fixes.append(Fix(
            "R111", (end_line, end_col - 1), (end_line, end_col - 1),
            text, "defer array page-in with mmap_mode=\"r\""))
    return fixes


# ----------------------------------------------------------------- R006

def _fix_dunder_all(ctx, tree, lines, suppressions) -> list:
    if not ctx.is_public_module:
        return []
    if ctx.config.path_matches(ctx.abspath, ctx.config.r006_exempt):
        return []
    checker = AllConsistency()
    bindings, has_star = checker._module_bindings(tree)
    found = checker._find_dunder_all(tree)
    if found is None:
        return _declare_dunder_all(
            tree, bindings, has_star, suppressions,
            is_package_init=ctx.path.endswith("__init__.py"))
    node, names = found
    if names is None or has_star:
        return []  # dynamic __all__ / star imports: not fixable
    if isinstance(node, ast.AugAssign):
        return []  # accumulated __all__: rewriting one part is unsafe
    if _line_suppresses(suppressions, node.lineno, "R006"):
        return []
    cleaned = []
    for name in names:
        if name in bindings and name not in cleaned:
            cleaned.append(name)
    if cleaned == names:
        return []
    return [Fix(
        "R006", (node.lineno, node.col_offset),
        (node.end_lineno, node.end_col_offset),
        _render_dunder_all(cleaned),
        "drop undefined/duplicate __all__ entries")]


def _declare_dunder_all(tree, bindings, has_star, suppressions, *,
                        is_package_init) -> list:
    if has_star:
        return []  # the real surface is unknowable statically
    if _line_suppresses(suppressions, 1, "R006"):
        return []
    public = sorted(name for name in bindings
                    if not name.startswith("_"))
    if not is_package_init:
        # Plain modules export what they define; package __init__
        # files legitimately export what they import.
        public = [name for name in public
                  if name not in _imported_names(tree)]
    if not public:
        return []
    anchor = _declaration_anchor(tree)
    text = _render_dunder_all(public) + "\n\n"
    return [Fix("R006", (anchor, 0), (anchor, 0), text,
                "declare __all__ from the module's public bindings")]


def _imported_names(tree) -> set:
    names: set = set()
    for node in AllConsistency._iter_toplevel(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
    return names


def _declaration_anchor(tree) -> int:
    """First line after the docstring/import prologue (1-based)."""
    anchor = 1
    for node in tree.body:
        is_docstring = (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str))
        if is_docstring or isinstance(node, (ast.Import,
                                             ast.ImportFrom)):
            anchor = node.end_lineno + 1
            continue
        break
    return anchor


def _render_dunder_all(names) -> str:
    single = "__all__ = [" + ", ".join(f'"{n}"' for n in names) + "]"
    if len(single) <= 79:
        return single
    body = "".join(f'    "{name}",\n' for name in names)
    return "__all__ = [\n" + body + "]"


# ------------------------------------------------------------- the run

def fix_paths(paths, config, select=None, *, check=False) -> FixResult:
    """Apply (or, with ``check=True``, only count) fixes under ``paths``.

    ``select`` restricts to a subset of :data:`FIXABLE_RULES`.  Returns
    a :class:`FixResult`; in check mode no file is written, so a
    non-zero ``total`` means the tree is not fix-clean.
    """
    from tools.reprolint.engine import _iter_python_files, \
        _package_roots
    enabled = set(FIXABLE_RULES)
    if select is not None:
        enabled &= {code.upper() for code in select}
    result = FixResult()
    files = list(_iter_python_files(paths, config))
    package_roots = _package_roots(files, config)
    for path in files:
        rel = config.relative(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError):
            continue  # lint reports these as E999; nothing to fix
        ctx = ModuleContext(
            path=rel, abspath=path.resolve(), tree=tree, config=config,
            module_name=module_name_for(rel, package_roots))
        fixes = [fix for fix in compute_fixes(source, ctx)
                 if fix.rule in enabled]
        if not fixes:
            continue
        result.fixed[rel] = len(fixes)
        result.descriptions += [
            f"{rel}:{fix.start[0]} {fix.rule} {fix.description}"
            for fix in fixes]
        if not check:
            path.write_text(apply_fixes(source, fixes),
                            encoding="utf-8")
    return result
