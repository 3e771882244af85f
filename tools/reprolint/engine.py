"""The reprolint engine: discovery, rule dispatch, caching, fan-out.

v2 turns the per-file pass into a pure function producing a replayable
:class:`~tools.reprolint.cache.FileRecord` (violations + suppression
table + import records + effect summaries).  The engine then:

1. discovers target files and computes their content hashes;
2. replays records for unchanged files from the incremental cache
   (``cache=``) and analyses the rest — serially or across processes
   (``jobs=``);
3. runs the project-level passes over the *assembled* records every
   run: R007 import cycles (resolved against the current module set)
   and the interprocedural call-graph checks (R113/R120) — which is
   how a change in one file invalidates conclusions about files that
   did not change;
4. filters per-line ``# reprolint: disable=Rxxx`` suppressions, and
   reports.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import os
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from tools.reprolint.cache import (FileRecord, content_hash,
                                   engine_fingerprint, load_cache,
                                   store_cache)
from tools.reprolint.callgraph import check_interprocedural
from tools.reprolint.config import Config
from tools.reprolint.cycles import (check_cycles, extract_import_records,
                                    module_name_for)
from tools.reprolint.registry import FILE_RULES
from tools.reprolint.rules import ModuleContext
from tools.reprolint.summaries import extract_summaries
from tools.reprolint.violations import Violation

__all__ = ["LintResult", "Violation", "lint_paths"]

#: Rule families that consume the assembled call graph; any of them
#: being enabled triggers the interprocedural project pass.
_INTERPROC_RULES = frozenset({"R113", "R120"})

#: ``# reprolint: disable=R001,R004`` (codes optional: bare ``disable``
#: silences every rule on that line).  Trailing prose is ignored so a
#: suppression can carry its rationale inline.
_SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*disable(?:=(?P<codes>[A-Za-z0-9,\s]*))?")
_CODE = re.compile(r"[ER]\d{3}")


@dataclasses.dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    #: Surviving (unsuppressed) violations in file/line order.
    violations: tuple
    #: Number of files parsed and checked.
    files_checked: int
    #: Files replayed from the incremental cache (0 without ``cache=``).
    cache_hits: int = 0
    #: Files (re-)analysed this run.
    cache_misses: int = 0

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any violation survived."""
        return 1 if self.violations else 0


def _iter_python_files(paths, config: Config):
    """Every target ``.py`` file, sorted, honouring the exclude list."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        candidates = [path] if path.is_file() \
            else sorted(path.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            if "__pycache__" in candidate.parts:
                continue
            if config.is_excluded(candidate):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _suppression_records(source: str) -> tuple:
    """``((line, codes), ...)``; empty codes = every rule silenced."""
    table = []
    for line_number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        codes = tuple(sorted({code.upper() for code
                              in _CODE.findall(match["codes"] or "")}))
        table.append((line_number, codes))
    return tuple(table)


def _package_roots(files, config: Config) -> dict:
    """Root package name -> root-relative directory, for R007.

    A package root is a directory holding ``__init__.py`` whose parent
    does not; e.g. linting ``src/repro`` yields ``{"repro": "src/repro"}``.
    """
    roots = {}
    for path in files:
        directory = path.resolve().parent
        if not (directory / "__init__.py").is_file():
            continue
        while (directory.parent / "__init__.py").is_file():
            directory = directory.parent
        roots[directory.name] = config.relative(directory)
    return roots


def _build_record(rel, abspath, source, digest, config, enabled,
                  package_roots) -> FileRecord:
    """Analyse one file: the pure per-file pass (cacheable, picklable)."""
    suppressions = _suppression_records(source)
    try:
        tree = ast.parse(source, filename=str(abspath))
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", None) or 1
        return FileRecord(
            path=rel, content_hash=digest,
            violations=(Violation(path=rel, line=line, col=0,
                                  rule="E999",
                                  message=f"cannot lint file: {error}"),),
            suppressions=suppressions, imports=(), summaries=None)
    module_name = module_name_for(rel, package_roots)
    ctx = ModuleContext(path=rel, abspath=Path(abspath), tree=tree,
                        config=config, module_name=module_name)
    violations = []
    for rule in FILE_RULES:
        if rule.code in enabled:
            violations.extend(rule.check(ctx))
    return FileRecord(
        path=rel, content_hash=digest,
        violations=tuple(sorted(violations)),
        suppressions=suppressions,
        imports=tuple(extract_import_records(tree)),
        summaries=extract_summaries(tree, module_name))


def _record_task(task, config, enabled, package_roots) -> FileRecord:
    """Top-level worker wrapper so ProcessPoolExecutor can pickle it."""
    rel, abspath, source, digest = task
    return _build_record(rel, abspath, source, digest, config, enabled,
                         package_roots)


def lint_paths(paths, config: "Config | None" = None, select=None, *,
               cache=None, jobs=1) -> LintResult:
    """Lint ``paths`` (files or directories) and return the result.

    ``select`` optionally restricts the run to a subset of rule codes;
    it intersects with (rather than overrides) the config's own
    ``select`` list.  ``cache`` names an incremental-cache file (see
    :mod:`tools.reprolint.cache`); ``jobs`` > 1 fans the per-file pass
    out across processes (0 = one per CPU).  Unreadable or unparsable
    files surface as ``E999`` violations rather than aborting the run.
    """
    config = config if config is not None else Config()
    enabled = frozenset(config.select)
    if select is not None:
        enabled &= {code.upper() for code in select}

    files = list(_iter_python_files(paths, config))
    package_roots = _package_roots(files, config)

    fingerprint = None
    cached: dict = {}
    if cache is not None:
        fingerprint = engine_fingerprint(config, enabled)
        cached = load_cache(cache, fingerprint)

    records: dict = {}
    tasks: list = []
    hits = 0
    for path in files:
        rel = config.relative(path)
        try:
            data = path.read_bytes()
        except OSError as error:
            records[rel] = FileRecord(
                path=rel, content_hash="",
                violations=(Violation(path=rel, line=1, col=0,
                                      rule="E999",
                                      message=f"cannot lint file: "
                                              f"{error}"),),
                suppressions=(), imports=())
            continue
        digest = content_hash(data)
        entry = cached.get(rel)
        if entry is not None and entry.content_hash == digest:
            records[rel] = entry
            hits += 1
            continue
        source = data.decode("utf-8", errors="replace")
        tasks.append((rel, str(path.resolve()), source, digest))

    worker = functools.partial(_record_task, config=config,
                               enabled=enabled,
                               package_roots=package_roots)
    workers = (os.cpu_count() or 1) if jobs == 0 else jobs
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fresh = list(pool.map(worker, tasks, chunksize=8))
    else:
        fresh = [worker(task) for task in tasks]
    for record in fresh:
        records[record.path] = record

    violations = [violation for record in records.values()
                  for violation in record.violations]
    if "R007" in enabled and records:
        imports_by_path = {rel: list(record.imports)
                           for rel, record in records.items()}
        violations.extend(check_cycles(imports_by_path, package_roots))
    if enabled & _INTERPROC_RULES and records:
        violations.extend(check_interprocedural(
            records, package_roots, config, enabled))

    suppressions = {rel: record.suppression_table()
                    for rel, record in records.items()}
    surviving = []
    for violation in sorted(violations):
        silenced = suppressions.get(violation.path, {}) \
            .get(violation.line)
        if silenced is not None \
                and (not silenced or violation.rule in silenced):
            continue
        surviving.append(violation)

    if cache is not None:
        # Merge records left over from a previous run (files outside
        # this run's targets, e.g. a run over one subpackage) so a
        # partial run never evicts the rest of the warm cache; a stale
        # merged entry is harmless — the hash check rejects it next
        # time.
        stored = dict(cached)
        stored.update(records)
        store_cache(cache, fingerprint,
                    {rel: record for rel, record in stored.items()
                     if record.content_hash})
    return LintResult(violations=tuple(surviving),
                      files_checked=len(files), cache_hits=hits,
                      cache_misses=len(tasks))
