"""The reprolint command line.

Run as ``python -m tools.reprolint [paths...]`` from the repository
root, or as ``repro lint`` through the packaged CLI.  Exit codes follow
compiler convention: 0 clean, 1 violations found, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.reprolint.cache import default_cache_path
from tools.reprolint.config import (ALL_RULE_CODES, ConfigError,
                                    load_config)
from tools.reprolint.engine import lint_paths
from tools.reprolint.fixes import fix_paths
from tools.reprolint.registry import CATALOGUE, RULES
from tools.reprolint.reporters import (render_github, render_json,
                                       render_sarif, render_text)

_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
    "github": render_github,
}

__all__ = ["build_parser", "main"]

#: Default lint target when none is given on the command line.
DEFAULT_TARGET = "src/repro"


def build_parser() -> argparse.ArgumentParser:
    """The reprolint argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Repo-aware static analysis for numerical "
                    "correctness (RNG discipline, sparse/dense "
                    "boundaries, export hygiene, import cycles).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             f"(default: {DEFAULT_TARGET})")
    parser.add_argument("--format", "-f",
                        choices=("text", "json", "sarif", "github"),
                        default="text", dest="format",
                        help="report format (default: text)")
    parser.add_argument("--select", default=None, metavar="Rxxx,...",
                        help="comma-separated rule codes to run "
                             "(default: every configured rule)")
    parser.add_argument("--config", default=None, metavar="PYPROJECT",
                        help="explicit pyproject.toml to read "
                             "[tool.reprolint] from")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--explain", default=None, metavar="Rxxx",
                        help="print one rule's catalogue entry "
                             "(description, example finding, fix "
                             "guidance) and exit")
    parser.add_argument("--fix", action="store_true",
                        help="apply the safe autofixes (R003/R005/"
                             "R006/R111) before linting")
    parser.add_argument("--check", action="store_true",
                        help="with --fix: report what would change "
                             "without writing; exit 1 if anything "
                             "would")
    parser.add_argument("--cache", action="store_true",
                        help="reuse the incremental cache "
                             "(.reprolint-cache.json at the project "
                             "root)")
    parser.add_argument("--cache-file", default=None, metavar="PATH",
                        help="explicit cache location (implies "
                             "--cache)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        metavar="N",
                        help="analyse files across N processes "
                             "(0 = one per CPU; default 1)")
    return parser


def _parse_select(raw) -> "list | None":
    """Validate a ``--select`` value into rule codes."""
    if raw is None:
        return None
    codes = [code.strip().upper() for code in raw.split(",")
             if code.strip()]
    unknown = sorted(set(codes) - set(ALL_RULE_CODES))
    if unknown:
        raise ConfigError(
            f"unknown rule code(s) in --select: {', '.join(unknown)}")
    return codes


def _explain(code: str) -> int:
    """Print one rule's catalogue entry; exit 2 on unknown codes."""
    code = code.upper()
    entry = CATALOGUE.get(code)
    if entry is None:
        print(f"reprolint: no catalogue entry for {code!r}; known "
              f"codes are {', '.join(sorted(CATALOGUE))}",
              file=sys.stderr)
        return 2
    print(f"{code}  {RULES.get(code, '')}")
    print()
    print(entry["description"])
    print()
    print(f"Example finding:\n  {entry['example']}")
    print()
    print(f"How to fix:\n  {entry['fix']}")
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    if args.explain is not None:
        return _explain(args.explain)
    try:
        select = _parse_select(args.select)
        config = load_config(args.config)
    except ConfigError as error:
        print(f"reprolint: {error}", file=sys.stderr)
        return 2
    paths = args.paths or [str(config.root / DEFAULT_TARGET)]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"reprolint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.check and not args.fix:
        print("reprolint: --check requires --fix", file=sys.stderr)
        return 2
    if args.fix:
        fixed = fix_paths(paths, config, select, check=args.check)
        for description in fixed.descriptions:
            print(("would fix: " if args.check else "fixed: ")
                  + description)
        if args.check:
            if fixed.total:
                print(f"reprolint: {fixed.total} fix(es) pending; "
                      "run --fix")
                return 1
            print("reprolint: tree is fix-clean")
            return 0
    cache = None
    if args.cache or args.cache_file:
        cache = args.cache_file or default_cache_path(config.root)
    result = lint_paths(paths, config=config, select=select,
                        cache=cache, jobs=args.jobs)
    print(_RENDERERS[args.format](result))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
