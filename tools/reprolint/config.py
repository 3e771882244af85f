"""Configuration for reprolint: the ``[tool.reprolint]`` pyproject table.

The table is intentionally small::

    [tool.reprolint]
    select = ["R001", "R002"]          # default: every rule
    exclude = ["src/repro/_vendored"]  # paths never linted
    r001-allow = ["src/repro/utils/rng.py"]
    r004-allow = ["src/repro/linalg"]
    r006-exempt = ["src/repro/conftest.py"]
    r111-scope = ["src/repro/serving", "src/repro/linalg/dense.py"]
    r112-scope = []                    # empty scope = everywhere
    r113-scope = []                    # lock/blocking discipline
    r120-scope = ["src/repro/serving"] # exception-contract flow

Keys may be spelled with dashes or underscores.  Path entries are
interpreted relative to the project root (the directory holding
``pyproject.toml``) and match a file when they equal its path, glob onto
it (:mod:`fnmatch`), or name one of its parent directories.
"""

from __future__ import annotations

import dataclasses
import fnmatch
from pathlib import Path

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on 3.10
    try:
        import tomli as _toml  # type: ignore[import-not-found,no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]

__all__ = ["Config", "ConfigError", "find_pyproject", "load_config"]

#: Every rule code reprolint knows about, in catalogue order.
ALL_RULE_CODES = ("R001", "R002", "R003", "R004", "R005", "R006", "R007",
                  "R111", "R112", "R113", "R120")

_LIST_KEYS = ("select", "exclude", "r001_allow", "r004_allow",
              "r006_exempt", "r111_scope", "r112_scope", "r113_scope",
              "r120_scope")


class ConfigError(ValueError):
    """Raised when ``[tool.reprolint]`` cannot be parsed or validated."""


@dataclasses.dataclass(frozen=True)
class Config:
    """Resolved reprolint settings for one project tree."""

    #: Project root; every path below is relative to it.
    root: Path = Path(".")
    #: Enabled rule codes (catalogue order, subset of ALL_RULE_CODES).
    select: tuple = ALL_RULE_CODES
    #: Paths never linted at all.
    exclude: tuple = ()
    #: Files where ``np.random.*`` calls are sanctioned (the RNG module).
    r001_allow: tuple = ()
    #: Files/directories where dense materialization is sanctioned.
    r004_allow: tuple = ()
    #: Public modules not required to declare ``__all__``.
    r006_exempt: tuple = ()
    #: Hot paths where R111 allocation checks run (empty = everywhere).
    r111_scope: tuple = ()
    #: Paths where R112 concurrency checks run (empty = everywhere).
    r112_scope: tuple = ()
    #: Paths where R113 lock/blocking discipline runs (empty = everywhere).
    r113_scope: tuple = ()
    #: Paths where R120 exception-contract flow runs (empty = everywhere).
    r120_scope: tuple = ()

    def relative(self, path) -> str:
        """``path`` as a posix string relative to the project root."""
        resolved = Path(path).resolve()
        try:
            return resolved.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return resolved.as_posix()

    def path_matches(self, path, patterns) -> bool:
        """True when ``path`` matches any root-relative ``patterns`` entry."""
        rel = self.relative(path)
        for pattern in patterns:
            pattern = pattern.rstrip("/")
            if (rel == pattern or fnmatch.fnmatch(rel, pattern)
                    or rel.startswith(pattern + "/")):
                return True
        return False

    def is_excluded(self, path) -> bool:
        """True when ``path`` is excluded from linting entirely."""
        return self.path_matches(path, self.exclude)


def find_pyproject(start) -> "Path | None":
    """The nearest ``pyproject.toml`` at or above ``start``, if any."""
    directory = Path(start).resolve()
    if directory.is_file():
        directory = directory.parent
    for candidate in (directory, *directory.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _parse_toml_table(text: str) -> dict:
    """The ``[tool.reprolint]`` table of a pyproject document.

    Uses :mod:`tomllib` (or ``tomli``) when available; otherwise falls
    back to a minimal line parser that understands the restricted
    subset reprolint documents: string scalars and (possibly
    multi-line) arrays of strings.
    """
    if _toml is not None:
        document = _toml.loads(text)
        return document.get("tool", {}).get("reprolint", {})
    table: dict = {}
    in_table = False
    pending_key = None
    pending_items: list = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            in_table = line == "[tool.reprolint]"
            pending_key = None
            continue
        if not in_table:
            continue
        if pending_key is not None:
            pending_items.extend(_parse_string_items(line))
            if line.endswith("]"):
                table[pending_key] = pending_items
                pending_key, pending_items = None, []
            continue
        if "=" not in line:
            raise ConfigError(f"cannot parse config line: {raw_line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if value.startswith("[") and not value.endswith("]"):
            pending_key = key
            pending_items = _parse_string_items(value)
        elif value.startswith("["):
            table[key] = _parse_string_items(value)
        elif value in ("true", "false"):
            table[key] = value == "true"
        else:
            table[key] = value.strip("\"'")
    return table


def _parse_string_items(fragment: str) -> list:
    """Quoted strings in one line of an (inline or multi-line) array."""
    items = []
    rest = fragment.strip().strip("[],")
    while '"' in rest or "'" in rest:
        quote = '"' if '"' in rest else "'"
        _, _, rest = rest.partition(quote)
        item, _, rest = rest.partition(quote)
        items.append(item)
    return items


def load_config(pyproject=None, *, start=".") -> Config:
    """Load reprolint configuration.

    ``pyproject`` may name the file explicitly; otherwise the nearest
    ``pyproject.toml`` at or above ``start`` is used.  A missing file
    yields the defaults with ``root`` set to ``start``.
    """
    path = Path(pyproject) if pyproject is not None \
        else find_pyproject(start)
    if path is None:
        return Config(root=Path(start).resolve())
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    table = _parse_toml_table(path.read_text(encoding="utf-8"))
    kwargs: dict = {"root": path.resolve().parent}
    for raw_key, value in table.items():
        key = raw_key.replace("-", "_")
        if key not in _LIST_KEYS:
            raise ConfigError(f"unknown [tool.reprolint] key: {raw_key!r}")
        if (not isinstance(value, list)
                or any(not isinstance(item, str) for item in value)):
            raise ConfigError(
                f"[tool.reprolint] {raw_key} must be a list of strings")
        kwargs[key] = tuple(value)
    if "select" in kwargs:
        kwargs["select"] = _validate_select(kwargs["select"])
    return Config(**kwargs)


def _validate_select(codes) -> tuple:
    """Normalise a rule-code selection, rejecting unknown codes."""
    normalised = tuple(code.upper() for code in codes)
    unknown = sorted(set(normalised) - set(ALL_RULE_CODES))
    if unknown:
        raise ConfigError(
            f"unknown rule code(s): {', '.join(unknown)}; "
            f"known codes are {', '.join(ALL_RULE_CODES)}")
    return tuple(code for code in ALL_RULE_CODES if code in normalised)
