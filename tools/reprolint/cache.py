"""The incremental lint cache: skip re-analysing unchanged files.

One JSON document holds, per linted file, everything the engine
extracted from it: the per-file violations, the suppression table, the
raw import records (R007's input) and the per-function effect
summaries (the interprocedural passes' input), all keyed by the file's
content hash.  On a warm run a file whose hash matches is never re-read
past the hash check — its record is replayed — while the *project*
passes (import cycles, the interprocedural call-graph checks) always
recompute from the assembled records.  That split is the cross-file
invalidation story: editing ``a.py`` refreshes ``a.py``'s record —
changing its functions' summary hashes — and because cycles and the
call-graph checks re-resolve against every record each run, a new edge
or changed callee effect involving an *unchanged* ``b.py`` is still
found.

The whole cache is invalidated by an *engine fingerprint*: the hash of
every ``tools/reprolint/*.py`` source plus the resolved configuration
and the enabled rule set.  Changing a rule, a config knob, or the
selection can change any file's findings, so stale records must never
survive it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from tools.reprolint.violations import Violation

__all__ = [
    "CACHE_VERSION",
    "FileRecord",
    "content_hash",
    "default_cache_path",
    "engine_fingerprint",
    "load_cache",
    "store_cache",
]

#: Bumped whenever the record layout changes shape.
CACHE_VERSION = 3

#: Default cache location, relative to the project root.
DEFAULT_CACHE_NAME = ".reprolint-cache.json"


@dataclasses.dataclass(frozen=True)
class FileRecord:
    """Everything the engine extracted from one file, replayable."""

    #: Root-relative posix path.
    path: str
    #: sha256 hex digest of the file's bytes when analysed.
    content_hash: str
    #: Per-file rule violations (including E999 parse errors).
    violations: tuple
    #: ``((line, codes-tuple-or-None), ...)`` suppression table; an
    #: empty codes tuple silences every rule on that line.
    suppressions: tuple
    #: Raw module-level import records (R007 input).
    imports: tuple
    #: Per-function effect summaries (interprocedural input); None
    #: when the file failed to parse.
    summaries: "dict | None" = None

    def suppression_table(self) -> dict:
        """``{line: frozenset-of-codes}`` (empty set = every code)."""
        return {line: frozenset(codes)
                for line, codes in self.suppressions}

    def as_json(self) -> dict:
        return {
            "path": self.path,
            "hash": self.content_hash,
            "violations": [v.as_dict() for v in self.violations],
            "suppressions": [[line, list(codes)]
                             for line, codes in self.suppressions],
            "imports": list(self.imports),
            "summaries": self.summaries,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FileRecord":
        return cls(
            path=payload["path"],
            content_hash=payload["hash"],
            violations=tuple(Violation(**entry)
                             for entry in payload["violations"]),
            suppressions=tuple((line, tuple(codes))
                               for line, codes in payload["suppressions"]),
            imports=tuple(payload["imports"]),
            summaries=payload.get("summaries"),
        )


def content_hash(data: bytes) -> str:
    """sha256 hex digest of one file's bytes."""
    return hashlib.sha256(data).hexdigest()


def default_cache_path(root) -> Path:
    """Where ``--cache`` puts the cache when no path is given."""
    return Path(root) / DEFAULT_CACHE_NAME


def engine_fingerprint(config, enabled) -> str:
    """Hash of the analyser itself + settings; any change voids the cache."""
    digest = hashlib.sha256()
    package_dir = Path(__file__).resolve().parent
    for source in sorted(package_dir.glob("*.py")):
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    digest.update(repr(sorted(
        (field.name, str(getattr(config, field.name)))
        for field in dataclasses.fields(config))).encode())
    digest.update(repr(sorted(enabled)).encode())
    return digest.hexdigest()


def load_cache(path, fingerprint: str) -> dict:
    """``{rel-path: FileRecord}`` from ``path``, or ``{}``.

    Any mismatch — missing file, unreadable JSON, wrong version, stale
    fingerprint, malformed record — yields an empty cache: a cold run
    is always correct, so the cache fails open.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) \
            or payload.get("version") != CACHE_VERSION \
            or payload.get("fingerprint") != fingerprint:
        return {}
    records = {}
    try:
        for rel, entry in payload.get("files", {}).items():
            records[rel] = FileRecord.from_json(entry)
    except (KeyError, TypeError, ValueError):
        return {}
    return records


def store_cache(path, fingerprint: str, records: dict) -> None:
    """Persist ``{rel-path: FileRecord}``; failures are non-fatal."""
    payload = {
        "version": CACHE_VERSION,
        "fingerprint": fingerprint,
        "files": {rel: record.as_json()
                  for rel, record in sorted(records.items())},
    }
    try:
        cache_path = Path(path)
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_suffix(cache_path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True),
                       encoding="utf-8")
        tmp.replace(cache_path)
    except OSError:  # pragma: no cover - disk-full/readonly paths
        pass
