"""Versioned on-disk persistence for LSI indexes.

A bundle (schema 4) is a directory of six flat ``.npy`` files plus a
manifest:

- one ``.npy`` per array — the basis ``u``, ``singular_values``,
  ``frobenius_norm_sq``, the document store ``doc_unit`` (unit
  columns, fitted then folded) with ``doc_norms``, and ``tombstones``
  — the writer's own float64 arrays, bit-exact, so a load reproduces
  in-memory rankings and refits exactly (``Vₖᵀ`` is derived from the
  store on demand, not stored);
- ``manifest.json`` — schema version, shape summary, per-file SHA-256
  checksums (corruption detection), an environment fingerprint (same
  spirit as the benchmark harness's ``BENCH_*.json`` fingerprints:
  informational, never used for matching), the serving counters, and
  the writer's drift accounting.

Flat ``.npy`` files exist for exactly one reason: ``np.load(...,
mmap_mode="r")`` only memory-maps plain ``.npy`` files (arrays inside
an ``.npz`` zip are always decompressed into fresh memory), and the
O(manifest) cold-start path depends on mapping the large factors
read-only.  ``read_bundle(path, mmap=True)`` does exactly that — ``u``
and ``doc_unit`` stay on disk until a query's GEMM first touches their
pages —
and skips checksum verification, since hashing every byte would defeat
the point; eager reads always verify.

``write_bundle`` writes each ``.npy`` itself, with the bytes
``np.save`` would write, straight from the writer's arrays: a store
that is a view of a wider, appendable buffer goes out row by row, not
through a contiguous copy, and each file is hashed as it is written.
Nothing a save reads is written to, since no write touches a column of
a store the writer has published.  ``write_bundle`` never truncates a
file in place either.  It writes each file under a temporary name and
renames it over the old one, the manifest last, so a process that
still maps the old file keeps reading the old bytes.

Loading is strict: a missing or unparsable manifest, a foreign
``format`` marker, a ``schema_version`` other than 4, a checksum
mismatch, shape disagreement between manifest and arrays, or a
manifest field of the wrong JSON type or out of its range
(:func:`check_manifest`; the manifest has no checksum) all raise
:class:`~repro.errors.PersistenceError`.
Manifest keys the reader does not use are ignored.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.errors import PersistenceError, ValidationError
from repro.serving.stats import ServingStats
from repro.utils.validation import check_fraction, check_non_negative_int

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_SCHEMA_VERSION",
    "ChecksumMismatch",
    "IndexBundle",
    "check_manifest",
    "check_manifest_values",
    "checksum_failures",
    "environment_fingerprint",
    "read_bundle",
    "read_manifest",
    "sha256_file",
    "write_bundle",
]

#: Marker distinguishing our bundles from arbitrary array+json directories.
BUNDLE_FORMAT = "repro-lsi-index"

#: The only manifest schema version written and read (flat mmap-able
#: npy, one copy of the document store).
BUNDLE_SCHEMA_VERSION = 4

#: File name of the manifest inside a bundle directory.
MANIFEST_NAME = "manifest.json"

#: Arrays a bundle stores, one ``<name>.npy`` file each.
_ARRAYS = ("u", "singular_values", "frobenius_norm_sq", "doc_unit",
           "doc_norms", "tombstones")

#: Arrays worth memory-mapping (the O(n·k)/O(k·m) payloads); the rest
#: are O(k)/O(m) vectors loaded eagerly even under ``mmap``.
_LARGE_ARRAYS = ("u", "doc_unit")

def _check_real(value, name: str) -> float:
    """``value`` as a float, requiring a real number (not a bool)."""
    if isinstance(value, bool) \
            or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_manifest_values(drift_threshold, unabsorbed_energy,
                          stats: ServingStats) -> None:
    """The rules a bundle's writer state and counters must meet.

    :class:`IndexBundle` checks its own values with this function, and
    :func:`check_manifest` a manifest's.

    Args:
        drift_threshold: a number in ``[0, 1]``, or ``None``.
        unabsorbed_energy: a finite, non-negative number.
        stats: non-negative int counters, a ``drift`` in ``[0, 1]``
            and a bool ``refit_recommended``.

    Raises:
        ValidationError: naming the first value that breaks its rule.
    """
    if drift_threshold is not None:
        check_fraction(drift_threshold, "drift_threshold")
    energy = _check_real(unabsorbed_energy, "unabsorbed_energy")
    if not (math.isfinite(energy) and energy >= 0.0):
        raise ValidationError(
            f"unabsorbed_energy must be finite and non-negative, "
            f"got {energy}")
    for item in fields(stats):
        name, value = f"stats.{item.name}", getattr(stats, item.name)
        if item.name == "drift":
            check_fraction(value, name)
        elif item.name == "refit_recommended":
            if not isinstance(value, bool):
                raise ValidationError(
                    f"{name} must be a bool, got {value!r}")
        else:
            check_non_negative_int(value, name)


def check_manifest(manifest: dict) -> ServingStats:
    """The rules a manifest's fields must meet; return its counters.

    The manifest has no checksum, so a load checks every field it
    reads with this function, and ``repro serve-stats`` checks a
    manifest with it before it reports one.  Each field is checked
    where present and not null: the counts (``rank``, ``n_terms``,
    ``n_documents``, ``n_original``, ``n_tombstoned``) must be
    non-negative integers, ``captured_energy`` a number, ``stats`` and
    ``env`` objects and ``vocabulary`` an array; the writer state and
    the counters must then meet :func:`check_manifest_values`.

    Args:
        manifest: a parsed manifest (see :func:`read_manifest`).

    Raises:
        ValidationError: naming the first field that breaks its rule.
    """
    for key in ("rank", "n_terms", "n_documents", "n_original",
                "n_tombstoned"):
        if manifest.get(key) is not None:
            check_non_negative_int(manifest[key], f"manifest {key}")
    if manifest.get("captured_energy") is not None:
        _check_real(manifest["captured_energy"], "manifest captured_energy")
    for key, kind, name in (("stats", dict, "object"),
                            ("env", dict, "object"),
                            ("vocabulary", list, "array")):
        value = manifest.get(key)
        if value is not None and not isinstance(value, kind):
            raise ValidationError(
                f"manifest {key} must be a JSON {name}, got {value!r}")
    stats = ServingStats.from_dict(manifest.get("stats") or {})
    check_manifest_values(manifest.get("drift_threshold"),
                          manifest.get("unabsorbed_energy", 0.0), stats)
    return stats


def environment_fingerprint() -> dict:
    """A JSON-ready description of the interpreter that wrote a bundle.

    Mirrors the benchmark harness's report fingerprint: recorded for
    provenance and debugging (a ranking diff across machines usually
    starts with "different BLAS"), never consulted when loading.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def sha256_file(path: Path) -> str:
    """``sha256:<hex>`` digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


@dataclass(frozen=True)
class ChecksumMismatch:
    """One array file that failed bundle checksum verification.

    Attributes:
        name: the file name inside the bundle directory.
        expected: the digest recorded in the manifest (``None`` when
            the manifest records no checksum for the file).
        actual: the recomputed digest (``None`` when the file is
            missing on disk).
    """

    name: str
    expected: "str | None"
    actual: "str | None"

    def describe(self) -> str:
        """A one-line human-readable account of the failure."""
        if self.actual is None:
            return f"{self.name}: missing (expected {self.expected})"
        if self.expected is None:
            return (f"{self.name}: no recorded checksum "
                    f"(actual {self.actual})")
        return (f"{self.name}: expected {self.expected}, "
                f"actual {self.actual}")


@dataclass(frozen=True)
class IndexBundle:
    """The in-memory image of a persisted LSI index.

    Attributes:
        u: ``(n_terms, k)`` basis ``Uₖ`` the index projects onto.
        singular_values: the ``k`` singular values of the served
            factors.
        frobenius_norm_sq: ``‖A‖_F²`` of the matrix they decompose.
        doc_unit: ``(k, m_total)`` document store, every column scaled
            to unit length — fitted documents, then folded-in ones.
        doc_norms: length-``m_total`` column norms paired with
            ``doc_unit``.
        n_original: how many leading store columns came from the fit
            (the rest were folded in).
        tombstones: ids of deleted (masked-out) documents.
        unabsorbed_energy: the writer's accumulated out-of-subspace /
            deleted energy (drift numerator).
        drift_threshold: drift level past which a refit is recommended
            (``None`` disables the recommendation).
        stats: serving counters at save time.
        vocabulary: optional term strings (position = term id).
        index_version: content hash of the array payload (filled on
            write/read; empty for bundles never persisted).
        created_at: ISO-8601 UTC write timestamp (filled on write).
        env: environment fingerprint of the writing interpreter.

    Raises:
        ValidationError: on arrays that disagree on ``k`` or ``m``, an
            id or count out of range, a ``drift_threshold`` outside
            ``[0, 1]``, a negative or non-finite ``unabsorbed_energy``,
            or a ``stats`` field of the wrong type or range.
    """

    u: np.ndarray
    singular_values: np.ndarray
    frobenius_norm_sq: float
    doc_unit: np.ndarray
    doc_norms: np.ndarray
    n_original: int
    tombstones: tuple = ()
    unabsorbed_energy: float = 0.0
    drift_threshold: "float | None" = 0.1
    stats: ServingStats = field(default_factory=ServingStats)
    vocabulary: "tuple | None" = None
    index_version: str = ""
    created_at: str = ""
    env: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.u.ndim != 2 or self.doc_unit.ndim != 2 \
                or self.singular_values.shape != (self.u.shape[1],) \
                or self.doc_unit.shape[0] != self.u.shape[1]:
            raise ValidationError(
                f"u {self.u.shape}, singular_values "
                f"{self.singular_values.shape} and doc_unit "
                f"{self.doc_unit.shape} must agree on the rank k")
        if self.doc_norms.shape != (self.n_documents,):
            raise ValidationError(
                f"doc_norms shape {self.doc_norms.shape} does not "
                f"match {self.n_documents} documents")
        check_non_negative_int(self.n_original, "n_original")
        if self.n_original > self.n_documents:
            raise ValidationError(
                f"n_original={self.n_original} out of range for "
                f"{self.n_documents} stored documents")
        bad = [d for d in self.tombstones
               if not 0 <= int(d) < self.n_documents]
        if bad:
            raise ValidationError(
                f"tombstoned ids {bad} out of range for "
                f"{self.n_documents} stored documents")
        if self.vocabulary is not None \
                and len(self.vocabulary) != self.u.shape[0]:
            raise ValidationError(
                f"vocabulary has {len(self.vocabulary)} terms; the index "
                f"has {self.u.shape[0]}")
        check_manifest_values(self.drift_threshold,
                              self.unabsorbed_energy, self.stats)

    @property
    def n_documents(self) -> int:
        """Total stored documents (fitted + folded, incl. tombstoned)."""
        return int(self.doc_unit.shape[1])

    def manifest(self) -> dict:
        """The JSON-ready manifest describing this bundle."""
        return {
            "format": BUNDLE_FORMAT,
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "created_at": self.created_at,
            "index_version": self.index_version,
            "rank": int(self.u.shape[1]),
            "n_terms": int(self.u.shape[0]),
            "n_documents": self.n_documents,
            "n_original": int(self.n_original),
            "n_tombstoned": len(self.tombstones),
            "unabsorbed_energy": float(self.unabsorbed_energy),
            "captured_energy": math.fsum(
                float(s) * float(s) for s in self.singular_values),
            "drift_threshold": self.drift_threshold,
            "stats": self.stats.as_dict(),
            "vocabulary": (list(self.vocabulary)
                           if self.vocabulary is not None else None),
            "env": self.env,
            "checksums": {},
        }


@contextmanager
def _replacing(target: Path):
    """An open binary handle whose bytes replace ``target`` on exit.

    The bytes go to a temporary name beside ``target``, which is then
    renamed over it: a process that maps the old file keeps its old
    bytes, and an error leaves ``target`` untouched.
    """
    staging = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(staging, "wb") as handle:
            yield handle
        os.replace(staging, target)
    finally:
        staging.unlink(missing_ok=True)


def _write_npy(handle, array: np.ndarray) -> str:
    """Write ``array`` to ``handle`` as ``np.save`` does; return the
    ``sha256:<hex>`` digest of the bytes written.

    numpy writes the header.  The data goes out straight from the
    array; a strided one (a store that is a view of a wider buffer)
    goes out row by row, where ``np.save`` would take its buffered
    copy.  Each chunk is hashed as it goes out, so the file is never
    read back.
    """
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array))
    if array.flags.c_contiguous:
        chunks = [array]
    elif array.flags.f_contiguous:
        chunks = [array.T]  # np.save writes Fortran order's bytes as is
    else:
        chunks = [np.ascontiguousarray(row) for row in array]
    digest = hashlib.sha256(header.getvalue())
    handle.write(header.getvalue())
    for chunk in chunks:
        digest.update(chunk)
        handle.write(chunk)
    return f"sha256:{digest.hexdigest()}"


def write_bundle(path, bundle: IndexBundle) -> Path:
    """Persist ``bundle`` to directory ``path`` (created if needed).

    Writes one ``.npy`` per array, straight from the bundle's arrays,
    with the bytes ``np.save`` would write, and records each file's
    digest as its bytes go out.

    Returns the bundle directory.  Overwrites an existing bundle at the
    same path by renaming each new file over the old one, the manifest
    last, so a reader that maps the old files is never truncated under;
    refuses to write into a path occupied by a file.

    Raises:
        PersistenceError: if ``path`` exists and is not a directory.
    """
    directory = Path(path)
    if directory.exists() and not directory.is_dir():
        raise PersistenceError(
            f"bundle path {directory} exists and is not a directory")
    directory.mkdir(parents=True, exist_ok=True)

    arrays = {
        "u": bundle.u,
        "singular_values": bundle.singular_values,
        "frobenius_norm_sq": np.float64(bundle.frobenius_norm_sq),
        "doc_unit": bundle.doc_unit,
        "doc_norms": bundle.doc_norms,
        "tombstones": np.asarray(sorted(bundle.tombstones),
                                 dtype=np.int64),
    }
    checksums = {}
    for name in _ARRAYS:
        with _replacing(directory / f"{name}.npy") as handle:
            checksums[f"{name}.npy"] = _write_npy(
                handle, np.asarray(arrays[name]))

    version_digest = hashlib.sha256(
        "".join(checksums[key] for key in sorted(checksums))
        .encode("ascii")).hexdigest()
    stamped = replace(bundle,
                      index_version=version_digest[:16],
                      created_at=datetime.now(timezone.utc).isoformat(),
                      env=bundle.env or environment_fingerprint())
    manifest = stamped.manifest()
    manifest["checksums"] = checksums
    with _replacing(directory / MANIFEST_NAME) as handle:
        handle.write((json.dumps(manifest, indent=2, sort_keys=True)
                      + "\n").encode("utf-8"))
    return directory


def read_manifest(path, *, verify_arrays: bool = False) -> dict:
    """Load and validate a bundle's manifest without loading arrays.

    Args:
        path: the bundle directory.
        verify_arrays: also recompute the array payload checksums.

    Raises:
        PersistenceError: missing/unparsable manifest, foreign format,
            a schema version other than 4, or (with ``verify_arrays``)
            a checksum mismatch.
    """
    directory = Path(path)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise PersistenceError(
            f"{directory} is not an index bundle: no {MANIFEST_NAME}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise PersistenceError(
            f"unreadable bundle manifest {manifest_path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise PersistenceError(
            f"{directory} manifest is not a JSON object")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise PersistenceError(
            f"{directory} is not a {BUNDLE_FORMAT} bundle (format marker "
            f"is {manifest.get('format')!r}); refusing to load a foreign "
            "bundle")
    version = manifest.get("schema_version")
    if version != BUNDLE_SCHEMA_VERSION:
        raise PersistenceError(
            f"unsupported bundle schema_version {version!r}; this "
            f"reader handles {BUNDLE_SCHEMA_VERSION} only (no older "
            "checkout writes it: rebuild the index from its corpus and "
            "save it again)")
    if verify_arrays:
        _verify_checksums(directory, manifest)
    return manifest


def checksum_failures(directory, manifest: dict
                      ) -> "list[ChecksumMismatch]":
    """Every array file whose digest disagrees with the manifest.

    Checks *all* recorded files instead of stopping at the first
    problem, so a corruption report (``repro serve-stats --verify``)
    names each damaged file with its expected and actual digests.

    Args:
        directory: the bundle directory.
        manifest: its parsed manifest (see :func:`read_manifest`).

    Returns:
        One :class:`ChecksumMismatch` per failing file (empty when the
        payload is intact), in manifest array order.
    """
    directory = Path(directory)
    recorded = manifest.get("checksums")
    if not isinstance(recorded, dict):
        recorded = {}
    failures = []
    for name in (f"{array}.npy" for array in _ARRAYS):
        array_path = directory / name
        expected = recorded.get(name)
        if not array_path.is_file():
            failures.append(ChecksumMismatch(name, expected, None))
            continue
        actual = sha256_file(array_path)
        if expected is None or actual != expected:
            failures.append(ChecksumMismatch(name, expected, actual))
    return failures


def _verify_checksums(directory: Path, manifest: dict) -> None:
    """Recompute the array payload digests and compare to the manifest.

    Raises one :class:`~repro.errors.PersistenceError` listing *every*
    mismatching file individually, not just the first.
    """
    failures = checksum_failures(directory, manifest)
    if failures:
        details = "; ".join(f.describe() for f in failures)
        raise PersistenceError(
            f"bundle {directory} failed checksum verification for "
            f"{len(failures)} file(s): {details}")


def _load_npy_arrays(directory: Path, *, mmap: bool) -> dict:
    """Load a bundle's payload, optionally mapping the large arrays.

    Under ``mmap`` the :data:`_LARGE_ARRAYS` come back as read-only
    ``np.memmap`` views — O(page table) now, real I/O deferred to first
    touch — while the small per-column vectors load eagerly.
    """
    arrays = {}
    for name in _ARRAYS:
        array_path = directory / f"{name}.npy"
        if not array_path.is_file():
            raise PersistenceError(
                f"bundle {directory} is missing {name}.npy")
        mode = "r" if mmap and name in _LARGE_ARRAYS else None
        try:
            arrays[name] = np.load(array_path, allow_pickle=False,
                                   mmap_mode=mode)
        except (OSError, ValueError) as error:
            raise PersistenceError(
                f"unreadable bundle array {array_path}: {error}"
            ) from error
    return arrays


def read_bundle(path, *, mmap: bool = False) -> IndexBundle:
    """Load, verify, and shape-check a bundle from disk.

    Args:
        path: the bundle directory.
        mmap: map the large arrays read-only instead of loading them.
            The mmap path is the O(manifest) cold start: it skips
            checksum verification — hashing the payload would read
            every byte and defeat the deferral — so corruption
            surfaces as wrong scores, not a load-time error.  Eager
            loads always verify.

    Raises:
        PersistenceError: on any integrity failure — see
            :func:`read_manifest` plus array/shape validation.
    """
    directory = Path(path)
    manifest = read_manifest(directory)
    if not mmap:
        _verify_checksums(directory, manifest)
    arrays = _load_npy_arrays(directory, mmap=mmap)
    vocabulary = manifest.get("vocabulary")
    try:
        stats = check_manifest(manifest)
        bundle = IndexBundle(
            u=arrays["u"],
            singular_values=arrays["singular_values"],
            frobenius_norm_sq=float(arrays["frobenius_norm_sq"]),
            doc_unit=arrays["doc_unit"],
            doc_norms=arrays["doc_norms"],
            n_original=manifest.get("n_original",
                                    int(arrays["doc_unit"].shape[-1])),
            tombstones=tuple(int(d) for d in arrays["tombstones"]),
            unabsorbed_energy=manifest.get("unabsorbed_energy", 0.0),
            drift_threshold=manifest.get("drift_threshold"),
            stats=stats,
            vocabulary=tuple(vocabulary) if vocabulary else None,
            index_version=str(manifest.get("index_version", "")),
            created_at=str(manifest.get("created_at", "")),
            env=dict(manifest.get("env") or {}))
    except ValidationError as error:
        raise PersistenceError(
            f"bundle {directory} failed validation: {error}") from error
    expected = {"rank": int(bundle.u.shape[1]),
                "n_terms": int(bundle.u.shape[0]),
                "n_documents": bundle.n_documents}
    for key, actual in expected.items():
        recorded = manifest.get(key)
        if recorded is not None and recorded != actual:
            raise PersistenceError(
                f"bundle {directory} manifest/array mismatch: manifest "
                f"says {key}={recorded}, arrays say {actual}")
    return bundle
