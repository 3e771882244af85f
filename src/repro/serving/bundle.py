"""Versioned on-disk persistence for LSI indexes.

A schema-3 bundle is a directory of flat ``.npy`` files plus a
manifest:

- one ``.npy`` per array — the truncated SVD factors (``u``,
  ``singular_values``, ``vt``, ``frobenius_norm_sq``), the (possibly
  fold-extended) document store ``doc_vectors``, the *pre-normalised*
  serving factors ``doc_unit``/``doc_norms``, and ``tombstones`` — all
  bit-exact float64 so a load reproduces in-memory rankings exactly;
- ``manifest.json`` — schema version, shape summary, the compute
  precision the index was served at, per-file SHA-256 checksums
  (corruption detection), an environment fingerprint (same spirit as
  the benchmark harness's ``BENCH_*.json`` fingerprints:
  informational, never used for matching), the serving counters, and
  the writer's drift accounting.

Flat ``.npy`` files exist for exactly one reason: ``np.load(...,
mmap_mode="r")`` only memory-maps plain ``.npy`` files (arrays inside
an ``.npz`` zip are always decompressed into fresh memory), and the
O(manifest) cold-start path depends on mapping the large factors
read-only.  ``read_bundle(path, mmap=True)`` does exactly that — large
arrays stay on disk until a query's GEMM first touches their pages —
and skips checksum verification, since hashing every byte would defeat
the point; eager reads always verify.

Loading is strict: a missing or unparsable manifest, a foreign
``format`` marker, an unsupported ``schema_version``, a checksum
mismatch, or shape disagreement between manifest and arrays all raise
:class:`~repro.errors.PersistenceError`.  Older bundles still load:
schema 1 (factors-only ``arrays.npz``, no serving state) and schema 2
(``arrays.npz`` with serving state) fall back to the eager npz path
with pre-normalised factors recomputed on the fly — the
backward-compatibility contract for bundles written before this
layout.
"""

from __future__ import annotations

import hashlib
import json
import platform
import zipfile
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.errors import PersistenceError, ValidationError
from repro.linalg.dense import normalize_columns
from repro.linalg.svd import SVDResult
from repro.serving.stats import ServingStats

__all__ = [
    "ARRAYS_NAME",
    "BUNDLE_FORMAT",
    "BUNDLE_SCHEMA_VERSION",
    "ChecksumMismatch",
    "IndexBundle",
    "checksum_failures",
    "environment_fingerprint",
    "read_bundle",
    "read_manifest",
    "sha256_file",
    "write_bundle",
]

#: Marker distinguishing our bundles from arbitrary array+json directories.
BUNDLE_FORMAT = "repro-lsi-index"

#: Current manifest schema version
#: (1 = factors-only npz, 2 = npz + serving state, 3 = flat mmap-able npy).
BUNDLE_SCHEMA_VERSION = 3

#: File names inside a bundle directory.
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

#: Arrays every schema version must provide.
_REQUIRED_ARRAYS = ("u", "singular_values", "vt", "frobenius_norm_sq")

#: Arrays a schema-3 bundle stores, one ``<name>.npy`` file each.
_V3_ARRAYS = ("u", "singular_values", "vt", "frobenius_norm_sq",
              "doc_vectors", "doc_unit", "doc_norms", "tombstones")

#: Schema-3 arrays worth memory-mapping (the O(n·k)/O(k·m) payloads);
#: the rest are O(k)/O(m) vectors loaded eagerly even under ``mmap``.
_V3_LARGE_ARRAYS = ("u", "vt", "doc_vectors", "doc_unit")


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
        svd: the truncated SVD the index serves from.
        doc_vectors: ``(k, m_total)`` LSI document store — fitted
            documents plus any folded-in columns.
        n_original: how many leading columns of ``doc_vectors`` came
            from the fit (the rest were folded in).
        tombstones: ids of deleted (masked-out) documents.
        unabsorbed_energy: the writer's accumulated out-of-subspace /
            deleted energy (drift numerator).
        drift_threshold: drift level past which a refit is recommended
            (``None`` disables the recommendation).
        stats: serving counters at save time.
        vocabulary: optional term strings (position = term id).
        doc_unit: ``(k, m_total)`` unit-normalised document store, the
            precomputed cosine denominator (``None`` until written or
            read from a schema-3 bundle).
        doc_norms: length-``m_total`` original column norms paired with
            ``doc_unit``.
        compute_dtype: precision the index was served at when saved
            (``"float64"`` or ``"float32"``); loads default to it.
        mmapped: whether this image's large arrays are read-only
            memory maps (set by ``read_bundle(mmap=True)``).
        schema_version: manifest schema the bundle was read from /
            will be written with.
        index_version: content hash of the array payload (filled on
            write/read; empty for bundles never persisted).
        created_at: ISO-8601 UTC write timestamp (filled on write).
        env: environment fingerprint of the writing interpreter.
    """

    svd: SVDResult
    doc_vectors: np.ndarray
    n_original: int
    tombstones: tuple = ()
    unabsorbed_energy: float = 0.0
    drift_threshold: "float | None" = 0.1
    stats: ServingStats = field(default_factory=ServingStats)
    vocabulary: "tuple | None" = None
    doc_unit: "np.ndarray | None" = None
    doc_norms: "np.ndarray | None" = None
    compute_dtype: str = "float64"
    mmapped: bool = False
    schema_version: int = BUNDLE_SCHEMA_VERSION
    index_version: str = ""
    created_at: str = ""
    env: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.doc_vectors.ndim != 2 \
                or self.doc_vectors.shape[0] != self.svd.rank:
            raise ValidationError(
                f"doc_vectors must be (rank, m); got "
                f"{self.doc_vectors.shape} for rank {self.svd.rank}")
        if not 0 <= self.n_original <= self.doc_vectors.shape[1]:
            raise ValidationError(
                f"n_original={self.n_original} out of range for "
                f"{self.doc_vectors.shape[1]} stored documents")
        bad = [d for d in self.tombstones
               if not 0 <= int(d) < self.doc_vectors.shape[1]]
        if bad:
            raise ValidationError(
                f"tombstoned ids {bad} out of range for "
                f"{self.doc_vectors.shape[1]} stored documents")
        if self.vocabulary is not None \
                and len(self.vocabulary) != self.svd.u.shape[0]:
            raise ValidationError(
                f"vocabulary has {len(self.vocabulary)} terms; the index "
                f"has {self.svd.u.shape[0]}")
        if (self.doc_unit is None) != (self.doc_norms is None):
            raise ValidationError(
                "doc_unit and doc_norms must be provided together")
        if self.doc_unit is not None:
            if self.doc_unit.shape != self.doc_vectors.shape:
                raise ValidationError(
                    f"doc_unit shape {self.doc_unit.shape} does not match "
                    f"doc_vectors {self.doc_vectors.shape}")
            if self.doc_norms.shape != (self.doc_vectors.shape[1],):
                raise ValidationError(
                    f"doc_norms shape {self.doc_norms.shape} does not "
                    f"match {self.doc_vectors.shape[1]} documents")
        if self.compute_dtype not in ("float64", "float32"):
            raise ValidationError(
                f"compute_dtype must be 'float64' or 'float32', got "
                f"{self.compute_dtype!r}")

    @classmethod
    def from_model(cls, model, *, vocabulary=None,
                   drift_threshold: "float | None" = 0.1) -> "IndexBundle":
        """Snapshot a plain fitted :class:`~repro.core.lsi.LSIModel`."""
        terms = None
        if vocabulary is not None:
            terms = tuple(getattr(vocabulary, "terms", vocabulary))
        return cls(svd=model.svd,
                   doc_vectors=model.document_vectors(),
                   n_original=model.n_documents,
                   drift_threshold=drift_threshold,
                   vocabulary=terms,
                   env=environment_fingerprint())

    def to_model(self):
        """The bundled SVD as a fresh :class:`~repro.core.lsi.LSIModel`."""
        from repro.core.lsi import LSIModel

        return LSIModel(self.svd)

    @property
    def n_documents(self) -> int:
        """Total stored documents (fitted + folded, incl. tombstoned)."""
        return int(self.doc_vectors.shape[1])

    def manifest(self) -> dict:
        """The JSON-ready manifest describing this bundle."""
        return {
            "format": BUNDLE_FORMAT,
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "index_version": self.index_version,
            "rank": self.svd.rank,
            "n_terms": int(self.svd.u.shape[0]),
            "n_documents": self.n_documents,
            "n_original": int(self.n_original),
            "n_tombstoned": len(self.tombstones),
            "unabsorbed_energy": float(self.unabsorbed_energy),
            "captured_energy": float(self.svd.captured_energy()),
            "drift_threshold": self.drift_threshold,
            "compute_dtype": self.compute_dtype,
            "stats": self.stats.as_dict(),
            "vocabulary": (list(self.vocabulary)
                           if self.vocabulary is not None else None),
            "env": self.env,
            "checksums": {},
        }


def write_bundle(path, bundle: IndexBundle) -> Path:
    """Persist ``bundle`` to directory ``path`` (created if needed).

    Always writes the current schema (one ``.npy`` per array).  The
    pre-normalised serving factors are computed here in float64 when
    the bundle does not carry them, so every bundle on disk is
    mmap-servable with rankings bit-identical to an eager load.

    Returns the bundle directory.  Overwrites an existing bundle at the
    same path; refuses to write into a path occupied by a file.

    Raises:
        PersistenceError: if ``path`` exists and is not a directory.
        ShapeError: if the bundle's document factors are not the 2-D
            blocks normalisation expects.
        ValidationError: if the factors carry non-finite entries.
    """
    directory = Path(path)
    if directory.exists() and not directory.is_dir():
        raise PersistenceError(
            f"bundle path {directory} exists and is not a directory")
    directory.mkdir(parents=True, exist_ok=True)

    doc_unit, doc_norms = bundle.doc_unit, bundle.doc_norms
    if doc_unit is None:
        doc_unit, doc_norms = normalize_columns(bundle.doc_vectors)

    arrays = {
        "u": bundle.svd.u,
        "singular_values": bundle.svd.singular_values,
        "vt": bundle.svd.vt,
        "frobenius_norm_sq": np.float64(bundle.svd.frobenius_norm_sq),
        "doc_vectors": bundle.doc_vectors,
        "doc_unit": doc_unit,
        "doc_norms": doc_norms,
        "tombstones": np.asarray(sorted(bundle.tombstones),
                                 dtype=np.int64),
    }
    checksums = {}
    for name in _V3_ARRAYS:
        array_path = directory / f"{name}.npy"
        np.save(array_path, np.asarray(arrays[name]),
                allow_pickle=False)
        checksums[f"{name}.npy"] = sha256_file(array_path)
    # A superseded v1/v2 payload in the same directory would shadow
    # nothing (readers dispatch on schema_version) but waste space and
    # confuse checksum audits; drop it.
    legacy = directory / ARRAYS_NAME
    if legacy.exists():
        legacy.unlink()

    version_digest = hashlib.sha256(
        "".join(checksums[key] for key in sorted(checksums))
        .encode("ascii")).hexdigest()
    stamped = replace(bundle,
                      doc_unit=doc_unit,
                      doc_norms=doc_norms,
                      schema_version=BUNDLE_SCHEMA_VERSION,
                      index_version=version_digest[:16],
                      created_at=datetime.now(timezone.utc).isoformat(),
                      env=bundle.env or environment_fingerprint())
    manifest = stamped.manifest()
    manifest["checksums"] = checksums
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return directory


def read_manifest(path, *, verify_arrays: bool = False) -> dict:
    """Load and validate a bundle's manifest without loading arrays.

    Args:
        path: the bundle directory.
        verify_arrays: also recompute the array payload checksums.

    Raises:
        PersistenceError: missing/unparsable manifest, foreign format,
            unsupported schema version, or (with ``verify_arrays``) a
            checksum mismatch.
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
    if version not in (1, 2, BUNDLE_SCHEMA_VERSION):
        raise PersistenceError(
            f"unsupported bundle schema_version {version!r}; this "
            f"reader handles 1..{BUNDLE_SCHEMA_VERSION}")
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
    recorded = manifest.get("checksums") or {}
    if manifest.get("schema_version") in (1, 2):
        names = [ARRAYS_NAME]
    else:
        names = [f"{name}.npy" for name in _V3_ARRAYS]
    failures = []
    for name in names:
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


def _load_npz_arrays(directory: Path) -> dict:
    """Eagerly load a legacy (schema 1/2) ``arrays.npz`` payload."""
    arrays_path = directory / ARRAYS_NAME
    try:
        # npz members cannot be memory-mapped (np.load silently copies
        # them), so the legacy path is eager by necessity.
        with np.load(arrays_path,  # reprolint: disable=R111
                     allow_pickle=False) as payload:
            return {name: payload[name] for name in payload.files}
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise PersistenceError(
            f"unreadable bundle arrays {arrays_path}: {error}") from error


def _load_npy_arrays(directory: Path, *, mmap: bool) -> dict:
    """Load a schema-3 payload, optionally mapping the large arrays.

    Under ``mmap`` the :data:`_V3_LARGE_ARRAYS` come back as read-only
    ``np.memmap`` views — O(page table) now, real I/O deferred to first
    touch — while the small per-column vectors load eagerly.
    """
    arrays = {}
    for name in _V3_ARRAYS:
        array_path = directory / f"{name}.npy"
        if not array_path.is_file():
            raise PersistenceError(
                f"bundle {directory} (schema 3) is missing {name}.npy")
        mode = "r" if mmap and name in _V3_LARGE_ARRAYS else None
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
        mmap: map the large arrays read-only instead of loading them
            (schema 3 only; legacy npz bundles fall back to an eager
            load).  The mmap path is the O(manifest) cold start: it
            skips checksum verification — hashing the payload would
            read every byte and defeat the deferral — so corruption
            surfaces as wrong scores, not a load-time error.  Eager
            loads always verify.

    Raises:
        PersistenceError: on any integrity failure — see
            :func:`read_manifest` plus array/shape validation.
    """
    directory = Path(path)
    manifest = read_manifest(directory)
    version = int(manifest["schema_version"])
    use_mmap = bool(mmap) and version >= 3
    if not use_mmap:
        _verify_checksums(directory, manifest)
    if version >= 3:
        arrays = _load_npy_arrays(directory, mmap=use_mmap)
    else:
        arrays = _load_npz_arrays(directory)

    missing = [name for name in _REQUIRED_ARRAYS if name not in arrays]
    if missing:
        raise PersistenceError(
            f"bundle {directory} is missing arrays {missing}")
    try:
        svd = SVDResult(arrays["u"], arrays["singular_values"],
                        arrays["vt"],
                        float(arrays["frobenius_norm_sq"]))
    except ValidationError as error:
        raise PersistenceError(
            f"bundle {directory} holds an inconsistent SVD: {error}"
        ) from error

    doc_unit = doc_norms = None
    if version == 1:
        doc_vectors = svd.document_vectors()
        n_original = doc_vectors.shape[1]
        tombstones: tuple = ()
        stats = ServingStats()
        unabsorbed = 0.0
        threshold: "float | None" = 0.1
    else:
        if "doc_vectors" not in arrays:
            raise PersistenceError(
                f"bundle {directory} (schema {version}) is missing "
                "doc_vectors")
        doc_vectors = arrays["doc_vectors"]
        n_original = int(manifest.get("n_original",
                                      doc_vectors.shape[1]))
        tombstones = tuple(
            int(d) for d in arrays.get("tombstones",
                                       np.empty(0, dtype=np.int64)))
        stats = ServingStats.from_dict(manifest.get("stats") or {})
        unabsorbed = float(manifest.get("unabsorbed_energy", 0.0))
        threshold = manifest.get("drift_threshold")
        if version >= 3:
            doc_unit = arrays["doc_unit"]
            doc_norms = arrays["doc_norms"]

    expected = {"rank": svd.rank, "n_terms": int(svd.u.shape[0]),
                "n_documents": int(doc_vectors.shape[1])}
    for key, actual in expected.items():
        recorded = manifest.get(key)
        if recorded is not None and int(recorded) != actual:
            raise PersistenceError(
                f"bundle {directory} manifest/array mismatch: manifest "
                f"says {key}={recorded}, arrays say {actual}")

    vocabulary = manifest.get("vocabulary")
    try:
        return IndexBundle(
            svd=svd,
            doc_vectors=doc_vectors,
            n_original=n_original,
            tombstones=tombstones,
            unabsorbed_energy=unabsorbed,
            drift_threshold=threshold,
            stats=stats,
            vocabulary=tuple(vocabulary) if vocabulary else None,
            doc_unit=doc_unit,
            doc_norms=doc_norms,
            compute_dtype=str(manifest.get("compute_dtype", "float64")),
            mmapped=use_mmap,
            schema_version=version,
            index_version=str(manifest.get("index_version", "")),
            created_at=str(manifest.get("created_at", "")),
            env=dict(manifest.get("env") or {}))
    except ValidationError as error:
        raise PersistenceError(
            f"bundle {directory} failed validation: {error}") from error
