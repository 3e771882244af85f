"""Span recording around the public entry points of each repro layer.

The benchmark traces the library from the outside: :func:`install`
replaces each entry point in :data:`ENTRY_POINTS` with a thin wrapper
that records one span per call, and :func:`uninstall` puts the
originals back.  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, request, work]``:

- ``parent`` is the index of the enclosing span (``-1`` at the top);
- ``request`` is the id the workload set for the operation in flight
  (one query, one fold-in, one build), so spans of one request share it;
- ``work`` is an optional count the entry point's ``measure`` hook
  derives from the call (documents transformed, GEMM operand columns,
  bytes written), taken after the span's end time.

Module-level functions are wrapped *where they are looked up*:
``repro.serving.index`` imports ``read_bundle``/``write_bundle`` by
name and ``repro.serving.writer`` imports ``merge`` by name, so the
wrapper replaces every ``repro.*`` module global bound to the original
function, not only the defining module's.  A missing entry point
raises at install time, so a rename in the library fails loudly
instead of reporting zeros.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

__all__ = ["ENTRY_POINTS", "SPAN_FIELDS", "Tracer", "install",
           "self_times", "uninstall"]

#: Field order of one recorded span.
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "request", "work")


def _columns(args, result) -> int:
    """Documents in a returned ``(n_terms, p)`` matrix."""
    return int(result.shape[1])


def _gemm_columns(args, result) -> int:
    """``q·(n + m)``: the operand columns one ``rank_batch`` streams.

    Times ``2k`` this is the flop model of the two GEMMs (``Uₖᵀ·Q`` and
    the cosine block); times ``8k``, their float64 bytes.
    """
    engine = args[0]
    return int(result.shape[0]) * (engine.n_terms + engine.n_documents)


def _bundle_bytes(args, result) -> int:
    """Bytes on disk of the bundle directory just written."""
    return sum(path.stat().st_size for path in Path(result).iterdir()
               if path.is_file())


#: ``(span name, module, owner class or None, attribute, measure)``.
#: ``owner=None`` marks a module-level function.
ENTRY_POINTS = (
    ("pipeline.query_vector", "repro.corpus.pipeline", "TextPipeline",
     "query_vector", None),
    ("pipeline.transform", "repro.corpus.pipeline", "TextPipeline",
     "transform", _columns),
    ("pipeline.fit_transform", "repro.corpus.pipeline", "TextPipeline",
     "fit_transform", _columns),
    ("index.rank_documents", "repro.serving.index", "ServedIndex",
     "rank_documents", None),
    ("index.load", "repro.serving.index", "ServedIndex", "load", None),
    ("index.fit_streamed", "repro.serving.index", "ServedIndex",
     "fit_streamed", None),
    ("cache.query_hash", "repro.serving.engine", "QueryBatch",
     "query_hash", None),
    ("cache.get", "repro.serving.engine", "LRUResultCache", "get", None),
    ("cache.put", "repro.serving.engine", "LRUResultCache", "put", None),
    ("engine.rank_batch", "repro.serving.engine", "BatchQueryEngine",
     "rank_batch", _gemm_columns),
    ("engine.init", "repro.serving.engine", "BatchQueryEngine",
     "__init__", None),
    ("engine.from_precomputed", "repro.serving.engine",
     "BatchQueryEngine", "from_precomputed", None),
    ("engine.stable_top_k", "repro.serving.engine", None,
     "stable_top_k", None),
    ("writer.add_documents", "repro.serving.writer", "IndexWriter",
     "add_documents", None),
    ("writer.refit", "repro.serving.writer", "IndexWriter", "refit",
     None),
    ("bundle.write", "repro.serving.bundle", None, "write_bundle",
     _bundle_bytes),
    ("bundle.read", "repro.serving.bundle", None, "read_bundle", None),
    ("svd.from_block", "repro.linalg.incremental", "PartialSVD",
     "from_block", None),
    ("svd.merge", "repro.linalg.incremental", None, "merge", None),
)


class Tracer:
    """An in-memory span recorder for one single-threaded client.

    Spans nest through a stack, so a wrapper called inside another
    wrapper records the outer span as its parent.  Set
    :attr:`request` before each operation to tag its spans.
    """

    def __init__(self):
        self.spans: "list[list]" = []
        self.request = -1
        self._stack: "list[int]" = []

    def call(self, name, fn, args, kwargs, measure):
        """Run ``fn`` inside a span named ``name``."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1,
                self.request, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if measure is not None:
            span[5] = measure(args, result)
        return result

    def dump(self, path: Path) -> None:
        """Write every span as JSON (one list per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans},
                      handle, separators=(",", ":"))


def _wrap(tracer: Tracer, name: str, fn, measure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, measure)
    return traced


def install(tracer: Tracer) -> list:
    """Wrap every entry point; returns the undo list for :func:`uninstall`.

    Raises:
        AttributeError: when an entry point no longer exists.
        KeyError: when a method is no longer defined on its class.
    """
    undo = []
    for name, module_name, owner_name, attr, measure in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            original = getattr(module, attr)
            traced = _wrap(tracer, name, original, measure)
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "")
                if loaded_name != "repro" \
                        and not loaded_name.startswith("repro."):
                    continue
                if vars(loaded).get(attr) is original:
                    setattr(loaded, attr, traced)
                    undo.append((loaded, attr, original))
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(
                _wrap(tracer, name, raw.__func__, measure))
        else:
            replacement = _wrap(tracer, name, raw, measure)
        setattr(owner, attr, replacement)
        undo.append((owner, attr, raw))
    return undo


def uninstall(undo: list) -> None:
    """Restore the originals recorded by :func:`install`."""
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


def self_times(spans) -> "list[int]":
    """Each span's duration minus the time its child spans cover (ns).

    Spans come from one thread and nest strictly, so children never
    overlap and their durations simply add up.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[i]
            for i, (_, start, end, _, _, _) in enumerate(spans)]
