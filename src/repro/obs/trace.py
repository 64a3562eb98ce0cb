"""Spans, structured events, and trace sinks.

The :class:`Tracer` is the one record path of the observability
subsystem: the pipeline wraps each stage of a campaign unit (taint,
concolic, screening, solve, enforcement, triage) plus the store layer's
load/merge/save in a *span* — a named, nestable interval with monotonic
duration, a wall-clock anchor and JSON-able attributes.  Point-in-time
occurrences (a unit queued, started, finished or failed; a store lock
waited on or broken) are *events*.

Two consumers exist:

* **Counts** — every finished span feeds the duration histogram
  ``stage.<name>.seconds`` and every event the counter
  ``events.<name>`` in :data:`repro.obs.metrics.METRICS`,
  unconditionally.  This is cheap (one locked dict update) and gives
  every run a per-stage breakdown and exact event counts even with no
  trace sink attached; process-backend workers ship both home in their
  per-unit metrics delta.
* **Sinks** — when a sink is attached (a campaign run with
  ``--trace-dir``, or an in-memory collector in tests), finished spans
  and events are emitted as structured records.  With no sink attached
  the tracer skips record construction entirely.

Observability is passive: spans never alter control flow, sink failures
are swallowed after disabling the sink, and tracing on/off is gated for
classification parity by ``tests/obs/test_campaign_obs.py``,
``tests/core/test_cli.py`` and ``benchmarks/bench_observability.py``.

Trace directory layout (schema version :data:`TRACE_SCHEMA_VERSION`)::

    <trace-dir>/meta.json          {"format": "repro-trace", "version": 1}
    <trace-dir>/spans-<pid>.jsonl  one JSON record per line

Every process participating in a run (the campaign parent, each process-
backend worker) appends to its own ``spans-<pid>.jsonl`` file, so no
cross-process write coordination is needed; ``repro trace`` loads the
whole directory.  Record schema::

    {"v": 1, "kind": "span",  "name": ..., "id": N, "parent": N|null,
     "pid": N, "tid": N, "wall": epoch-seconds, "dur": seconds,
     "attrs": {...}}
    {"v": 1, "kind": "event", "name": ..., "id": N, "parent": N|null,
     "pid": N, "tid": N, "wall": epoch-seconds, "attrs": {...}}

Like every persisted artifact in this repository the trace format is
versioned: readers reject a ``meta.json`` with an unknown version, skip
records whose ``v`` they do not understand, and any schema change bumps
:data:`TRACE_SCHEMA_VERSION` (see ``docs/observability.md``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Dict, List, Optional

from repro.obs.metrics import METRICS

__all__ = [
    "InMemorySink",
    "JsonlSink",
    "TRACER",
    "TRACE_META_NAME",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "ensure_trace_dir",
    "validate_record",
]

#: Version stamp of the trace directory format and record schema.
TRACE_SCHEMA_VERSION = 1

TRACE_META_NAME = "meta.json"

#: Span/event ids, unique within one process (``pid`` disambiguates across
#: processes).  ``itertools.count`` is atomic under the GIL.
_IDS = itertools.count(1)

_VALID_KINDS = ("span", "event")

_ATTR_TYPES = (str, int, float, bool, type(None))


class InMemorySink:
    """Collects records in a list — the test/report collector."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.records: List[dict] = []

    def emit(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)

    def close(self) -> None:  # pragma: no cover - symmetry with JsonlSink
        pass


class JsonlSink:
    """Appends records to ``<trace_dir>/spans-<pid>.jsonl``, one per line.

    The file is opened lazily on first emit (so configuring tracing for a
    run that emits nothing leaves no empty file) and every line is flushed
    — a process-backend worker killed with its pool must not lose its
    tail.  Writes are serialized by a lock for the thread backend.
    """

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = str(trace_dir)
        self._lock = threading.Lock()
        self._handle = None

    def path(self) -> str:
        return os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")

    def emit(self, record: dict) -> None:
        with self._lock:
            if self._handle is None:
                ensure_trace_dir(self.trace_dir)
                self._handle = open(self.path(), "a", encoding="utf-8")
            self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
            if handle is not None:
                handle.close()


def ensure_trace_dir(trace_dir: str) -> None:
    """Create ``trace_dir`` and its versioned ``meta.json`` if absent.

    Racing writers (a parent and its pool workers) all write equivalent
    content, so the atomic replace is idempotent.  Besides the format
    version the meta carries best-effort attribution fields
    (``repro_version``, ``git``) so a saved trace is traceable to the
    code that produced it; readers key only on ``format``/``version``,
    which is why adding these fields needs no schema bump.
    """
    os.makedirs(trace_dir, exist_ok=True)
    meta_path = os.path.join(trace_dir, TRACE_META_NAME)
    if os.path.exists(meta_path):
        return
    from repro.obs.attribution import attribution

    payload = {"format": "repro-trace", "version": TRACE_SCHEMA_VERSION}
    payload.update(attribution())
    tmp_path = f"{meta_path}.tmp-{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    os.replace(tmp_path, meta_path)


def validate_record(record: object) -> List[str]:
    """Schema errors for one trace record (empty list = valid).

    Used by the loader (invalid records are counted and skipped, never
    trusted) and by the observability smoke tests, which assert that a
    real campaign trace contains zero invalid records.
    """
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    if record.get("v") != TRACE_SCHEMA_VERSION:
        errors.append(f"unknown schema version {record.get('v')!r}")
    kind = record.get("kind")
    if kind not in _VALID_KINDS:
        errors.append(f"unknown kind {kind!r}")
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append("name must be a non-empty string")
    for field in ("id", "pid", "tid"):
        if not isinstance(record.get(field), int):
            errors.append(f"{field} must be an integer")
    parent = record.get("parent")
    if parent is not None and not isinstance(parent, int):
        errors.append("parent must be an integer or null")
    if not isinstance(record.get("wall"), (int, float)):
        errors.append("wall must be a number")
    if kind == "span" and not isinstance(record.get("dur"), (int, float)):
        errors.append("span dur must be a number")
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        errors.append("attrs must be an object")
    else:
        for key, value in attrs.items():
            if not isinstance(key, str) or not isinstance(value, _ATTR_TYPES):
                errors.append(f"attr {key!r} is not a JSON primitive")
    return errors


class _SpanHandle:
    """Context manager for one span (returned by :meth:`Tracer.span`)."""

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id",
        "wall", "started", "duration",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(_IDS)
        self.parent_id: Optional[int] = None
        self.wall = 0.0
        self.started = 0.0
        self.duration = 0.0

    def __enter__(self) -> "_SpanHandle":
        stack = self.tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.wall = time.time()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.duration = time.perf_counter() - self.started
        stack = self.tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        METRICS.histogram(f"stage.{self.name}.seconds").observe(self.duration)
        if self.tracer._sinks:
            self.tracer._emit(
                {
                    "v": TRACE_SCHEMA_VERSION,
                    "kind": "span",
                    "name": self.name,
                    "id": self.span_id,
                    "parent": self.parent_id,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "wall": self.wall,
                    "dur": self.duration,
                    "attrs": self.attrs,
                }
            )


class Tracer:
    """Nestable spans and structured events over pluggable sinks.

    Span nesting is tracked per thread (the thread backend runs many units
    concurrently; each thread's spans nest independently).  Sinks are a
    snapshot-on-emit list, so attaching/detaching around a campaign run is
    safe while other threads trace.
    """

    def __init__(self) -> None:
        self._sinks: List[object] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def add_sink(self, sink: object) -> None:
        with self._lock:
            self._sinks = self._sinks + [sink]

    def remove_sink(self, sink: object) -> None:
        with self._lock:
            self._sinks = [s for s in self._sinks if s is not sink]

    def clear_sinks(self) -> None:
        """Detach every sink without closing them.

        For fork-started pool workers, which inherit the parent's sink
        list — including JSONL sinks whose already-open handles point at
        the *parent's* files.  The worker initializer clears the
        inherited list (the parent still owns those handles) before
        attaching its own per-process sinks.
        """
        with self._lock:
            self._sinks = []

    @property
    def active(self) -> bool:
        """Whether any sink is attached (spans always feed stage timers)."""
        return bool(self._sinks)

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _SpanHandle:
        """A context manager timing one named stage with ``attrs``."""
        return _SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Count one point-in-time event and record it to any sinks."""
        METRICS.counter(f"events.{name}").inc()
        if not self._sinks:
            return
        stack = self._stack()
        self._emit(
            {
                "v": TRACE_SCHEMA_VERSION,
                "kind": "event",
                "name": name,
                "id": next(_IDS),
                "parent": stack[-1] if stack else None,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "wall": time.time(),
                "attrs": attrs,
            }
        )

    # ------------------------------------------------------------------
    def _emit(self, record: dict) -> None:
        for sink in self._sinks:
            try:
                sink.emit(record)
            except Exception:
                # Passive contract: a broken sink must never fail analysis.
                self.remove_sink(sink)


#: The process-wide tracer every instrumented layer spans through.
TRACER = Tracer()
