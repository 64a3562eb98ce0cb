"""The campaign event stream: unit lifecycle, cache and store events.

:mod:`repro.obs.trace` answers *where the time went*; this module records
*what happened*.  The process-global :class:`EventStream`
(:data:`EVENTS`) is a versioned, append-only stream of structured
occurrences — a unit queued, started, finished or failed; a cache hit or
miss; a store lock waited on — over pluggable sinks:

* :class:`RingBufferSink` — a bounded in-memory buffer (tests);
* :class:`JsonlEventSink` — ``events-<pid>.jsonl`` under the campaign's
  ``--trace-dir``, beside the span files, one flushed JSON record per
  line.  Every process, including each process-backend worker, writes
  its own file.

Counting follows the :mod:`repro.obs.metrics` discipline exactly: every
emitted event increments an integer per-name count, and count snapshots
are JSON-able wire dicts (version :data:`EVENTS_WIRE_VERSION`) whose
``merge``/``diff`` are associative and commutative over arbitrary,
*asymmetric* key sets — the parent of a process-backend campaign folds
one event-count delta per unit (:meth:`EventStream.merge`, counts only,
no sink dispatch) in any arrival order and reaches the serial totals for
schedule-independent workloads.

Observability stays passive: the stream never raises into analysis, a
broken sink is detached, and :attr:`EventStream.enabled` is the ablation
switch (``campaign --no-events``) the tests hold classification parity
against.

Record schema (``v`` = :data:`EVENT_SCHEMA_VERSION`)::

    {"v": 1, "name": "unit.started", "seq": 7, "pid": 123, "tid": 456,
     "wall": 1754600000.5, "attrs": {"application": "...", "site": "..."}}

Like every persisted artifact in this repository the format is
versioned: readers skip records whose ``v`` they do not understand, and
any schema change bumps :data:`EVENT_SCHEMA_VERSION`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Tuple

__all__ = [
    "CACHE_HIT",
    "CACHE_MISS",
    "EVENTS",
    "EVENTS_WIRE_VERSION",
    "EVENT_SCHEMA_VERSION",
    "EventStream",
    "JsonlEventSink",
    "LIFECYCLE_EVENTS",
    "RingBufferSink",
    "STORE_LOCK_WAIT",
    "UNIT_FAILED",
    "UNIT_FINISHED",
    "UNIT_QUEUED",
    "UNIT_STARTED",
    "diff_event_wires",
    "event_count",
    "merge_event_wires",
    "unit_lifecycle",
    "validate_event_record",
]

#: Version stamp of the per-name count wire dicts (snapshot/delta/merge).
EVENTS_WIRE_VERSION = 1

#: Version stamp of the JSONL event records.
EVENT_SCHEMA_VERSION = 1

# ----------------------------------------------------------------------
# The event taxonomy (documented in docs/observability.md)
# ----------------------------------------------------------------------
UNIT_QUEUED = "unit.queued"
UNIT_STARTED = "unit.started"
UNIT_FINISHED = "unit.finished"
UNIT_FAILED = "unit.failed"
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
STORE_LOCK_WAIT = "store.lock_wait"

#: The unit-lifecycle subset: these counts are identical for every
#: backend and worker count even with a shared cache (whose hit/miss
#: split depends on which unit derived a verdict first).
LIFECYCLE_EVENTS: Tuple[str, ...] = (
    UNIT_QUEUED,
    UNIT_STARTED,
    UNIT_FINISHED,
    UNIT_FAILED,
)

#: Sequence numbers, unique within one process (``pid`` disambiguates
#: across processes).  ``itertools.count`` is atomic under the GIL.
_SEQ = itertools.count(1)

_ATTR_TYPES = (str, int, float, bool, type(None))


def validate_event_record(record: object) -> List[str]:
    """Schema errors for one event record (empty list = valid).

    Used by the loader (invalid records are counted and skipped, never
    trusted) and by the campaign tests, which assert that a real
    campaign's event log contains zero invalid records.
    """
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    if record.get("v") != EVENT_SCHEMA_VERSION:
        errors.append(f"unknown schema version {record.get('v')!r}")
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append("name must be a non-empty string")
    for field in ("seq", "pid", "tid"):
        if not isinstance(record.get(field), int):
            errors.append(f"{field} must be an integer")
    if not isinstance(record.get("wall"), (int, float)):
        errors.append("wall must be a number")
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        errors.append("attrs must be an object")
    else:
        for key, value in attrs.items():
            if not isinstance(key, str) or not isinstance(value, _ATTR_TYPES):
                errors.append(f"attr {key!r} is not a JSON primitive")
    return errors


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class RingBufferSink:
    """A bounded in-memory buffer of the most recent records."""

    def __init__(self, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=max(1, int(capacity)))

    def emit(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    def records(self) -> List[dict]:
        with self._lock:
            return list(self._records)

    def close(self) -> None:  # pragma: no cover - symmetry with JsonlEventSink
        pass


class JsonlEventSink:
    """Appends records to ``<trace_dir>/events-<pid>.jsonl``, one per line.

    Same discipline as the span sink: lazy open on first emit, per-line
    flush (a killed worker must not lose its tail), writes serialized by
    a lock for the thread backend.
    """

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = str(trace_dir)
        self._lock = threading.Lock()
        self._handle = None

    def path(self) -> str:
        return os.path.join(self.trace_dir, f"events-{os.getpid()}.jsonl")

    def emit(self, record: dict) -> None:
        with self._lock:
            if self._handle is None:
                from repro.obs.trace import ensure_trace_dir

                ensure_trace_dir(self.trace_dir)
                self._handle = open(self.path(), "a", encoding="utf-8")
            self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
            if handle is not None:
                handle.close()


# ----------------------------------------------------------------------
# Pure wire-dict combinators (no stream required)
# ----------------------------------------------------------------------
def merge_event_wires(*wires: dict) -> dict:
    """Pure merge of event-count wire dicts: per-name integer addition.

    Commutative and associative by construction, over arbitrary
    (asymmetric) key sets — the property ``tests/obs/test_events.py``
    drives with hypothesis.  Wire carrying an unknown version is skipped
    rather than trusted.
    """
    combined: Dict[str, int] = {}
    for wire in wires:
        if not isinstance(wire, dict) or wire.get("v") != EVENTS_WIRE_VERSION:
            continue
        for name, count in (wire.get("events") or {}).items():
            if not isinstance(name, str):
                continue
            try:
                combined[name] = combined.get(name, 0) + int(count)
            except (TypeError, ValueError):
                continue
    return {
        "v": EVENTS_WIRE_VERSION,
        "events": {name: combined[name] for name in sorted(combined)},
    }


def diff_event_wires(mark: dict, current: dict) -> dict:
    """``current - mark`` per name, over the **union** of both key sets.

    Names present only in ``current`` count from zero; names present
    only in ``mark`` are reported (at their negation, normally zero) —
    a delta must never silently drop a key it was marked against, the
    same invariant :func:`repro.obs.metrics.diff_snapshots` keeps.
    """
    mark_events = (mark or {}).get("events") or {}
    current_events = (current or {}).get("events") or {}
    names = sorted(set(mark_events) | set(current_events))
    return {
        "v": EVENTS_WIRE_VERSION,
        "events": {
            name: int(current_events.get(name, 0)) - int(mark_events.get(name, 0))
            for name in names
        },
    }


def event_count(wire: dict, name: str) -> int:
    """Convenience: one name's count out of a wire dict (0 when absent)."""
    try:
        return int(((wire or {}).get("events") or {}).get(name, 0))
    except (TypeError, ValueError):
        return 0


# ----------------------------------------------------------------------
# The stream
# ----------------------------------------------------------------------
class EventStream:
    """Append-only structured events over pluggable sinks, with counts.

    Thread-safe; sinks are a snapshot-on-emit list so attaching or
    detaching around a campaign run is safe while other threads emit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: List[object] = []
        self._counts: Dict[str, int] = {}
        #: The ablation switch (``campaign --no-events``): when false,
        #: :meth:`emit` is a no-op — no counts, no records, no sinks.
        self.enabled = True

    # ------------------------------------------------------------------
    def add_sink(self, sink: object) -> None:
        with self._lock:
            self._sinks = self._sinks + [sink]

    def remove_sink(self, sink: object) -> None:
        with self._lock:
            self._sinks = [s for s in self._sinks if s is not sink]

    def clear_sinks(self) -> None:
        """Detach every sink without closing them.

        For fork-started pool workers: the child inherits the parent's
        sink list, including a :class:`JsonlEventSink` whose open handle
        points at the *parent's* ``events-<pid>.jsonl`` — emitting
        through it would double every worker record into the parent's
        file.  The worker initializer clears the inherited list before
        attaching its own sinks; the parent still owns those handles.
        """
        with self._lock:
            self._sinks = []

    # ------------------------------------------------------------------
    def emit(self, name: str, **attrs) -> None:
        """Record one event: count it and dispatch to every sink."""
        if not self.enabled:
            return
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1
        sinks = self._sinks
        if not sinks:
            return
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "name": name,
            "seq": next(_SEQ),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "wall": time.time(),
            "attrs": attrs,
        }
        for sink in sinks:
            try:
                sink.emit(record)
            except Exception:
                # Passive contract: a broken sink must never fail analysis.
                self.remove_sink(sink)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The per-name counts as a wire dict (see module doc)."""
        with self._lock:
            return {
                "v": EVENTS_WIRE_VERSION,
                "events": {name: self._counts[name] for name in sorted(self._counts)},
            }

    def delta(self, mark: dict) -> dict:
        """The wire-form count change since ``mark`` (an earlier snapshot)."""
        return diff_event_wires(mark, self.snapshot())

    def merge(self, wire: dict) -> int:
        """Fold another process's count delta in; returns names merged."""
        if not isinstance(wire, dict) or wire.get("v") != EVENTS_WIRE_VERSION:
            return 0
        entries = wire.get("events")
        if not isinstance(entries, dict):
            return 0
        merged = 0
        with self._lock:
            for name, count in entries.items():
                if not isinstance(name, str):
                    continue
                try:
                    self._counts[name] = self._counts.get(name, 0) + int(count)
                except (TypeError, ValueError):
                    continue
                merged += 1
        return merged


@contextmanager
def unit_lifecycle(application: str, site: str, backend: str):
    """Emit the started/failed/finished lifecycle around one unit run.

    Yields a mutable attrs dict the caller may extend (e.g. with the
    resulting classification) before the finished event is emitted.
    """
    attrs = {"application": application, "site": site, "backend": backend}
    EVENTS.emit(UNIT_STARTED, **attrs)
    started = time.perf_counter()
    extra: Dict[str, object] = {}
    try:
        yield extra
    except BaseException as exc:
        EVENTS.emit(
            UNIT_FAILED,
            seconds=round(time.perf_counter() - started, 6),
            error=type(exc).__name__,
            **attrs,
        )
        raise
    EVENTS.emit(
        UNIT_FINISHED,
        seconds=round(time.perf_counter() - started, 6),
        **attrs,
        **extra,
    )


#: The process-wide stream every instrumented layer emits into.
EVENTS = EventStream()
