"""Trace-directory loading and reporting — the ``repro trace`` and
``repro events`` engine.

Follows the repo's generate-data → render-report idiom: a campaign run
with ``--trace-dir`` is the data-generation step, and this module is the
separately re-runnable report step.  It loads every ``spans-*.jsonl``
file under a trace directory (validating the schema version of the
directory and of every record), and renders:

* a **per-stage summary** — count, total/mean/max seconds per span name;
* a **per-unit rollup with a straggler top-N** — ``unit`` spans sorted by
  duration, each with its per-stage child breakdown (the scheduling-
  visibility view: unit runtimes are highly irregular, and the stragglers
  are what a fleet scheduler will need to re-dispatch);
* a **Chrome trace-event export** — the ``chrome://tracing`` /
  Perfetto-compatible JSON array, wall-clock aligned across processes;
* a **per-event-name summary** of the trace's event records (unit
  lifecycle, store lock waits and breaks).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import TRACE_META_NAME, TRACE_SCHEMA_VERSION, validate_record

__all__ = [
    "EventSummary",
    "StageSummary",
    "TraceData",
    "UnitSummary",
    "chrome_trace_events",
    "event_summaries",
    "load_trace_dir",
    "stage_summaries",
    "unit_summaries",
]


@dataclass
class TraceData:
    """Everything loaded from one trace directory."""

    trace_dir: str
    records: List[dict] = field(default_factory=list)
    files: int = 0
    #: Records (or whole lines) that failed schema validation, skipped.
    invalid_records: int = 0
    error: Optional[str] = None

    @property
    def spans(self) -> List[dict]:
        return [r for r in self.records if r.get("kind") == "span"]

    @property
    def events(self) -> List[dict]:
        return [r for r in self.records if r.get("kind") == "event"]


@dataclass
class StageSummary:
    """Aggregate timing of one span name across the trace."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    #: Summed ``propagations`` span attribute — SAT-core work attributed
    #: to this stage, so a report can rank stages by solver effort, not
    #: just wall time (solve spans carry it; other stages stay at 0).
    propagations: int = 0

    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": round(self.total_seconds, 6),
            "mean_seconds": round(self.mean_seconds(), 6),
            "max_seconds": round(self.max_seconds, 6),
            "propagations": self.propagations,
        }


@dataclass
class UnitSummary:
    """One ``unit`` span (⟨application, site⟩ analysis) with its stages."""

    application: str
    site: str
    backend: str
    duration_seconds: float
    #: Direct child span totals by name (concolic, enforce, ...).
    stages: Dict[str, float] = field(default_factory=dict)

    def stage_seconds(self) -> float:
        return sum(self.stages.values())

    def coverage(self) -> float:
        """Fraction of the unit's wall time its direct stage spans explain."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.stage_seconds() / self.duration_seconds

    def as_dict(self) -> dict:
        return {
            "application": self.application,
            "site": self.site,
            "backend": self.backend,
            "duration_seconds": round(self.duration_seconds, 6),
            "stage_seconds": round(self.stage_seconds(), 6),
            "coverage": round(self.coverage(), 4),
            "stages": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.stages.items())
            },
        }


@dataclass
class EventSummary:
    """Aggregate of one event name across the trace."""

    name: str
    count: int = 0
    first_wall: float = 0.0
    last_wall: float = 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "span_seconds": round(max(0.0, self.last_wall - self.first_wall), 6),
        }


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_trace_dir(trace_dir: str) -> TraceData:
    """Load and validate every trace record under ``trace_dir``.

    A missing directory, unreadable/mismatched ``meta.json`` or unknown
    format version yields an empty :class:`TraceData` with ``error`` set;
    individually malformed lines/records are counted in
    ``invalid_records`` and skipped — one bad line loses itself, never
    the trace.
    """
    data = TraceData(trace_dir=str(trace_dir))
    meta_path = os.path.join(trace_dir, TRACE_META_NAME)
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, json.JSONDecodeError):
        data.error = f"no readable {TRACE_META_NAME} under {trace_dir!r}"
        return data
    if not isinstance(meta, dict) or meta.get("version") != TRACE_SCHEMA_VERSION:
        data.error = (
            f"unsupported trace format version "
            f"{meta.get('version') if isinstance(meta, dict) else meta!r} "
            f"(this reader understands {TRACE_SCHEMA_VERSION})"
        )
        return data

    try:
        names = sorted(os.listdir(trace_dir))
    except OSError:
        data.error = f"cannot list {trace_dir!r}"
        return data
    for name in names:
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        data.files += 1
        try:
            with open(
                os.path.join(trace_dir, name), "r", encoding="utf-8"
            ) as handle:
                lines = handle.readlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                data.invalid_records += 1
                continue
            if validate_record(record):
                data.invalid_records += 1
                continue
            data.records.append(record)
    # One deterministic order whatever file each process wrote to.
    data.records.sort(key=lambda r: (r.get("wall", 0.0), r.get("pid", 0), r.get("id", 0)))
    return data


def event_summaries(data: TraceData) -> List[EventSummary]:
    """Per-event-name aggregates, sorted by descending count."""
    by_name: Dict[str, EventSummary] = {}
    for record in data.events:
        name = record["name"]
        wall = float(record.get("wall", 0.0))
        summary = by_name.get(name)
        if summary is None:
            summary = by_name[name] = EventSummary(
                name=name, first_wall=wall, last_wall=wall
            )
        summary.count += 1
        summary.first_wall = min(summary.first_wall, wall)
        summary.last_wall = max(summary.last_wall, wall)
    return sorted(by_name.values(), key=lambda s: (-s.count, s.name))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def stage_summaries(data: TraceData) -> List[StageSummary]:
    """Per-span-name aggregates, sorted by descending total time."""
    by_name: Dict[str, StageSummary] = {}
    for span in data.spans:
        summary = by_name.get(span["name"])
        if summary is None:
            summary = by_name[span["name"]] = StageSummary(name=span["name"])
        duration = float(span.get("dur", 0.0))
        summary.count += 1
        summary.total_seconds += duration
        summary.max_seconds = max(summary.max_seconds, duration)
        propagations = span.get("attrs", {}).get("propagations")
        if isinstance(propagations, int):
            summary.propagations += propagations
    return sorted(
        by_name.values(), key=lambda s: (-s.total_seconds, s.name)
    )


def unit_summaries(data: TraceData) -> List[UnitSummary]:
    """Per-unit rollups, slowest first (the straggler ordering).

    A unit's stage breakdown sums the durations of its *direct* child
    spans (children of children — a solve inside an enforce — are already
    inside their parent's time and must not be double-counted).
    """
    spans = data.spans
    units: Dict[Tuple[int, int], UnitSummary] = {}
    for span in spans:
        if span["name"] != "unit":
            continue
        attrs = span.get("attrs", {})
        units[(span["pid"], span["id"])] = UnitSummary(
            application=str(attrs.get("application", "?")),
            site=str(attrs.get("site", "?")),
            backend=str(attrs.get("backend", "?")),
            duration_seconds=float(span.get("dur", 0.0)),
        )
    for span in spans:
        parent = span.get("parent")
        if parent is None:
            continue
        unit = units.get((span["pid"], parent))
        if unit is None:
            continue
        name = span["name"]
        unit.stages[name] = unit.stages.get(name, 0.0) + float(span.get("dur", 0.0))
    return sorted(
        units.values(),
        key=lambda u: (-u.duration_seconds, u.application, u.site),
    )


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def chrome_trace_events(data: TraceData) -> List[dict]:
    """The trace as ``chrome://tracing`` complete events (``"ph": "X"``).

    Timestamps are microseconds relative to the earliest record's wall
    clock, so spans from the campaign parent and its pool workers line up
    on one timeline; events become instant (``"ph": "i"``) records.
    """
    if not data.records:
        return []
    base = min(float(r.get("wall", 0.0)) for r in data.records)
    out: List[dict] = []
    for record in data.records:
        common = {
            "name": record["name"],
            "pid": record["pid"],
            "tid": record["tid"],
            "ts": round((float(record["wall"]) - base) * 1e6, 3),
            "cat": "repro",
            "args": record.get("attrs", {}),
        }
        if record["kind"] == "span":
            out.append(
                {**common, "ph": "X", "dur": round(float(record["dur"]) * 1e6, 3)}
            )
        else:
            out.append({**common, "ph": "i", "s": "t"})
    return out
