"""Campaign-wide observability: metrics, spans, events, reporting.

Four modules.  The first two are layered bottom-up and import nothing
from :mod:`repro` outside this package, so every other layer — solver,
store, scheduler, campaign — may instrument itself freely without import
cycles:

* :mod:`repro.obs.metrics` — the process-global :data:`~repro.obs.metrics.METRICS`
  registry (counters, gauges, fixed-bucket duration histograms) whose
  snapshots delta and merge losslessly across process-backend workers;
* :mod:`repro.obs.trace` — the process-global :data:`~repro.obs.trace.TRACER`
  (nestable stage spans, point events) over pluggable sinks (in-memory
  collector, schema-versioned JSONL trace directory); every span feeds a
  ``stage.<name>.seconds`` histogram and every event an ``events.<name>``
  counter in ``METRICS``, sink or not;
* :mod:`repro.obs.report` — the re-runnable report step behind the
  ``repro trace`` and ``repro events`` CLI subcommands (per-stage summary,
  straggler top-N, Chrome trace-event export, per-event-name summaries);
* :mod:`repro.obs.attribution` — the code-version stamp (package version,
  ``git describe``) persisted artifacts carry.

The contract every instrumented layer relies on: **observability is
passive** — identical site classifications with tracing on or off, and
deterministic metric totals (the ``events.*`` counters included)
regardless of backend worker count for schedule-independent workloads
(gated by the tests).
"""

from __future__ import annotations

import importlib

from repro.obs.metrics import (
    METRICS,
    METRICS_WIRE_VERSION,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.trace import (
    TRACER,
    TRACE_SCHEMA_VERSION,
    InMemorySink,
    JsonlSink,
    Tracer,
    validate_record,
)

#: The report step's names, loaded on first use (PEP 562): a run that only
#: records spans never imports the trace reader.
_REPORT_NAMES = frozenset(
    {
        "StageSummary",
        "TraceData",
        "UnitSummary",
        "chrome_trace_events",
        "load_trace_dir",
        "stage_summaries",
        "unit_summaries",
    }
)


def __getattr__(name: str):
    if name in _REPORT_NAMES:
        return getattr(importlib.import_module("repro.obs.report"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "InMemorySink",
    "JsonlSink",
    "METRICS",
    "METRICS_WIRE_VERSION",
    "MetricsRegistry",
    "StageSummary",
    "TRACER",
    "TRACE_SCHEMA_VERSION",
    "TraceData",
    "Tracer",
    "UnitSummary",
    "chrome_trace_events",
    "diff_snapshots",
    "load_trace_dir",
    "stage_summaries",
    "unit_summaries",
    "validate_record",
]
