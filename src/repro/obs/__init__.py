"""Campaign-wide observability: metrics, spans, events, reporting.

Five modules.  The first two are layered bottom-up and import nothing
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
  ``git describe``) persisted artifacts carry;
* :mod:`repro.obs.benchhist` — bench-run history and the regression
  comparison behind ``repro bench-diff``.

The contract every instrumented layer relies on: **observability is
passive** — identical site classifications with tracing on or off, and
deterministic metric totals (the ``events.*`` counters included)
regardless of backend worker count for schedule-independent workloads
(gated by the tests and ``benchmarks/bench_observability.py``).
"""

from __future__ import annotations

from repro.obs.metrics import (
    METRICS,
    METRICS_WIRE_VERSION,
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
)
from repro.obs.report import (
    StageSummary,
    TraceData,
    UnitSummary,
    chrome_trace_events,
    load_trace_dir,
    stage_summaries,
    unit_summaries,
)
from repro.obs.trace import (
    TRACER,
    TRACE_SCHEMA_VERSION,
    InMemorySink,
    JsonlSink,
    Tracer,
    validate_record,
)

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
    "merge_snapshots",
    "stage_summaries",
    "unit_summaries",
    "validate_record",
]
