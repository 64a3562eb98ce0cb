"""Observability overhead and coverage benchmark.

The tracing layer's contract is that it is *passive*: instrumenting every
stage of every campaign unit must not meaningfully slow the campaign down
or change anything it computes.  This harness measures and gates:

1. **Overhead** — a registry campaign with a ``trace_dir`` (full JSONL
   span emission *plus* the event stream with its JSONL event sink)
   must finish within ``MAX_OVERHEAD`` of the same
   campaign with all instrumentation off (``events=False``, no trace),
   and classifications must be identical.
2. **Coverage** — for every traced unit, the durations of its direct
   child stage spans (concolic, enforce, triage, ...) must sum to a
   meaningful fraction of the unit span's own wall time
   (``MIN_STAGE_COVERAGE``) and never exceed it beyond timer jitter —
   i.e. the span taxonomy actually explains where unit time goes, and
   nesting accounting is sound.
3. **Event integrity** — every persisted event record passes schema
   validation, and the unit-lifecycle counts close: one queued, one
   started and one finished event per campaign unit, zero failed.

Every standalone run emits ``BENCH_observability.json``.  Runs under
pytest inside the suite and standalone for CI::

    PYTHONPATH=src python benchmarks/bench_observability.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from bench_campaign import write_artifact

from repro import __version__
from repro.core.campaign import CampaignConfig, CampaignEngine
from repro.obs.report import load_events_dir, load_trace_dir, unit_summaries

#: Traced wall time may exceed the best untraced wall time by at most this
#: factor...
MAX_OVERHEAD = 1.05

#: ...plus this absolute allowance (seconds) so sub-second campaigns are
#: not gated on scheduler noise larger than the thing being measured.
OVERHEAD_EPSILON_SECONDS = 0.15

#: Weighted across all traced units, direct child stage spans must explain
#: at least this fraction of unit wall time (concolic + enforce + triage
#: dominate a unit; the remainder is detector/session bookkeeping).
MIN_STAGE_COVERAGE = 0.60

#: A single unit's stage sum may exceed its unit span by at most this
#: factor (pure timer jitter; stages nest strictly inside the unit).
MAX_UNIT_COVERAGE = 1.02

#: Untraced arm repetitions (the best is the baseline — background load
#: can only inflate a measurement, never deflate it).
UNTRACED_RUNS = 2

ARTIFACT_NAME = "BENCH_observability.json"


def _config(trace_dir: Optional[str], events: bool) -> CampaignConfig:
    return CampaignConfig(
        jobs=1, backend="serial", use_cache=True, trace_dir=trace_dir,
        events=events,
    )


@dataclass
class Measurement:
    """Both arms plus the trace-derived coverage statistics."""

    untraced_seconds: List[float]
    traced_seconds: float
    classifications_match: bool
    unit_count: int
    traced_units: int
    weighted_coverage: float
    worst_unit_coverage: float
    invalid_records: int
    event_records: int
    invalid_event_records: int
    lifecycle_counts: Dict[str, int]

    @property
    def baseline_seconds(self) -> float:
        return min(self.untraced_seconds)

    @property
    def overhead(self) -> float:
        if self.baseline_seconds <= 0:
            return 0.0
        return self.traced_seconds / self.baseline_seconds


def measure() -> Measurement:
    untraced: List[float] = []
    reference = None
    for _ in range(UNTRACED_RUNS):
        started = time.perf_counter()
        result = CampaignEngine(_config(None, events=False)).run()
        untraced.append(time.perf_counter() - started)
        reference = result

    with tempfile.TemporaryDirectory() as trace_dir:
        started = time.perf_counter()
        traced_result = CampaignEngine(_config(trace_dir, events=True)).run()
        traced_seconds = time.perf_counter() - started
        data = load_trace_dir(trace_dir)
        units = unit_summaries(data)
        event_data = load_events_dir(trace_dir)

    lifecycle_counts: Dict[str, int] = {}
    for record in event_data.records:
        name = record["name"]
        if name.startswith("unit."):
            lifecycle_counts[name] = lifecycle_counts.get(name, 0) + 1

    total_unit = sum(u.duration_seconds for u in units)
    total_stage = sum(u.stage_seconds() for u in units)
    return Measurement(
        untraced_seconds=untraced,
        traced_seconds=traced_seconds,
        classifications_match=(
            reference.classifications() == traced_result.classifications()
        ),
        unit_count=traced_result.unit_count,
        traced_units=len(units),
        weighted_coverage=(total_stage / total_unit) if total_unit else 0.0,
        worst_unit_coverage=max(
            (u.coverage() for u in units), default=0.0
        ),
        invalid_records=data.invalid_records,
        event_records=len(event_data.records),
        invalid_event_records=event_data.invalid_records,
        lifecycle_counts=lifecycle_counts,
    )


def gate_failures(m: Measurement) -> List[str]:
    failures: List[str] = []
    if not m.classifications_match:
        failures.append("tracing changed campaign classifications")
    if m.traced_units != m.unit_count:
        failures.append(
            f"trace captured {m.traced_units} unit spans for "
            f"{m.unit_count} campaign units"
        )
    if m.invalid_records:
        failures.append(f"{m.invalid_records} invalid trace record(s)")
    budget = m.baseline_seconds * MAX_OVERHEAD + OVERHEAD_EPSILON_SECONDS
    if m.traced_seconds > budget:
        failures.append(
            f"traced run took {m.traced_seconds:.3f}s against a budget of "
            f"{budget:.3f}s (untraced best {m.baseline_seconds:.3f}s)"
        )
    if m.weighted_coverage < MIN_STAGE_COVERAGE:
        failures.append(
            f"stage spans explain only {m.weighted_coverage:.0%} of unit "
            f"wall time (floor {MIN_STAGE_COVERAGE:.0%})"
        )
    if m.worst_unit_coverage > MAX_UNIT_COVERAGE:
        failures.append(
            f"a unit's stage sum is {m.worst_unit_coverage:.2f}x its unit "
            f"span (cap {MAX_UNIT_COVERAGE:.2f}x) — nesting accounting broke"
        )
    if m.invalid_event_records:
        failures.append(f"{m.invalid_event_records} invalid event record(s)")
    for name in ("unit.queued", "unit.started", "unit.finished"):
        if m.lifecycle_counts.get(name, 0) != m.unit_count:
            failures.append(
                f"event log holds {m.lifecycle_counts.get(name, 0)} "
                f"{name} record(s) for {m.unit_count} campaign units"
            )
    if m.lifecycle_counts.get("unit.failed", 0):
        failures.append(
            f"{m.lifecycle_counts['unit.failed']} unit.failed event(s) in a "
            "clean campaign"
        )
    return failures


def artifact_payload(m: Measurement) -> Dict[str, object]:
    return {
        "version": __version__,
        "benchmark": "observability",
        "untraced_seconds": [round(s, 4) for s in m.untraced_seconds],
        "untraced_best_seconds": round(m.baseline_seconds, 4),
        "traced_seconds": round(m.traced_seconds, 4),
        "overhead": round(m.overhead, 4),
        "max_overhead": MAX_OVERHEAD,
        "overhead_epsilon_seconds": OVERHEAD_EPSILON_SECONDS,
        "unit_count": m.unit_count,
        "traced_units": m.traced_units,
        "weighted_stage_coverage": round(m.weighted_coverage, 4),
        "min_stage_coverage": MIN_STAGE_COVERAGE,
        "worst_unit_coverage": round(m.worst_unit_coverage, 4),
        "invalid_records": m.invalid_records,
        "event_records": m.event_records,
        "invalid_event_records": m.invalid_event_records,
        "lifecycle_counts": dict(sorted(m.lifecycle_counts.items())),
        "classifications_match": m.classifications_match,
    }


# ----------------------------------------------------------------------
# Pytest twins
# ----------------------------------------------------------------------
def test_tracing_overhead_and_coverage():
    m = measure()
    failures = gate_failures(m)
    assert not failures, "; ".join(failures)


def test_stage_coverage_is_stable_enough_to_gate():
    """The coverage statistic itself should not be wildly dispersed."""
    m = measure()
    assert 0.0 < m.weighted_coverage <= MAX_UNIT_COVERAGE
    assert m.traced_units == m.unit_count


# ----------------------------------------------------------------------
# Standalone entry point
# ----------------------------------------------------------------------
def main() -> int:
    m = measure()
    print(
        f"untraced: {', '.join(f'{s:.3f}s' for s in m.untraced_seconds)} "
        f"(best {m.baseline_seconds:.3f}s)"
    )
    print(f"traced:   {m.traced_seconds:.3f}s ({m.overhead:.3f}x)")
    print(
        f"coverage: {m.weighted_coverage:.0%} of unit wall time explained "
        f"by stage spans across {m.traced_units} units "
        f"(worst unit {m.worst_unit_coverage:.2f}x)"
    )
    print(
        f"events:   {m.event_records} records "
        f"({m.invalid_event_records} invalid), lifecycle "
        + ", ".join(f"{k}={v}" for k, v in sorted(m.lifecycle_counts.items()))
    )
    path = write_artifact(artifact_payload(m), name=ARTIFACT_NAME)
    print(f"artifact written: {path}")

    failures = gate_failures(m)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
