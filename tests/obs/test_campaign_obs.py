"""Campaign-level observability invariants.

The hard contract: observability is passive.  Tracing on/off must not
change a single classification, and the process backend's wire-merged
counters must equal the serial reference when the workload is
schedule-independent (``use_cache=False`` — with a shared cache, hit
patterns legitimately depend on unit interleaving).
"""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignConfig, run_campaign
from repro.obs.metrics import counter_value
from repro.obs.report import load_trace_dir, stage_summaries, unit_summaries

_APPS = ["dillo"]

#: Records (265 spans + 120 events) a traced serial registry campaign
#: writes; tracing that starts emitting more per unit fails the test.
REGISTRY_TRACE_RECORDS = 385

#: Weighted over all units, direct stage spans must explain at least this
#: share of unit wall time (0.96 on the registry).
MIN_STAGE_COVERAGE = 0.60

#: A unit's stage sum may exceed its own span by timer jitter only;
#: anything more means stage spans overlap or escape their unit.
MAX_UNIT_COVERAGE = 1.02


def _run(backend="serial", jobs=1, trace_dir=None, use_cache=True, apps=_APPS):
    return run_campaign(
        CampaignConfig(
            applications=apps,
            backend=backend,
            jobs=jobs,
            use_cache=use_cache,
            trace_dir=trace_dir,
        )
    )


def _counters(result):
    return {
        name: entry["value"]
        for name, entry in result.metrics["metrics"].items()
        if entry["k"] == "c"
    }


@pytest.fixture(scope="module")
def registry_runs(tmp_path_factory):
    """The full registry, serial, untraced and then traced."""
    trace_dir = str(tmp_path_factory.mktemp("trace"))
    plain = _run(apps=None)
    traced = _run(trace_dir=trace_dir, apps=None)
    return plain, traced, load_trace_dir(trace_dir)


class TestTracingIsPassive:
    def test_serial_classifications_identical_with_and_without_trace(
        self, registry_runs
    ):
        plain, traced, data = registry_runs
        assert plain.classifications() == traced.classifications()
        assert _counters(plain) == _counters(traced)
        assert len(data.records) <= REGISTRY_TRACE_RECORDS

    def test_process_classifications_identical_with_and_without_trace(self, tmp_path):
        plain = _run(backend="process", jobs=2)
        traced = _run(backend="process", jobs=2, trace_dir=str(tmp_path / "trace"))
        assert plain.classifications() == traced.classifications()


class TestTraceContents:
    def test_serial_trace_covers_every_stage(self, registry_runs):
        _, result, data = registry_runs
        assert data.error is None
        assert data.invalid_records == 0
        names = {s.name for s in stage_summaries(data)}
        assert {"campaign", "parse", "taint", "unit", "concolic", "enforce",
                "solve"} <= names
        units = unit_summaries(data)
        assert len(units) == result.unit_count
        assert all(u.backend == "serial" for u in units)
        unit_seconds = sum(u.duration_seconds for u in units)
        stage_seconds = sum(u.stage_seconds() for u in units)
        assert stage_seconds >= MIN_STAGE_COVERAGE * unit_seconds
        assert max(u.coverage() for u in units) <= MAX_UNIT_COVERAGE

    def test_process_trace_collects_worker_files(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        result = _run(backend="process", jobs=2, trace_dir=trace_dir)
        data = load_trace_dir(trace_dir)
        assert data.error is None
        # Parent writes campaign/parse spans; workers write unit spans.
        assert data.files >= 2
        units = unit_summaries(data)
        assert len(units) == result.unit_count
        assert all(u.backend == "process" for u in units)
        pids = {r["pid"] for r in data.records}
        assert len(pids) >= 2


class TestMetricsAggregation:
    def test_campaign_metrics_delta_counts_this_run_only(self):
        first = _run()
        second = _run()
        assert (
            counter_value(first.metrics, "events.unit.finished")
            == counter_value(second.metrics, "events.unit.finished")
            == first.unit_count
        )

    def test_process_counters_equal_serial_without_cache(self):
        serial = _run(use_cache=False)
        process = _run(backend="process", jobs=3, use_cache=False)
        assert serial.classifications() == process.classifications()
        assert _counters(serial) == _counters(process)

    def test_solver_counters_reported_in_metrics(self):
        result = _run()
        assert counter_value(result.metrics, "solver.queries") > 0
        assert counter_value(result.metrics, "solver.session_checks") > 0
