"""Campaign-level observability invariants.

The hard contract: observability is passive.  Tracing on/off must not
change a single classification, and the process backend's wire-merged
counters must equal the serial reference when the workload is
schedule-independent (``use_cache=False`` — with a shared cache, hit
patterns legitimately depend on unit interleaving).
"""

from __future__ import annotations

from repro.core.campaign import CampaignConfig, run_campaign
from repro.obs.metrics import counter_value
from repro.obs.report import load_trace_dir, stage_summaries, unit_summaries

_APPS = ["dillo"]


def _run(backend="serial", jobs=1, trace_dir=None, use_cache=True):
    return run_campaign(
        CampaignConfig(
            applications=_APPS,
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


class TestTracingIsPassive:
    def test_serial_classifications_identical_with_and_without_trace(self, tmp_path):
        plain = _run()
        traced = _run(trace_dir=str(tmp_path / "trace"))
        assert plain.classifications() == traced.classifications()

    def test_process_classifications_identical_with_and_without_trace(self, tmp_path):
        plain = _run(backend="process", jobs=2)
        traced = _run(backend="process", jobs=2, trace_dir=str(tmp_path / "trace"))
        assert plain.classifications() == traced.classifications()


class TestTraceContents:
    def test_serial_trace_covers_every_stage(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        result = _run(trace_dir=trace_dir)
        data = load_trace_dir(trace_dir)
        assert data.error is None
        assert data.invalid_records == 0
        names = {s.name for s in stage_summaries(data)}
        assert {"campaign", "parse", "taint", "unit", "concolic", "enforce",
                "solve"} <= names
        units = unit_summaries(data)
        assert len(units) == result.unit_count
        assert all(u.backend == "serial" for u in units)

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
