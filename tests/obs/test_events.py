"""Events on the tracer: counts, lifecycle records, and backend parity.

``TRACER.event(name, ...)`` always increments the ``events.<name>``
counter in :data:`repro.obs.metrics.METRICS` and, with a sink attached,
writes a ``kind: "event"`` trace record.  The counts therefore travel
home from process-backend workers inside the ordinary per-unit metrics
delta (whose merge algebra ``test_metrics.py`` drives with hypothesis),
while the records stay in each process's own ``spans-<pid>.jsonl``.

The campaign-level contracts: the unit-lifecycle counts close over the
campaign's units on every backend, every ``events.*`` counter is the
same for serial, thread and process and with or without a trace, every
trace file holds only its own process's records, and the persisted
finish records alone rebuild the campaign's classifications.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.apps.registry import get_application
from repro.core import engine as engine_module
from repro.core.campaign import CampaignConfig, run_campaign
from repro.obs.metrics import METRICS, METRICS_WIRE_VERSION, counter_value
from repro.obs.report import load_trace_dir
from repro.obs.trace import (
    TRACER,
    InMemorySink,
    JsonlSink,
    Tracer,
    ensure_trace_dir,
    validate_record,
)
from repro.sched.base import CampaignUnit, analyze_unit
from repro.sched.context import build_application_context

_LIFECYCLE = ("unit.queued", "unit.started", "unit.finished", "unit.failed")


class TestTracerEvents:
    def test_event_counts_without_a_sink(self):
        tracer = Tracer()
        before = METRICS.counter("events.test.no_sink").value
        tracer.event("test.no_sink", path="x")
        tracer.event("test.no_sink", path="y")
        assert METRICS.counter("events.test.no_sink").value == before + 2

    def test_event_counts_and_records_with_a_sink(self):
        tracer = Tracer()
        sink = InMemorySink()
        tracer.add_sink(sink)
        before = METRICS.counter("events.test.with_sink").value
        tracer.event("test.with_sink", application="dillo", site="s")
        tracer.event("test.with_sink", application="dillo", site="t")
        assert METRICS.counter("events.test.with_sink").value == before + 2
        assert [r["name"] for r in sink.records] == ["test.with_sink"] * 2
        assert all(r["kind"] == "event" for r in sink.records)
        assert all(validate_record(r) == [] for r in sink.records)
        assert sink.records[0]["attrs"] == {"application": "dillo", "site": "s"}

    def test_broken_sink_is_detached_and_the_event_still_counts(self):
        class Exploding:
            def emit(self, record):
                raise OSError("disk full")

        tracer = Tracer()
        good = InMemorySink()
        tracer.add_sink(Exploding())
        tracer.add_sink(good)
        before = METRICS.counter("events.test.broken_sink").value
        tracer.event("test.broken_sink")
        tracer.event("test.broken_sink")
        assert METRICS.counter("events.test.broken_sink").value == before + 2
        assert [r["name"] for r in good.records] == ["test.broken_sink"] * 2
        assert len(tracer._sinks) == 1  # the exploding sink was dropped

    def test_event_parent_is_the_enclosing_span_of_its_own_thread(self):
        """Thread-backend units trace concurrently; an event emitted on one
        thread must not adopt a span that is open on another."""
        tracer = Tracer()
        sink = InMemorySink()
        tracer.add_sink(sink)
        with tracer.span("unit") as outer:
            worker = threading.Thread(
                target=lambda: tracer.event("test.other_thread")
            )
            worker.start()
            worker.join()
            tracer.event("test.same_thread")
        parents = {
            r["name"]: r["parent"] for r in sink.records if r["kind"] == "event"
        }
        assert parents == {
            "test.other_thread": None,
            "test.same_thread": outer.span_id,
        }

    def test_registry_delta_counts_this_run_only(self):
        tracer = Tracer()
        tracer.event("test.delta")
        mark = METRICS.snapshot()
        tracer.event("test.delta")
        tracer.event("test.delta_other")
        delta = METRICS.delta(mark)
        assert counter_value(delta, "events.test.delta") == 1
        assert counter_value(delta, "events.test.delta_other") == 1

    def test_merging_a_worker_delta_counts_without_recording(self):
        """Worker counts come home in the metrics delta; the worker already
        wrote its own records, so the parent must not record them again."""
        sink = InMemorySink()
        TRACER.add_sink(sink)
        try:
            before = METRICS.counter("events.test.merged").value
            METRICS.merge(
                {
                    "v": METRICS_WIRE_VERSION,
                    "metrics": {"events.test.merged": {"k": "c", "value": 7}},
                }
            )
        finally:
            TRACER.remove_sink(sink)
        assert METRICS.counter("events.test.merged").value == before + 7
        assert sink.records == []

    def test_event_records_round_trip_through_the_loader(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        tracer = Tracer()
        sink = JsonlSink(trace_dir)
        tracer.add_sink(sink)
        tracer.event("unit.started", application="dillo", site="s")
        with tracer.span("unit", application="dillo", site="s"):
            pass
        tracer.event("unit.finished", application="dillo", site="s", seconds=0.5)
        tracer.remove_sink(sink)
        sink.close()
        data = load_trace_dir(trace_dir)
        assert data.error is None
        assert data.invalid_records == 0
        # ``events`` holds the event records only, spans stay in ``spans``.
        assert [(r["name"], r["attrs"]) for r in data.events] == [
            ("unit.started", {"application": "dillo", "site": "s"}),
            (
                "unit.finished",
                {"application": "dillo", "site": "s", "seconds": 0.5},
            ),
        ]
        assert [r["name"] for r in data.spans] == ["unit"]


class TestEventRecords:
    def _record(self, **overrides):
        tracer = Tracer()
        sink = InMemorySink()
        tracer.add_sink(sink)
        tracer.event(
            "unit.finished",
            application="dillo",
            seconds=0.5,
            count=3,
            exposed=True,
            error=None,
        )
        [record] = sink.records
        record.update(overrides)
        return record

    def test_accepts_well_formed_event_records(self):
        record = self._record()
        assert "dur" not in record  # an event is a point, not an interval
        assert validate_record(record) == []
        assert validate_record(self._record(parent=7)) == []
        assert validate_record(self._record(attrs={})) == []

    def test_rejects_malformed_event_records(self):
        assert validate_record(self._record(v=999))
        assert validate_record(self._record(kind="point"))
        assert validate_record(self._record(name=""))
        assert validate_record(self._record(id="one"))
        assert validate_record(self._record(pid=None))
        assert validate_record(self._record(parent="outer"))
        assert validate_record(self._record(wall="now"))
        assert validate_record(self._record(attrs=[1]))
        assert validate_record(self._record(attrs={"x": [1]}))

    def test_loader_counts_malformed_event_lines_as_invalid(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        ensure_trace_dir(trace_dir)
        lines = [
            self._record(),
            self._record(name=""),
            self._record(attrs={"x": {"nested": 1}}),
        ]
        with open(os.path.join(trace_dir, "spans-1.jsonl"), "w") as handle:
            for record in lines:
                handle.write(json.dumps(record) + "\n")
            handle.write("{not json\n")
        data = load_trace_dir(trace_dir)
        assert data.error is None
        assert [r["name"] for r in data.events] == ["unit.finished"]
        assert data.invalid_records == 3


class TestUnitLifecycle:
    @pytest.fixture
    def unit_and_context(self):
        context = build_application_context(0, get_application("dillo"))
        return CampaignUnit.for_sites(context, [0]), context

    def _lifecycle_records(self, run):
        sink = InMemorySink()
        TRACER.add_sink(sink)
        try:
            run()
        finally:
            TRACER.remove_sink(sink)
        return [r for r in sink.records if r["name"].startswith("unit")]

    def test_success_records_started_span_then_finished(self, unit_and_context):
        unit, context = unit_and_context
        results = []
        records = self._lifecycle_records(
            lambda: results.append(
                analyze_unit(unit, context, CampaignConfig().diode, None, "serial")
            )
        )
        assert [(r["kind"], r["name"]) for r in records] == [
            ("event", "unit.started"),
            ("span", "unit"),
            ("event", "unit.finished"),
        ]
        identity = {
            "application": unit.application_name,
            "site": unit.site_names[0],
            "backend": "serial",
        }
        assert records[0]["attrs"] == identity
        finished = records[-1]["attrs"]
        (result,) = results[0].values()
        assert finished["classification"] == result.classification.value
        assert finished["seconds"] >= 0.0
        assert {k: finished[k] for k in identity} == identity

    def test_group_records_one_lifecycle_per_site_in_order(self, unit_and_context):
        _, context = unit_and_context
        unit = CampaignUnit.for_sites(context, [0, 4, 7])
        results = []
        records = self._lifecycle_records(
            lambda: results.append(
                analyze_unit(unit, context, CampaignConfig().diode, None, "serial")
            )
        )
        assert [(r["kind"], r["name"], r["attrs"]["site"]) for r in records] == [
            (kind, name, site)
            for site in unit.site_names
            for kind, name in (
                ("event", "unit.started"), ("span", "unit"), ("event", "unit.finished"),
            )
        ]
        assert list(results[0]) == [(0, 0), (0, 4), (0, 7)]

    def test_failure_records_failed_and_reraises(
        self, unit_and_context, monkeypatch
    ):
        def exploding(*args, **kwargs):
            raise RuntimeError("unit blew up")

        monkeypatch.setattr(engine_module, "analyze_site", exploding)
        unit, context = unit_and_context
        before = METRICS.counter("events.unit.failed").value

        def run():
            with pytest.raises(RuntimeError):
                analyze_unit(unit, context, CampaignConfig().diode, None, "serial")

        records = self._lifecycle_records(run)
        names = [r["name"] for r in records if r["kind"] == "event"]
        assert names == ["unit.started", "unit.failed"]
        assert records[-1]["attrs"]["error"] == "RuntimeError"
        assert METRICS.counter("events.unit.failed").value == before + 1


# ----------------------------------------------------------------------
# Campaign-level contracts
# ----------------------------------------------------------------------
_BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def backend_runs(tmp_path_factory):
    """A traced and an untraced campaign per backend.

    ``backend -> (traced result, trace dir, untraced result)``.
    """
    runs = {}
    for backend in _BACKENDS:
        trace_dir = str(tmp_path_factory.mktemp(f"trace-{backend}"))
        config = lambda trace_dir: CampaignConfig(
            applications=["dillo", "swfplay"],
            backend=backend,
            jobs=2,
            use_cache=False,
            trace_dir=trace_dir,
        )
        traced = run_campaign(config(trace_dir))
        untraced = run_campaign(config(None))
        runs[backend] = (traced, trace_dir, untraced)
    return runs


def _event_counters(result):
    """The run's nonzero ``events.*`` counters (a delta also lists names
    the registry saw only before the run, at zero)."""
    return {
        name: entry["value"]
        for name, entry in result.metrics["metrics"].items()
        if name.startswith("events.") and entry["value"]
    }


class TestCampaignEvents:
    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_lifecycle_counts_close(self, backend_runs, backend):
        result, _, _ = backend_runs[backend]
        assert result.backend == backend
        counts = {
            name: counter_value(result.metrics, f"events.{name}")
            for name in _LIFECYCLE
        }
        assert counts == {
            "unit.queued": result.unit_count,
            "unit.started": result.unit_count,
            "unit.finished": result.unit_count,
            "unit.failed": 0,
        }

    def test_event_counters_equal_across_backends_and_tracing(self, backend_runs):
        serial, _, _ = backend_runs["serial"]
        reference = _event_counters(serial)
        assert reference
        for backend, (traced, _, untraced) in backend_runs.items():
            assert traced.classifications() == serial.classifications()
            assert untraced.classifications() == serial.classifications()
            # Every events.* name, not a hand-picked subset: no event may
            # depend on the backend, the worker count or the sink.
            assert _event_counters(traced) == reference, backend
            assert _event_counters(untraced) == reference, backend

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_trace_event_records_match_the_counters(self, backend_runs, backend):
        result, trace_dir, _ = backend_runs[backend]
        data = load_trace_dir(trace_dir)
        assert data.error is None
        assert data.invalid_records == 0
        # The trace directory holds spans files and the meta, nothing else.
        assert {
            name for name in os.listdir(trace_dir) if not name.startswith("spans-")
        } == {"meta.json"}
        persisted = {}
        for record in data.events:
            name = f"events.{record['name']}"
            persisted[name] = persisted.get(name, 0) + 1
        assert persisted == _event_counters(result)

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_trace_files_hold_only_their_own_records(self, backend_runs, backend):
        """Fork-started workers must not write into the parent's file.

        A forked worker inherits the parent's sink list with its open
        handle; without clearing it, every worker record lands twice —
        once in the worker's spans-<pid>.jsonl and once in the parent's.
        """
        _, trace_dir, _ = backend_runs[backend]
        paths = sorted(
            os.path.join(trace_dir, name)
            for name in os.listdir(trace_dir)
            if name.startswith("spans-")
        )
        assert paths
        for path in paths:
            own = int(os.path.basename(path)[len("spans-"):-len(".jsonl")])
            with open(path, "r", encoding="utf-8") as handle:
                pids = {json.loads(line)["pid"] for line in handle}
            assert pids == {own}, f"{path} holds foreign-pid records: {pids}"
        if backend == "process":
            # The parent plus at least one worker wrote a file.
            assert len(paths) >= 2

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_finished_records_name_each_unit_and_its_classification(
        self, backend_runs, backend
    ):
        """The persisted finish records alone reconstruct the campaign."""
        result, trace_dir, _ = backend_runs[backend]
        persisted = {}
        for record in load_trace_dir(trace_dir).events:
            if record["name"] != "unit.finished":
                continue
            attrs = record["attrs"]
            assert attrs["backend"] == backend
            persisted.setdefault(attrs["application"], {})[attrs["site"]] = (
                attrs["classification"]
            )
        assert persisted == result.classifications()

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_lifecycle_events_bracket_the_unit_span(self, backend_runs, backend):
        """Each unit's events land in the file of the process that ran it,
        beside its ``unit`` span: started before the span, finished after."""
        result, trace_dir, _ = backend_runs[backend]
        data = load_trace_dir(trace_dir)
        by_unit = {}
        for record in data.records:
            if record["name"] in ("unit", "unit.started", "unit.finished"):
                attrs = record["attrs"]
                key = (attrs["application"], attrs["site"])
                by_unit.setdefault(key, {})[record["name"]] = record
        assert len(by_unit) == result.unit_count
        for key, records in by_unit.items():
            started = records["unit.started"]
            span = records["unit"]
            finished = records["unit.finished"]
            assert started["pid"] == span["pid"] == finished["pid"], key
            assert started["id"] < span["id"] < finished["id"], key
            assert span["attrs"]["backend"] == backend

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_each_unit_starts_once_before_it_finishes(self, backend_runs, backend):
        result, trace_dir, _ = backend_runs[backend]
        ids = {}
        for record in load_trace_dir(trace_dir).events:
            if record["name"] in ("unit.started", "unit.finished"):
                attrs = record["attrs"]
                key = (attrs["application"], attrs["site"])
                ids.setdefault(key, {}).setdefault(record["name"], []).append(
                    (record["pid"], record["id"])
                )
        assert len(ids) == result.unit_count
        for key, by_name in ids.items():
            [(started_pid, started)] = by_name["unit.started"]
            [(finished_pid, finished)] = by_name["unit.finished"]
            # One process runs a unit start to finish; its ids order them.
            assert started_pid == finished_pid, key
            assert started < finished, key


@pytest.mark.parametrize(
    "removed", ["watchdog", "progress", "heartbeat_seconds", "events"]
)
def test_campaign_config_has_no_live_telemetry_field(removed):
    """Event counts travel only in unit deltas; no live-telemetry knobs remain."""
    with pytest.raises(TypeError):
        CampaignConfig(applications=["dillo"], **{removed: True})
