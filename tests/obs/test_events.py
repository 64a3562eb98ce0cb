"""The campaign event stream: wires, sinks, lifecycle, and backend parity.

Mirrors ``test_metrics.py``'s discipline for the event-count wire dicts:
merge must be commutative and associative over arbitrary *asymmetric*
key sets (hypothesis-driven), and ``diff`` must report the union of both
key sets rather than silently dropping names.  On top of that sit the
stream semantics that keep counts exact across processes — ``emit``
counts and dispatches, ``merge`` counts without dispatching — and the
campaign-level contracts: on a cache-free workload the serial, thread and
process backends produce the same whole event-count wire, every persisted
record validates and sits in its own process's file, and the ablation
switch (``events=False``) changes no classification.
"""

from __future__ import annotations

import glob
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import CampaignConfig, run_campaign
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENTS_WIRE_VERSION,
    LIFECYCLE_EVENTS,
    EventStream,
    JsonlEventSink,
    RingBufferSink,
    diff_event_wires,
    event_count,
    merge_event_wires,
    unit_lifecycle,
    validate_event_record,
)
from repro.obs import events as ev
from repro.obs.report import load_events_dir

# ----------------------------------------------------------------------
# Wire strategies: small name pools force asymmetric key overlaps.
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(
    ["unit.started", "unit.finished", "cache.hit", "cache.miss", "x"]
)

_WIRE = st.dictionaries(
    _NAMES, st.integers(min_value=0, max_value=10**9), max_size=5
).map(lambda events: {"v": EVENTS_WIRE_VERSION, "events": events})


def _counts(wire: dict) -> dict:
    """Drop zero-count noise so structurally-equal wires compare equal."""
    return {name: count for name, count in wire["events"].items() if count}


class TestWireProperties:
    @settings(max_examples=200, deadline=None)
    @given(a=_WIRE, b=_WIRE)
    def test_merge_is_commutative(self, a, b):
        assert _counts(merge_event_wires(a, b)) == _counts(
            merge_event_wires(b, a)
        )

    @settings(max_examples=200, deadline=None)
    @given(a=_WIRE, b=_WIRE, c=_WIRE)
    def test_merge_is_associative(self, a, b, c):
        left = merge_event_wires(merge_event_wires(a, b), c)
        right = merge_event_wires(a, merge_event_wires(b, c))
        assert _counts(left) == _counts(right)

    @settings(max_examples=100, deadline=None)
    @given(a=_WIRE)
    def test_merge_with_empty_is_identity(self, a):
        empty = {"v": EVENTS_WIRE_VERSION, "events": {}}
        assert _counts(merge_event_wires(a, empty)) == _counts(
            merge_event_wires(a)
        )

    @settings(max_examples=200, deadline=None)
    @given(mark=_WIRE, delta=_WIRE)
    def test_diff_inverts_merge(self, mark, delta):
        """(mark + delta) - mark == delta, over asymmetric key sets."""
        current = merge_event_wires(mark, delta)
        recovered = diff_event_wires(mark, current)
        assert _counts(recovered) == _counts(delta)

    @settings(max_examples=100, deadline=None)
    @given(a=_WIRE, b=_WIRE)
    def test_stream_merge_equals_pure_merge(self, a, b):
        stream = EventStream()
        stream.merge(a)
        stream.merge(b)
        assert _counts(stream.snapshot()) == _counts(merge_event_wires(a, b))

    def test_diff_reports_union_of_key_sets(self):
        mark = {"v": EVENTS_WIRE_VERSION, "events": {"only.in.mark": 3}}
        current = {"v": EVENTS_WIRE_VERSION, "events": {"only.in.current": 2}}
        delta = diff_event_wires(mark, current)
        # Never silently dropped — the key appears (at its negation).
        assert delta["events"] == {"only.in.current": 2, "only.in.mark": -3}

    def test_unknown_wire_version_is_dropped(self):
        good = {"v": EVENTS_WIRE_VERSION, "events": {"a": 3}}
        bad = {"v": 999, "events": {"a": 5}}
        assert event_count(merge_event_wires(good, bad), "a") == 3
        stream = EventStream()
        assert stream.merge(bad) == 0
        assert stream.merge(good) == 1

    def test_event_count_tolerates_junk(self):
        assert event_count(None, "a") == 0
        assert event_count({}, "a") == 0
        assert event_count({"v": 1, "events": {"a": "nope"}}, "a") == 0


class TestValidateRecord:
    def _record(self, **overrides):
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "name": "unit.started",
            "seq": 1,
            "pid": 10,
            "tid": 20,
            "wall": 1.5,
            "attrs": {"application": "dillo"},
        }
        record.update(overrides)
        return record

    def test_accepts_well_formed_records(self):
        assert validate_event_record(self._record()) == []

    def test_rejects_malformed_records(self):
        assert validate_event_record("not a dict")
        assert validate_event_record({})
        assert validate_event_record(self._record(v=999))
        assert validate_event_record(self._record(name=""))
        assert validate_event_record(self._record(seq="one"))
        assert validate_event_record(self._record(wall="now"))
        assert validate_event_record(self._record(attrs=[1]))
        assert validate_event_record(self._record(attrs={"x": [1]}))


class TestStream:
    def test_emit_counts_and_dispatches(self):
        stream = EventStream()
        sink = RingBufferSink()
        stream.add_sink(sink)
        stream.emit("unit.started", application="dillo", site="s")
        stream.emit("unit.started", application="dillo", site="t")
        assert event_count(stream.snapshot(), "unit.started") == 2
        records = sink.records()
        assert [r["name"] for r in records] == ["unit.started"] * 2
        assert all(validate_event_record(r) == [] for r in records)
        assert records[0]["attrs"]["site"] == "s"

    def test_disabled_stream_is_a_no_op(self):
        stream = EventStream()
        sink = RingBufferSink()
        stream.add_sink(sink)
        stream.enabled = False
        stream.emit("unit.started")
        assert stream.snapshot()["events"] == {}
        assert sink.records() == []

    def test_merge_counts_without_dispatching(self):
        stream = EventStream()
        sink = RingBufferSink()
        stream.add_sink(sink)
        stream.merge({"v": EVENTS_WIRE_VERSION, "events": {"cache.hit": 7}})
        assert event_count(stream.snapshot(), "cache.hit") == 7
        assert sink.records() == []

    def test_broken_sink_is_detached_not_fatal(self):
        class Exploding:
            def emit(self, record):
                raise OSError("disk full")

        stream = EventStream()
        good = RingBufferSink()
        stream.add_sink(Exploding())
        stream.add_sink(good)
        stream.emit("unit.started")
        assert [r["name"] for r in good.records()] == ["unit.started"]
        assert len(stream._sinks) == 1

    def test_delta_counts_this_span_only(self):
        stream = EventStream()
        stream.emit("cache.hit")
        mark = stream.snapshot()
        stream.emit("cache.hit")
        stream.emit("cache.miss")
        delta = stream.delta(mark)
        assert event_count(delta, "cache.hit") == 1
        assert event_count(delta, "cache.miss") == 1


class TestSinks:
    def test_ring_buffer_is_bounded(self):
        sink = RingBufferSink(capacity=3)
        for seq in range(10):
            sink.emit({"seq": seq})
        assert [r["seq"] for r in sink.records()] == [7, 8, 9]

    def test_jsonl_sink_round_trips_through_loader(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        stream = EventStream()
        sink = JsonlEventSink(trace_dir)
        stream.add_sink(sink)
        stream.emit("unit.started", application="dillo", site="s")
        stream.emit("unit.finished", application="dillo", site="s", seconds=0.5)
        sink.close()
        data = load_events_dir(trace_dir)
        assert data.error is None
        assert data.invalid_records == 0
        assert [r["name"] for r in data.records] == [
            "unit.started", "unit.finished",
        ]

    def test_jsonl_sink_lazy_open_leaves_no_file(self, tmp_path):
        sink = JsonlEventSink(str(tmp_path / "trace"))
        sink.close()
        assert not os.path.exists(sink.path())


class TestUnitLifecycle:
    def test_success_emits_started_then_finished(self):
        sink = RingBufferSink()
        ev.EVENTS.add_sink(sink)
        try:
            with unit_lifecycle("dillo", "png.c@203", "serial") as extra:
                extra["classification"] = "overflow"
        finally:
            ev.EVENTS.remove_sink(sink)
        records = [r for r in sink.records() if r["name"].startswith("unit.")]
        assert [r["name"] for r in records] == ["unit.started", "unit.finished"]
        finished = records[-1]["attrs"]
        assert finished["classification"] == "overflow"
        assert finished["seconds"] >= 0.0
        assert finished["application"] == "dillo"

    def test_failure_emits_failed_and_reraises(self):
        sink = RingBufferSink()
        ev.EVENTS.add_sink(sink)
        try:
            with pytest.raises(RuntimeError):
                with unit_lifecycle("dillo", "s", "serial"):
                    raise RuntimeError("unit blew up")
        finally:
            ev.EVENTS.remove_sink(sink)
        records = [r for r in sink.records() if r["name"].startswith("unit.")]
        assert [r["name"] for r in records] == ["unit.started", "unit.failed"]
        assert records[-1]["attrs"]["error"] == "RuntimeError"


# ----------------------------------------------------------------------
# Campaign-level contracts
# ----------------------------------------------------------------------
_BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def backend_runs(tmp_path_factory):
    """One traced cache-free campaign per backend: ``backend -> (result, dir)``.

    Without a shared cache nothing the stream counts depends on the
    schedule, so the whole event-count wire must agree across backends.
    """
    runs = {}
    for backend in _BACKENDS:
        trace_dir = str(tmp_path_factory.mktemp(f"events-{backend}"))
        result = run_campaign(
            CampaignConfig(
                applications=["dillo", "swfplay"],
                backend=backend,
                jobs=2,
                use_cache=False,
                trace_dir=trace_dir,
            )
        )
        runs[backend] = (result, trace_dir)
    return runs


def _event_files(trace_dir):
    return sorted(glob.glob(os.path.join(trace_dir, "events-*.jsonl")))


class TestCampaignEvents:
    def test_events_ablation_changes_no_classification(self):
        with_events = run_campaign(CampaignConfig(applications=["dillo"], jobs=1))
        without = run_campaign(
            CampaignConfig(applications=["dillo"], jobs=1, events=False)
        )
        assert with_events.classifications() == without.classifications()
        assert without.events is None
        assert with_events.events is not None

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_lifecycle_counts_close(self, backend_runs, backend):
        result, _ = backend_runs[backend]
        assert result.backend == backend
        counts = {
            name: event_count(result.events, name) for name in LIFECYCLE_EVENTS
        }
        assert counts["unit.queued"] == result.unit_count
        assert counts["unit.started"] == result.unit_count
        assert counts["unit.finished"] == result.unit_count
        assert counts["unit.failed"] == 0

    def test_whole_event_wire_equal_across_backends(self, backend_runs):
        serial, _ = backend_runs["serial"]
        for backend in ("thread", "process"):
            result, _ = backend_runs[backend]
            assert result.classifications() == serial.classifications()
            # Every name, not a hand-picked subset: no event the stream
            # records may depend on the backend or the worker count.
            assert result.events == serial.events, backend

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_event_jsonl_lands_beside_spans(self, backend_runs, backend):
        result, trace_dir = backend_runs[backend]
        data = load_events_dir(trace_dir)
        assert data.error is None
        assert data.invalid_records == 0
        assert glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))
        for name in ("unit.started", "unit.finished"):
            records = [r for r in data.records if r["name"] == name]
            assert len(records) == result.unit_count, name

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_event_files_hold_only_their_own_records(self, backend_runs, backend):
        """Fork-started workers must not write into the parent's file.

        A forked worker inherits the parent's sink list with its open
        handle; without clearing it, every worker record lands twice —
        once in the worker's events-<pid>.jsonl and once in the parent's.
        """
        _, trace_dir = backend_runs[backend]
        paths = _event_files(trace_dir)
        assert paths
        for path in paths:
            own = int(os.path.basename(path)[len("events-"):-len(".jsonl")])
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
        result, trace_dir = backend_runs[backend]
        finished = [
            r for r in load_events_dir(trace_dir).records
            if r["name"] == "unit.finished"
        ]
        persisted = {}
        for record in finished:
            attrs = record["attrs"]
            assert attrs["backend"] == backend
            persisted.setdefault(attrs["application"], {})[attrs["site"]] = (
                attrs["classification"]
            )
        assert persisted == result.classifications()

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_each_unit_starts_once_before_it_finishes(self, backend_runs, backend):
        result, trace_dir = backend_runs[backend]
        seqs = {}
        for record in load_events_dir(trace_dir).records:
            if record["name"] in ("unit.started", "unit.finished"):
                attrs = record["attrs"]
                key = (attrs["application"], attrs["site"])
                seqs.setdefault(key, {}).setdefault(record["name"], []).append(
                    (record["pid"], record["seq"])
                )
        assert len(seqs) == result.unit_count
        for key, by_name in seqs.items():
            [(started_pid, started)] = by_name["unit.started"]
            [(finished_pid, finished)] = by_name["unit.finished"]
            # One process runs a unit start to finish; its counter orders them.
            assert started_pid == finished_pid, key
            assert started < finished, key


@pytest.mark.parametrize("removed", ["watchdog", "progress", "heartbeat_seconds"])
def test_campaign_config_has_no_live_telemetry_field(removed):
    """Event counts travel only in unit deltas; no live-telemetry knobs remain."""
    with pytest.raises(TypeError):
        CampaignConfig(applications=["dillo"], **{removed: True})
