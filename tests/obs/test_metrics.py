"""The metrics registry: wire snapshots, deltas, and lossless merging.

The load-bearing property is that :func:`merge_snapshots` is commutative
and associative — the process backend's parent folds worker deltas in
arrival order, and the totals must not depend on which worker finished
first.  Hypothesis drives that over generated wire dicts; everything is
stored as integers (counts, nanoseconds, bucket indices) precisely so the
property holds exactly rather than approximately.  The ``events.<name>``
counters the tracer keeps travel on this wire too, so the name pool mixes
them in.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    METRICS_WIRE_VERSION,
    MetricsRegistry,
    bucket_index,
    counter_value,
    diff_snapshots,
    histogram_stats,
    merge_snapshots,
    seconds_to_nanos,
)

# ----------------------------------------------------------------------
# Wire-dict strategies
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(
    [
        "solver.queries",
        "store.loads",
        "stage.solve.seconds",
        "sched.wait",
        "events.unit.started",
        "events.store.lock_wait",
        "x",
    ]
)

_COUNTER = st.fixed_dictionaries(
    {"k": st.just("c"), "value": st.integers(min_value=0, max_value=10**9)}
)
_GAUGE = st.fixed_dictionaries(
    {"k": st.just("g"), "value": st.integers(min_value=0, max_value=10**9)}
)
_HISTOGRAM = st.fixed_dictionaries(
    {
        "k": st.just("h"),
        "count": st.integers(min_value=0, max_value=10**6),
        "sum": st.integers(min_value=0, max_value=10**15),
        "buckets": st.dictionaries(
            st.integers(min_value=0, max_value=len(BUCKET_BOUNDS)).map(str),
            st.integers(min_value=1, max_value=10**6),
            max_size=4,
        ),
    }
)

_WIRE = st.dictionaries(_NAMES, st.one_of(_COUNTER, _GAUGE, _HISTOGRAM), max_size=5).map(
    lambda metrics: {"v": METRICS_WIRE_VERSION, "metrics": metrics}
)


def _normalized(wire: dict) -> dict:
    """Drop empty-bucket noise so structurally-equal wires compare equal."""
    out = {}
    for name, entry in wire["metrics"].items():
        entry = dict(entry)
        if entry.get("k") == "h":
            entry["buckets"] = {
                k: v for k, v in sorted(entry.get("buckets", {}).items()) if v
            }
        out[name] = entry
    return out


class TestMergeProperties:
    @settings(max_examples=200, deadline=None)
    @given(a=_WIRE, b=_WIRE)
    def test_merge_is_commutative(self, a, b):
        # Same-name entries with different kinds are the one case merge
        # resolves by first-seen kind; restrict to kind-consistent pairs.
        for name in set(a["metrics"]) & set(b["metrics"]):
            if a["metrics"][name]["k"] != b["metrics"][name]["k"]:
                del b["metrics"][name]
        assert _normalized(merge_snapshots(a, b)) == _normalized(
            merge_snapshots(b, a)
        )

    @settings(max_examples=200, deadline=None)
    @given(a=_WIRE, b=_WIRE, c=_WIRE)
    def test_merge_is_associative(self, a, b, c):
        kinds = {}
        for wire in (a, b, c):
            for name in list(wire["metrics"]):
                kind = wire["metrics"][name]["k"]
                if kinds.setdefault(name, kind) != kind:
                    del wire["metrics"][name]
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert _normalized(left) == _normalized(right)

    @settings(max_examples=100, deadline=None)
    @given(a=_WIRE)
    def test_merge_with_empty_is_identity_for_counters_and_histograms(self, a):
        empty = {"v": METRICS_WIRE_VERSION, "metrics": {}}
        assert _normalized(merge_snapshots(a, empty)) == _normalized(
            merge_snapshots(a)
        )

    @settings(max_examples=100, deadline=None)
    @given(mark=_WIRE, delta=_WIRE)
    def test_counter_diff_inverts_merge(self, mark, delta):
        """mark + delta - mark == delta for every counter-kind metric."""
        for name in set(mark["metrics"]) & set(delta["metrics"]):
            if mark["metrics"][name]["k"] != delta["metrics"][name]["k"]:
                del delta["metrics"][name]
        current = merge_snapshots(mark, delta)
        # Gauges merge by max, so only counters/histograms invert exactly.
        recovered = diff_snapshots(mark, current)
        for name, entry in delta["metrics"].items():
            if entry["k"] == "c":
                assert counter_value(recovered, name) == entry["value"]

    @settings(max_examples=100, deadline=None)
    @given(a=_WIRE, b=_WIRE)
    def test_registry_merge_equals_pure_merge(self, a, b):
        """Folding deltas into a live registry is the pure merge."""
        for name in set(a["metrics"]) & set(b["metrics"]):
            if a["metrics"][name]["k"] != b["metrics"][name]["k"]:
                del b["metrics"][name]
        registry = MetricsRegistry()
        registry.merge(a)
        registry.merge(b)
        assert _normalized(registry.snapshot()) == _normalized(
            merge_snapshots(a, b)
        )

    @settings(max_examples=100, deadline=None)
    @given(mark=_WIRE, current=_WIRE)
    def test_diff_reports_union_of_key_sets(self, mark, current):
        """A name in only one side is never silently dropped: one only in
        ``mark`` comes back zeroed, one only in ``current`` whole."""
        delta = diff_snapshots(mark, current)
        assert set(delta["metrics"]) == set(mark["metrics"]) | set(
            current["metrics"]
        )
        for name, entry in mark["metrics"].items():
            if name not in current["metrics"] and entry["k"] == "c":
                assert counter_value(delta, name) == 0
        for name, entry in current["metrics"].items():
            if name not in mark["metrics"] and entry["k"] == "c":
                assert counter_value(delta, name) == entry["value"]

    def test_unknown_wire_version_is_dropped(self):
        good = {"v": METRICS_WIRE_VERSION, "metrics": {"a": {"k": "c", "value": 3}}}
        bad = {"v": 999, "metrics": {"a": {"k": "c", "value": 5}}}
        merged = merge_snapshots(good, bad)
        assert counter_value(merged, "a") == 3
        registry = MetricsRegistry()
        assert registry.merge(bad) == 0
        assert registry.merge(good) == 1

    def test_counter_value_tolerates_junk(self):
        assert counter_value(None, "a") == 0
        assert counter_value({}, "a") == 0
        assert counter_value({"v": 1, "metrics": {"a": {"value": "nope"}}}, "a") == 0


class TestBuckets:
    def test_bounds_are_strictly_increasing_powers_of_two(self):
        assert all(b == 1 << (10 + i) for i, b in enumerate(BUCKET_BOUNDS))

    def test_bucket_index_matches_linear_scan(self):
        for nanos in [0, 1, 1023, 1024, 1025, 10**6, 10**9, BUCKET_BOUNDS[-1], BUCKET_BOUNDS[-1] + 1]:
            linear = next(
                (i for i, bound in enumerate(BUCKET_BOUNDS) if nanos <= bound),
                len(BUCKET_BOUNDS),
            )
            assert bucket_index(nanos) == linear

    def test_seconds_quantization_clamps_negatives(self):
        assert seconds_to_nanos(-1.0) == 0
        assert seconds_to_nanos(1.5) == 1_500_000_000


class TestRegistry:
    def test_kind_is_stable_per_name(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        with pytest.raises(TypeError):
            registry.gauge("a")
        with pytest.raises(TypeError):
            registry.histogram("a")

    def test_delta_zeroes_keys_absent_from_current(self):
        registry = MetricsRegistry()
        registry.counter("only.in.mark").inc(7)
        mark = registry.snapshot()
        other = MetricsRegistry()
        other.counter("only.in.current").inc(2)
        delta = diff_snapshots(mark, other.snapshot())
        assert counter_value(delta, "only.in.mark") == 0
        assert "only.in.mark" in delta["metrics"]  # never silently dropped
        assert counter_value(delta, "only.in.current") == 2

    def test_gauge_delta_carries_level_and_merge_takes_max(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5)
        mark = registry.snapshot()
        registry.gauge("g").set(3)
        delta = registry.delta(mark)
        assert delta["metrics"]["g"]["value"] == 3
        registry.merge({"v": METRICS_WIRE_VERSION, "metrics": {"g": {"k": "g", "value": 9}}})
        assert registry.gauge("g").value == 9

    def test_histogram_observe_roundtrips_through_wire(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(0.001)
        registry.histogram("h").observe(0.002)
        count, total = histogram_stats(registry.snapshot(), "h")
        assert count == 2
        assert total == pytest.approx(0.003, abs=1e-6)

    def test_merge_registry_equals_pure_merge(self):
        a = MetricsRegistry()
        a.counter("c").inc(4)
        a.histogram("h").observe(0.5)
        b = MetricsRegistry()
        b.counter("c").inc(6)
        b.histogram("h").observe(0.25)
        target = MetricsRegistry()
        target.merge(a.snapshot())
        target.merge(b.snapshot())
        assert _normalized(target.snapshot()) == _normalized(
            merge_snapshots(a.snapshot(), b.snapshot())
        )

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.counter("n").inc()
                registry.histogram("h").observe(1e-6)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n").value == 8000
        assert registry.histogram("h").count == 8000
