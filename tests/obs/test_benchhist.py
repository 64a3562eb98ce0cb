"""Bench history records and the bench-diff regression comparison.

The CI gate hangs off :func:`compare_runs`, so the threshold semantics
are pinned down here: direction decides which way a metric may drift,
ratio and absolute slack combine by taking the *more permissive* bound
(a near-zero baseline must not be held to a ratio of nothing), and a
metric absent from either payload is skipped rather than failed — a
baseline committed before a metric existed must not doom every future
run.  The history file follows the repository's JSONL discipline:
versioned records, attribution stamped on append, bad lines skipped.
"""

from __future__ import annotations

import json

import repro
from repro.obs.benchhist import (
    DEFAULT_THRESHOLDS,
    HISTORY_VERSION,
    Threshold,
    append_history,
    compare_runs,
    history_path,
    load_history,
    metric_value,
)


class TestThreshold:
    def test_higher_direction_regresses_by_falling(self):
        threshold = Threshold(direction="higher", ratio=0.75)
        assert not threshold.is_regression(2.0, 2.5)
        assert not threshold.is_regression(2.0, 1.5)  # exactly the bound
        assert threshold.is_regression(2.0, 1.49)

    def test_lower_direction_regresses_by_rising(self):
        threshold = Threshold(direction="lower", ratio=1.0, absolute=0.3)
        assert not threshold.is_regression(1.0, 1.3)
        assert threshold.is_regression(1.0, 1.31)
        assert not threshold.is_regression(1.0, 0.5)

    def test_more_permissive_bound_wins(self):
        # Near-zero baseline: absolute slack dominates the ratio.
        threshold = Threshold(direction="lower", ratio=2.0, absolute=0.5)
        assert threshold.worst_acceptable(0.0) == 0.5
        # Large baseline: the ratio dominates.
        assert threshold.worst_acceptable(10.0) == 20.5

    def test_zero_tolerance_holds_exactly(self):
        threshold = Threshold(direction="lower", ratio=1.0, absolute=0.0)
        assert not threshold.is_regression(0, 0)
        assert threshold.is_regression(0, 1)


class TestMetricValue:
    def test_resolves_dotted_paths(self):
        payload = {"store": {"warm_speedup": 2.5}, "overhead": 1.1}
        assert metric_value(payload, "overhead") == 1.1
        assert metric_value(payload, "store.warm_speedup") == 2.5

    def test_missing_or_non_numeric_is_none(self):
        payload = {"store": {"warm_speedup": "fast"}, "ok": True}
        assert metric_value(payload, "store.missing") is None
        assert metric_value(payload, "store.warm_speedup.deeper") is None
        assert metric_value(payload, "store.warm_speedup") is None
        assert metric_value(payload, "ok") is None  # bools are not metrics


class TestCompareRuns:
    _BASE = {"benchmark": "observability", "overhead": 1.0,
             "weighted_stage_coverage": 0.95, "invalid_records": 0}

    def test_identical_payloads_show_no_regression(self):
        assert compare_runs(self._BASE, dict(self._BASE)) == []

    def test_regressions_are_reported_with_bounds(self):
        current = dict(self._BASE, overhead=1.9, invalid_records=3)
        regressions = compare_runs(self._BASE, current)
        by_metric = {r.metric: r for r in regressions}
        assert set(by_metric) == {"overhead", "invalid_records"}
        assert by_metric["overhead"].baseline == 1.0
        assert by_metric["overhead"].current == 1.9
        assert "rose" in by_metric["overhead"].describe()

    def test_thresholds_default_from_benchmark_name(self):
        # The campaign benchmark's speedup floor: 0.75 of baseline.
        base = {"benchmark": "campaign", "speedup": 2.0}
        assert compare_runs(base, {"speedup": 1.6}) == []
        [regression] = compare_runs(base, {"speedup": 1.4})
        assert regression.metric == "speedup"
        assert "fell" in regression.describe()

    def test_metric_absent_from_either_side_is_skipped(self):
        base = {"benchmark": "observability", "overhead": 1.0}
        assert compare_runs(base, {"weighted_stage_coverage": 0.1}) == []

    def test_all_default_thresholds_are_well_formed(self):
        for benchmark, thresholds in DEFAULT_THRESHOLDS.items():
            for metric, threshold in thresholds.items():
                assert threshold.direction in ("higher", "lower"), (
                    benchmark, metric,
                )
                # Wall-clock seconds are machine-dependent; gating them
                # against a committed baseline is forbidden by design.
                assert "seconds" not in metric


class TestHistoryFile:
    def test_append_and_load_round_trip(self, tmp_path):
        payload = {"benchmark": "observability", "overhead": 1.08}
        path = append_history(payload, "BENCH_observability.json",
                              str(tmp_path))
        assert path == history_path(str(tmp_path))
        [record] = load_history(path)
        assert record["v"] == HISTORY_VERSION
        assert record["benchmark"] == "observability"
        assert record["artifact"] == "BENCH_observability.json"
        assert record["payload"] == payload
        assert record["unix_time"] > 0
        # Attribution: every point in the trajectory names its code.
        assert record["repro_version"] == repro.__version__
        assert "git" in record

    def test_appends_accumulate_oldest_first(self, tmp_path):
        for overhead in (1.0, 1.1, 1.2):
            append_history({"benchmark": "observability",
                            "overhead": overhead}, "a.json", str(tmp_path))
        records = load_history(history_path(str(tmp_path)))
        assert [r["payload"]["overhead"] for r in records] == [1.0, 1.1, 1.2]

    def test_benchmark_filter(self, tmp_path):
        append_history({"benchmark": "campaign"}, "a.json", str(tmp_path))
        append_history({"benchmark": "observability"}, "b.json", str(tmp_path))
        records = load_history(
            history_path(str(tmp_path)), benchmark="observability"
        )
        assert [r["benchmark"] for r in records] == ["observability"]

    def test_bad_lines_and_unknown_versions_are_skipped(self, tmp_path):
        path = history_path(str(tmp_path))
        append_history({"benchmark": "campaign"}, "a.json", str(tmp_path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
            handle.write(json.dumps({"v": 999, "benchmark": "campaign"}) + "\n")
            handle.write(json.dumps(["not", "an", "object"]) + "\n")
        records = load_history(path)
        assert len(records) == 1  # one bad line loses itself, not the file

    def test_missing_file_is_empty_not_fatal(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []
