"""Bench-run history and regression comparison (``repro bench-diff``).

The ROADMAP mandates a perf *trajectory* — ``BENCH_*.json`` artifacts
gated in CI — but an artifact alone is a point, not a trajectory.  This
module adds the two missing halves:

* **History** — every standalone bench run appends one record to a
  versioned ``BENCH_history.jsonl`` (in ``BENCH_ARTIFACT_DIR``, like the
  artifacts themselves).  Each record carries the full artifact payload
  plus attribution (``repro_version``, git describe) so any point in the
  trajectory is traceable to the code that produced it.
* **Comparison** — :func:`compare_runs` diffs a current payload against
  a committed baseline with per-metric thresholds and reports
  regressions; ``repro bench-diff`` exits non-zero on any, which is the
  CI gate.

Thresholds are declarative: each watched metric (a dotted path into the
payload, e.g. ``store.warm_speedup``) has a direction (``higher`` =
bigger is better, ``lower`` = smaller is better) and a tolerance, as a
ratio of the baseline value and/or an absolute slack — whichever is more
permissive wins, so near-zero baselines are not held to a ratio of
nothing.  Only machine-independent metrics (ratios, rates, counts) have
default thresholds; raw wall seconds are recorded in history but never
gated, because a baseline committed on one machine says nothing about
another machine's clock.

Record schema (``v`` = :data:`HISTORY_VERSION`)::

    {"v": 1, "benchmark": "observability", "artifact": "BENCH_observability.json",
     "unix_time": 1754600000, "repro_version": "1.7.0", "git": "8967274",
     "payload": {...the artifact JSON...}}

Readers skip records with an unknown ``v`` or malformed JSON — one bad
line loses itself, never the history.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.attribution import attribution

__all__ = [
    "DEFAULT_THRESHOLDS",
    "HISTORY_NAME",
    "HISTORY_VERSION",
    "Regression",
    "Threshold",
    "append_history",
    "compare_runs",
    "history_path",
    "load_history",
    "metric_value",
]

#: Version stamp of bench-history records; bump on any schema change.
HISTORY_VERSION = 1

#: The append-only history file, beside the ``BENCH_*.json`` artifacts.
HISTORY_NAME = "BENCH_history.jsonl"


@dataclass(frozen=True)
class Threshold:
    """Tolerance for one watched metric.

    ``direction`` is which way *better* points: ``"higher"`` metrics
    (speedup, hit rate, coverage) regress by falling, ``"lower"`` metrics
    (overhead, invalid records) regress by rising.  ``ratio`` scales the
    baseline into the worst acceptable value; ``absolute`` is flat slack
    added on top.  The more permissive of the two bounds wins.
    """

    direction: str = "higher"
    ratio: float = 1.0
    absolute: float = 0.0

    def worst_acceptable(self, baseline: float) -> float:
        if self.direction == "lower":
            return max(baseline * self.ratio, baseline) + self.absolute
        return min(baseline * self.ratio, baseline) - self.absolute

    def is_regression(self, baseline: float, current: float) -> bool:
        if self.direction == "lower":
            return current > self.worst_acceptable(baseline)
        return current < self.worst_acceptable(baseline)


#: Per-benchmark watched metrics.  Machine-independent quantities only —
#: see the module doc for why wall seconds are deliberately absent.
DEFAULT_THRESHOLDS: Dict[str, Dict[str, Threshold]] = {
    "observability": {
        # Instrumented/uninstrumented wall ratio: gate the hard <5% claim
        # with flat noise slack (two short wall measurements divide here).
        "overhead": Threshold(direction="lower", ratio=1.0, absolute=0.30),
        "weighted_stage_coverage": Threshold(direction="higher", ratio=0.85),
        "worst_unit_coverage": Threshold(direction="lower", ratio=1.0, absolute=0.05),
        "invalid_records": Threshold(direction="lower", ratio=1.0, absolute=0.0),
    },
    "campaign": {
        "speedup": Threshold(direction="higher", ratio=0.75),
        "hit_rate": Threshold(direction="higher", ratio=0.75),
        "store.warm_speedup": Threshold(direction="higher", ratio=0.75),
        "store.warm_hit_rate": Threshold(direction="higher", ratio=0.85),
    },
}


@dataclass(frozen=True)
class Regression:
    """One threshold violation from :func:`compare_runs`."""

    metric: str
    baseline: float
    current: float
    threshold: Threshold

    def describe(self) -> str:
        arrow = "rose" if self.threshold.direction == "lower" else "fell"
        return (
            f"{self.metric} {arrow} {self.baseline:.4g} -> {self.current:.4g} "
            f"(worst acceptable "
            f"{self.threshold.worst_acceptable(self.baseline):.4g})"
        )


# ----------------------------------------------------------------------
# History file
# ----------------------------------------------------------------------
def history_path(directory: Optional[str] = None) -> str:
    """Where the history lives: ``BENCH_ARTIFACT_DIR`` like the artifacts."""
    if directory is None:
        directory = os.environ.get("BENCH_ARTIFACT_DIR", ".")
    return os.path.join(directory, HISTORY_NAME)


def append_history(
    payload: dict, artifact_name: str, directory: Optional[str] = None
) -> str:
    """Append one attributed history record; returns the path written."""
    path = history_path(directory)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    record = {
        "v": HISTORY_VERSION,
        "benchmark": payload.get("benchmark"),
        "artifact": artifact_name,
        "unix_time": int(time.time()),
        "payload": payload,
    }
    record.update(attribution())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_history(
    path: str, benchmark: Optional[str] = None
) -> List[dict]:
    """All readable records from a history file, oldest first.

    Malformed lines and unknown record versions are skipped; ``benchmark``
    filters to one benchmark's trajectory.
    """
    records: List[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                if record.get("v") != HISTORY_VERSION:
                    continue
                if benchmark and record.get("benchmark") != benchmark:
                    continue
                records.append(record)
    except OSError:
        return []
    return records


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def metric_value(payload: dict, dotted: str) -> Optional[float]:
    """Resolve a dotted path (``store.warm_speedup``) to a float, or None."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def compare_runs(
    baseline: dict,
    current: dict,
    thresholds: Optional[Dict[str, Threshold]] = None,
) -> List[Regression]:
    """Threshold violations of ``current`` against ``baseline``.

    ``thresholds`` defaults to the benchmark's entry in
    :data:`DEFAULT_THRESHOLDS` (keyed by the payload's ``benchmark``
    field).  A metric absent from either payload is skipped — a baseline
    committed before a metric existed must not fail every future run.
    """
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS.get(str(baseline.get("benchmark")), {})
    regressions: List[Regression] = []
    for metric, threshold in sorted(thresholds.items()):
        base = metric_value(baseline, metric)
        cur = metric_value(current, metric)
        if base is None or cur is None:
            continue
        if threshold.is_regression(base, cur):
            regressions.append(
                Regression(
                    metric=metric, baseline=base, current=cur, threshold=threshold
                )
            )
    return regressions
