"""The campaign-wide metrics registry: counters, gauges, duration histograms.

Every layer of the pipeline records into one process-global
:class:`MetricsRegistry` (:data:`METRICS`): the solver's query, session,
core-guidance and complete-backend counters (``solver.*``), the store
layer's load/save activity, the scheduler's queue waits, and what the
tracer derives from its records: a ``stage.<name>.seconds`` timer per
span name and an ``events.<name>`` counter per event name (unit
lifecycle, store lock waits and breaks).  The registry is the
*aggregation* half of the observability subsystem; spans, events and
their JSONL sink live in :mod:`repro.obs.trace`.

Design constraints, in decreasing order of importance:

* **Observability is passive.**  Nothing in this module influences
  analysis decisions; recording is cheap (one lock acquire + dict update)
  and never raises into the instrumented code path.
* **Snapshots merge losslessly and deterministically.**  A snapshot (and
  a snapshot *delta*) is a JSON-able wire dict.  Merging is commutative
  and associative — counters and histogram buckets are integers and add,
  gauges combine by ``max`` — so the parent of a process-backend campaign
  can fold worker deltas in *any* arrival order and always reach the same
  totals (the property :mod:`tests.obs.test_metrics` checks with
  hypothesis).  Durations are quantized to integer **nanoseconds** before
  they enter the registry precisely so that merging stays exact: float
  addition is not associative, integer addition is.
* **Histograms have fixed log-scale buckets** (powers of two from ~1µs to
  ~2min, :data:`BUCKET_BOUNDS`), identical for every histogram and every
  process, so bucket counts from different workers add index-by-index.

Wire format (``version`` :data:`METRICS_WIRE_VERSION`)::

    {"v": 1, "metrics": {
        "solver.queries":        {"k": "c", "value": 42},
        "store.entries":         {"k": "g", "value": 17},
        "stage.solve.seconds":   {"k": "h", "count": 9, "sum": 12345,
                                  "buckets": {"3": 2, "11": 7}},
    }}

Histogram ``sum`` and bucket keys are integer nanoseconds / bucket
indices; ``buckets`` is sparse (absent index = zero).
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "METRICS_WIRE_VERSION",
    "MetricsRegistry",
    "seconds_to_nanos",
]

#: Version stamp carried by every metrics wire dict; bump on any change to
#: the snapshot schema (mismatched wire is dropped, never misread).
METRICS_WIRE_VERSION = 1

#: Fixed log-scale histogram bucket upper bounds, in nanoseconds: powers of
#: two from 2^10 ns (~1µs) to 2^37 ns (~137s).  A value lands in the first
#: bucket whose bound it does not exceed; larger values land in the final
#: overflow bucket (index ``len(BUCKET_BOUNDS)``).
BUCKET_BOUNDS: Tuple[int, ...] = tuple(1 << exp for exp in range(10, 38))


def seconds_to_nanos(seconds: float) -> int:
    """Quantize a duration to the integer nanoseconds the registry stores."""
    return max(0, int(seconds * 1e9))


def bucket_index(nanos: int) -> int:
    """Index of the fixed bucket a nanosecond duration falls into."""
    lo, hi = 0, len(BUCKET_BOUNDS)
    while lo < hi:
        mid = (lo + hi) // 2
        if nanos <= BUCKET_BOUNDS[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class Counter:
    """A monotonically increasing integer counter."""

    kind = "c"
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += int(amount)

    def wire(self) -> dict:
        return {"k": "c", "value": self.value}


class Gauge:
    """A last-set integer level; merges across processes by ``max``."""

    kind = "g"
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def set(self, value: int) -> None:
        with self._lock:
            self.value = int(value)

    def wire(self) -> dict:
        return {"k": "g", "value": self.value}


class Histogram:
    """A duration histogram over the fixed log-scale :data:`BUCKET_BOUNDS`.

    Stores integer nanoseconds (count, sum, sparse bucket counts) so that
    snapshots delta and merge exactly.
    """

    kind = "h"
    __slots__ = ("_lock", "count", "sum_nanos", "buckets")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.count = 0
        self.sum_nanos = 0
        self.buckets: Dict[int, int] = {}

    def observe(self, seconds: float) -> None:
        nanos = seconds_to_nanos(seconds)
        index = bucket_index(nanos)
        with self._lock:
            self.count += 1
            self.sum_nanos += nanos
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def wire(self) -> dict:
        return {
            "k": "h",
            "count": self.count,
            "sum": self.sum_nanos,
            "buckets": {str(index): n for index, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Thread-safe named-metric registry with snapshot/delta/merge.

    Metric instruments are created on first use and never removed; a name
    keeps its kind for the registry's lifetime (asking for an existing
    name with a different kind raises — mixed-kind names would make wire
    merges ambiguous).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(self._lock)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry's current state as a wire dict (see module doc)."""
        with self._lock:
            return {
                "v": METRICS_WIRE_VERSION,
                "metrics": {
                    name: metric.wire()
                    for name, metric in sorted(self._metrics.items())
                },
            }

    def delta(self, mark: dict) -> dict:
        """The wire-form change since ``mark`` (an earlier :meth:`snapshot`).

        Counters and histograms subtract; gauges are levels, not flows, so
        a delta carries the current value.  Metrics absent from the mark
        appear whole; metrics absent from the current state but present in
        the mark are reported at zero (a knob disabling a counter mid-way
        must skew nothing).
        """
        return diff_snapshots(mark, self.snapshot())

    def merge(self, wire: dict) -> int:
        """Fold a wire dict (another process's delta) into this registry.

        Counters and histograms add; gauges take ``max``.  Returns the
        number of metrics merged; wire carrying an unknown version or a
        malformed entry is skipped rather than trusted.
        """
        if not isinstance(wire, dict) or wire.get("v") != METRICS_WIRE_VERSION:
            return 0
        entries = wire.get("metrics")
        if not isinstance(entries, dict):
            return 0
        merged = 0
        for name, entry in entries.items():
            if not isinstance(name, str) or not isinstance(entry, dict):
                continue
            kind = entry.get("k")
            try:
                if kind == "c":
                    self.counter(name).inc(int(entry.get("value", 0)))
                elif kind == "g":
                    gauge = self.gauge(name)
                    with self._lock:
                        gauge.value = max(gauge.value, int(entry.get("value", 0)))
                elif kind == "h":
                    histogram = self.histogram(name)
                    buckets = entry.get("buckets") or {}
                    with self._lock:
                        histogram.count += int(entry.get("count", 0))
                        histogram.sum_nanos += int(entry.get("sum", 0))
                        for index, count in buckets.items():
                            index = int(index)
                            histogram.buckets[index] = (
                                histogram.buckets.get(index, 0) + int(count)
                            )
                else:
                    continue
            except (TypeError, ValueError):
                continue
            merged += 1
        return merged


# ----------------------------------------------------------------------
# Pure wire-dict combinators (no registry required)
# ----------------------------------------------------------------------
def _empty_like(entry: dict) -> dict:
    if entry.get("k") == "h":
        return {"k": "h", "count": 0, "sum": 0, "buckets": {}}
    return {"k": entry.get("k"), "value": 0}


def _combine(kind: str, a: dict, b: dict, sign: int = 1) -> dict:
    if kind == "c":
        return {"k": "c", "value": int(a.get("value", 0)) + sign * int(b.get("value", 0))}
    if kind == "g":
        if sign < 0:
            # Gauges are levels: a "delta" is simply the newer level.
            return {"k": "g", "value": int(a.get("value", 0))}
        return {"k": "g", "value": max(int(a.get("value", 0)), int(b.get("value", 0)))}
    buckets: Dict[str, int] = {
        str(k): int(v) for k, v in (a.get("buckets") or {}).items()
    }
    for key, value in (b.get("buckets") or {}).items():
        key = str(key)
        buckets[key] = buckets.get(key, 0) + sign * int(value)
    return {
        "k": "h",
        "count": int(a.get("count", 0)) + sign * int(b.get("count", 0)),
        "sum": int(a.get("sum", 0)) + sign * int(b.get("sum", 0)),
        "buckets": {k: v for k, v in sorted(buckets.items()) if v},
    }


def diff_snapshots(mark: dict, current: dict) -> dict:
    """``current - mark`` as a wire dict, tolerant of asymmetric key sets.

    Keys present only in ``current`` appear whole; keys present only in
    ``mark`` appear zeroed (never silently dropped); gauges carry the
    current level.
    """
    mark_metrics = (mark or {}).get("metrics") or {}
    current_metrics = (current or {}).get("metrics") or {}
    names = sorted(set(mark_metrics) | set(current_metrics))
    out: Dict[str, dict] = {}
    for name in names:
        now = current_metrics.get(name)
        before = mark_metrics.get(name)
        if now is None:
            out[name] = _empty_like(before)
        elif before is None or before.get("k") != now.get("k"):
            out[name] = _combine(now.get("k"), now, _empty_like(now), sign=1)
        else:
            out[name] = _combine(now.get("k"), now, before, sign=-1)
    return {"v": METRICS_WIRE_VERSION, "metrics": out}


def counter_value(wire: dict, name: str) -> int:
    """Convenience: a counter's value out of a wire dict (0 when absent)."""
    entry = ((wire or {}).get("metrics") or {}).get(name) or {}
    try:
        return int(entry.get("value", 0))
    except (TypeError, ValueError):
        return 0


def histogram_stats(wire: dict, name: str) -> Tuple[int, float]:
    """Convenience: a histogram's ``(count, sum_seconds)`` out of a wire dict."""
    entry = ((wire or {}).get("metrics") or {}).get(name) or {}
    try:
        return int(entry.get("count", 0)), int(entry.get("sum", 0)) / 1e9
    except (TypeError, ValueError):
        return 0, 0.0


#: The process-wide registry every instrumented layer records into.
METRICS = MetricsRegistry()
