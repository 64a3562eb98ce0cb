"""Campaign engine benchmark: serial-uncached vs parallel+cached wall clock.

Reproduces the headline claims of the campaign PRs:

1. fanning the whole registry out over the campaign scheduler with the
   shared solver cache beats the serial, uncached baseline by at least
   1.5x while answering a nonzero fraction of solver queries from cache;
2. a warm-cache rerun against a persistent ``cache_dir`` store answers
   *more* queries from cache and finishes *faster* than the cold run that
   populated the store — both enforced, not just observed.

Every standalone run also emits a machine-readable ``BENCH_campaign.json``
artifact (speedup, hit rates, wall seconds, backend) so the performance
trajectory is tracked across PRs; set ``BENCH_ARTIFACT_DIR`` to redirect
it.

Runs under pytest-benchmark like the sibling harnesses, and standalone for
CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_campaign.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import pytest

from repro import __version__
from repro.core.campaign import CampaignConfig, CampaignEngine, CampaignResult

#: The minimum speedup the campaign architecture must deliver over the
#: serial-uncached baseline on the registry workload.
MIN_SPEEDUP = 1.5

#: Looser floor used by the pytest twin, which runs inside the full suite
#: where background load can squeeze the measurement; the standalone entry
#: point (`python benchmarks/bench_campaign.py`, the CI smoke step) enforces
#: the real MIN_SPEEDUP.
SUITE_MIN_SPEEDUP = 1.2

#: Name of the machine-readable artifact emitted by the standalone runs.
ARTIFACT_NAME = "BENCH_campaign.json"


def write_artifact(payload: dict, name: str = ARTIFACT_NAME) -> str:
    """Write a benchmark artifact as JSON; returns the path written.

    The ``version`` field is force-stamped from ``repro.__version__`` here —
    not left to each bench's payload builder — so a checked-in artifact can
    never carry a stale release string regardless of which script wrote it.
    The git-describe string rides along the same way, and every write also
    appends one attributed record to ``BENCH_history.jsonl`` beside the
    artifact, so the perf trajectory accumulates run over run
    (compare with ``repro bench-diff``; see :mod:`repro.obs.benchhist`).
    """
    from repro.obs.attribution import git_describe
    from repro.obs.benchhist import append_history

    payload = dict(payload)
    payload["version"] = __version__
    described = git_describe()
    if described is not None:
        payload["git"] = described
    directory = os.environ.get("BENCH_ARTIFACT_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    append_history(payload, name, directory)
    return path


@dataclass
class Comparison:
    """Both arms of the serial-vs-campaign measurement."""

    serial_seconds: float
    campaign_seconds: float
    serial_result: CampaignResult
    campaign_result: CampaignResult

    @property
    def speedup(self) -> float:
        return self.serial_seconds / self.campaign_seconds

    @property
    def hit_rate(self) -> float:
        stats = self.campaign_result.cache_stats
        return stats.hit_rate() if stats is not None else 0.0


@dataclass
class StoreComparison:
    """Cold-populate vs warm-start arms of the persistent-store measurement."""

    cold_seconds: float
    warm_seconds: float
    cold_result: CampaignResult
    warm_result: CampaignResult

    @property
    def cold_hit_rate(self) -> float:
        return self.cold_result.cache_stats.hit_rate()

    @property
    def warm_hit_rate(self) -> float:
        return self.warm_result.cache_stats.hit_rate()

    @property
    def warm_speedup(self) -> float:
        return self.cold_seconds / self.warm_seconds


def _run(jobs: int, use_cache: bool, **overrides) -> CampaignResult:
    return CampaignEngine(
        CampaignConfig(jobs=jobs, use_cache=use_cache, **overrides)
    ).run()


def run_comparison(jobs: Optional[int] = None, rounds: int = 2) -> Comparison:
    """Measure both arms, keeping the best of ``rounds`` runs per arm."""
    resolved_jobs = CampaignConfig(jobs=jobs).resolved_jobs()
    serial_seconds = campaign_seconds = float("inf")
    serial_result = campaign_result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = _run(jobs=1, use_cache=False)
        elapsed = time.perf_counter() - started
        if elapsed < serial_seconds:
            serial_seconds, serial_result = elapsed, result
    for _ in range(rounds):
        started = time.perf_counter()
        result = _run(jobs=resolved_jobs, use_cache=True)
        elapsed = time.perf_counter() - started
        if elapsed < campaign_seconds:
            campaign_seconds, campaign_result = elapsed, result
    return Comparison(
        serial_seconds=serial_seconds,
        campaign_seconds=campaign_seconds,
        serial_result=serial_result,
        campaign_result=campaign_result,
    )


def run_store_comparison(
    jobs: Optional[int] = None, cache_dir: Optional[str] = None
) -> StoreComparison:
    """Cold run populating a persistent store, then a warm-start rerun."""

    def measure(directory: str) -> StoreComparison:
        started = time.perf_counter()
        cold = _run(jobs=jobs or 1, use_cache=True, cache_dir=directory)
        cold_seconds = time.perf_counter() - started
        # The cold run is unrepeatable (it populates the store), so damp
        # scheduler noise on the warm side only: best of two reruns.
        warm_seconds = float("inf")
        warm = None
        for _ in range(2):
            started = time.perf_counter()
            result = _run(jobs=jobs or 1, use_cache=True, cache_dir=directory)
            elapsed = time.perf_counter() - started
            if elapsed < warm_seconds:
                warm_seconds, warm = elapsed, result
        return StoreComparison(
            cold_seconds=cold_seconds,
            warm_seconds=warm_seconds,
            cold_result=cold,
            warm_result=warm,
        )

    if cache_dir is not None:
        return measure(cache_dir)
    with tempfile.TemporaryDirectory(prefix="diode-cache-") as directory:
        return measure(directory)


def print_comparison(comparison: Comparison) -> None:
    stats = comparison.campaign_result.cache_stats
    print("\n=== Campaign engine: serial-uncached vs parallel+cached ===")
    print(f"serial, no cache     : {comparison.serial_seconds:.3f}s")
    print(
        f"campaign ({comparison.campaign_result.jobs} worker(s), cached)"
        f" : {comparison.campaign_seconds:.3f}s"
    )
    print(f"speedup              : {comparison.speedup:.2f}x (floor {MIN_SPEEDUP}x)")
    print(
        f"solver cache         : {stats.hits} hits / {stats.lookups} lookups "
        f"({comparison.hit_rate:.1%}), {stats.stores} entries stored"
    )
    print(
        "classifications equal: "
        f"{comparison.serial_result.classifications() == comparison.campaign_result.classifications()}"
    )


def print_store_comparison(comparison: StoreComparison) -> None:
    print("\n=== Persistent cache store: cold populate vs warm start ===")
    print(
        f"cold run             : {comparison.cold_seconds:.3f}s "
        f"(hit rate {comparison.cold_hit_rate:.1%}, "
        f"saved {comparison.cold_result.cache_saved} entries)"
    )
    print(
        f"warm rerun           : {comparison.warm_seconds:.3f}s "
        f"(hit rate {comparison.warm_hit_rate:.1%}, "
        f"warm-started {comparison.warm_result.cache_loaded} entries)"
    )
    print(f"warm speedup         : {comparison.warm_speedup:.2f}x")
    print(
        "classifications equal: "
        f"{comparison.cold_result.classifications() == comparison.warm_result.classifications()}"
    )


def artifact_payload(
    comparison: Comparison, store: StoreComparison
) -> dict:
    return {
        "benchmark": "campaign",
        "version": __version__,
        "backend": comparison.campaign_result.backend,
        "jobs": comparison.campaign_result.jobs,
        "unit_count": comparison.campaign_result.unit_count,
        "serial_seconds": round(comparison.serial_seconds, 4),
        "campaign_seconds": round(comparison.campaign_seconds, 4),
        "speedup": round(comparison.speedup, 3),
        "hit_rate": round(comparison.hit_rate, 4),
        "min_speedup_floor": MIN_SPEEDUP,
        "store": {
            "cold_seconds": round(store.cold_seconds, 4),
            "warm_seconds": round(store.warm_seconds, 4),
            "warm_speedup": round(store.warm_speedup, 3),
            "cold_hit_rate": round(store.cold_hit_rate, 4),
            "warm_hit_rate": round(store.warm_hit_rate, 4),
            "entries_saved": store.cold_result.cache_saved,
            "entries_loaded": store.warm_result.cache_loaded,
        },
    }


@pytest.mark.benchmark(group="campaign")
def test_campaign_serial_uncached(benchmark):
    """Baseline: the registry analyzed serially with no shared cache."""
    result = benchmark.pedantic(
        lambda: _run(jobs=1, use_cache=False), rounds=1, iterations=1
    )
    assert result.unit_count == 40


@pytest.mark.benchmark(group="campaign")
def test_campaign_parallel_cached(benchmark):
    """The campaign engine with worker threads and the shared solver cache."""
    result = benchmark.pedantic(
        lambda: _run(jobs=4, use_cache=True), rounds=1, iterations=1
    )
    assert result.unit_count == 40
    assert result.cache_stats is not None and result.cache_stats.hits > 0


@pytest.mark.benchmark(group="campaign")
def test_campaign_speedup_and_hit_rate(benchmark):
    """The cached campaign beats serial-uncached and reuses solver verdicts."""
    comparison = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_comparison(comparison)
    assert (
        comparison.serial_result.classifications()
        == comparison.campaign_result.classifications()
    )
    assert comparison.hit_rate > 0.0
    assert comparison.speedup >= SUITE_MIN_SPEEDUP


@pytest.mark.benchmark(group="campaign")
def test_campaign_warm_store_beats_cold(benchmark):
    """A warm-start rerun hits the cache more and finishes faster."""
    comparison = benchmark.pedantic(run_store_comparison, rounds=1, iterations=1)
    print_store_comparison(comparison)
    assert (
        comparison.cold_result.classifications()
        == comparison.warm_result.classifications()
    )
    assert comparison.warm_result.cache_loaded > 0
    assert comparison.warm_hit_rate > comparison.cold_hit_rate
    assert comparison.warm_seconds < comparison.cold_seconds


def main() -> int:
    comparison = run_comparison()
    print_comparison(comparison)
    store = run_store_comparison()
    print_store_comparison(store)
    path = write_artifact(artifact_payload(comparison, store))
    print(f"\nartifact written     : {path}")
    if comparison.campaign_result.classifications() != (
        comparison.serial_result.classifications()
    ):
        print("FAIL: campaign classifications diverge from the serial path")
        return 1
    if comparison.hit_rate <= 0.0:
        print("FAIL: solver cache hit rate is zero")
        return 1
    if comparison.speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {comparison.speedup:.2f}x below {MIN_SPEEDUP}x floor")
        return 1
    if store.cold_result.classifications() != store.warm_result.classifications():
        print("FAIL: warm-start classifications diverge from the cold run")
        return 1
    if store.warm_hit_rate <= store.cold_hit_rate:
        print(
            f"FAIL: warm hit rate {store.warm_hit_rate:.1%} does not beat "
            f"cold {store.cold_hit_rate:.1%}"
        )
        return 1
    if store.warm_seconds >= store.cold_seconds:
        print(
            f"FAIL: warm rerun {store.warm_seconds:.3f}s not faster than "
            f"cold run {store.cold_seconds:.3f}s"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
