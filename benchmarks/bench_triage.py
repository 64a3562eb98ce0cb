"""Witness-triage benchmark: dedup stability, minimization soundness, warm skips.

The acceptance bar of the triage subsystem, enforced as five gates:

1. **dedup** — campaigns under different schedules and backends (serial,
   thread, process) merged into one corpus collapse to a *stable* distinct-
   overflow count: exactly the number of exposed sites (the paper's
   Table-2 notion of distinct overflows), with identical classifications
   across every arm;
2. **minimization soundness** — every minimized corpus witness, rebuilt
   from its stored field values alone, still wraps the target allocation
   under a fresh concrete :class:`OverflowWitnessInterpreter` run, and the
   site it exposes is still classified ``OVERFLOW_EXPOSED`` by the
   campaign;
3. **warm skip-known** — a warm-corpus ``--skip-known`` campaign finishes
   strictly faster than the cold campaign that populated the corpus while
   reporting byte-identical classifications (skipped sites answered from
   replayed witnesses, everything else re-analyzed);
4. **goal-directed minimization counts** (deterministic) — minimizing every
   registry witness spends at most :data:`MAX_TRIAGE_WITNESS_RUNS` concrete
   runs, and every minimized field is 1-minimal (one step toward the seed
   baseline loses the overflow or a root operator kind) unless the
   minimizer recorded it as a concrete-bisection fallback;
5. **warm rerun writes nothing** (deterministic) — after a campaign that
   populates fresh cache and corpus stores, a ``skip_known`` rerun over
   them makes no cache-store save (its trace has no ``store.save`` span
   and no lock acquisition under the cache directory), leaves every
   cache-store file's bytes and mtime as they were, and reports the
   populating campaign's classifications.

Standalone::

    PYTHONPATH=src python benchmarks/bench_triage.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest

from repro.core.campaign import CampaignConfig, CampaignEngine, CampaignResult
from repro.exec.overflow_witness import OverflowWitnessInterpreter
from repro.obs.report import load_trace_dir
from repro.triage.corpus import CorpusStore, WitnessRecord
from repro.triage.engine import rebuild_witness_input

#: The schedule/backend arms whose witnesses must dedupe to one record set.
DEDUP_ARMS = (
    {"backend": "serial", "jobs": 1},
    {"backend": "thread", "jobs": 4},
    {"backend": "process", "jobs": 2},
)

#: Concrete witness runs the minimizer may spend over the whole registry.
MAX_TRIAGE_WITNESS_RUNS = 40


def _run(corpus_dir: Optional[str] = None, **overrides) -> CampaignResult:
    return CampaignEngine(
        CampaignConfig(corpus_dir=corpus_dir, **overrides)
    ).run()


# ----------------------------------------------------------------------
# Gate 1: dedup across schedules and backends
# ----------------------------------------------------------------------
@dataclass
class DedupMeasurement:
    arms: List[CampaignResult]
    corpus: Dict[str, WitnessRecord]

    @property
    def exposed_count(self) -> int:
        return self.arms[0].table1_totals()["diode_exposes_overflow"]

    @property
    def raw_reports(self) -> int:
        return sum(arm.triage_stats.raw_reports for arm in self.arms)

    def parity(self) -> bool:
        reference = self.arms[0].classifications()
        return all(arm.classifications() == reference for arm in self.arms)

    def gates(self) -> List[str]:
        failures = []
        if not self.parity():
            failures.append("dedup arms diverged in classifications")
        distinct_counts = {len(self.corpus)} | {
            arm.triage_stats.distinct for arm in self.arms
        }
        if distinct_counts != {self.exposed_count}:
            failures.append(
                f"distinct-overflow counts unstable: {sorted(distinct_counts)} "
                f"(expected {{{self.exposed_count}}})"
            )
        if self.raw_reports <= len(self.corpus):
            failures.append(
                "multi-schedule runs produced no duplicates to collapse "
                f"({self.raw_reports} reports, {len(self.corpus)} records)"
            )
        if any(record.times_seen < len(self.arms) for record in self.corpus.values()):
            failures.append("some witness was not rediscovered by every arm")
        return failures


def run_dedup() -> DedupMeasurement:
    with tempfile.TemporaryDirectory(prefix="diode-corpus-") as corpus_dir:
        arms = [_run(corpus_dir=corpus_dir, **arm) for arm in DEDUP_ARMS]
        corpus = CorpusStore(corpus_dir).load()
    return DedupMeasurement(arms=arms, corpus=corpus)


def print_dedup(measurement: DedupMeasurement) -> None:
    print("\n=== Dedup: schedules and backends into one corpus ===")
    for arm_config, arm in zip(DEDUP_ARMS, measurement.arms):
        stats = arm.triage_stats
        print(
            f"{arm_config['backend']:8s} jobs={arm_config['jobs']}: "
            f"{stats.raw_reports} reports -> {stats.distinct} distinct "
            f"({stats.dedup_ratio():.2f}x), shrink {stats.shrink_ratio():.0%}"
        )
    print(
        f"merged corpus        : {len(measurement.corpus)} records "
        f"from {measurement.raw_reports} reports "
        f"(expected distinct = {measurement.exposed_count} exposed sites)"
    )


# ----------------------------------------------------------------------
# Gate 2: minimized witnesses still wrap
# ----------------------------------------------------------------------
@dataclass
class MinimizationMeasurement:
    total: int
    minimized: int
    reverified: int
    fields_before: int
    fields_after: int

    def gates(self) -> List[str]:
        failures = []
        if self.total == 0:
            failures.append("no witnesses to verify")
        if self.reverified != self.total:
            failures.append(
                f"only {self.reverified}/{self.total} minimized witnesses "
                "re-verified as genuine wraps"
            )
        if self.fields_after > self.fields_before:
            failures.append("minimization grew the witnesses")
        return failures


def run_minimization(
    corpus: Dict[str, WitnessRecord], arms: List[CampaignResult]
) -> MinimizationMeasurement:
    from repro.apps import all_applications
    from repro.core.inputs import InputGenerator
    from repro.core.report import SiteClassification

    applications = {app.name: app for app in all_applications()}
    exposed = {
        (result.application, site.site.name)
        for result in arms[0].application_results
        for site in result.site_results
        if site.classification is SiteClassification.OVERFLOW_EXPOSED
    }
    reverified = 0
    for record in corpus.values():
        application = applications[record.application]
        generator = InputGenerator(application.seed_input, application.format_spec)
        data = rebuild_witness_input(record, generator)
        report = OverflowWitnessInterpreter(application.program).run_witness(data)
        overflowed = {
            r.site_label: True for r in report.overflowed_allocations
        }
        genuine_wrap = (
            record.site_label in overflowed
            if record.site_tag is None
            else any(
                r.site_tag == record.site_tag
                for r in report.overflowed_allocations
            )
        )
        site_exposed = (record.application, record.site_name) in exposed
        if genuine_wrap and site_exposed:
            reverified += 1
    return MinimizationMeasurement(
        total=len(corpus),
        minimized=sum(1 for r in corpus.values() if r.minimized),
        reverified=reverified,
        fields_before=sum(r.original_fields for r in corpus.values()),
        fields_after=sum(r.changed_field_count() for r in corpus.values()),
    )


def print_minimization(measurement: MinimizationMeasurement) -> None:
    print("\n=== Minimization: stored witnesses re-verify as genuine wraps ===")
    print(
        f"witnesses            : {measurement.total} "
        f"({measurement.minimized} minimized)"
    )
    print(
        f"re-verified wraps    : {measurement.reverified}/{measurement.total}"
    )
    print(
        f"triggering fields    : {measurement.fields_before} -> "
        f"{measurement.fields_after}"
    )


# ----------------------------------------------------------------------
# Gate 3: warm skip-known campaign beats cold
# ----------------------------------------------------------------------
@dataclass
class SkipKnownMeasurement:
    cold_seconds: float
    warm_seconds: float
    cold: CampaignResult
    warm: CampaignResult

    @property
    def speedup(self) -> float:
        return self.cold_seconds / self.warm_seconds

    def gates(self) -> List[str]:
        failures = []
        if self.warm.skipped_known == 0:
            failures.append("warm campaign skipped nothing")
        if self.warm.classifications() != self.cold.classifications():
            failures.append("skip-known changed classifications")
        if self.warm_seconds >= self.cold_seconds:
            failures.append(
                f"warm skip-known run {self.warm_seconds:.3f}s not faster "
                f"than cold {self.cold_seconds:.3f}s"
            )
        return failures


def run_skip_known() -> SkipKnownMeasurement:
    with tempfile.TemporaryDirectory(prefix="diode-corpus-") as corpus_dir:
        started = time.perf_counter()
        cold = _run(corpus_dir=corpus_dir, jobs=1)
        cold_seconds = time.perf_counter() - started
        # The cold arm is unrepeatable (it populates the corpus); damp
        # scheduler noise on the warm side only: best of two reruns.
        warm_seconds = float("inf")
        warm = None
        for _ in range(2):
            started = time.perf_counter()
            result = _run(corpus_dir=corpus_dir, jobs=1, skip_known=True)
            elapsed = time.perf_counter() - started
            if elapsed < warm_seconds:
                warm_seconds, warm = elapsed, result
    return SkipKnownMeasurement(
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        cold=cold,
        warm=warm,
    )


def print_skip_known(measurement: SkipKnownMeasurement) -> None:
    print("\n=== Warm corpus + skip-known vs cold campaign ===")
    print(f"cold run             : {measurement.cold_seconds:.3f}s")
    print(
        f"warm --skip-known    : {measurement.warm_seconds:.3f}s "
        f"({measurement.warm.skipped_known} sites answered by replay, "
        f"{measurement.warm.unit_count} analyzed)"
    )
    print(f"speedup              : {measurement.speedup:.2f}x")
    print(
        "classifications equal: "
        f"{measurement.warm.classifications() == measurement.cold.classifications()}"
    )


# ----------------------------------------------------------------------
# Gate 4: goal-directed minimization counts
# ----------------------------------------------------------------------
@dataclass
class MinimizationCountMeasurement:
    witness_runs: int
    campaign_witness_runs: int
    fields: int
    one_minimal: int
    fallbacks: List[str]

    def gates(self) -> List[str]:
        failures = []
        if self.witness_runs > MAX_TRIAGE_WITNESS_RUNS:
            failures.append(
                f"minimization spent {self.witness_runs} witness runs "
                f"(ceiling {MAX_TRIAGE_WITNESS_RUNS})"
            )
        if self.campaign_witness_runs != self.witness_runs:
            failures.append(
                f"campaign counted {self.campaign_witness_runs} triage witness "
                f"runs, direct minimization {self.witness_runs}"
            )
        if self.one_minimal + len(self.fallbacks) != self.fields:
            failures.append(
                f"only {self.one_minimal}/{self.fields} minimized fields are "
                f"1-minimal ({len(self.fallbacks)} recorded fallbacks)"
            )
        return failures


def run_minimization_counts() -> MinimizationCountMeasurement:
    """Minimize every registry witness with its site's enforcement result.

    A serial campaign keeps each site's in-process enforcement result, so
    its witnesses are minimized again here directly, exactly as the
    campaign's triage pass did, to read each outcome's recorded fallbacks.
    """
    from repro.apps import all_applications
    from repro.triage.minimize import WitnessMinimizer

    applications = {app.name: app for app in all_applications()}
    campaign = _run(backend="serial", jobs=1)
    campaign_runs = (
        campaign.metrics["metrics"].get("triage.witness_runs", {}).get("value", 0)
    )
    witness_runs = fields = one_minimal = 0
    fallbacks: List[str] = []
    for app_result in campaign.application_results:
        minimizer = WitnessMinimizer(applications[app_result.application])
        for site_result in app_result.site_results:
            report = site_result.bug_report
            if report is None:
                continue
            label = site_result.site.site_label
            outcome = minimizer.minimize(
                label, report.triggering_field_values, site_result.enforcement
            )
            witness_runs += outcome.attempts
            for path, value in outcome.field_values.items():
                fields += 1
                if path in outcome.fallback_fields:
                    fallbacks.append(f"{site_result.site.name}:{path}")
                    continue
                baseline = minimizer.baseline_value(path)
                step = value - 1 if value > baseline else value + 1
                data = minimizer.generator.generate_from_fields(
                    {**outcome.field_values, path: step}
                ).data
                evaluation = minimizer.detector.evaluate(data, label)
                if not evaluation.triggers_overflow or not set(
                    outcome.root_kinds
                ) <= set(evaluation.wrap_provenance):
                    one_minimal += 1
    return MinimizationCountMeasurement(
        witness_runs=witness_runs,
        campaign_witness_runs=campaign_runs,
        fields=fields,
        one_minimal=one_minimal,
        fallbacks=fallbacks,
    )


def print_minimization_counts(measurement: MinimizationCountMeasurement) -> None:
    print("\n=== Goal-directed minimization: witness runs and 1-minimality ===")
    print(
        f"triage witness runs  : {measurement.witness_runs} "
        f"(campaign counter {measurement.campaign_witness_runs}, "
        f"ceiling {MAX_TRIAGE_WITNESS_RUNS})"
    )
    print(
        f"1-minimal fields     : {measurement.one_minimal}/{measurement.fields} "
        f"(fallbacks: {', '.join(measurement.fallbacks) or 'none'})"
    )


# ----------------------------------------------------------------------
# Gate 5: a warm rerun writes nothing to the cache store
# ----------------------------------------------------------------------
@dataclass
class WarmRerunMeasurement:
    populate: CampaignResult
    rerun: CampaignResult
    #: ``store.save`` spans and lock acquisitions under the cache directory
    #: in the rerun's trace.
    cache_saves: int
    cache_locks: int
    #: Cache-store file name -> (mtime_ns, bytes), before and after the rerun.
    files_before: Dict[str, tuple]
    files_after: Dict[str, tuple]

    def gates(self) -> List[str]:
        failures = []
        if self.rerun.cache_loaded == 0:
            failures.append("warm rerun loaded no cache entries")
        if self.cache_saves or self.cache_locks:
            failures.append(
                f"warm rerun made {self.cache_saves} cache-store saves and "
                f"{self.cache_locks} lock acquisitions (want 0 and 0)"
            )
        if self.files_after != self.files_before:
            failures.append("warm rerun changed cache-store files")
        if self.rerun.cache_saved != self.rerun.cache_loaded:
            failures.append(
                f"warm rerun reports {self.rerun.cache_saved} entries saved, "
                f"{self.rerun.cache_loaded} loaded"
            )
        if self.rerun.classifications() != self.populate.classifications():
            failures.append("warm rerun changed classifications")
        return failures


def _file_states(directory: str) -> Dict[str, tuple]:
    states = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            states[name] = (os.stat(path).st_mtime_ns, handle.read())
    return states


def run_warm_rerun() -> WarmRerunMeasurement:
    with tempfile.TemporaryDirectory(prefix="diode-stores-") as root:
        cache_dir = os.path.join(root, "cache")
        corpus_dir = os.path.join(root, "corpus")
        trace_dir = os.path.join(root, "trace")
        stores = dict(cache_dir=cache_dir, corpus_dir=corpus_dir, jobs=1)
        populate = _run(**stores)
        before = _file_states(cache_dir)
        rerun = _run(skip_known=True, trace_dir=trace_dir, **stores)
        after = _file_states(cache_dir)
        records = load_trace_dir(trace_dir).records
    saves = [
        r for r in records
        if r["name"] == "store.save" and r["attrs"].get("root") == cache_dir
    ]
    locks = [
        r for r in records
        if r["name"] == "store.lock_wait"
        and str(r["attrs"].get("path", "")).startswith(cache_dir + os.sep)
    ]
    return WarmRerunMeasurement(
        populate=populate,
        rerun=rerun,
        cache_saves=len(saves),
        cache_locks=len(locks),
        files_before=before,
        files_after=after,
    )


def print_warm_rerun(measurement: WarmRerunMeasurement) -> None:
    print("\n=== Warm rerun over unchanged stores: no cache-store write ===")
    print(
        f"cache entries        : {measurement.rerun.cache_loaded} loaded, "
        f"{measurement.rerun.cache_saved} reported saved"
    )
    print(
        f"cache-store saves    : {measurement.cache_saves} "
        f"({measurement.cache_locks} lock acquisitions)"
    )
    print(
        "cache files unchanged: "
        f"{measurement.files_after == measurement.files_before}"
    )
    print(
        "classifications equal: "
        f"{measurement.rerun.classifications() == measurement.populate.classifications()}"
    )


# ----------------------------------------------------------------------
# pytest twins
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="triage")
def test_dedup_collapses_to_the_distinct_overflow_count(benchmark):
    measurement = benchmark.pedantic(run_dedup, rounds=1, iterations=1)
    print_dedup(measurement)
    assert measurement.gates() == []


@pytest.mark.benchmark(group="triage")
def test_minimized_witnesses_reverify_and_skip_known_preserves_parity(benchmark):
    measurement = benchmark.pedantic(run_skip_known, rounds=1, iterations=1)
    print_skip_known(measurement)
    # The wall-clock gate is enforced by the standalone entry point (CI);
    # inside the full suite, background load makes timing asserts flaky, so
    # the pytest twin gates correctness only.
    assert measurement.warm.skipped_known > 0
    assert measurement.warm.classifications() == measurement.cold.classifications()
    corpus = {
        record.signature: record for record in measurement.cold.witness_records
    }
    minimization = run_minimization(corpus, [measurement.cold])
    print_minimization(minimization)
    assert minimization.gates() == []


@pytest.mark.benchmark(group="triage")
def test_minimization_stays_within_its_witness_runs_and_is_one_minimal(benchmark):
    measurement = benchmark.pedantic(run_minimization_counts, rounds=1, iterations=1)
    print_minimization_counts(measurement)
    assert measurement.gates() == []


@pytest.mark.benchmark(group="triage")
def test_warm_rerun_writes_nothing_to_the_cache_store(benchmark):
    measurement = benchmark.pedantic(run_warm_rerun, rounds=1, iterations=1)
    print_warm_rerun(measurement)
    assert measurement.gates() == []


def main() -> int:
    dedup = run_dedup()
    print_dedup(dedup)
    minimization = run_minimization(dedup.corpus, dedup.arms)
    print_minimization(minimization)
    skip = run_skip_known()
    print_skip_known(skip)
    counts = run_minimization_counts()
    print_minimization_counts(counts)
    rerun = run_warm_rerun()
    print_warm_rerun(rerun)

    failures = (
        dedup.gates()
        + minimization.gates()
        + skip.gates()
        + counts.gates()
        + rerun.gates()
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
