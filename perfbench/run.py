"""Registry-campaign benchmark: host-normalised end-to-end and per-layer figures.

Runs one workload as a closed loop of full-registry campaigns through the
public ``CampaignEngine(CampaignConfig(...)).run()`` — each campaign starts
when the previous one returns — checks every verdict against the paper's
ground truth, and prints each metric by name with its unit, then one JSON
line.  See ``perfbench/README.md`` for the metrics, workloads and the
host-speed normalisation.

    python3 perfbench/run.py --workload registry-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --check-oracle
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from kernel import time_kernel  # noqa: E402

#: Reference duration of the calibration kernel, in milliseconds.  Every
#: timing is scaled by ``K_REF_MS / kernel_ms`` with the kernel timed right
#: before and after the measured work.  Fixed once; changing it rescales
#: every figure the benchmark has ever reported.
K_REF_MS = 75.0

#: Set-up phases per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

WORKLOADS = ("registry-warm", "registry-cold", "registry-resume")

#: Paper Table 1 totals over the five applications.
EXPECTED_TOTALS = {
    "total_target_sites": 40,
    "diode_exposes_overflow": 14,
    "target_constraint_unsatisfiable": 17,
    "sanity_checks_prevent_overflow": 9,
}
EXPOSED = "diode_exposes_overflow"
#: ``SiteExpectation.classification`` -> ``SiteClassification`` value.
CLASSIFICATION = {
    "exposed": EXPOSED,
    "unsatisfiable": "target_constraint_unsatisfiable",
    "prevented": "sanity_checks_prevent_overflow",
}

#: Per-layer metrics: (name, unit).  Layer times are self times.
PER_LAYER = (
    ("apps.build.s", "s"),
    ("sched.context.s", "s"),
    ("sched.context.calls", "count"),
    ("core.sites.s", "s"),
    ("core.target.s", "s"),
    ("core.target.calls", "count"),
    ("smt.simplify.s", "s"),
    ("smt.simplify.calls", "count"),
    ("core.enforcement.s", "s"),
    ("core.enforcement.calls", "count"),
    ("smt.solver.s", "s"),
    ("smt.solver.calls", "count"),
    ("smt.cache.hit_ratio", "ratio"),
    ("smt.cache.lookups", "count"),
    ("core.detection.s", "s"),
    ("core.detection.calls.enforcement", "count"),
    ("core.detection.calls.triage", "count"),
    ("core.detection.calls.replay", "count"),
    ("core.inputs.s", "s"),
    ("core.engine.s", "s"),
    ("exec.runs.concolic", "count"),
    ("exec.runs.witness", "count"),
    ("exec.runs.taint", "count"),
    ("exec.run.s", "s"),
    ("exec.run.concolic.s", "s"),
    ("exec.run.witness.s", "s"),
    ("exec.run.taint.s", "s"),
    ("triage.s", "s"),
    ("triage.calls", "count"),
    ("triage.minimize.s", "s"),
    ("store.load.s", "s"),
    ("store.save.s", "s"),
    ("sched.run_units.s", "s"),
    ("sched.busy.s", "s"),
    ("sched.efficiency", "ratio"),
    ("unattributed.s", "s"),
    ("attributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.calib_ms", "ms"),
    ("host.campaign_wall_s", "s"),
)

#: Layers whose self time is reported, and that the attribution sums over.
TIMED_LAYERS = (
    "apps.build", "sched.context", "core.sites", "core.target", "smt.simplify",
    "core.enforcement", "smt.solver", "core.detection", "core.inputs",
    "core.engine", "exec.run.concolic", "exec.run.witness", "exec.run.taint",
    "triage", "triage.minimize", "store.load", "store.save", "sched.run_units",
)

RUN_KINDS = ("concolic", "witness", "taint")

#: Call counts that must agree between the process and serial backends
#: (``exec.runs.<kind>.units`` leaves out application-context seed runs).
PARITY_COUNTS = (
    "core.target.calls",
    "core.detection.calls.enforcement",
    "core.detection.calls.triage",
    "core.detection.calls.replay",
    "exec.runs.concolic.units",
    "exec.runs.witness.units",
    "exec.runs.taint.units",
)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="registry-warm")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--check-oracle",
        action="store_true",
        help="prove the oracle flags a wrong expectation and a dead witness",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Host-speed normalisation
# ----------------------------------------------------------------------
class Clock:
    """Times work between two calibration-kernel runs and scales it.

    With ``lanes`` > 1 the kernel runs on that many processes at once —
    this one plus ``lanes - 1`` helper processes — and its time is their
    mean, so a campaign spread over several worker processes is scaled by
    the speed of as many busy CPUs.  The helpers are forked: a spawn
    context would also start multiprocessing's resource tracker, a process
    that outlives the run.
    """

    def __init__(self, lanes: int = 1) -> None:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._lanes = []
        for _ in range(lanes - 1):
            ours, theirs = context.Pipe()
            process = context.Process(target=calibration_lane, args=(theirs,))
            process.start()
            theirs.close()
            self._lanes.append((process, ours))
        self.kernel()  # untimed: first call pays for cold caches
        self.kernel_ms: List[float] = [self.kernel()]

    def kernel(self) -> float:
        for _, pipe in self._lanes:
            pipe.send(True)
        times = [time_kernel()] + [pipe.recv() for _, pipe in self._lanes]
        return sum(times) / len(times)

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc_info) -> None:
        for process, pipe in self._lanes:
            pipe.send(False)
            pipe.close()
            process.join()
        self._lanes = []

    def timed(self, work: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``work``; return ``(result or exception, raw seconds, scale)``.

        ``scale`` is ``K_REF_MS`` over the mean of the kernel timed just
        before and just after the work.
        """
        before = self.kernel_ms[-1]
        started = time.perf_counter()
        try:
            outcome: object = work()
        except Exception as exc:  # a failed campaign is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome = exc
        raw = time.perf_counter() - started
        after = self.kernel()
        self.kernel_ms.append(after)
        return outcome, raw, K_REF_MS / ((before + after) / 2)


def calibration_lane(pipe) -> None:
    """Helper-process loop: time the kernel whenever asked, until told to stop."""
    while pipe.recv():
        pipe.send(time_kernel())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def campaign_config(
    workload: str,
    order: List[str],
    store: Optional[Tuple[str, str]] = None,
    backend: Optional[str] = None,
):
    """The ``CampaignConfig`` one timed campaign of ``workload`` runs.

    ``store`` is the ``(cache_dir, corpus_dir)`` pair of ``registry-resume``;
    without it that workload's config has no persistent directories (its
    warm-up campaign).
    """
    from repro.core.campaign import CampaignConfig

    if workload == "registry-warm":
        return CampaignConfig(backend="serial", jobs=1, applications=order)
    if workload == "registry-cold":
        return CampaignConfig(
            backend="serial",
            jobs=1,
            applications=order,
            use_cache=False,
            triage=False,
        )
    config = CampaignConfig(
        backend=backend or "process",
        jobs=1 if backend == "serial" else resume_jobs(),
        applications=order,
    )
    if store is not None:
        config.cache_dir, config.corpus_dir = store
        config.skip_known = True
    return config


def resume_jobs() -> int:
    return min(2, os.cpu_count() or 1)


def run_campaign(config):
    from repro.core.campaign import CampaignEngine

    return CampaignEngine(config).run()


def set_up(
    workload: str, orders: Callable[[], List[str]], clock: Clock, work_dir: Path
) -> Tuple[List[float], Optional[Tuple[str, str]]]:
    """Run the set-up phase ``SETUP_REPEATS`` times.

    One phase is one untimed-in-the-loop warm-up campaign, plus on
    ``registry-resume`` the campaign that populates fresh cache and corpus
    directories.  Returns each phase's normalised seconds and the store
    directories of the last phase, which the timed campaigns then use.
    """
    phases: List[float] = []
    store: Optional[Tuple[str, str]] = None
    for repeat in range(SETUP_REPEATS):
        if workload == "registry-resume":
            phase_dir = work_dir / f"store-{repeat}"
            store = (str(phase_dir / "cache"), str(phase_dir / "corpus"))

        order = orders()

        def phase() -> None:
            run_campaign(campaign_config(workload, order))
            if store is not None:
                run_campaign(campaign_config(workload, order, store))

        outcome, raw, scale = clock.timed(phase)
        if isinstance(outcome, Exception):
            raise RuntimeError("set-up campaign failed") from outcome
        phases.append(raw * scale)
    return phases, store


# ----------------------------------------------------------------------
# Correctness oracle
# ----------------------------------------------------------------------
@dataclass
class SiteOutcome:
    application: str
    tag: Optional[str]
    label: int
    classification: str
    discovery_seconds: float
    triggering_input: Optional[bytes]


@dataclass
class CampaignSummary:
    """What the oracle and the metrics need from one campaign result."""

    sites: List[SiteOutcome]
    totals: Dict[str, int]
    #: The campaign's deduplicated ``WitnessRecord``s; ``None`` when it ran
    #: without triage.
    witnesses: Optional[list]

    @classmethod
    def of(cls, result, triage: bool) -> "CampaignSummary":
        sites = [
            SiteOutcome(
                application=app.application,
                tag=site.site.site_tag,
                label=site.site.site_label,
                classification=site.classification.value,
                discovery_seconds=site.discovery_seconds,
                triggering_input=(
                    site.bug_report.triggering_input if site.bug_report else None
                ),
            )
            for app in result.application_results
            for site in app.site_results
        ]
        witnesses = list(result.witness_records) if triage else None
        return cls(sites, result.table1_totals(), witnesses)

    def digest(self) -> str:
        rows = sorted((s.application, s.tag or "", s.classification) for s in self.sites)
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


class Oracle:
    """Checks campaign verdicts against ground truth built independently.

    The expectations come from freshly built application models
    (``Application.expectation_for``), and witnesses are replayed under a
    freshly built ``ErrorDetector`` per application, so nothing the timed
    campaigns computed is trusted.
    """

    def __init__(self) -> None:
        from repro.apps.registry import application_names, get_application

        built = [get_application(name) for name in application_names()]
        #: Display name (``Application.name``, as results carry it) -> model.
        self.applications = {app.name: app for app in built}
        #: ``(application, site tag) -> SiteClassification value``.
        self.expected: Dict[Tuple[str, str], str] = {
            (app.name, expectation.tag): CLASSIFICATION[expectation.classification]
            for app in self.applications.values()
            for expectation in app.expectations
        }
        self._detectors: Dict[str, object] = {}
        self._replays: Dict[Tuple[str, int, bytes], bool] = {}

    def sites(self) -> int:
        return len(self.expected)

    def replays(self, application: str, label: int, data: bytes) -> bool:
        """Whether ``data`` re-triggers the overflow at ``label``."""
        key = (application, label, data)
        if key not in self._replays:
            detector = self._detectors.get(application)
            if detector is None:
                from repro.core.detection import ErrorDetector

                app = self.applications[application]
                detector = ErrorDetector(app.program, app.seed_input)
                self._detectors[application] = detector
            self._replays[key] = detector.evaluate(data, label).triggers_overflow
        return self._replays[key]

    def failures(self, summary: CampaignSummary) -> Dict[Tuple[str, str], str]:
        """Failed sites of one campaign: ``(application, tag) -> reason``."""
        failed: Dict[Tuple[str, str], str] = {}
        signatures: Dict[str, List[Tuple[str, str]]] = {}
        seen = set()
        for site in summary.sites:
            key = (site.application, site.tag or f"alloc@{site.label}")
            seen.add(key)
            expected = self.expected.get(key)
            if expected is None:
                failed[key] = "site has no paper expectation"
            elif site.classification != expected:
                failed[key] = f"classified {site.classification}, paper says {expected}"
            elif site.classification == EXPOSED:
                if site.triggering_input is None or not self.replays(
                    site.application, site.label, site.triggering_input
                ):
                    failed[key] = "witness does not re-trigger under a fresh detector"
                elif summary.witnesses is not None:
                    record = next(
                        (
                            w for w in summary.witnesses
                            if w.application == site.application
                            and w.matches_site(site.label, site.tag)
                        ),
                        None,
                    )
                    if record is None:
                        failed[key] = "triage rejected the witness"
                    else:
                        signatures.setdefault(record.signature, []).append(key)
        for keys in signatures.values():
            if len(keys) > 1:
                for key in keys:
                    failed[key] = "witness signature shared with another site"
        for key in self.expected.keys() - seen:
            failed[key] = "site missing from the campaign"
        return failed


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Campaign:
    """One timed campaign: its raw wall, scale and summary (or error)."""

    raw_seconds: float
    scale: float
    summary: Optional[CampaignSummary]
    error: Optional[str] = None
    layers: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        return self.raw_seconds * self.scale


def timed_campaign(clock: Clock, config, triage: bool) -> Campaign:
    outcome, raw, scale = clock.timed(lambda: run_campaign(config))
    if isinstance(outcome, Exception):
        return Campaign(raw, scale, None, error=repr(outcome))
    return Campaign(raw, scale, CampaignSummary.of(outcome, triage))


def traced_campaign(clock: Clock, trace, config, triage: bool) -> Campaign:
    """One campaign with the layer wrappers installed; fills ``layers``."""
    from layers import read_layers
    from repro.obs.metrics import METRICS

    trace.install()
    try:
        mark = METRICS.snapshot()
        outcome, raw, scale = clock.timed(lambda: run_campaign(config))
        delta = METRICS.delta(mark)
    finally:
        trace.uninstall()
    if isinstance(outcome, Exception):
        return Campaign(raw, scale, None, error=repr(outcome))
    campaign = Campaign(raw, scale, CampaignSummary.of(outcome, triage))
    recorded = read_layers(delta)
    layers: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        layers[f"{layer}.s"] = recorded.get(f"{layer}.s", 0.0) * scale
    layers["exec.run.s"] = sum(layers[f"exec.run.{kind}.s"] for kind in RUN_KINDS)
    for name, unit in PER_LAYER:
        if unit == "count" and name not in layers:
            layers[name] = recorded.get(name, 0)
    for kind in RUN_KINDS:
        # Per-context seed runs differ by backend (a process worker
        # rebuilds the contexts it needs); the unit-side runs must not.
        layers[f"exec.runs.{kind}.units"] = layers[f"exec.runs.{kind}"] - recorded.get(
            f"exec.runs.{kind}.context", 0
        )
    busy = recorded.get("sched.busy.s", 0.0)
    layers["sched.busy.s"] = busy * scale
    capacity = trace.run_units_wall * trace.workers
    layers["sched.efficiency"] = busy / capacity if capacity else 0.0
    stats = outcome.cache_stats
    lookups = stats.lookups if stats is not None else 0
    layers["smt.cache.lookups"] = lookups
    layers["smt.cache.hit_ratio"] = stats.hits / lookups if lookups else 0.0
    attributed = sum(trace.local_self.values())
    layers["unattributed.s"] = (raw - attributed) * scale
    layers["attributed_share"] = attributed / raw
    campaign.layers = layers
    return campaign


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def score(
    campaigns: List[Campaign], oracle: Oracle
) -> Tuple[int, int, List[str], List[str]]:
    """``(attempted, failed, problems, verdict digests)`` over every campaign."""
    attempted = failed = 0
    problems: List[str] = []
    digests = set()
    for index, campaign in enumerate(campaigns):
        attempted += oracle.sites()
        if campaign.summary is None:
            failed += oracle.sites()
            problems.append(f"campaign {index} raised {campaign.error}")
            continue
        failures = oracle.failures(campaign.summary)
        failed += len(failures)
        for (application, tag), reason in sorted(failures.items()):
            problems.append(f"campaign {index}: {application} {tag}: {reason}")
        if campaign.summary.totals != EXPECTED_TOTALS:
            problems.append(f"campaign {index}: Table 1 totals {campaign.summary.totals}")
        digests.add(campaign.summary.digest())
    if len(digests) > 1:
        problems.append(f"verdicts differ between campaigns: digests {sorted(digests)}")
    return attempted, failed, problems, sorted(digests)


def end_to_end(campaigns: List[Campaign], setup_seconds: float) -> Dict[str, dict]:
    ok = [c for c in campaigns if c.summary is not None]
    verdict_ms = [
        site.discovery_seconds * c.scale * 1e3 for c in ok for site in c.summary.sites
    ]
    overflow_ms = [
        site.discovery_seconds * c.scale * 1e3
        for c in ok
        for site in c.summary.sites
        if site.classification == EXPOSED
    ]
    values = {
        "campaign_s": (statistics.median(c.seconds for c in ok), "s"),
        "verdict_ms_p50": (statistics.median(verdict_ms), "ms"),
        "verdict_ms_p95": (percentile(verdict_ms, 0.95), "ms"),
        "overflow_ms_p50": (statistics.median(overflow_ms), "ms"),
        "setup_s": (setup_seconds, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(
        f"verdict samples: {len(verdict_ms)} sites "
        f"({len(verdict_ms) - math.ceil(0.95 * len(verdict_ms))} beyond p95), "
        f"{len(overflow_ms)} exposed"
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(
    traced: List[Campaign], untraced: List[Campaign], clock: Clock
) -> Dict[str, dict]:
    traced = [c for c in traced if c.layers is not None]
    untraced = [c for c in untraced if c.summary is not None]
    values: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        if traced and name in traced[0].layers:
            values[name] = statistics.fmean(c.layers[name] for c in traced)
    values["trace.overhead"] = statistics.median(c.seconds for c in traced) / (
        statistics.median(c.seconds for c in untraced)
    )
    values["host.calib_ms"] = statistics.median(clock.kernel_ms)
    values["host.campaign_wall_s"] = statistics.median(c.raw_seconds for c in untraced)
    return {
        name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER
    }


def parity_problems(process: List[Campaign], serial: Campaign) -> List[str]:
    """Process-vs-serial disagreements in the unit-side layer call counts."""
    if serial.layers is None:
        return [f"serial parity campaign raised {serial.error}"]
    problems = []
    print("process/serial call-count parity (registry-resume):")
    for name in PARITY_COUNTS:
        counts = sorted({c.layers[name] for c in process if c.layers is not None})
        expected = serial.layers[name]
        same = counts == [expected]
        verdict = "ok" if same else "MISMATCH"
        print(f"  {name:36s} process {counts} serial {expected} {verdict}")
        if not same:
            problems.append(f"parity: {name} process {counts} != serial {expected}")
    return problems


def print_metrics(metrics: Dict[str, dict]) -> None:
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:14.6f} {entry['unit']}")


# ----------------------------------------------------------------------
def measure(args: argparse.Namespace, work_dir: Path) -> dict:
    preamble = time.perf_counter() - STARTED
    lanes = resume_jobs() if args.workload == "registry-resume" else 1
    with Clock(lanes) as clock:
        names, import_raw, import_scale = clock.timed(import_program)
        if isinstance(names, Exception):
            print(f"cannot import the program from {ROOT / 'src'}", file=sys.stderr)
            raise SystemExit(2)
        # Every campaign draws its own application order from the seed, so a
        # run averages over orders instead of measuring one schedule.
        rng = random.Random(args.seed)

        def orders() -> List[str]:
            return rng.sample(names, len(names))

        workload = args.workload
        triage = workload != "registry-cold"
        phases, store = set_up(workload, orders, clock, work_dir)
        setup_seconds = preamble + import_raw * import_scale + statistics.median(phases)

        print(f"workload {workload}  seed {args.seed}")
        deadline = time.perf_counter() + args.seconds
        untraced: List[Campaign] = []
        traced: List[Campaign] = []
        trace = None
        if args.trace:
            from layers import LayerTrace

            trace = LayerTrace()
        while True:
            config = campaign_config(workload, orders(), store)
            untraced.append(timed_campaign(clock, config, triage))
            if trace is not None:
                config = campaign_config(workload, orders(), store)
                traced.append(traced_campaign(clock, trace, config, triage))
            if time.perf_counter() >= deadline:
                break

        problems: List[str] = []
        if trace is not None and workload == "registry-resume":
            config = campaign_config(workload, orders(), store, backend="serial")
            serial = traced_campaign(clock, trace, config, triage)
            problems += parity_problems(traced, serial)
            traced_all = traced + [serial]
        else:
            traced_all = traced

        oracle = Oracle()
        attempted, failed, oracle_problems, digests = score(untraced + traced_all, oracle)
        problems += oracle_problems
        raw_walls = sorted(c.raw_seconds for c in untraced)
        print(
            f"campaigns {len(untraced)} untraced, {len(traced_all)} traced; "
            f"verdict digest {' '.join(digests)}; "
            f"failed {failed} of {attempted} sites"
        )
        print(
            f"host: calibration kernel median {statistics.median(clock.kernel_ms):.2f} ms "
            f"(K_ref {K_REF_MS} ms); raw campaign wall min/median/max "
            f"{raw_walls[0]:.4f}/{statistics.median(raw_walls):.4f}/{raw_walls[-1]:.4f} s; "
            f"setup phases {[round(p, 4) for p in phases]} s (normalised)"
        )
        for problem in problems:
            print(f"FAIL {problem}")
        if args.trace:
            metrics = per_layer(traced, untraced, clock)
        else:
            metrics = end_to_end(untraced, setup_seconds)
        print_metrics(metrics)
        return {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }


def import_program() -> List[str]:
    """Import the program from ``src/``; return the registry's app names."""
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    import repro.core.campaign  # noqa: F401
    from repro.apps.registry import application_names

    if not Path(repro.__file__).resolve().is_relative_to(Path(source).resolve()):
        raise ImportError(f"repro was imported from {repro.__file__}, not {source}")

    return application_names()


def check_oracle() -> int:
    """Show the oracle flags a planted wrong verdict, witness and triage loss."""
    order = import_program()
    oracle = Oracle()
    summary = CampaignSummary.of(
        run_campaign(campaign_config("registry-warm", order)), triage=True
    )
    exposed = next(s for s in summary.sites if s.classification == EXPOSED)
    key = (exposed.application, exposed.tag)
    cases = {"clean campaign": oracle.failures(summary)}

    oracle.expected[key] = CLASSIFICATION["prevented"]
    cases["wrong expectation"] = oracle.failures(summary)
    oracle.expected[key] = EXPOSED

    witness, exposed.triggering_input = (
        exposed.triggering_input,
        oracle.applications[exposed.application].seed_input,
    )
    cases["seed input as witness"] = oracle.failures(summary)
    exposed.triggering_input = witness

    summary.witnesses = [
        w for w in summary.witnesses
        if not (w.application == exposed.application
                and w.matches_site(exposed.label, exposed.tag))
    ]
    cases["witness record dropped"] = oracle.failures(summary)

    for name, failures in cases.items():
        print(f"{name} at {key}: {failures}")
    planted = [failures for name, failures in cases.items() if name != "clean campaign"]
    ok = not cases["clean campaign"] and all(list(f) == [key] for f in planted)
    print("oracle check", "OK" if ok else "FAILED")
    return 0 if ok else 1


def stop_helper_processes() -> None:
    """Stop and reap multiprocessing's forkserver and resource tracker.

    Either starts on first use of a spawn or forkserver context and would
    otherwise linger until it notices this process has exited.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        try:
            helper._stop()
        except Exception:
            traceback.print_exc(file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.check_oracle:
            return check_oracle()
        return measure_and_report(args)
    finally:
        stop_helper_processes()


def measure_and_report(args: argparse.Namespace) -> int:
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=work_root))
    # multiprocessing puts its manager sockets under tempfile's directory;
    # keep them inside the checkout (relative, to stay within socket-path
    # length limits however deep the checkout is).
    tempfile.tempdir = os.path.relpath(work_dir)
    try:
        result = measure(args, work_dir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
