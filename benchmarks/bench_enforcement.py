"""Enforcement-loop benchmark: UNSAT-core guidance and per-site sessions.

Two workloads back the acceptance bar of the core-guided enforcement stack
(PR 5), each comparing the *unguided* path (``--no-core-guidance``:
``SolverConfig.enable_unsat_cores`` off, every candidate query solved) with
the *guided* default (UNSAT verdicts carry cores; the enforcer accumulates
them per site and answers any later query whose conjunct set subsumes a
core without a solver call):

1. **Registry re-analysis** — every registry site's enforcement run twice
   through its per-site enforcer (the repeated-analysis pattern: warm
   campaigns, ablation sweeps, multi-observation sites).  The hard
   invariant, enforced not observed: site classifications are
   *byte-identical* between the guided and unguided arms, on both passes —
   core subsumption only ever replaces a solver call that was guaranteed
   to return UNSAT.  The guided arm must also finish with *strictly fewer
   enforcement solver checks*: second-pass UNSAT queries (unsatisfiable
   target constraints, infeasible branch conjunctions) are answered from
   the accumulated cores.
2. **CDCL-hard guarded chains** — registry-shaped guarded-allocation
   programs whose checksum/mask sanity checks defeat the incomplete
   portfolio layers, so the enforcement loop's terminating UNSAT is proved
   by the session's assumption-based CDCL (this is where the extracted
   final-conflict cores are *precise*).  The guided arm must finish with
   strictly fewer CDCL conflicts and solver checks than the unguided arm,
   with identical outcomes — re-deriving the UNSAT tail is exactly the
   work the cores eliminate.

Standalone::

    PYTHONPATH=src python benchmarks/bench_enforcement.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.apps import all_applications
from repro.apps.appbase import Application
from repro.core.detection import ErrorDetector
from repro.core.engine import _better_outcome
from repro.core.enforcement import EnforcementResult, GoalDirectedEnforcer
from repro.core.fieldmap import FieldMapper
from repro.core.inputs import InputGenerator
from repro.core.report import classification_from_enforcement
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.spec import FormatSpec
from repro.lang.program import Program
from repro.obs.metrics import METRICS, counter_value
from repro.smt.cache import SolverCache
from repro.smt.solver import PortfolioSolver, SolverConfig

#: Re-analysis passes per site (pass 1 is cold; later passes are where the
#: accumulated cores answer the repeated UNSAT queries).
REGISTRY_PASSES = 2

#: Passes for the CDCL-hard chains: the extra pass amplifies the repeated
#: UNSAT-tail derivations the cores eliminate.
HARD_PASSES = 3

#: Number of constant-varied CDCL-hard guarded programs in workload 2.
HARD_VARIANTS = 3


# ----------------------------------------------------------------------
# Shared arm harness
# ----------------------------------------------------------------------
@dataclass
class ArmMeasurement:
    """One arm (guided or unguided) of a workload."""

    label: str
    wall_seconds: float
    #: Per-pass classification maps: application -> site -> classification.
    classifications: List[Dict[str, Dict[str, str]]]
    #: ``METRICS`` wire delta over the arm.
    metrics: dict

    def solver(self, name: str) -> int:
        """A ``solver.*`` counter of this arm."""
        return counter_value(self.metrics, f"solver.{name}")

    @property
    def conflicts(self) -> int:
        return self.solver("cdcl_conflicts")

    @property
    def checks(self) -> int:
        """Solver-backed enforcement checks (core-pruned queries excluded)."""
        return self.solver("queries")

    @property
    def pruned(self) -> int:
        return self.solver("core_pruned_candidates")


def _arm_config(guided: bool) -> SolverConfig:
    return SolverConfig(enable_unsat_cores=guided)


def _classify(results: List[EnforcementResult]) -> str:
    best = results[0]
    for candidate in results[1:]:
        if _better_outcome(candidate, best):
            best = candidate
    return classification_from_enforcement(best).value


def _run_applications(
    applications: List[Application],
    guided: bool,
    label: str,
    passes: int,
    use_cache: bool,
) -> ArmMeasurement:
    """Drive every site's enforcement ``passes`` times through one arm.

    Mirrors the campaign's setup — one detector and field mapper per
    application, one enforcer (hence one session and one core accumulator)
    per site — so the measured deltas are exactly what core guidance
    changes.  Workload 1 shares a solver cache like the campaign does;
    workload 2 runs uncached so the session/CDCL interaction is measured
    in isolation (cached pure verdicts would hide the repeated complete-
    backend work the cores eliminate).
    """
    cache = SolverCache() if use_cache else None
    classifications: List[Dict[str, Dict[str, str]]] = [
        {} for _ in range(passes)
    ]
    mark = METRICS.snapshot()
    started = time.perf_counter()
    for app in applications:
        mapper = FieldMapper(app.format_spec)
        detector = ErrorDetector(app.program, app.seed_input)
        generator = InputGenerator(app.seed_input, app.format_spec)
        for site in identify_target_sites(app.program, app.seed_input):
            observations = extract_target_observations(
                app.program,
                app.seed_input,
                site,
                field_mapper=mapper,
                max_observations=2,
            )
            enforcer = GoalDirectedEnforcer(
                PortfolioSolver(_arm_config(guided), cache=cache),
                generator,
                detector,
            )
            for pass_index in range(passes):
                results = []
                for observation in observations:
                    result = enforcer.run(observation)
                    results.append(result)
                    if result.found_overflow:
                        break
                classifications[pass_index].setdefault(app.name, {})[
                    site.name
                ] = _classify(results)
    return ArmMeasurement(
        label=label,
        wall_seconds=time.perf_counter() - started,
        classifications=classifications,
        metrics=METRICS.delta(mark),
    )


# ----------------------------------------------------------------------
# Workload 1: registry re-analysis
# ----------------------------------------------------------------------
def run_registry(guided: bool) -> ArmMeasurement:
    return _run_applications(
        all_applications(),
        guided,
        "guided" if guided else "unguided",
        passes=REGISTRY_PASSES,
        use_cache=True,
    )


# ----------------------------------------------------------------------
# Workload 2: CDCL-hard guarded chains
# ----------------------------------------------------------------------
def _hard_application(variant: int) -> Application:
    """A guarded allocation whose sanity checks only the CDCL can reason on.

    The checksum guards pin exact low-bit patterns of ``w``/``h`` sums (the
    regime interval propagation and boundary sampling cannot decide), and
    the mask guards bound the high bytes so that once every guard is
    enforced the overflow target is infeasible — an UNSAT tail proved by
    the session's assumption-based CDCL, which is what makes its
    final-conflict core precise.  The square guard exists purely to keep
    that tail *expensive*: no square is ``5 mod 32``, so flipping the
    branch is an UNSAT query that costs the CDCL real conflicts even
    under the structurally-hashed encoder (which refutes the plain
    checksum tail by root propagation alone) — re-deriving it each pass
    is exactly the work core subsumption eliminates.
    """
    w0, h0 = 37 + 8 * variant, 91 + 4 * variant
    checksum1 = (w0 + h0) & 255
    checksum2 = (w0 * 3 + h0) & 127
    source = f"""
proc main() {{
  w = (input(4) << 8) | input(5);
  h = (input(6) << 8) | input(7);
  if (((w + h) & 255) != {checksum1}) {{ halt "checksum1"; }}
  if (((w * 3 + h) & 127) != {checksum2}) {{ halt "checksum2"; }}
  if (((w * w) & 31) == 5) {{ halt "square"; }}
  if ((w & 65280) != 0) {{ halt "wmask"; }}
  if ((h & 65280) != 0) {{ halt "hmask"; }}
  buf = alloc(w * h * 1024) @ "hard.c@{variant}";
}}
"""
    spec = FormatSpec(
        f"hard{variant}",
        [
            FieldSpec("/magic", 0, 4, FieldKind.MAGIC, mutable=False),
            FieldSpec("/w", 4, 2, FieldKind.UINT, Endianness.BIG),
            FieldSpec("/h", 6, 2, FieldKind.UINT, Endianness.BIG),
        ],
    )
    seed = b"HARD" + w0.to_bytes(2, "big") + h0.to_bytes(2, "big")
    return Application(
        name=f"Hard{variant}",
        program=Program.from_source(source, name=f"hard{variant}"),
        format_spec=spec,
        seed_input=seed,
        expectations=[],
    )


def run_hard_chains(guided: bool) -> ArmMeasurement:
    applications = [_hard_application(v) for v in range(HARD_VARIANTS)]
    return _run_applications(
        applications,
        guided,
        "guided" if guided else "unguided",
        passes=HARD_PASSES,
        use_cache=False,
    )


# ----------------------------------------------------------------------
# Reporting and gates
# ----------------------------------------------------------------------
def print_arms(title: str, unguided: ArmMeasurement, guided: ArmMeasurement) -> None:
    print(f"\n=== {title} ===")
    for arm in (unguided, guided):
        print(
            f"{arm.label:9s}: {arm.wall_seconds:6.3f}s wall, "
            f"{arm.checks} enforcement checks, "
            f"{arm.conflicts} CDCL conflicts, "
            f"{arm.pruned} queries answered from cores, "
            f"{arm.solver('cores_extracted')} cores, "
            f"{arm.solver('sessions_reused')} sessions reused"
        )
    print(
        "classifications equal: "
        f"{unguided.classifications == guided.classifications}"
    )


def _gate_failures(
    registry_unguided: ArmMeasurement,
    registry_guided: ArmMeasurement,
    hard_unguided: ArmMeasurement,
    hard_guided: ArmMeasurement,
) -> List[str]:
    failures = []
    if registry_unguided.classifications != registry_guided.classifications:
        failures.append(
            "registry classifications diverge between guided and unguided arms"
        )
    if registry_guided.checks >= registry_unguided.checks:
        failures.append(
            f"guided registry enforcement checks {registry_guided.checks} not "
            f"below unguided {registry_unguided.checks}"
        )
    if registry_guided.pruned <= 0:
        failures.append("registry re-analysis answered no queries from cores")
    if hard_unguided.classifications != hard_guided.classifications:
        failures.append(
            "hard-chain classifications diverge between guided and unguided arms"
        )
    if hard_guided.conflicts >= hard_unguided.conflicts:
        failures.append(
            f"guided CDCL conflicts {hard_guided.conflicts} not below "
            f"unguided {hard_unguided.conflicts} on the hard chains"
        )
    if hard_guided.checks >= hard_unguided.checks:
        failures.append(
            f"guided enforcement checks {hard_guided.checks} not below "
            f"unguided {hard_unguided.checks} on the hard chains"
        )
    return failures


# ----------------------------------------------------------------------
# pytest twins
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="enforcement")
def test_registry_core_guidance_parity_and_fewer_checks(benchmark):
    """Byte-identical classifications; strictly fewer enforcement checks."""

    def both():
        return run_registry(False), run_registry(True)

    unguided, guided = benchmark.pedantic(both, rounds=1, iterations=1)
    print_arms("Registry re-analysis", unguided, guided)
    assert unguided.classifications == guided.classifications
    assert guided.checks < unguided.checks
    assert guided.pruned > 0


@pytest.mark.benchmark(group="enforcement")
def test_hard_chains_guided_saves_cdcl_conflicts(benchmark):
    """Core subsumption skips the CDCL-derived UNSAT tail on re-analysis."""

    def both():
        return run_hard_chains(False), run_hard_chains(True)

    unguided, guided = benchmark.pedantic(both, rounds=1, iterations=1)
    print_arms("CDCL-hard guarded chains", unguided, guided)
    assert unguided.classifications == guided.classifications
    assert guided.conflicts < unguided.conflicts
    assert guided.checks < unguided.checks


# ----------------------------------------------------------------------
# Standalone entry point (the CI gate)
# ----------------------------------------------------------------------
def main() -> int:
    registry_unguided = run_registry(False)
    registry_guided = run_registry(True)
    print_arms("Registry re-analysis", registry_unguided, registry_guided)

    hard_unguided = run_hard_chains(False)
    hard_guided = run_hard_chains(True)
    print_arms("CDCL-hard guarded chains", hard_unguided, hard_guided)

    failures = _gate_failures(
        registry_unguided,
        registry_guided,
        hard_unguided,
        hard_guided,
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
