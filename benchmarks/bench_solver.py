"""Incremental-solving benchmark: sessions, decomposition, component cache.

Three workloads back the acceptance bar of the incremental solving stack
(PR 3), each comparing the *fresh-query* reference path (sessions and
decomposition disabled — every query re-simplified, re-blasted and solved
from scratch) against the *incremental* path (solver sessions with a
persistent bit-blaster, assumption-based CDCL with learned-clause
retention, connected-component decomposition and the component-granularity
cache):

1. **Registry parity** — the full registry campaign, default
   configuration.  The hard invariant: the incremental path produces
   byte-identical site classifications.  Enforced, not observed.
2. **Enforcement chains** — growing constraint chains shaped exactly like
   the enforcement loop's query sequence (an overflow target constraint β,
   then one appended sanity-check constraint per iteration, ending in
   checks that only the complete backend can decide).  The incremental arm
   must finish with *lower total CDCL conflicts* and *lower bit-blast/CDCL
   time* than the fresh arm, with identical per-check statuses.
3. **Sibling-site screening** — multi-site feasibility conjunctions built
   from the registry's real per-site target constraints.  Different sites
   constrain different input fields, so these queries decompose; the
   incremental arm must answer some components from the component cache
   (``component hits > 0``) while returning identical statuses.

Two later workloads ride the same harness: **warm skeletons** (persisted
blasted-CNF replay vs fresh Tseitin translation) and the **encoder size**
count gate — the CNF the structurally-hashed Tseitin encoder builds for
the CDCL-bound systems must stay within :data:`MAX_ENCODER_VARS` variables
and :data:`MAX_ENCODER_CLAUSES` clauses.  The count is deterministic (no
timing, independent of ``PYTHONHASHSEED``); an encoder that stops sharing
gates (21,200 variables and 69,028 clauses without gate hashing) fails it.
Solver correctness on small instances is held to brute-force oracles in
``tests/smt/test_solver_oracles.py``.

Emits a machine-readable ``BENCH_solver.json`` artifact; set
``BENCH_ARTIFACT_DIR`` to redirect it.  Standalone::

    PYTHONPATH=src python benchmarks/bench_solver.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import pytest

from bench_campaign import write_artifact
from repro import __version__
from repro.apps import all_applications
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.fieldmap import FieldMapper
from repro.core.overflow import overflow_constraint
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.obs.metrics import METRICS, counter_value, histogram_stats
from repro.smt import builder as b
from repro.smt.bitblast import BitBlaster
from repro.smt.cache import SolverCache
from repro.smt.sampler import SamplerConfig
from repro.smt.solver import PortfolioSolver, SolverConfig

#: Number of alpha/constant-varied enforcement chains in workload 2.
CHAIN_COUNT = 4

#: Encoder-size ceiling: CNF variables and clauses the structurally-hashed
#: Tseitin encoder builds for the CDCL-bound systems plus the skeleton
#: systems (the exact count of the current encoder).
MAX_ENCODER_VARS = 20_504
MAX_ENCODER_CLAUSES = 66_932


# ----------------------------------------------------------------------
# Shared arm harness
# ----------------------------------------------------------------------
@dataclass
class ArmMeasurement:
    """One arm (fresh or incremental) of a workload."""

    label: str
    wall_seconds: float
    statuses: List[str]
    #: ``METRICS`` wire delta over the arm.
    metrics: dict
    cache_stats: Dict[str, float] = field(default_factory=dict)

    def solver(self, name: str) -> int:
        """A ``solver.*`` counter of this arm."""
        return counter_value(self.metrics, f"solver.{name}")

    @property
    def conflicts(self) -> int:
        return self.solver("cdcl_conflicts")

    @property
    def bitblast_seconds(self) -> float:
        return histogram_stats(self.metrics, "solver.bitblast.seconds")[1]


def _solver_config(incremental: bool, **overrides) -> SolverConfig:
    config = SolverConfig(
        enable_sessions=incremental,
        enable_decomposition=incremental,
        **overrides,
    )
    return config


# ----------------------------------------------------------------------
# Workload 1: full-registry classification parity
# ----------------------------------------------------------------------
def run_registry_parity() -> Tuple[dict, dict, bool]:
    """Serial campaign over the whole registry, incremental vs fresh."""

    def classifications(incremental: bool):
        config = CampaignConfig(jobs=1, backend="serial")
        config.diode.solver.enable_sessions = incremental
        config.diode.solver.enable_decomposition = incremental
        started = time.perf_counter()
        result = run_campaign(config)
        return {
            "wall_seconds": round(time.perf_counter() - started, 4),
            "classifications": result.classifications(),
        }

    fresh = classifications(False)
    incremental = classifications(True)
    parity = fresh["classifications"] == incremental["classifications"]
    return fresh, incremental, parity


# ----------------------------------------------------------------------
# Workload 2: enforcement-shaped chains through the complete backend
# ----------------------------------------------------------------------
def _enforcement_chain(variant: int):
    """One β + appended-sanity-check chain, like the enforcement loop's.

    The alignment and low-byte checksum equalities defeat the incomplete
    layers (interval corners and boundary-biased sampling never land on
    exact low-bit patterns), so every iteration reaches bit-blasting —
    the regime where a session's CNF and learned-clause reuse pays.  The
    final parity constraint contradicts the alignment check in a way
    interval propagation cannot see, so the UNSAT tail also exercises the
    complete backend.
    """
    w = b.bv_var(f"w{variant}", 16)
    h = b.bv_var(f"h{variant}", 16)
    beta = b.ugt(
        b.mul(b.zext(w, 32), b.zext(h, 32)), b.bv_const(0x00FFFFFF, 32)
    )
    deltas = [
        b.ult(w, b.bv_const(0xC000 - variant * 64, 16)),
        b.ult(h, b.bv_const(0xB000 + variant * 32, 16)),
        b.eq(b.bvand(w, b.bv_const(0x0007, 16)), b.bv_const(5, 16)),
        b.eq(b.bvand(h, b.bv_const(0x0003, 16)), b.bv_const(2, 16)),
        b.ult(b.add(w, h), b.bv_const(0x5000, 16)),
        b.eq(
            b.bvand(b.add(w, h), b.bv_const(0x00FF, 16)),
            b.bv_const((0x47 + variant) & 0xFF, 16),
        ),
        b.eq(b.bvand(w, b.bv_const(1, 16)), b.bv_const(0, 16)),
    ]
    return beta, deltas


def run_enforcement_chains(incremental: bool) -> ArmMeasurement:
    """Replay the chains through one arm; returns per-arm measurements."""
    config = _solver_config(
        incremental,
        sampler=SamplerConfig(
            random_attempts_per_sample=3,
            hill_climb_steps=2,
            perturbation_attempts=2,
            seed=0,
        ),
        heuristic_max_checks=4,
        bitblast_max_conflicts=100_000,
    )
    cache = SolverCache()
    solver = PortfolioSolver(config, cache=cache)
    statuses: List[str] = []
    mark = METRICS.snapshot()
    started = time.perf_counter()
    for variant in range(CHAIN_COUNT):
        beta, deltas = _enforcement_chain(variant)
        if incremental:
            session = solver.open_session()
            session.push(beta)
            statuses.append(session.check().status)
            for delta in deltas:
                session.push(delta)
                statuses.append(session.check().status)
        else:
            constraints = [beta]
            statuses.append(solver.check(constraints).status)
            for delta in deltas:
                constraints.append(delta)
                statuses.append(solver.check(constraints).status)
    return ArmMeasurement(
        label="incremental" if incremental else "fresh",
        wall_seconds=time.perf_counter() - started,
        statuses=statuses,
        metrics=METRICS.delta(mark),
        cache_stats=cache.stats.as_dict(),
    )


# ----------------------------------------------------------------------
# Workload 3: sibling-site screening over real registry constraints
# ----------------------------------------------------------------------
def _registry_betas():
    """Per-application lists of the real per-site target constraints."""
    per_app = []
    for app in all_applications():
        mapper = FieldMapper(app.format_spec)
        betas = []
        for site in identify_target_sites(app.program, app.seed_input):
            observations = extract_target_observations(
                app.program,
                app.seed_input,
                site,
                field_mapper=mapper,
                max_observations=1,
            )
            if observations and observations[0].size_expression is not None:
                betas.append(
                    overflow_constraint(observations[0].size_expression)
                )
        per_app.append(betas)
    return per_app


def run_screening(incremental: bool) -> ArmMeasurement:
    """Screen each application's sites jointly: can overflows co-trigger?

    The conjunction grows one site's β at a time (infeasible additions are
    dropped), so successive queries share every previously admitted site's
    component — the component cache's designed case.
    """
    config = _solver_config(incremental)
    cache = SolverCache()
    statuses: List[str] = []
    mark = METRICS.snapshot()
    started = time.perf_counter()
    for betas in _registry_betas():
        solver = PortfolioSolver(config, cache=cache)
        if incremental:
            session = solver.open_session()
            for beta in betas:
                session.push(beta)
                result = session.check()
                statuses.append(result.status)
                if not result.is_sat:
                    session.pop()
        else:
            admitted: List = []
            for beta in betas:
                result = solver.check(admitted + [beta])
                statuses.append(result.status)
                if result.is_sat:
                    admitted.append(beta)
    return ArmMeasurement(
        label="incremental" if incremental else "fresh",
        wall_seconds=time.perf_counter() - started,
        statuses=statuses,
        metrics=METRICS.delta(mark),
        cache_stats=cache.stats.as_dict(),
    )


# ----------------------------------------------------------------------
# Workload 4: warm bit-blasting from persisted CNF skeletons
# ----------------------------------------------------------------------
def _skeleton_systems():
    """CDCL-bound conjunctions (low-bit equalities defeat the incomplete
    layers), varied so nothing collapses into one cached query."""
    systems = []
    for variant in range(6):
        w = b.bv_var(f"sw{variant}", 16)
        h = b.bv_var(f"sh{variant}", 16)
        systems.append(
            [
                b.ugt(
                    b.mul(b.zext(w, 32), b.zext(h, 32)),
                    b.bv_const(0x00FFFFFF, 32),
                ),
                b.eq(b.bvand(w, b.bv_const(7, 16)), b.bv_const(5, 16)),
                b.eq(
                    b.bvand(b.add(w, h), b.bv_const(0x00FF, 16)),
                    b.bv_const((0x40 + variant) & 0xFF, 16),
                ),
            ]
        )
    return systems


def run_skeleton_arms() -> Tuple[ArmMeasurement, ArmMeasurement]:
    """Cold blast-and-store vs warm replay from skeletons alone.

    The warm cache is seeded with *only* the cold run's cnf-kind wire
    artifacts (no verdicts), so every query re-solves through the
    complete backend — the arm isolates exactly what a persisted skeleton
    buys: the Tseitin translation, not the CDCL run.
    """
    from repro.smt.cachestore import export_wire_entries, merge_wire_entries

    config = _solver_config(
        False,
        sampler=SamplerConfig(
            random_attempts_per_sample=3,
            hill_climb_steps=2,
            perturbation_attempts=2,
            seed=0,
        ),
        heuristic_max_checks=4,
        bitblast_max_conflicts=100_000,
    )
    systems = _skeleton_systems()

    def arm(label: str, cache: SolverCache) -> ArmMeasurement:
        solver = PortfolioSolver(config, cache=cache)
        mark = METRICS.snapshot()
        started = time.perf_counter()
        statuses = [solver.check(system).status for system in systems]
        return ArmMeasurement(
            label=label,
            wall_seconds=time.perf_counter() - started,
            statuses=statuses,
            metrics=METRICS.delta(mark),
            cache_stats=cache.stats.as_dict(),
        )

    cache_cold = SolverCache()
    cold = arm("cold", cache_cold)
    skeleton_wire = [
        item
        for item in export_wire_entries(cache_cold)[0]
        if item.get("k") == "b"
    ]
    cache_warm = SolverCache()
    merge_wire_entries(cache_warm, skeleton_wire)
    warm = arm("warm", cache_warm)
    return cold, warm


# ----------------------------------------------------------------------
# Workload 5: encoder size on the CDCL-bound systems
# ----------------------------------------------------------------------
def _cdcl_bound_systems():
    """The enforcement chains as whole conjunctions, plus CDCL-searching
    companions: exact squares force real decisions (the sampler would have
    to guess the root), mod-32 non-residues force real conflicts (squares
    mod 32 are {0,1,4,9,16,17,25})."""
    systems = []
    for variant in range(CHAIN_COUNT):
        beta, deltas = _enforcement_chain(variant)
        systems.append([beta] + deltas)
        root = 1234 + 17 * variant
        x = b.bv_var(f"hp{variant}", 16)
        systems.append([b.eq(b.mul(x, x), b.bv_const((root * root) & 0xFFFF, 16))])
        y = b.bv_var(f"hq{variant}", 16)
        systems.append(
            [
                b.eq(
                    b.bvand(b.mul(y, y), b.bv_const(31, 16)),
                    b.bv_const(5, 16),
                )
            ]
        )
    return systems


def run_encoder_size() -> Tuple[int, int]:
    """Total CNF variables and clauses over one fresh blast per system."""
    variables = clauses = 0
    for system in _cdcl_bound_systems() + _skeleton_systems():
        blaster = BitBlaster()
        blaster.assert_all(system)
        variables += blaster.cnf.num_vars
        clauses += len(blaster.cnf.clauses)
    return variables, clauses


# ----------------------------------------------------------------------
# Reporting and gates
# ----------------------------------------------------------------------
def print_chains(fresh: ArmMeasurement, incremental: ArmMeasurement) -> None:
    print("\n=== Enforcement chains: fresh re-solve vs incremental session ===")
    for arm in (fresh, incremental):
        print(
            f"{arm.label:12s}: {arm.wall_seconds:6.3f}s wall, "
            f"{arm.bitblast_seconds:6.3f}s bitblast/CDCL, "
            f"{arm.conflicts} conflicts, "
            f"{arm.solver('bitblast_calls')} complete-backend calls"
        )
    print(f"statuses equal     : {fresh.statuses == incremental.statuses}")


def print_screening(fresh: ArmMeasurement, incremental: ArmMeasurement) -> None:
    print("\n=== Sibling-site screening: whole-query vs component cache ===")
    for arm in (fresh, incremental):
        print(
            f"{arm.label:12s}: {arm.wall_seconds:6.3f}s wall, "
            f"component hits {int(arm.cache_stats['component_hits'])} "
            f"({arm.cache_stats['component_hit_rate']:.1%} of component lookups)"
        )
    print(f"statuses equal     : {fresh.statuses == incremental.statuses}")


def print_skeletons(cold: ArmMeasurement, warm: ArmMeasurement) -> None:
    print("\n=== Warm bit-blasting: fresh Tseitin vs persisted skeletons ===")
    for arm in (cold, warm):
        print(
            f"{arm.label:12s}: {arm.wall_seconds:6.3f}s wall, "
            f"{arm.bitblast_seconds:6.3f}s bitblast/CDCL, "
            f"skeleton hits {arm.solver('skeleton_hits')}, "
            f"stores {arm.solver('skeleton_stores')}"
        )
    print(f"statuses equal     : {cold.statuses == warm.statuses}")


def print_encoder_size(variables: int, clauses: int) -> None:
    print("\n=== Encoder size: CDCL-bound and skeleton systems ===")
    print(
        f"CNF variables      : {variables} (ceiling {MAX_ENCODER_VARS})\n"
        f"CNF clauses        : {clauses} (ceiling {MAX_ENCODER_CLAUSES})"
    )


def artifact_payload(
    parity: bool,
    registry_fresh: dict,
    registry_incremental: dict,
    chain_fresh: ArmMeasurement,
    chain_incremental: ArmMeasurement,
    screen_fresh: ArmMeasurement,
    screen_incremental: ArmMeasurement,
    skeleton_cold: ArmMeasurement,
    skeleton_warm: ArmMeasurement,
    encoder_size: Tuple[int, int],
) -> dict:
    def arm(measurement: ArmMeasurement) -> dict:
        return {
            "wall_seconds": round(measurement.wall_seconds, 4),
            "bitblast_seconds": round(measurement.bitblast_seconds, 4),
            "cdcl_conflicts": measurement.conflicts,
            "bitblast_calls": measurement.solver("bitblast_calls"),
            "component_hits": int(
                measurement.cache_stats.get("component_hits", 0)
            ),
            "cdcl_propagations": measurement.solver("cdcl_propagations"),
            "cdcl_decisions": measurement.solver("cdcl_decisions"),
        }

    return {
        "benchmark": "solver",
        "version": __version__,
        "registry_parity": parity,
        "registry": {
            "fresh_wall_seconds": registry_fresh["wall_seconds"],
            "incremental_wall_seconds": registry_incremental["wall_seconds"],
        },
        "enforcement_chains": {
            "fresh": arm(chain_fresh),
            "incremental": arm(chain_incremental),
            "statuses_equal": chain_fresh.statuses == chain_incremental.statuses,
        },
        "screening": {
            "fresh": arm(screen_fresh),
            "incremental": arm(screen_incremental),
            "statuses_equal": screen_fresh.statuses == screen_incremental.statuses,
        },
        "warm_skeletons": {
            "cold": arm(skeleton_cold),
            "warm": arm(skeleton_warm),
            "skeleton_hits": skeleton_warm.solver("skeleton_hits"),
            "skeleton_stores": skeleton_cold.solver("skeleton_stores"),
            "statuses_equal": skeleton_cold.statuses == skeleton_warm.statuses,
        },
        "encoder_size": {
            "cnf_vars": encoder_size[0],
            "cnf_clauses": encoder_size[1],
            "max_cnf_vars": MAX_ENCODER_VARS,
            "max_cnf_clauses": MAX_ENCODER_CLAUSES,
        },
    }


def _gate_failures(
    parity: bool,
    chain_fresh: ArmMeasurement,
    chain_incremental: ArmMeasurement,
    screen_fresh: ArmMeasurement,
    screen_incremental: ArmMeasurement,
    skeleton_cold: ArmMeasurement,
    skeleton_warm: ArmMeasurement,
    encoder_size: Tuple[int, int],
) -> List[str]:
    failures = []
    if not parity:
        failures.append(
            "incremental registry classifications diverge from the fresh path"
        )
    if chain_fresh.statuses != chain_incremental.statuses:
        failures.append("enforcement-chain statuses diverge between arms")
    if screen_fresh.statuses != screen_incremental.statuses:
        failures.append("screening statuses diverge between arms")
    if chain_incremental.conflicts >= chain_fresh.conflicts:
        failures.append(
            f"incremental CDCL conflicts {chain_incremental.conflicts} not below "
            f"fresh {chain_fresh.conflicts}"
        )
    if chain_incremental.bitblast_seconds >= chain_fresh.bitblast_seconds:
        failures.append(
            f"incremental bitblast/CDCL time {chain_incremental.bitblast_seconds:.3f}s "
            f"not below fresh {chain_fresh.bitblast_seconds:.3f}s"
        )
    if screen_incremental.cache_stats.get("component_hits", 0) <= 0:
        failures.append("screening produced no component-cache hits")
    if skeleton_cold.statuses != skeleton_warm.statuses:
        failures.append("warm-skeleton statuses diverge from the cold arm")
    if skeleton_warm.solver("skeleton_hits") <= 0:
        failures.append("warm arm replayed no persisted CNF skeletons")
    if skeleton_warm.bitblast_seconds >= skeleton_cold.bitblast_seconds:
        failures.append(
            f"warm bitblast/CDCL time {skeleton_warm.bitblast_seconds:.3f}s "
            f"not below cold {skeleton_cold.bitblast_seconds:.3f}s"
        )
    variables, clauses = encoder_size
    if variables > MAX_ENCODER_VARS or clauses > MAX_ENCODER_CLAUSES:
        failures.append(
            f"encoder built {variables} variables / {clauses} clauses, above "
            f"the {MAX_ENCODER_VARS} / {MAX_ENCODER_CLAUSES} ceiling"
        )
    return failures


# ----------------------------------------------------------------------
# pytest twins
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="solver")
def test_incremental_registry_parity(benchmark):
    """Byte-identical site classifications, incremental vs fresh."""
    fresh, incremental, parity = benchmark.pedantic(
        run_registry_parity, rounds=1, iterations=1
    )
    assert parity


@pytest.mark.benchmark(group="solver")
def test_enforcement_chains_incremental_wins(benchmark):
    """Sessions beat fresh re-solving on conflicts and bitblast time."""

    def both():
        return run_enforcement_chains(False), run_enforcement_chains(True)

    fresh, incremental = benchmark.pedantic(both, rounds=1, iterations=1)
    print_chains(fresh, incremental)
    assert fresh.statuses == incremental.statuses
    assert incremental.conflicts < fresh.conflicts
    assert incremental.bitblast_seconds < fresh.bitblast_seconds


@pytest.mark.benchmark(group="solver")
def test_screening_hits_the_component_cache(benchmark):
    """Multi-site screening reuses component verdicts across queries."""

    def both():
        return run_screening(False), run_screening(True)

    fresh, incremental = benchmark.pedantic(both, rounds=1, iterations=1)
    print_screening(fresh, incremental)
    assert fresh.statuses == incremental.statuses
    assert incremental.cache_stats["component_hits"] > 0


@pytest.mark.benchmark(group="solver")
def test_encoder_size_stays_within_the_ceiling(benchmark):
    """The hashed encoder's CNF for the CDCL-bound systems does not grow."""
    variables, clauses = benchmark.pedantic(run_encoder_size, rounds=1, iterations=1)
    print_encoder_size(variables, clauses)
    assert variables <= MAX_ENCODER_VARS
    assert clauses <= MAX_ENCODER_CLAUSES


@pytest.mark.benchmark(group="solver")
def test_warm_skeletons_skip_the_tseitin_translation(benchmark):
    """Persisted CNF skeletons replay to identical statuses, faster."""
    cold, warm = benchmark.pedantic(run_skeleton_arms, rounds=1, iterations=1)
    print_skeletons(cold, warm)
    assert cold.statuses == warm.statuses
    assert warm.solver("skeleton_hits") > 0
    assert warm.bitblast_seconds < cold.bitblast_seconds


# ----------------------------------------------------------------------
# Standalone entry point (the CI gate)
# ----------------------------------------------------------------------
def main() -> int:
    registry_fresh, registry_incremental, parity = run_registry_parity()
    print("=== Registry campaign: classification parity ===")
    print(
        f"fresh       : {registry_fresh['wall_seconds']:.3f}s, "
        f"incremental : {registry_incremental['wall_seconds']:.3f}s, "
        f"parity={'yes' if parity else 'NO'}"
    )

    chain_fresh = run_enforcement_chains(False)
    chain_incremental = run_enforcement_chains(True)
    print_chains(chain_fresh, chain_incremental)

    screen_fresh = run_screening(False)
    screen_incremental = run_screening(True)
    print_screening(screen_fresh, screen_incremental)

    skeleton_cold, skeleton_warm = run_skeleton_arms()
    print_skeletons(skeleton_cold, skeleton_warm)

    encoder_size = run_encoder_size()
    print_encoder_size(*encoder_size)

    path = write_artifact(
        artifact_payload(
            parity,
            registry_fresh,
            registry_incremental,
            chain_fresh,
            chain_incremental,
            screen_fresh,
            screen_incremental,
            skeleton_cold,
            skeleton_warm,
            encoder_size,
        ),
        name="BENCH_solver.json",
    )
    print(f"\nartifact written: {path}")

    failures = _gate_failures(
        parity,
        chain_fresh,
        chain_incremental,
        screen_fresh,
        screen_incremental,
        skeleton_cold,
        skeleton_warm,
        encoder_size,
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
