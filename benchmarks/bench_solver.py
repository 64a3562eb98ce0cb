"""Incremental-solving benchmark: solver sessions against one-shot queries.

Two workloads back the acceptance bar of the incremental solving stack
(solver sessions with a persistent bit-blaster and assumption-based CDCL
with learned-clause retention):

1. **Registry parity** — the full serial registry campaign, with the
   solver cache on and off.  Every session check is held to an
   independent oracle: its status must equal an uncached one-shot
   :meth:`PortfolioSolver.check` of the same conjuncts, a SAT model must
   satisfy every conjunct, and an UNSAT core must be a subset of the
   conjuncts.  Enforced, not observed.
2. **Enforcement chains** — growing constraint chains shaped exactly like
   the enforcement loop's query sequence (an overflow target constraint β,
   then one appended sanity-check constraint per iteration, ending in
   checks that only the complete backend can decide).  The session arm
   must finish with *lower total CDCL conflicts* and *lower bit-blast/CDCL
   time* than the *fresh* arm (every query re-simplified, re-blasted and
   solved from scratch by :meth:`PortfolioSolver.check`), with identical
   per-check statuses.

A third workload rides the same harness: the **encoder size** count
gate — the CNF the structurally-hashed Tseitin encoder builds for the
CDCL-bound systems must stay within :data:`MAX_ENCODER_VARS` variables
and :data:`MAX_ENCODER_CLAUSES` clauses.  The count is deterministic (no
timing, independent of ``PYTHONHASHSEED``); an encoder that stops sharing
gates (21,200 variables and 69,028 clauses without gate hashing) fails it.
Solver correctness on small instances is held to brute-force oracles in
``tests/smt/test_solver_oracles.py``.

Standalone::

    PYTHONPATH=src python benchmarks/bench_solver.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from repro.core.campaign import CampaignConfig, run_campaign
from repro.obs.metrics import METRICS, counter_value, histogram_stats
from repro.smt import builder as b
from repro.smt.bitblast import BitBlaster
from repro.smt.cache import SolverCache
from repro.smt.evalmodel import satisfies
from repro.smt.solver import PortfolioSolver, SolverConfig, SolverSession

#: Number of alpha/constant-varied enforcement chains in workload 2.
CHAIN_COUNT = 4

#: Encoder-size ceiling: CNF variables and clauses the structurally-hashed
#: Tseitin encoder builds for the CDCL-bound systems plus the product
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

    def solver(self, name: str) -> int:
        """A ``solver.*`` counter of this arm."""
        return counter_value(self.metrics, f"solver.{name}")

    @property
    def conflicts(self) -> int:
        return self.solver("cdcl_conflicts")

    @property
    def bitblast_seconds(self) -> float:
        return histogram_stats(self.metrics, "solver.bitblast.seconds")[1]


# ----------------------------------------------------------------------
# Workload 1: per-check registry parity against one-shot checks
# ----------------------------------------------------------------------
def run_registry_parity(use_cache: bool) -> Dict[str, int]:
    """Serial registry campaign with every session check held to an oracle.

    Returns the check count, the SAT/UNSAT counts and the number of
    status mismatches, bad SAT models and bad UNSAT cores.
    """
    counts = dict(checks=0, sat=0, unsat=0, mismatches=0, bad_models=0, bad_cores=0)
    original = SolverSession.check

    def checked(session: SolverSession):
        result = original(session)
        conjuncts = list(session.conjuncts)
        reference = PortfolioSolver(session.solver.config).check(conjuncts)
        counts["checks"] += 1
        counts[result.status] = counts.get(result.status, 0) + 1
        counts["mismatches"] += result.status != reference.status
        counts["bad_models"] += result.is_sat and not all(
            satisfies(c, result.model) for c in conjuncts
        )
        counts["bad_cores"] += result.unsat_core is not None and not (
            set(result.unsat_core) <= set(conjuncts)
        )
        return result

    SolverSession.check = checked
    try:
        run_campaign(CampaignConfig(jobs=1, backend="serial", use_cache=use_cache))
    finally:
        SolverSession.check = original
    return counts


def registry_parity_holds(counts: Dict[str, int]) -> bool:
    return counts["checks"] > 0 and not (
        counts["mismatches"] or counts["bad_models"] or counts["bad_cores"]
    )


# ----------------------------------------------------------------------
# Workload 2: enforcement-shaped chains through the complete backend
# ----------------------------------------------------------------------
def _enforcement_chain(variant: int):
    """One β + appended-sanity-check chain, like the enforcement loop's.

    The alignment and low-byte checksum equalities defeat the incomplete
    layers (interval corners and extreme-point candidates never land on
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
    """Replay the chains through one arm; returns per-arm measurements.

    The incremental arm drives one session per chain; the fresh arm
    re-checks the growing constraint list with :meth:`PortfolioSolver.check`.
    """
    config = SolverConfig(
        heuristic_max_checks=4,
        bitblast_max_conflicts=100_000,
    )
    solver = PortfolioSolver(config, cache=SolverCache())
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
    )


# ----------------------------------------------------------------------
# Workload 3: encoder size on the CDCL-bound systems
# ----------------------------------------------------------------------
def _product_systems():
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


def _cdcl_bound_systems():
    """The enforcement chains as whole conjunctions, plus CDCL-searching
    companions: exact squares force real decisions (the heuristics would
    have to guess the root), mod-32 non-residues force real conflicts (squares
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
    for system in _cdcl_bound_systems() + _product_systems():
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


def print_encoder_size(variables: int, clauses: int) -> None:
    print("\n=== Encoder size: CDCL-bound and product systems ===")
    print(
        f"CNF variables      : {variables} (ceiling {MAX_ENCODER_VARS})\n"
        f"CNF clauses        : {clauses} (ceiling {MAX_ENCODER_CLAUSES})"
    )


def print_registry_parity(arms: Dict[str, Dict[str, int]]) -> None:
    print("=== Registry campaign: session checks vs one-shot checks ===")
    for label, counts in arms.items():
        print(
            f"{label:9s}: {counts['checks']} checks "
            f"({counts['sat']} sat, {counts['unsat']} unsat), "
            f"{counts['mismatches']} status mismatches, "
            f"{counts['bad_models']} bad models, {counts['bad_cores']} bad cores, "
            f"parity={'yes' if registry_parity_holds(counts) else 'NO'}"
        )


def _gate_failures(
    parity: bool,
    chain_fresh: ArmMeasurement,
    chain_incremental: ArmMeasurement,
    encoder_size: Tuple[int, int],
) -> List[str]:
    failures = []
    if not parity:
        failures.append(
            "registry session checks disagree with one-shot checks"
        )
    if chain_fresh.statuses != chain_incremental.statuses:
        failures.append("enforcement-chain statuses diverge between arms")
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
@pytest.mark.parametrize("use_cache", [True, False])
def test_registry_session_checks_match_one_shot_checks(benchmark, use_cache):
    """Every registry session check agrees with a one-shot check."""
    counts = benchmark.pedantic(
        run_registry_parity, args=(use_cache,), rounds=1, iterations=1
    )
    assert registry_parity_holds(counts)


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
def test_encoder_size_stays_within_the_ceiling(benchmark):
    """The hashed encoder's CNF for the CDCL-bound systems does not grow."""
    variables, clauses = benchmark.pedantic(run_encoder_size, rounds=1, iterations=1)
    print_encoder_size(variables, clauses)
    assert variables <= MAX_ENCODER_VARS
    assert clauses <= MAX_ENCODER_CLAUSES


# ----------------------------------------------------------------------
# Standalone entry point (the CI gate)
# ----------------------------------------------------------------------
def main() -> int:
    registry = {
        "cache on": run_registry_parity(True),
        "cache off": run_registry_parity(False),
    }
    print_registry_parity(registry)
    parity = all(registry_parity_holds(counts) for counts in registry.values())

    chain_fresh = run_enforcement_chains(False)
    chain_incremental = run_enforcement_chains(True)
    print_chains(chain_fresh, chain_incremental)

    encoder_size = run_encoder_size()
    print_encoder_size(*encoder_size)

    failures = _gate_failures(parity, chain_fresh, chain_incremental, encoder_size)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
