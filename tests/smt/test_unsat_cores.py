"""Tests for UNSAT cores, from the SAT layer up through solver sessions.

The soundness contract under test:

* a core is a *subset* of the assumptions (SAT layer) or of the pushed
  conjuncts (session layer),
* re-asserting a core alone is still UNSAT (the property that makes core
  subsumption in the enforcement loop parity-exact),
* SAT and UNKNOWN results never carry a core,
* the ``enable_unsat_cores`` knob strips cores everywhere and is part of
  the solver-configuration fingerprint.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.cache import SolverCache
from repro.smt.cnf import CNF
from repro.smt.sampler import SamplerConfig
from repro.smt.sat import CDCLSolver, SatStatus
from repro.smt.solver import PortfolioSolver, SolverConfig

WIDTH = 16


def _stress_config(**overrides):
    """Tiny incomplete-layer budgets: route queries to the CDCL backend."""
    defaults = dict(
        sampler=SamplerConfig(
            random_attempts_per_sample=3,
            hill_climb_steps=2,
            perturbation_attempts=2,
            seed=0,
        ),
        heuristic_max_checks=4,
        bitblast_max_conflicts=100_000,
    )
    defaults.update(overrides)
    return SolverConfig(**defaults)


def _contradictory_chain(tag=""):
    """β plus sanity checks whose tail only the complete backend refutes.

    The alignment check forces the low three bits of ``w`` to ``101`` while
    the parity check forces the lowest bit to ``0`` — invisible to interval
    propagation, so the UNSAT proof (and its core) comes from the CDCL.
    """
    w = b.bv_var(f"cw{tag}", WIDTH)
    h = b.bv_var(f"ch{tag}", WIDTH)
    beta = b.ugt(
        b.mul(b.zext(w, 32), b.zext(h, 32)), b.bv_const(0x00FFFFFF, 32)
    )
    align = b.eq(b.bvand(w, b.bv_const(7, WIDTH)), b.bv_const(5, WIDTH))
    hmask = b.eq(b.bvand(h, b.bv_const(3, WIDTH)), b.bv_const(2, WIDTH))
    parity = b.eq(b.bvand(w, b.bv_const(1, WIDTH)), b.bv_const(0, WIDTH))
    return beta, align, hmask, parity


class TestSatLevelCores:
    def _implication_cnf(self):
        """x -> y, z -> -y: assuming x and z together is contradictory."""
        cnf = CNF()
        x, y, z, w = (cnf.new_var() for _ in range(4))
        cnf.add_clause([-x, y])
        cnf.add_clause([-z, -y])
        return cnf, (x, y, z, w)

    def test_core_is_a_subset_of_the_assumptions(self):
        cnf, (x, _y, z, w) = self._implication_cnf()
        result = CDCLSolver(cnf).solve(assumptions=[x, w, z])
        assert result.status == SatStatus.UNSAT
        assert set(result.core) <= {x, w, z}
        # The irrelevant assumption is not dragged into the explanation.
        assert w not in result.core

    def test_core_reasserted_alone_is_still_unsat(self):
        cnf, (x, _y, z, w) = self._implication_cnf()
        result = CDCLSolver(cnf).solve(assumptions=[x, w, z])
        replay = CDCLSolver(cnf).solve(assumptions=list(result.core))
        assert replay.status == SatStatus.UNSAT

    def test_sat_results_carry_no_core(self):
        cnf, (x, _y, _z, _w) = self._implication_cnf()
        result = CDCLSolver(cnf).solve(assumptions=[x])
        assert result.status == SatStatus.SAT
        assert result.core is None

    def test_directly_conflicting_assumptions_core_both(self):
        cnf = CNF()
        x = cnf.new_var()
        cnf.add_clause([x, -x])  # tautology; the conflict is assumptions-only
        result = CDCLSolver(cnf).solve(assumptions=[x, -x])
        assert result.status == SatStatus.UNSAT
        assert set(result.core) == {x, -x}

    def test_formula_level_unsat_has_an_empty_core(self):
        cnf = CNF()
        x = cnf.new_var()
        cnf.add_unit(x)
        cnf.add_unit(-x)
        result = CDCLSolver(cnf).solve(assumptions=[cnf.new_var()])
        assert result.status == SatStatus.UNSAT
        assert result.core == ()

    @given(
        bound=st.integers(min_value=1, max_value=2**WIDTH - 2),
        extra=st.integers(min_value=0, max_value=2**WIDTH - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_session_cores_reassert_unsat(self, bound, extra):
        """Any session core, re-asserted fresh, is UNSAT (soundness)."""
        solver = PortfolioSolver(SolverConfig())
        session = solver.open_session()
        x = b.bv_var("prop_x", WIDTH)
        session.push(b.ult(x, b.bv_const(bound, WIDTH)))
        session.push(b.ugt(x, b.bv_const(max(bound, extra), WIDTH)))
        result = session.check()
        assert result.is_unsat
        core = result.unsat_core
        assert core is not None
        assert set(core) <= set(session.conjuncts)
        assert PortfolioSolver(SolverConfig()).check(list(core)).is_unsat


class TestSessionCores:
    def test_cdcl_core_is_a_proper_subset_of_the_conjuncts(self):
        beta, align, hmask, parity = _contradictory_chain("a")
        solver = PortfolioSolver(_stress_config())
        session = solver.open_session()
        for constraint in (beta, align, hmask):
            session.push(constraint)
        assert session.check().is_sat
        session.push(parity)
        result = session.check()
        assert result.is_unsat
        assert result.reason == "bitblast"
        core = set(result.unsat_core)
        assert core <= set(session.conjuncts)
        # The final conflict names the two clashing alignment checks, not
        # the whole conjunction.
        assert len(core) < len(session.conjuncts)
        assert align in core and parity in core

    def test_core_survives_the_cache_canonicalization_round_trip(self):
        """With a shared cache the CDCL solves *canonical* conjuncts; the
        core must come back translated into the caller's term space."""
        beta, align, hmask, parity = _contradictory_chain("b")
        solver = PortfolioSolver(_stress_config(), cache=SolverCache())
        session = solver.open_session()
        for constraint in (beta, align, hmask, parity):
            session.push(constraint)
        result = session.check()
        assert result.is_unsat
        assert set(result.unsat_core) <= set(session.conjuncts)
        assert PortfolioSolver(_stress_config()).check(
            list(result.unsat_core)
        ).is_unsat

    def test_session_core_stays_with_its_caller(self):
        """The incremental CDCL's verdict depends on session history and
        stays out of the cache, and so does its core: a sibling solver
        sharing the cache derives a superset of an alpha-variant of the
        chain itself and reports a core of its own."""
        cache = SolverCache()
        session = PortfolioSolver(_stress_config(), cache=cache).open_session()
        for constraint in _contradictory_chain("s"):
            session.push(constraint)
        assert session.check().is_unsat
        assert session.last_call_tainted
        assert len(cache) == 0

        beta, align, hmask, parity = _contradictory_chain("t")
        extra = b.ult(b.bv_var("cht", WIDTH), b.bv_const(0x8000, WIDTH))
        superset = [beta, align, hmask, parity, extra]
        sibling = PortfolioSolver(_stress_config(), cache=cache).check(superset)
        assert sibling.is_unsat
        assert sibling.reason == "bitblast"
        assert cache.stats.hits == 0
        assert {align, parity} <= set(sibling.unsat_core) <= set(superset)

    def test_interval_unsat_falls_back_to_the_full_component(self):
        """Interval propagation names no culprit, so its core is the whole
        conjunction — including conjuncts over unrelated variables."""
        x = b.bv_var("iv_x", WIDTH)
        y = b.bv_var("iv_y", WIDTH)
        conjuncts = [
            b.ult(y, b.bv_const(3, WIDTH)),
            b.ult(x, b.bv_const(5, WIDTH)),
            b.ugt(x, b.bv_const(9, WIDTH)),
        ]
        result = PortfolioSolver(SolverConfig(), cache=SolverCache()).check(
            conjuncts
        )
        assert result.is_unsat
        assert result.reason == "interval propagation"
        assert set(result.unsat_core) == set(conjuncts)

    def test_sat_and_unknown_results_carry_no_core(self):
        x = b.bv_var("sat_x", WIDTH)
        sat = PortfolioSolver(SolverConfig()).check(
            [b.ult(x, b.bv_const(10, WIDTH))]
        )
        assert sat.is_sat and sat.unsat_core is None
        hard = b.eq(
            b.bvand(b.mul(x, x), b.bv_const(31, WIDTH)), b.bv_const(5, WIDTH)
        )
        unknown = PortfolioSolver(
            _stress_config(bitblast_max_conflicts=1)
        ).check([hard])
        assert unknown.is_unknown and unknown.unsat_core is None

    def test_cache_hits_answer_without_a_core(self):
        """Cores are per-derivation: a cached UNSAT verdict has none."""
        cache = SolverCache()
        x = b.bv_var("hit_x", WIDTH)
        system = [
            b.ult(x, b.bv_const(5, WIDTH)),
            b.ugt(x, b.bv_const(9, WIDTH)),
        ]
        solver = PortfolioSolver(SolverConfig(), cache=cache)
        assert solver.check(system).unsat_core is not None
        warm = solver.check(system)
        assert warm.is_unsat
        assert warm.reason == "cache"
        assert warm.unsat_core is None


class TestCoreKnob:
    def test_disabled_cores_strip_everywhere(self):
        x = b.bv_var("off_x", WIDTH)
        config = SolverConfig(enable_unsat_cores=False)
        result = PortfolioSolver(config).check(
            [b.ult(x, b.bv_const(5, WIDTH)), b.ugt(x, b.bv_const(9, WIDTH))]
        )
        assert result.is_unsat and result.unsat_core is None
        beta, align, hmask, parity = _contradictory_chain("off")
        session = PortfolioSolver(
            _stress_config(enable_unsat_cores=False)
        ).open_session()
        for constraint in (beta, align, hmask, parity):
            session.push(constraint)
        result = session.check()
        assert result.is_unsat and result.unsat_core is None


class TestCoresStayOutOfTheCache:
    """The solver cache keeps whole-query verdicts only: a core answers
    nothing beyond the derivation that produced it, so a superset of a
    refuted system is solved, not looked up, and a store carries no
    cores across runs."""

    def _core_system(self, tag=""):
        x = b.bv_var(f"cs{tag}", WIDTH)
        return x, [
            b.ult(x, b.bv_const(5, WIDTH)),
            b.ugt(x, b.bv_const(9, WIDTH)),
        ]

    def test_superset_query_is_solved_not_looked_up(self):
        cache = SolverCache()
        solver = PortfolioSolver(SolverConfig(), cache=cache)
        x, system = self._core_system("a")
        first = solver.check(system)
        assert first.is_unsat and first.unsat_core
        assert len(cache) == 1

        superset = system + [b.ne(x, b.bv_const(7, WIDTH))]
        result = solver.check(superset)
        assert result.is_unsat
        assert result.reason == "interval propagation"
        assert result.unsat_core  # derived afresh, in caller terms
        assert set(result.unsat_core) <= set(superset)
        assert cache.stats.hits == 0
        assert len(cache) == 2

    def test_store_round_trip_answers_only_the_saved_query(self, tmp_path):
        from repro.smt.cachestore import CacheStore

        config = SolverConfig()
        cache = SolverCache()
        x, system = self._core_system("b")
        assert PortfolioSolver(config, cache=cache).check(system).is_unsat
        store = CacheStore(str(tmp_path))
        assert store.save(cache, config.fingerprint()) == len(cache) == 1

        warm_cache = SolverCache()
        assert store.load(warm_cache, config.fingerprint()) == 1
        warm = PortfolioSolver(config, cache=warm_cache)
        exact = warm.check(system)
        assert exact.is_unsat
        assert exact.reason == "cache"
        assert exact.unsat_core is None
        superset = warm.check(system + [b.ne(x, b.bv_const(7, WIDTH))])
        assert superset.is_unsat
        assert superset.reason != "cache"
        assert superset.unsat_core
        assert warm_cache.stats.hits == 1

    def test_disabled_cores_cache_the_same_verdicts(self):
        """The knob changes what a result carries, not what is cached."""
        x, system = self._core_system("c")
        superset = system + [b.ne(x, b.bv_const(7, WIDTH))]
        caches = {}
        for enabled in (True, False):
            cache = SolverCache()
            solver = PortfolioSolver(
                SolverConfig(enable_unsat_cores=enabled), cache=cache
            )
            results = [solver.check(system), solver.check(superset)]
            assert all(result.is_unsat for result in results)
            assert all(
                (result.unsat_core is not None) == enabled for result in results
            )
            caches[enabled] = cache
        on, off = caches[True], caches[False]
        assert len(on) == len(off) == 2
        assert [v.status for _k, _c, v in on.entries_snapshot()] == [
            v.status for _k, _c, v in off.entries_snapshot()
        ]
