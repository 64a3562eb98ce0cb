"""Tests for incremental solver sessions (:class:`repro.smt.solver.SolverSession`).

The hard invariant: a session produces the same SAT/UNSAT/UNKNOWN verdicts
as fresh queries over the same conjunctions — push/pop, learned-clause
retention and the persistent bit-blaster are transparent to classification.
Also covers the stage provenance of cached verdicts, cache purity under
sessions, the whole-query cache granularity, the per-check taint and core
reports, and the UNKNOWN-degradation contract (budget exhaustion never
crashes and is never persisted).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import METRICS, counter_value
from repro.obs.trace import TRACER, InMemorySink
from repro.smt import builder as b
from repro.smt.cache import SolverCache
from repro.smt.cachestore import CacheStore
from repro.smt.solver import (
    PortfolioSolver,
    SolverConfig,
    SolverStatus,
)

WIDTH = 16


def _mixing_chain(tag=""):
    """An enforcement-shaped chain that reaches the complete backend."""
    w = b.bv_var(f"w{tag}", WIDTH)
    h = b.bv_var(f"h{tag}", WIDTH)
    beta = b.ugt(
        b.mul(b.zext(w, 32), b.zext(h, 32)), b.bv_const(0x00FFFFFF, 32)
    )
    deltas = [
        b.ult(w, b.bv_const(0xC000, WIDTH)),
        b.eq(b.bvand(w, b.bv_const(7, WIDTH)), b.bv_const(5, WIDTH)),
        b.eq(b.bvand(h, b.bv_const(3, WIDTH)), b.bv_const(2, WIDTH)),
        # Parity contradiction with the alignment check two steps up —
        # invisible to interval propagation, so only CDCL proves it.
        b.eq(b.bvand(w, b.bv_const(1, WIDTH)), b.bv_const(0, WIDTH)),
    ]
    return beta, deltas


def _stress_config(**overrides):
    """A tiny heuristic budget: route SAT queries to the CDCL backend."""
    defaults = dict(
        heuristic_max_checks=4,
        bitblast_max_conflicts=100_000,
    )
    defaults.update(overrides)
    return SolverConfig(**defaults)


class TestOneQueryBody:
    """``PortfolioSolver.check`` and ``SolverSession.check`` run one query
    body: the same span, counters and stages."""

    def test_both_paths_trace_and_count_alike(self):
        solver = PortfolioSolver()
        constraint = b.ult(b.bv_var("x", WIDTH), b.bv_const(10, WIDTH))
        sink = InMemorySink()
        TRACER.add_sink(sink)
        mark = METRICS.snapshot()
        try:
            one_shot = solver.check([constraint])
            session = solver.open_session()
            session.push(constraint)
            in_session = session.check()
        finally:
            TRACER.remove_sink(sink)
        delta = METRICS.delta(mark)
        solves = [r for r in sink.records if r["name"] == "solve"]
        assert [r["attrs"]["session"] for r in solves] == [False, True]
        assert all(isinstance(r["attrs"]["propagations"], int) for r in solves)
        assert counter_value(delta, "solver.queries") == solver.query_count == 2
        assert counter_value(delta, "solver.session_checks") == 1
        assert one_shot.stages_tried == in_session.stages_tried
        assert one_shot.stages_tried[0] == "simplify"


class TestSessionSemantics:
    def test_push_check_matches_fresh_check(self):
        solver = PortfolioSolver()
        x = b.bv_var("x", WIDTH)
        constraint = b.ult(x, b.bv_const(10, WIDTH))
        session = solver.open_session()
        session.push(constraint)
        session_result = session.check()
        fresh_result = PortfolioSolver().check([constraint])
        assert session_result.status == fresh_result.status == SolverStatus.SAT
        assert session_result.model["x"] < 10

    def test_empty_session_is_trivially_sat(self):
        session = PortfolioSolver().open_session()
        result = session.check()
        assert result.is_sat
        assert result.reason == "simplify"

    def test_pop_restores_the_previous_frame(self):
        solver = PortfolioSolver()
        x = b.bv_var("x", WIDTH)
        session = solver.open_session()
        session.push(b.ult(x, b.bv_const(10, WIDTH)))
        session.push(b.ugt(x, b.bv_const(20, WIDTH)))
        assert session.check().is_unsat
        session.pop()
        assert session.check().is_sat
        assert len(session.conjuncts) == 1

    def test_pop_on_empty_session_raises(self):
        with pytest.raises(IndexError):
            PortfolioSolver().open_session().pop()

    def test_push_splits_conjunctions(self):
        x = b.bv_var("x", WIDTH)
        session = PortfolioSolver().open_session()
        session.push(
            b.band(
                b.ult(x, b.bv_const(10, WIDTH)),
                b.ugt(x, b.bv_const(2, WIDTH)),
            )
        )
        assert len(session.conjuncts) == 2
        session.pop()
        assert session.conjuncts == ()

    def test_repush_after_pop_reuses_blasted_cnf(self):
        """Popping and re-pushing the same constraint costs no new CNF."""
        solver = PortfolioSolver(_stress_config())
        beta, deltas = _mixing_chain("repush")
        session = solver.open_session()
        session.push(beta)
        for delta in deltas[:3]:
            session.push(delta)
        result = session.check()
        assert result.is_sat
        assert result.reason == "bitblast"
        assert session._blaster is not None
        vars_before = session._blaster.cnf.num_vars
        session.pop()
        session.push(deltas[2])
        assert session.check().is_sat
        assert session._blaster.cnf.num_vars == vars_before


class TestSessionParity:
    def test_chain_statuses_match_fresh_queries(self):
        """The enforcement access pattern: grow the conjunction one branch
        constraint at a time; session and fresh verdicts agree at every
        step, including the CDCL-proved UNSAT tail."""
        beta, deltas = _mixing_chain("parity")
        session_solver = PortfolioSolver(_stress_config())
        fresh_solver = PortfolioSolver(_stress_config())
        session = session_solver.open_session()

        session.push(beta)
        constraints = [beta]
        session_statuses = [session.check().status]
        fresh_statuses = [fresh_solver.check(constraints).status]
        for delta in deltas:
            session.push(delta)
            constraints.append(delta)
            session_statuses.append(session.check().status)
            fresh_statuses.append(fresh_solver.check(constraints).status)
        assert session_statuses == fresh_statuses
        assert session_statuses[-1] == SolverStatus.UNSAT

    def test_session_models_satisfy_the_conjunction(self):
        beta, deltas = _mixing_chain("models")
        solver = PortfolioSolver(_stress_config())
        session = solver.open_session()
        session.push(beta)
        for delta in deltas[:3]:
            session.push(delta)
            result = session.check()
            assert result.is_sat
            from repro.smt.evalmodel import satisfies

            assert all(satisfies(c, result.model) for c in session.conjuncts)

    @given(bounds=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_random_bound_chains_agree_with_fresh(self, bounds):
        x = b.bv_var("x", WIDTH)
        session = PortfolioSolver().open_session()
        fresh = PortfolioSolver()
        constraints = []
        for bound in bounds:
            constraint = b.ult(x, b.bv_const(bound, WIDTH))
            session.push(constraint)
            constraints.append(constraint)
            assert session.check().status == fresh.check(constraints).status

    def test_session_with_shared_cache_matches_uncached_session(self):
        beta, deltas = _mixing_chain("cached")
        cached_solver = PortfolioSolver(_stress_config(), cache=SolverCache())
        plain_solver = PortfolioSolver(_stress_config())
        cached = cached_solver.open_session()
        plain = plain_solver.open_session()
        cached.push(beta)
        plain.push(beta)
        for delta in deltas:
            cached.push(delta)
            plain.push(delta)
            assert cached.check().status == plain.check().status


class TestStageProvenance:
    def test_cache_hits_report_the_deriving_stages(self):
        """A cached verdict carries the stages that derived it, so hits do
        not report empty provenance (the --json stats satellite)."""
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x = b.bv_var("x", WIDTH)
        system = [b.ult(x, b.bv_const(10, WIDTH))]
        cold = solver.check(system)
        warm = solver.check(system)
        assert warm.reason == "cache"
        assert "cache" in warm.stages_tried
        # Every substantive stage the cold run tried is visible on the hit.
        for stage in cold.stages_tried:
            if stage not in ("simplify", "cache"):
                assert stage in warm.stages_tried

    def test_unsat_hits_carry_stages_too(self):
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x = b.bv_var("x", WIDTH)
        system = [
            b.ult(x, b.bv_const(5, WIDTH)),
            b.ugt(x, b.bv_const(9, WIDTH)),
        ]
        assert solver.check(system).is_unsat
        warm = solver.check(system)
        assert warm.is_unsat
        assert warm.reason == "cache"
        assert "intervals" in warm.stages_tried


class TestUnknownDegradation:
    def _hard_system(self, tag="u"):
        """A conjunction only CDCL can decide: no square is 5 mod 32.

        Interval propagation cannot see the residue argument, the SAT-only
        layers cannot help an UNSAT query, and the CDCL refutation needs
        more than one conflict even under the structurally-hashed encoder
        (the mod-8 variant now falls to root propagation) — so a
        one-conflict budget exhausts and the portfolio must degrade to
        UNKNOWN, never crash.
        """
        x = b.bv_var(f"sq{tag}", 16)
        return [
            b.eq(b.bvand(b.mul(x, x), b.bv_const(31, 16)), b.bv_const(5, 16))
        ]

    def _exhausted_config(self):
        return _stress_config(bitblast_max_conflicts=1)

    def test_budget_exhaustion_classifies_unknown(self):
        solver = PortfolioSolver(self._exhausted_config())
        result = solver.check(self._hard_system())
        assert result.is_unknown
        assert result.reason == "portfolio exhausted"

    def test_session_budget_exhaustion_classifies_unknown(self):
        solver = PortfolioSolver(self._exhausted_config())
        session = solver.open_session()
        session.push(*self._hard_system("s"))
        assert session.check().is_unknown

    def test_unknown_verdicts_are_not_persisted(self, tmp_path):
        """UNKNOWN is a budget artifact: cached in-run for consistency, but
        excluded from the persistent store so future runs (bigger budgets,
        better solvers) retry the query."""
        config = self._exhausted_config()
        cache = SolverCache()
        solver = PortfolioSolver(config, cache=cache)
        assert solver.check(self._hard_system("p")).is_unknown
        # In-run: the verdict is cached (same budget -> same answer) ...
        warm = solver.check(self._hard_system("p"))
        assert warm.is_unknown
        assert warm.reason == "cache"
        assert len(cache) > 0
        # ... but no UNKNOWN verdict reaches the store.
        store = CacheStore(str(tmp_path))
        assert store.save(cache, config.fingerprint()) == 0
        fresh = SolverCache()
        assert store.load(fresh, config.fingerprint()) == 0
        assert len(fresh) == 0


class TestSessionBlasterIsolation:
    @staticmethod
    def _square_residue(name, width):
        """A satisfiable constraint (``x = 7`` squares to 49) that the
        stress budgets leave to the complete backend at 16 and 32 bits."""
        x = b.bv_var(name, width)
        return b.eq(
            b.bvand(b.mul(x, x), b.bv_const(0xFF, width)), b.bv_const(49, width)
        )

    def test_canonical_width_clash_does_not_degrade_to_unknown(self):
        """Canonical names restart at ``v000`` per query, so two checks of
        one session can bind one name at different widths.  The session's
        persistent blaster, whose per-name bit-vectors hold one width,
        raises at the clashing variable, and the session retries the
        one-shot backend (regression: the clash wrongly returned UNKNOWN
        where a one-shot check proves SAT)."""
        narrow = self._square_residue("clash_n", 16)
        wide = self._square_residue("clash_w", 32)
        solver = PortfolioSolver(_stress_config(), cache=SolverCache())
        session = solver.open_session()
        session.push(narrow)
        assert session.check().reason == "bitblast"
        session.pop()
        session.push(wide)
        mark = METRICS.snapshot()
        clashing = session.check()
        # Two complete-backend calls: the session attempt that the clash
        # aborts, then the one-shot retry.
        assert counter_value(METRICS.delta(mark), "solver.bitblast_calls") == 2
        fresh = PortfolioSolver(_stress_config()).check([wide])
        assert fresh.status == SolverStatus.SAT
        assert clashing.status == fresh.status
        assert clashing.reason == "bitblast"
        # The fallback is the pure one-shot backend, so its verdict is
        # session-independent and may be stored.
        assert not session.last_call_tainted

    def test_width_clash_fallback_keeps_later_checks_working(self):
        solver = PortfolioSolver(_stress_config(), cache=SolverCache())
        session = solver.open_session()
        session.push(self._square_residue("keep_n", 16))
        assert session.check().is_sat
        session.pop()
        session.push(self._square_residue("keep_w", 32))
        assert session.check().is_sat
        # The session stays usable after the fallback path ran, and the
        # name keeps its first-seen width: the persistent blaster decides
        # the 16-bit check again.
        session.pop()
        session.push(self._square_residue("keep_m", 16))
        assert session.check().is_sat
        assert session.last_call_tainted


class TestCachePurityUnderSessions:
    def test_session_cdcl_verdicts_stay_out_of_the_shared_cache(self):
        """A verdict derived through the session's incremental CDCL depends
        on the session's private history (learned clauses, phases), so it
        must not enter the shared cache — stored entries stay a pure
        function of the canonical system."""
        beta, deltas = _mixing_chain("purity")
        cache = SolverCache()
        solver = PortfolioSolver(_stress_config(), cache=cache)
        session = solver.open_session()
        session.push(beta)
        for delta in deltas[:3]:
            session.push(delta)
        result = session.check()
        assert result.is_sat
        assert result.reason == "bitblast"
        for _key, _conjuncts, verdict in cache.entries_snapshot():
            assert "bitblast" not in verdict.stages
        # A second solver sharing the cache must re-derive the query (the
        # session-derived verdict was answered, not shared).
        rederived = PortfolioSolver(_stress_config(), cache=cache).check(
            [beta] + deltas[:3]
        )
        assert rederived.is_sat
        assert rederived.reason == "bitblast"

    def test_fresh_cdcl_verdicts_are_still_cached(self):
        cache = SolverCache()
        solver = PortfolioSolver(_stress_config(), cache=cache)
        beta, deltas = _mixing_chain("fresh-cache")
        system = [beta] + deltas[:3]
        cold = solver.check(system)
        assert cold.is_sat and cold.reason == "bitblast"
        warm = solver.check(system)
        assert warm.reason == "cache"
        assert "bitblast" in warm.stages_tried


class TestFallbackPurity:
    def test_fallback_derived_verdicts_are_cached(self):
        """A verdict the session re-derived through the pure fresh-solve
        fallback (budget exhaustion) is session-independent and must be
        cached — only verdicts the incremental CDCL itself decided are
        withheld."""
        cache = SolverCache()
        config = _stress_config(bitblast_max_conflicts=1)
        solver = PortfolioSolver(config, cache=cache)
        x = b.bv_var("fb_x", WIDTH)
        hard = b.eq(b.bvand(b.mul(x, x), b.bv_const(31, WIDTH)), b.bv_const(5, WIDTH))
        session = solver.open_session()
        session.push(hard)
        result = session.check()
        assert result.is_unknown  # both session CDCL and fresh retry exhaust
        warm = PortfolioSolver(config, cache=cache).check([hard])
        assert warm.is_unknown
        assert warm.reason == "cache"


class TestQueryCache:
    """The cache's one granularity is the whole canonical query: alpha
    variants share an entry, anything else is a new entry."""

    def test_alpha_equivalent_sibling_queries_share_one_entry(self):
        """Sibling sites constrain differently named fields with identical
        structure; the second query is answered from the first's entry."""
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        w, h, p, q = (b.bv_var(n, WIDTH) for n in ("sib_w", "sib_h", "sib_p", "sib_q"))
        first = solver.check(
            [b.ult(w, b.bv_const(9, WIDTH)), b.ugt(h, b.bv_const(2, WIDTH))]
        )
        second = solver.check(
            [b.ult(p, b.bv_const(9, WIDTH)), b.ugt(q, b.bv_const(2, WIDTH))]
        )
        assert first.status == second.status == SolverStatus.SAT
        assert second.reason == "cache"
        assert len(cache) == 1
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_a_query_sharing_a_conjunct_is_a_new_entry(self):
        """No partial reuse: two different conjunctions that share one
        conjunct each derive and store their own whole-query verdict."""
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x, y, z = (b.bv_var(n, WIDTH) for n in ("sh_x", "sh_y", "sh_z"))
        shared = b.ult(x, b.bv_const(10, WIDTH))
        assert solver.check([shared, b.ugt(y, b.bv_const(3, WIDTH))]).is_sat
        second = solver.check([shared, b.ult(z, b.bv_const(7, WIDTH))])
        assert second.is_sat
        assert second.reason != "cache"
        assert cache.stats.hits == 0
        assert cache.stats.misses == cache.stats.stores == len(cache) == 2

    def test_unsat_entry_decides_an_alpha_variant_without_a_core(self):
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x, y = b.bv_var("un_x", WIDTH), b.bv_var("un_y", WIDTH)
        assert solver.check(
            [b.ult(x, b.bv_const(5, WIDTH)), b.ugt(x, b.bv_const(9, WIDTH))]
        ).is_unsat
        result = solver.check(
            [b.ult(y, b.bv_const(5, WIDTH)), b.ugt(y, b.bv_const(9, WIDTH))]
        )
        assert result.is_unsat
        assert result.reason == "cache"
        assert result.unsat_core is None

    def test_query_entries_round_trip_through_the_store(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        cache = SolverCache()
        x, y = b.bv_var("rt_x", WIDTH), b.bv_var("rt_y", WIDTH)
        cold = PortfolioSolver(cache=cache).check(
            [b.ult(x, b.bv_const(10, WIDTH)), b.ugt(y, b.bv_const(3, WIDTH))]
        )
        assert cold.is_sat
        store = CacheStore(str(tmp_path))
        assert store.save(cache, fingerprint) == len(cache) == 1

        fresh = SolverCache()
        assert store.load(fresh, fingerprint) == 1
        u, v = b.bv_var("rt_u", WIDTH), b.bv_var("rt_v", WIDTH)
        warm = PortfolioSolver(cache=fresh).check(
            [b.ult(u, b.bv_const(10, WIDTH)), b.ugt(v, b.bv_const(3, WIDTH))]
        )
        assert warm.is_sat
        assert warm.reason == "cache"
        assert (fresh.stats.misses, fresh.stats.hits) == (0, 1)

    def test_hit_with_bitblast_provenance_leaves_the_session_untainted(self):
        """Provenance is not taint: a session check answered from an entry
        the fresh path derived by bit-blasting reports that stage, makes
        no complete-backend call and is not session-dependent."""
        cache = SolverCache()
        x = b.bv_var("prov_x", WIDTH)
        exact_byte = b.eq(
            b.bvand(x, b.bv_const(0xFF, WIDTH)), b.bv_const(0x3C, WIDTH)
        )
        cold = PortfolioSolver(_stress_config(), cache=cache).check([exact_byte])
        assert cold.reason == "bitblast"

        session = PortfolioSolver(_stress_config(), cache=cache).open_session()
        session.push(exact_byte)
        mark = METRICS.snapshot()
        result = session.check()
        assert result.is_sat
        assert result.reason == "cache"
        assert "bitblast" in result.stages_tried
        assert counter_value(METRICS.delta(mark), "solver.bitblast_calls") == 0
        assert not session.last_call_tainted


class TestPerCheckReports:
    """``last_call_tainted`` and ``last_call_core`` describe the current
    check only: both are reset before each check, whatever decides it."""

    @staticmethod
    def _unsat_session(cache=None):
        beta, deltas = _mixing_chain("reports")
        session = PortfolioSolver(_stress_config(), cache=cache).open_session()
        session.push(beta)
        for delta in deltas:
            session.push(delta)
        result = session.check()
        assert result.is_unsat and result.reason == "bitblast"
        assert session.last_call_tainted
        assert session.last_call_core
        return session

    def test_taint_does_not_carry_into_a_cheaply_decided_check(self):
        cache = SolverCache()
        session = self._unsat_session(cache)
        while len(session):
            session.pop()
        session.push(b.ult(b.bv_var("cheap_x", WIDTH), b.bv_const(10, WIDTH)))
        stores = cache.stats.stores
        result = session.check()
        assert result.is_sat and result.reason != "bitblast"
        assert not session.last_call_tainted
        # The untainted verdict is stored like a fresh one.
        assert cache.stats.stores == stores + 1

    def test_core_does_not_carry_into_a_sat_check(self):
        session = self._unsat_session(SolverCache())
        session.pop()
        result = session.check()
        assert result.is_sat
        assert result.unsat_core is None
        assert session.last_call_core is None

    def test_simplification_decided_check_clears_both_reports(self):
        session = self._unsat_session(SolverCache())
        session.push(b.FALSE)
        result = session.check()
        assert result.is_unsat and result.reason == "simplify"
        assert not session.last_call_tainted
        assert session.last_call_core is None

    def test_uncached_session_reports_taint_and_a_core(self):
        """Without a cache the session solves the caller's own conjuncts,
        so its core is a subset of them as they were pushed."""
        session = self._unsat_session()
        assert set(session.last_call_core) <= set(session.conjuncts)
        assert len(session.last_call_core) < len(session.conjuncts)
