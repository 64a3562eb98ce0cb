"""Tests for incremental solver sessions (:class:`repro.smt.solver.SolverSession`).

The hard invariant: a session produces the same SAT/UNSAT/UNKNOWN verdicts
as fresh queries over the same conjunctions — push/pop, learned-clause
retention and the persistent bit-blaster are transparent to classification.
Also covers the component-granularity cache layer, the stage provenance of
cached verdicts, and the UNKNOWN-degradation contract (budget exhaustion
never crashes and is never persisted).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.cache import SolverCache
from repro.smt.cachestore import CacheStore
from repro.smt.sampler import SamplerConfig
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
    """Tiny incomplete-layer budgets: route SAT queries to the CDCL backend."""
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


class TestComponentCache:
    def test_shared_component_hits_across_different_queries(self):
        """Two whole queries that differ but share a connected component
        answer the shared part from the component cache."""
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x, y, z = (b.bv_var(n, WIDTH) for n in ("x", "y", "z"))
        shared = b.ult(x, b.bv_const(10, WIDTH))
        first = solver.check([shared, b.ugt(y, b.bv_const(3, WIDTH))])
        assert first.is_sat
        assert cache.stats.component_stores >= 2
        hits_before = cache.stats.component_hits
        second = solver.check([shared, b.ult(z, b.bv_const(7, WIDTH))])
        assert second.is_sat
        assert cache.stats.component_hits > hits_before
        # The whole-query cache missed both times (different conjunctions).
        assert cache.stats.hits == 0

    def test_component_unsat_decides_the_whole_query(self):
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x, y = b.bv_var("x", WIDTH), b.bv_var("y", WIDTH)
        contradiction = b.band(
            b.ult(x, b.bv_const(5, WIDTH)), b.ugt(x, b.bv_const(9, WIDTH))
        )
        satisfiable = b.ult(y, b.bv_const(3, WIDTH))
        assert solver.check([contradiction]).is_unsat
        result = solver.check([satisfiable, contradiction])
        assert result.is_unsat
        # The contradiction component was answered from the cache.
        assert cache.stats.component_hits >= 1

    def test_alpha_equivalent_sibling_components_share_verdicts(self):
        """Sibling sites constrain differently named fields with identical
        structure; their components share one canonical entry."""
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        w, h, p, q = (b.bv_var(n, WIDTH) for n in ("w", "h", "p", "q"))
        first = solver.check(
            [b.ult(w, b.bv_const(9, WIDTH)), b.ugt(h, b.bv_const(2, WIDTH))]
        )
        hits_before = cache.stats.component_hits
        second = solver.check(
            [b.ult(p, b.bv_const(9, WIDTH)), b.ugt(q, b.bv_const(2, WIDTH))]
        )
        assert first.status == second.status == SolverStatus.SAT
        # Alpha-equivalence already unifies the *whole* queries here; the
        # point is that component entries unified too (no extra stores).
        assert cache.stats.component_hits >= hits_before

    def test_component_entries_round_trip_through_the_store(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x, y = b.bv_var("x", WIDTH), b.bv_var("y", WIDTH)
        solver.check(
            [b.ult(x, b.bv_const(10, WIDTH)), b.ugt(y, b.bv_const(3, WIDTH))]
        )
        assert cache.component_count() > 0
        store = CacheStore(str(tmp_path))
        saved = store.save(cache, fingerprint)
        assert saved == len(cache) + cache.component_count()

        fresh = SolverCache()
        store.load(fresh, fingerprint)
        assert fresh.component_count() == cache.component_count()
        warm = PortfolioSolver(cache=fresh)
        hits_before = fresh.stats.component_hits
        z = b.bv_var("z", WIDTH)
        result = warm.check(
            [b.ult(x, b.bv_const(10, WIDTH)), b.ult(z, b.bv_const(5, WIDTH))]
        )
        assert result.is_sat
        assert fresh.stats.component_hits > hits_before


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
        assert len(cache) + cache.component_count() > 0
        # ... but no UNKNOWN verdict reaches the store.
        store = CacheStore(str(tmp_path))
        assert store.save(cache, config.fingerprint()) == 0
        fresh = SolverCache()
        assert store.load(fresh, config.fingerprint()) == 0
        assert len(fresh) + fresh.component_count() == 0


class TestSessionBlasterIsolation:
    def _clashing_components(self, tag=""):
        """Two independent components whose component-canonical names both
        start at ``v000`` — at different widths — and which only the
        complete backend can decide (squares mod 8 are in {0, 1, 4})."""
        narrow = b.bv_var(f"cw{tag}", 16)
        wide = b.bv_var(f"cc{tag}", 32)
        return [
            b.eq(b.bvand(b.mul(narrow, narrow), b.bv_const(7, 16)), b.bv_const(1, 16)),
            b.eq(b.bvand(b.mul(wide, wide), b.bv_const(7, 32)), b.bv_const(4, 32)),
        ]

    def test_canonical_width_clash_does_not_degrade_to_unknown(self):
        """Component-canonical names restart at v000 per component; a name
        reused at a different width must not corrupt the session's
        persistent blaster (regression: the clash raised BitBlastError and
        wrongly returned UNKNOWN where the fresh path proves SAT)."""
        system = self._clashing_components("a")
        fresh = PortfolioSolver(
            _stress_config(incremental=False)
        ).check(system)
        solver = PortfolioSolver(_stress_config(), cache=SolverCache())
        session = solver.open_session()
        session.push(*system)
        incremental = session.check()
        assert fresh.status == SolverStatus.SAT
        assert incremental.status == fresh.status

    def test_width_clash_fallback_keeps_later_checks_working(self):
        system = self._clashing_components("b")
        solver = PortfolioSolver(_stress_config(), cache=SolverCache())
        session = solver.open_session()
        session.push(*system)
        assert session.check().is_sat
        # The session stays usable after the fallback path ran.
        session.push(b.ult(b.bv_var("cwb", 16), b.bv_const(0x100, 16)))
        assert session.check().status in (SolverStatus.SAT, SolverStatus.UNKNOWN)


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
        for _key, _conjuncts, verdict in cache.entries_snapshot(
            kind=SolverCache.KIND_COMPONENT
        ):
            assert "bitblast" not in verdict.stages
        # A second solver sharing the cache must re-derive the query (the
        # session-derived verdict was answered, not shared).
        rederived = PortfolioSolver(_stress_config(), cache=cache).check(
            [beta] + deltas[:3]
        )
        assert rederived.is_sat
        assert rederived.reason == "bitblast"

    def test_component_hit_with_bitblast_provenance_does_not_block_store(self):
        """Provenance is not taint: a session check answered entirely from
        pure layers and (fresh-derived) cache entries is itself pure and
        must be stored, even when a hit component's stored stages mention
        'bitblast' (regression: the provenance string wrongly marked the
        derivation session-tainted)."""
        cache = SolverCache()
        fresh = PortfolioSolver(_stress_config(), cache=cache)
        x = b.bv_var("prov_x", WIDTH)
        y = b.bv_var("prov_y", WIDTH)
        exact_byte = b.eq(b.bvand(x, b.bv_const(0xFF, WIDTH)), b.bv_const(0x3C, WIDTH))
        cold = fresh.check([exact_byte])
        assert cold.reason == "bitblast"  # component stored with that stage

        solver = PortfolioSolver(_stress_config(), cache=cache)
        session = solver.open_session()
        session.push(exact_byte)
        session.push(b.ult(y, b.bv_const(10, WIDTH)))
        first = session.check()
        assert first.is_sat
        # The whole-query verdict was stored: an identical later query hits.
        again = PortfolioSolver(_stress_config(), cache=cache).check(
            [exact_byte, b.ult(y, b.bv_const(10, WIDTH))]
        )
        assert again.reason == "cache"

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


class TestComponentKeyConvention:
    def test_tiebreak_sensitive_components_share_across_embeddings(self):
        """First-application canonicalization is not a normal form (the
        commutative tiebreak compares the names the rename just changed),
        so component keys must come from re-canonicalization everywhere —
        a standalone query and a multi-component embedding of the same
        logical component have to land on one shared entry."""
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x, y, z = (b.bv_var(n, WIDTH) for n in ("tb_x", "tb_y", "tb_z"))
        # ult(y, x) renames y first, flipping the add's name-tiebreak order
        # relative to the original x/y names.
        component = [
            b.ult(y, x),
            b.eq(b.add(x, y), b.bv_const(10, WIDTH)),
        ]
        standalone = solver.check(component)
        assert standalone.is_sat
        hits_before = cache.stats.component_hits
        embedded = solver.check(component + [b.ult(z, b.bv_const(5, WIDTH))])
        assert embedded.is_sat
        assert cache.stats.component_hits > hits_before


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
