"""Tests for the shared solver-result cache (:mod:`repro.smt.cache`).

The central property: a :class:`PortfolioSolver` backed by a cache is
*observationally equivalent* to an uncached one — same SAT/UNSAT/UNKNOWN
verdicts, and every SAT model it returns satisfies the original
constraints — for arbitrary constraint systems, across alpha-renamings,
and regardless of how many queries warmed the cache first.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.cache import CachedVerdict, SolverCache
from repro.smt.evalmodel import satisfies
from repro.smt.solver import PortfolioSolver, SolverStatus
from repro.smt.terms import Term

WIDTH = 8
VALUE = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


def _leaf_terms(names):
    return st.one_of(
        VALUE.map(lambda v: b.bv_const(v, WIDTH)),
        st.sampled_from(names).map(lambda n: b.bv_var(n, WIDTH)),
    )


def _binary_ops():
    return st.sampled_from([b.add, b.sub, b.mul, b.bvand, b.bvor, b.bvxor])


@st.composite
def bv_terms(draw, names=("x", "y", "z"), max_depth=3):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    if depth == 0:
        return draw(_leaf_terms(names))
    op = draw(_binary_ops())
    return op(
        draw(bv_terms(names=names, max_depth=depth - 1)),
        draw(bv_terms(names=names, max_depth=depth - 1)),
    )


@st.composite
def constraint_systems(draw, names=("x", "y", "z")):
    comparisons = st.sampled_from([b.ult, b.ule, b.eq, b.ne, b.ugt, b.uge])
    count = draw(st.integers(min_value=1, max_value=3))
    return [
        draw(comparisons)(
            draw(bv_terms(names=names)), draw(bv_terms(names=names))
        )
        for _ in range(count)
    ]


def _assert_model_satisfies(model, system):
    """Check a SAT model against ``system``, completing unassigned variables.

    The portfolio may return a partial model when simplification removed a
    variable entirely (the variable is then unconstrained, so any completion
    must work — zero is as good as any).
    """
    completed = model.copy()
    for constraint in system:
        for variable in constraint.variables():
            if variable not in completed:
                completed[variable] = 0
    assert all(satisfies(c, completed) for c in system)


class TestObservationalEquivalence:
    @given(system=constraint_systems())
    @settings(max_examples=60, deadline=None)
    def test_cached_solver_matches_uncached_verdicts(self, system):
        uncached = PortfolioSolver().check(system)
        cached = PortfolioSolver(cache=SolverCache()).check(system)
        assert cached.status == uncached.status
        if cached.is_sat:
            _assert_model_satisfies(cached.model, system)
        if uncached.is_sat:
            _assert_model_satisfies(uncached.model, system)

    @given(system=constraint_systems())
    @settings(max_examples=40, deadline=None)
    def test_warm_cache_answers_match_cold_answers(self, system):
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        cold = solver.check(system)
        warm = solver.check(system)
        assert warm.status == cold.status
        if cold.reason != "simplify":
            # Trivially decided queries never reach the cache layer.
            assert warm.reason == "cache"
        if warm.is_sat and cold.is_sat:
            assert warm.model.as_dict() == cold.model.as_dict()

    @given(system=constraint_systems(names=("x", "y", "z")))
    @settings(max_examples=40, deadline=None)
    def test_alpha_renamed_queries_share_verdicts(self, system):
        """A renamed copy of the system hits the cache with the same verdict,
        and the translated model satisfies the renamed constraints."""
        renaming = {"x": "p", "y": "q", "z": "r"}
        renamed = [_rename(c, renaming) for c in system]
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        original = solver.check(system)
        mirrored = solver.check(renamed)
        assert mirrored.status == original.status
        if original.reason != "simplify":
            assert cache.stats.hits >= 1
        if mirrored.is_sat:
            _assert_model_satisfies(mirrored.model, renamed)


def _rename(term: Term, renaming) -> Term:
    if term.is_var:
        return Term.make(
            term.kind, (), width=term.width, name=renaming[str(term.name)]
        )
    if not term.args:
        return term
    return Term.make(
        term.kind,
        tuple(_rename(a, renaming) for a in term.args),
        width=term.width,
        value=term.value,
        name=term.name,
        params=term.params,
    )


class TestCanonicalization:
    def test_alpha_equivalent_systems_share_one_key(self):
        cache = SolverCache()
        x, y = b.bv_var("x", 32), b.bv_var("y", 32)
        p, q = b.bv_var("p", 32), b.bv_var("q", 32)
        first = cache.canonicalize([b.ult(x, y)], fingerprint=())
        second = cache.canonicalize([b.ult(p, q)], fingerprint=())
        assert first.key == second.key

    def test_different_structure_gets_different_keys(self):
        cache = SolverCache()
        x, y = b.bv_var("x", 32), b.bv_var("y", 32)
        assert (
            cache.canonicalize([b.ult(x, y)], fingerprint=()).key
            != cache.canonicalize([b.ule(x, y)], fingerprint=()).key
        )

    def test_variable_width_is_part_of_the_key(self):
        cache = SolverCache()
        narrow = b.bv_var("x", 8)
        wide = b.bv_var("x", 32)
        assert (
            cache.canonicalize([b.eq(narrow, b.bv_const(1, 8))], fingerprint=()).key
            != cache.canonicalize([b.eq(wide, b.bv_const(1, 32))], fingerprint=()).key
        )

    def test_conjunct_order_is_part_of_the_key(self):
        """Conjunct order can steer which model the portfolio returns, so
        reordered systems must not be conflated."""
        cache = SolverCache()
        x = b.bv_var("x", 32)
        first = b.ult(x, b.bv_const(10, 32))
        second = b.ugt(x, b.bv_const(2, 32))
        assert (
            cache.canonicalize([first, second], fingerprint=()).key
            != cache.canonicalize([second, first], fingerprint=()).key
        )

    def test_fingerprint_separates_solver_configurations(self):
        cache = SolverCache()
        x = b.bv_var("x", 32)
        system = [b.ult(x, b.bv_const(10, 32))]
        assert (
            cache.canonicalize(system, fingerprint=("a",)).key
            != cache.canonicalize(system, fingerprint=("b",)).key
        )

    def test_model_translation_restores_caller_names(self):
        cache = SolverCache()
        p, q = b.bv_var("p", 32), b.bv_var("q", 32)
        system = cache.canonicalize([b.ult(p, q)], fingerprint=())
        from repro.smt.evalmodel import Model

        translated = system.translate_model(Model({"v000": 1, "v001": 2}))
        assert translated.as_dict() == {"p": 1, "q": 2}


class TestCacheStore:
    def test_hit_and_miss_counters(self):
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x = b.bv_var("x", 32)
        system = [b.ult(x, b.bv_const(10, 32))]
        solver.check(system)
        solver.check(system)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate() == pytest.approx(0.5)

    def test_max_entries_bounds_the_store(self):
        cache = SolverCache(max_entries=1)
        solver = PortfolioSolver(cache=cache)
        x = b.bv_var("x", 32)
        solver.check([b.ult(x, b.bv_const(10, 32))])
        solver.check([b.ult(x, b.bv_const(20, 32))])
        assert len(cache) == 1

    def test_eviction_is_fifo_and_counted(self):
        """At capacity the *oldest* entry is evicted; newer ones survive."""
        cache = SolverCache(max_entries=2)
        solver = PortfolioSolver(cache=cache)
        x = b.bv_var("x", 32)
        systems = [
            [b.ult(x, b.bv_const(bound, 32))] for bound in (10, 20, 30)
        ]
        for system in systems:
            solver.check(system)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.stats.stores == 3
        # The first system was evicted: querying it again misses and
        # re-stores; the third (newest) still hits.
        hits_before = cache.stats.hits
        solver.check(systems[2])
        assert cache.stats.hits == hits_before + 1
        misses_before = cache.stats.misses
        solver.check(systems[0])
        assert cache.stats.misses == misses_before + 1

    def test_evicted_entries_disappear_from_snapshots(self):
        cache = SolverCache(max_entries=1)
        solver = PortfolioSolver(cache=cache)
        x = b.bv_var("x", 32)
        solver.check([b.ult(x, b.bv_const(10, 32))])
        solver.check([b.ult(x, b.bv_const(20, 32))])
        snapshot = cache.entries_snapshot()
        assert len(snapshot) == 1

    def test_zero_max_entries_stores_nothing_without_crashing(self):
        """``max_entries=0`` means "keep nothing", not an eviction loop on
        an empty dict."""
        cache = SolverCache(max_entries=0)
        solver = PortfolioSolver(cache=cache)
        x = b.bv_var("x", 32)
        result = solver.check([b.ult(x, b.bv_const(10, 32))])
        assert result.is_sat
        assert len(cache) == 0
        assert cache.stats.stores == 0
        cache.merge_canonical(
            ("fp",),
            (b.ult(b.bv_var("v000", 32), b.bv_const(3, 32)),),
            CachedVerdict(status="unsat", canonical_model=None, reason=""),
        )
        assert len(cache) == 0
        assert cache.stats.merged == 0

    def test_merge_respects_the_entry_bound(self):
        cache = SolverCache(max_entries=1)
        for index in range(3):
            x = b.bv_var("v000", 8)
            cache.merge_canonical(
                ("fp",),
                (b.eq(x, b.bv_const(index, 8)),),
                CachedVerdict(status="unsat", canonical_model=None, reason=""),
            )
        assert len(cache) == 1
        assert cache.stats.merged == 3
        assert cache.stats.evictions == 2

    def test_unsat_verdicts_are_shared(self):
        """Blocking-check systems over renamed fields share one UNSAT proof.

        The renaming (w -> v, h -> u) preserves the relative name order
        (h < w, u < v) — the class of renamings the canonicalizer
        guarantees to unify.
        """
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        w, h = b.bv_var("w", 32), b.bv_var("h", 32)
        v, u = b.bv_var("v", 32), b.bv_var("u", 32)
        wide = lambda a, c: b.mul(b.zext(a, 64), b.zext(c, 64))
        first = [
            b.ugt(wide(w, h), b.bv_const(0xFFFFFFFF, 64)),
            b.ult(w, b.bv_const(1154, 32)),
            b.ult(h, b.bv_const(1000, 32)),
        ]
        second = [
            b.ugt(wide(v, u), b.bv_const(0xFFFFFFFF, 64)),
            b.ult(v, b.bv_const(1154, 32)),
            b.ult(u, b.bv_const(1000, 32)),
        ]
        assert solver.check(first).is_unsat
        mirrored = solver.check(second)
        assert mirrored.is_unsat
        assert mirrored.reason == "cache"

    def test_concurrent_stats_counters_stay_consistent(self):
        """Hit/miss/store counters under many workers racing on a mix of
        shared and distinct systems: every lookup is counted exactly once,
        and the invariants hold regardless of interleaving."""
        cache = SolverCache()
        x, y = b.bv_var("x", 16), b.bv_var("y", 16)
        systems = [
            [b.ult(x, b.bv_const(bound, 16))] for bound in (5, 9, 13, 17)
        ] + [[b.ugt(b.add(x, y), b.bv_const(40, 16))]]
        queries_per_worker = 10
        workers = 8

        def worker(index):
            solver = PortfolioSolver(cache=cache)
            for i in range(queries_per_worker):
                solver.check(systems[(index + i) % len(systems)])

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats
        assert stats.lookups == workers * queries_per_worker
        assert stats.hits + stats.misses == stats.lookups
        # Each distinct system is solved at least once; races may solve one
        # several times (idempotent stores), so stores is bounded below by
        # the system count and above by the miss count.
        assert len(systems) <= stats.stores <= stats.misses
        assert len(cache) == len(systems)

    def test_external_stats_are_folded_in(self):
        """The process backend folds worker-side counter deltas into the
        campaign cache so aggregate hit rates reflect worker lookups."""
        cache = SolverCache()
        cache.add_external_stats(
            {"hits": 7, "misses": 3, "stores": 2, "invalid_hits": 1}
        )
        cache.add_external_stats(
            {"hits": 3, "misses": 2, "stores": 1, "invalid_hits": 0}
        )
        assert cache.stats.hits == 10
        assert cache.stats.misses == 5
        assert cache.stats.stores == 3
        assert cache.stats.invalid_hits == 1
        assert cache.stats.lookups == 15
        assert cache.stats.hit_rate() == pytest.approx(10 / 15)

    def test_stats_snapshot_round_trips_through_external_stats(self):
        """A worker's snapshot names the eleven counters that travel; the
        table-local ones (merged, evictions) stay behind."""
        worker = SolverCache()
        for offset, name in enumerate(
            ("hits", "misses", "stores", "invalid_hits", "component_hits",
             "component_misses", "component_stores", "core_hits",
             "core_stores", "cnf_hits", "cnf_stores", "merged", "evictions",
             "component_evictions")
        ):
            setattr(worker.stats, name, offset + 1)
        snapshot = worker.stats_snapshot()
        assert len(snapshot) == 11
        assert not {"merged", "evictions", "component_evictions"} & set(snapshot)
        parent = SolverCache()
        parent.add_external_stats(snapshot)
        for name, value in snapshot.items():
            assert getattr(parent.stats, name) == value
        assert parent.stats.merged == parent.stats.evictions == 0

    def test_concurrent_queries_are_consistent(self):
        cache = SolverCache()
        x, y = b.bv_var("x", 16), b.bv_var("y", 16)
        system = [
            b.ugt(b.mul(b.zext(x, 32), b.zext(y, 32)), b.bv_const(0xFFFF, 32))
        ]
        results = []

        def worker():
            solver = PortfolioSolver(cache=cache)
            results.append(solver.check(system))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        statuses = {result.status for result in results}
        assert statuses == {SolverStatus.SAT}
        models = {tuple(sorted(result.model.as_dict().items())) for result in results}
        assert len(models) == 1
