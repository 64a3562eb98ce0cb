"""Tests for the shared solver-result cache (:mod:`repro.smt.cache`).

The central property: a :class:`PortfolioSolver` backed by a cache is
*observationally equivalent* to an uncached one — same SAT/UNSAT/UNKNOWN
verdicts, and every SAT model it returns satisfies the original
constraints — for arbitrary constraint systems, across alpha-renamings,
and regardless of how many queries warmed the cache first.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.smt import builder as b
from repro.smt import cache as cache_module
from repro.smt.cache import SolverCache
from repro.smt.evalmodel import satisfies
from repro.smt.solver import PortfolioSolver, SolverConfig, SolverStatus
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


class TestCanonicalFormOnTheTerm:
    """The normal form and structural key live on the interned term, so a
    second cache (a later campaign in the same process) reuses them."""

    @staticmethod
    def _system():
        x, y, z = (b.bv_var(name, 16) for name in ("slot_x", "slot_y", "slot_z"))
        return [
            b.ugt(b.mul(b.add(z, y), b.add(y, x)), b.bv_const(9000, 16)),
            b.eq(b.bvxor(b.bvand(x, z), y), b.bv_const(5, 16)),
            b.ult(b.add(b.add(x, b.bv_const(3, 16)), z), b.bv_const(700, 16)),
        ]

    def test_a_fresh_cache_normalizes_seen_terms_without_building_any(
        self, monkeypatch
    ):
        system = self._system()
        first = SolverCache().canonicalize(system, fingerprint=())
        assert all(term._normalized is not None for term in system)

        built = []
        make = Term.make.__func__

        def counting_make(cls, *args, **kwargs):
            built.append(args)
            return make(cls, *args, **kwargs)

        monkeypatch.setattr(Term, "make", classmethod(counting_make))
        normalized = [cache_module._normalize(term) for term in system]
        assert built == []
        assert normalized == [term._normalized for term in system]
        monkeypatch.undo()

        next_id = Term._next_id
        second = SolverCache().canonicalize(system, fingerprint=())
        assert Term._next_id == next_id
        assert second.key == first.key
        assert second.conjuncts == first.conjuncts

    def test_threads_racing_on_the_slots_agree(self):
        """Eight threads (more than cores), each with its own cache,
        normalize the same unseen terms at once: every thread gets the same
        key, and each filled slot holds the interned copy of its form."""
        names = [f"race_{index}" for index in range(6)]
        variables = [b.bv_var(name, 16) for name in names]
        system = [
            b.ugt(b.mul(b.add(a, c), b.bvor(c, a)), b.bv_const(4000, 16))
            for a, c in zip(variables, reversed(variables))
        ]
        keys, errors = [], []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait(timeout=30)
                keys.append(SolverCache().canonicalize(system, fingerprint=()).key)
            except Exception as error:  # reported by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(keys) == 8 and len(set(keys)) == 1
        filled = [t for c in system for t in c.subterms() if t._normalized is not None]
        assert len(filled) > len(system)
        for term in filled:
            form = term._normalized
            assert form is Term.make(
                form.kind, form.args, form.width, form.value, form.name, form.params
            )

    def test_the_cache_keeps_no_normalization_memo_of_its_own(self):
        assert set(vars(SolverCache())) == {"_entries", "_lock", "stats"}

    def test_keys_and_store_records_repeat_under_any_hash_seed(self, tmp_path):
        """Canonical keys (intern ids in creation order) and the store
        records a cache saves are the same in every fresh interpreter."""
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        script = (
            f"import sys; sys.path.insert(0, {src_dir!r})\n"
            "import os\n"
            "from repro.smt import builder as b\n"
            "from repro.smt.cache import SolverCache\n"
            "from repro.smt.cachestore import CacheStore\n"
            "from repro.smt.solver import PortfolioSolver\n"
            "cache = SolverCache(); solver = PortfolioSolver(cache=cache)\n"
            "fp = solver.config.fingerprint()\n"
            "for names in (('w', 'h', 'd'), ('d', 'w', 'h'), ('h', 'd', 'w')):\n"
            "    w, h, d = (b.bv_var(n, 32) for n in names)\n"
            "    size = b.mul(b.zext(b.add(d, w), 64), b.zext(b.mul(h, w), 64))\n"
            "    system = [b.ugt(size, b.bv_const(0xFFFFFFFF, 64)),\n"
            "              b.ult(w, b.bv_const(70000, 32)), b.ne(b.bvand(h, d), 0)]\n"
            "    print(cache.canonicalize(system, fp).key[1], solver.check(system).status)\n"
            "target = sys.argv[1]\n"
            "print(CacheStore(target).save(cache, fp))\n"
            "for name in sorted(os.listdir(target)):\n"
            "    print(name, open(os.path.join(target, name)).read())\n"
        )

        def run(seed: str) -> str:
            completed = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / seed)],
                capture_output=True, text=True, timeout=120, check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            return completed.stdout

        first = run("0")
        assert '"k":"query"' in first
        assert run("7") == first


#: ``(owner, field, non-default value)`` for every configuration knob;
#: every knob is a :class:`SolverConfig` field (owner ``"solver"``).
_KNOB_CHANGES = [
    ("solver", "bitblast_max_conflicts", 1),
    ("solver", "heuristic_max_checks", 1),
    ("solver", "enable_unsat_cores", False),
]


class TestConfigFingerprint:
    """Cached verdicts are keyed on the configuration fingerprint, so no
    knob may be left out of it."""

    @pytest.mark.parametrize("owner, name, value", _KNOB_CHANGES)
    def test_every_knob_changes_the_fingerprint(self, owner, name, value):
        config = SolverConfig()
        assert owner == "solver"
        assert getattr(config, name) != value
        setattr(config, name, value)
        assert config.fingerprint() != SolverConfig().fingerprint()

    def test_the_knob_list_names_every_field(self):
        keyed = {(owner, name) for owner, name, _ in _KNOB_CHANGES}
        assert keyed == {("solver", f.name) for f in fields(SolverConfig)}

    def test_fingerprint_has_one_entry_per_keyed_knob(self):
        assert len(SolverConfig().fingerprint()) == len(_KNOB_CHANGES) == 3


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
        """A worker's snapshot names the four counters that travel; the
        table-local one (merged) stays behind."""
        worker = SolverCache()
        for offset, name in enumerate(
            ("hits", "misses", "stores", "invalid_hits", "merged")
        ):
            setattr(worker.stats, name, offset + 1)
        snapshot = worker.stats_snapshot()
        assert len(snapshot) == 4
        assert "merged" not in snapshot
        parent = SolverCache()
        parent.add_external_stats(snapshot)
        for name, value in snapshot.items():
            assert getattr(parent.stats, name) == value
        assert parent.stats.merged == 0

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


class TestCacheTables:
    """The one table a cache keeps, whole-query verdicts, checked
    directly."""

    FINGERPRINT = ("table-config",)

    @classmethod
    def _system(cls, bound, name="tab_x", fingerprint=None):
        x = b.bv_var(name, WIDTH)
        return SolverCache().canonicalize(
            [b.ult(x, b.bv_const(bound, WIDTH))], fingerprint or cls.FINGERPRINT
        )

    @staticmethod
    def _verdict(value, reason="test"):
        from repro.smt.cache import CachedVerdict
        from repro.smt.evalmodel import Model

        return CachedVerdict(
            status=SolverStatus.SAT,
            canonical_model=Model({"v000": value}),
            reason=reason,
        )

    def test_stats_report_query_counters_only(self):
        stats = SolverCache().stats
        assert set(stats.as_dict()) == {
            "hits",
            "misses",
            "stores",
            "invalid_hits",
            "merged",
            "hit_rate",
        }
        assert stats.lookups == 0
        assert stats.hit_rate() == 0.0

    def test_storing_twice_keeps_one_entry_with_the_latest_verdict(self):
        """A re-derivation (after an invalid hit) overwrites in place."""
        cache = SolverCache()
        system = self._system(10)
        cache.store(system, self._verdict(1, reason="first"))
        cache.store(system, self._verdict(2, reason="second"))
        assert len(cache) == 1
        assert cache.stats.stores == 2
        assert cache.lookup(system).reason == "second"

    def test_merge_keeps_the_first_writer(self):
        cache = SolverCache()
        system = self._system(10)
        cache.store(system, self._verdict(1, reason="local"))
        key = cache.merge_canonical(
            self.FINGERPRINT, system.conjuncts, self._verdict(2, reason="merged")
        )
        assert key == system.key
        assert cache.lookup(system).reason == "local"
        assert cache.stats.merged == 0

        other = self._system(20)
        cache.merge_canonical(self.FINGERPRINT, other.conjuncts, self._verdict(3))
        cache.merge_canonical(self.FINGERPRINT, other.conjuncts, self._verdict(4))
        assert cache.stats.merged == 1
        assert len(cache) == 2
        assert cache.lookup(other).canonical_model["v000"] == 3

    def test_invalid_hit_is_counted_and_rederived(self):
        """A stored model that fails verification against the caller's
        conjuncts is a miss: the query is re-derived and the entry
        overwritten, so the next lookup is a valid hit."""
        cache = SolverCache()
        solver = PortfolioSolver(cache=cache)
        x = b.bv_var("bad_x", WIDTH)
        system = [b.ult(x, b.bv_const(10, WIDTH))]
        canonical = cache.canonicalize(system, solver.config.fingerprint())
        cache.store(canonical, self._verdict(200, reason="planted"))

        result = solver.check(system)
        assert result.is_sat
        assert result.reason != "cache"
        _assert_model_satisfies(result.model, system)
        assert cache.stats.invalid_hits == 1
        assert len(cache) == 1

        again = solver.check(system)
        assert again.reason == "cache"
        _assert_model_satisfies(again.model, system)
        assert cache.stats.invalid_hits == 1
