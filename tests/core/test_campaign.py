"""Tests for the parallel analysis campaign engine.

The contract under test: a campaign is just a faster way to run the
pipeline — parallel and serial modes, cached and uncached, all produce
exactly the classifications the plain serial ``Diode.analyze`` path
produces, for every registered application and any worker count.
"""

from __future__ import annotations

import pytest

from repro.apps import all_applications, application_names
from repro.core import Diode
from repro.core.campaign import (
    CampaignConfig,
    CampaignEngine,
    CampaignResult,
    run_campaign,
)
from repro.core.report import SiteClassification
from repro.smt import builder as b
from repro.smt.evalmodel import Model
from repro.smt.solver import PortfolioSolver, SolverResult, SolverStatus


@pytest.fixture(scope="module")
def serial_reference():
    """site classifications from the plain serial Diode path."""
    engine = Diode()
    reference = {}
    for application in all_applications():
        result = engine.analyze(application)
        reference[result.application] = {
            site.site.name: site.classification.value
            for site in result.site_results
        }
    return reference


@pytest.fixture(scope="module")
def cached_parallel_result():
    return run_campaign(CampaignConfig(jobs=4, use_cache=True))


class TestEquivalenceWithSerialPath:
    def test_serial_uncached_campaign_matches_diode(self, serial_reference):
        result = run_campaign(CampaignConfig(jobs=1, use_cache=False))
        assert result.classifications() == serial_reference

    def test_serial_cached_campaign_matches_diode(self, serial_reference):
        result = run_campaign(CampaignConfig(jobs=1, use_cache=True))
        assert result.classifications() == serial_reference

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_cached_campaign_matches_diode(
        self, serial_reference, backend
    ):
        result = run_campaign(
            CampaignConfig(jobs=2, use_cache=True, backend=backend)
        )
        assert result.backend == backend
        assert result.classifications() == serial_reference

    def test_every_registered_application_is_covered(self, cached_parallel_result):
        analyzed = {
            result.application
            for result in cached_parallel_result.application_results
        }
        expected = {app.name for app in all_applications()}
        assert analyzed == expected


class TestDeterminismAcrossWorkerCounts:
    @pytest.mark.parametrize("jobs", [1, 2, 4, 8])
    def test_worker_count_does_not_change_classifications(
        self, jobs, cached_parallel_result
    ):
        result = run_campaign(CampaignConfig(jobs=jobs, use_cache=True))
        assert (
            result.classifications() == cached_parallel_result.classifications()
        )

    def test_worker_count_does_not_change_query_count(
        self, cached_parallel_result
    ):
        """The number of solver queries is a property of the (deterministic)
        enforcement paths, not of scheduling.  Hit/miss *splits* may differ
        slightly across worker counts — two workers can race on the same
        canonical key and both solve it (idempotent stores) — but the total
        lookup count and the presence of reuse are invariant."""
        result = run_campaign(CampaignConfig(jobs=2, use_cache=True))
        reference = cached_parallel_result.cache_stats
        assert result.cache_stats.lookups == reference.lookups
        assert result.cache_stats.hits > 0

    def test_bug_reports_are_stable(self, cached_parallel_result):
        result = run_campaign(CampaignConfig(jobs=3, use_cache=True))
        key = lambda r: (r.application, r.target, r.cve, r.error_type)
        assert sorted(map(key, result.bug_reports())) == sorted(
            map(key, cached_parallel_result.bug_reports())
        )


class TestCampaignResult:
    def test_table1_totals_add_up(self, cached_parallel_result):
        totals = cached_parallel_result.table1_totals()
        assert totals["total_target_sites"] == cached_parallel_result.unit_count
        assert totals["total_target_sites"] == sum(
            row["total_target_sites"]
            for row in cached_parallel_result.table1_rows()
        )
        accounted = (
            totals["diode_exposes_overflow"]
            + totals["target_constraint_unsatisfiable"]
            + totals["sanity_checks_prevent_overflow"]
        )
        assert accounted <= totals["total_target_sites"]

    def test_cache_is_exercised(self, cached_parallel_result):
        stats = cached_parallel_result.cache_stats
        assert stats is not None
        assert stats.hits > 0
        assert stats.hit_rate() > 0.0

    def test_cache_stats_count_whole_query_lookups(self, cached_parallel_result):
        """The reported counters are the whole-query table's, the cache's
        only one: every store follows a miss (or an invalid hit)."""
        stats = cached_parallel_result.cache_stats
        reported = stats.as_dict()
        assert set(reported) == {
            "hits",
            "misses",
            "stores",
            "invalid_hits",
            "merged",
            "hit_rate",
        }
        assert reported["hits"] + reported["misses"] == stats.lookups > 0
        assert 0 < stats.stores <= stats.misses + stats.invalid_hits

    def test_uncached_run_reports_no_stats(self):
        result = run_campaign(
            CampaignConfig(jobs=1, use_cache=False, applications=["vlc"])
        )
        assert result.cache_stats is None
        assert result.cache_enabled is False

    def test_site_results_preserve_site_order(self, cached_parallel_result):
        from repro.core.sites import identify_target_sites

        for application in all_applications():
            sites = identify_target_sites(
                application.program, application.seed_input
            )
            campaign_app = next(
                result
                for result in cached_parallel_result.application_results
                if result.application == application.name
            )
            assert [s.site.name for s in campaign_app.site_results] == [
                site.name for site in sites
            ]

    def test_every_site_is_classified(self, cached_parallel_result):
        for app_result in cached_parallel_result.application_results:
            for site_result in app_result.site_results:
                assert isinstance(
                    site_result.classification, SiteClassification
                )


class TestCampaignConfig:
    def test_application_subset(self):
        result = run_campaign(
            CampaignConfig(jobs=1, applications=["vlc", "cwebp"])
        )
        assert [r.application for r in result.application_results] == [
            "VLC 0.8.6h",
            "CWebP 0.3.1",
        ]

    def test_jobs_are_clamped_to_at_least_one(self):
        assert CampaignConfig(jobs=0).resolved_jobs() == 1
        assert CampaignConfig(jobs=-3).resolved_jobs() == 1

    def test_default_jobs_follow_cpu_count(self):
        assert CampaignConfig().resolved_jobs() >= 1

    def test_registry_names_are_valid(self):
        # The config surface accepts exactly the registry's short names.
        for name in application_names():
            result = run_campaign(
                CampaignConfig(jobs=1, use_cache=False, applications=[name])
            )
            assert isinstance(result, CampaignResult)
            assert len(result.application_results) == 1


class TestSessionOracle:
    """Every session check of a serial registry campaign agrees with an
    independent uncached one-shot check of the same conjuncts.  Every
    UNSAT verdict carries a core except the cache's hits (cores are never
    cached): 5 of the 26 with the cache on."""

    @pytest.mark.parametrize("use_cache, cores", [(True, 21), (False, 26)])
    def test_every_session_check_matches_a_one_shot_check(
        self, session_oracle, serial_reference, use_cache, cores
    ):
        result = run_campaign(
            CampaignConfig(jobs=1, backend="serial", use_cache=use_cache)
        )
        assert result.classifications() == serial_reference
        assert session_oracle.problems == []
        assert session_oracle.checks == 75
        assert dict(session_oracle.statuses) == {"sat": 49, "unsat": 26}
        assert session_oracle.cores == cores

    def test_the_oracle_flags_planted_faults(self, session_oracle):
        x = b.bv_var("x", 8)
        session = PortfolioSolver().open_session()
        session.push(b.ult(x, b.bv_const(10, 8)))
        foreign = b.ugt(x, b.bv_const(200, 8))
        session.check()
        assert (session_oracle.checks, session_oracle.problems) == (1, [])
        for planted in (
            SolverResult(SolverStatus.SAT, model=Model({"x": 20})),
            SolverResult(SolverStatus.UNSAT, unsat_core=(foreign,)),
        ):
            session_oracle.record(session, planted)
        kinds = [problem[0] for problem in session_oracle.problems]
        assert kinds == ["model", "status", "core"]


class TestCanonicalizationCount:
    def test_every_lookup_canonicalizes_once(self, monkeypatch):
        """One canonicalization per cache lookup (74 on the registry):
        a miss solves the canonical conjuncts as they are, with no second
        canonical form."""
        from repro.smt.cache import SolverCache

        calls = []
        original = SolverCache.canonicalize

        def counting(self, conjuncts, fingerprint):
            calls.append(1)
            return original(self, conjuncts, fingerprint)

        monkeypatch.setattr(SolverCache, "canonicalize", counting)
        result = run_campaign(CampaignConfig(jobs=1, backend="serial"))
        assert len(calls) == result.cache_stats.lookups == 74

    def test_every_portfolio_run_propagates_intervals_once(self, monkeypatch):
        """The heuristics layer draws its candidates from the interval
        layer's box instead of propagating again: one propagation per
        portfolio run (63 on the registry, one per cache miss)."""
        from repro.smt import heuristics, solver
        from repro.smt.interval import propagate_intervals

        runs, propagations = [], []
        original_run = solver.PortfolioSolver._run_portfolio

        def counting_run(self, *args, **kwargs):
            runs.append(1)
            return original_run(self, *args, **kwargs)

        def counting_propagate(*args, **kwargs):
            propagations.append(1)
            return propagate_intervals(*args, **kwargs)

        monkeypatch.setattr(solver.PortfolioSolver, "_run_portfolio", counting_run)
        for module in (solver, heuristics):
            monkeypatch.setattr(module, "propagate_intervals", counting_propagate)
        result = run_campaign(CampaignConfig(jobs=1, backend="serial"))
        assert len(propagations) == len(runs) == result.cache_stats.misses == 63
