"""Tests for seed-path groups (:mod:`repro.core.group`).

Sites of one application with the same relevant bytes form one campaign
unit and share one concolic run, one set of compressed branch constraints
and one witness run per distinct enforcement candidate.  The counts below
are exact on the registry: 40 sites in 30 groups, 49 enforcement screens
over 35 distinct candidates, and triage's 31 witness runs untouched.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro.core.engine as engine_module
from repro.apps import get_application
from repro.core import Diode
from repro.core import group as group_module
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.detection import ErrorDetector
from repro.core.enforcement import GoalDirectedEnforcer
from repro.core.fieldmap import FieldMapper
from repro.core.group import SeedPathGroup, seed_path_groups
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.exec.concrete import ConcreteInterpreter
from repro.obs.metrics import METRICS, counter_value
from repro.sched import UnitAnalysisError
from repro.sched import context as context_module
from repro.sched.context import build_application_context
from repro.triage.engine import WitnessTriager

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patched counters reach workers only under the fork start method",
)


@pytest.fixture(scope="module")
def dillo():
    application = get_application("dillo")
    sites = identify_target_sites(application.program, application.seed_input)
    return application, sites


class TestGrouping:
    def test_dillo_sites_share_six_seed_paths(self, dillo):
        _, sites = dillo
        groups = seed_path_groups(sites)
        assert groups == [(0, 4, 7), (1, 2), (3, 6, 8), (5,), (9,), (10, 11)]
        for members in groups:
            assert len({sites[index].relevant_bytes for index in members}) == 1

    def test_only_the_given_indices_are_grouped(self, dillo):
        _, sites = dillo
        assert seed_path_groups(sites, [4, 1, 7, 2]) == [(4, 7), (1, 2)]

    def test_one_concolic_run_serves_every_site_of_a_group(self, dillo):
        application, sites = dillo
        mapper = FieldMapper(application.format_spec)
        members = [sites[index] for index in (0, 4, 7)]
        shared = extract_target_observations(
            application.program, application.seed_input, members, mapper, 2
        )
        for site, observations in zip(members, shared):
            alone = extract_target_observations(
                application.program, application.seed_input, site, mapper, 2
            )
            assert [o.size_expression for o in observations] == [
                o.size_expression for o in alone
            ]
            assert all(o.site is site for o in observations)
        paths = {id(o.seed_path) for per_site in shared for o in per_site}
        assert len(paths) == 1

    def test_sites_with_different_relevant_bytes_are_refused(self, dillo):
        application, sites = dillo
        with pytest.raises(ValueError, match="share relevant bytes"):
            extract_target_observations(
                application.program, application.seed_input, [sites[0], sites[1]]
            )

    def test_branch_constraints_are_built_once_per_seed_path(self, dillo):
        application, sites = dillo
        group = SeedPathGroup([sites[0]])
        mapper = FieldMapper(application.format_spec)
        observation = group.observations(
            sites[0], application.program, application.seed_input, mapper, 2
        )[0]
        first = group.branch_constraints(observation.seed_path)
        assert isinstance(first, tuple)
        assert group.branch_constraints(observation.seed_path) is first


class TestReportMemo:
    def test_a_memoized_candidate_is_not_run_again(self, dillo, monkeypatch):
        application, sites = dillo
        detector = ErrorDetector(application.program, application.seed_input)
        runs = []
        original = ConcreteInterpreter.run

        def counting(self, *args, **kwargs):
            runs.append(type(self).__name__)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ConcreteInterpreter, "run", counting)
        memo = {}
        seed = application.seed_input
        plain = [detector.evaluate(seed, site.site_label) for site in sites[:2]]
        assert len(runs) == 2
        memoized = [
            detector.evaluate(seed, site.site_label, memo) for site in sites[:2]
        ]
        assert len(runs) == 3
        assert list(memo) == [seed]
        assert memoized == plain


def _count_unit_work(monkeypatch):
    """Count unit-side runs into ``METRICS`` as ``test.*`` counters.

    Counters travel back from process workers with each unit's metrics
    delta, so the same patch counts work on every backend.
    """
    active = {"enforce": 0, "triage": 0}
    original_run = ConcreteInterpreter.run
    original_extract = group_module.extract_target_observations
    original_evaluate = ErrorDetector.evaluate
    original_enforce = GoalDirectedEnforcer.run
    original_triage = WitnessTriager.triage

    def run(self, *args, **kwargs):
        kind = type(self).__name__
        if kind == "ConcolicInterpreter":
            METRICS.counter("test.runs.concolic").inc()
        elif kind == "OverflowWitnessInterpreter":
            for caller, depth in active.items():
                if depth:
                    METRICS.counter(f"test.runs.witness.{caller}").inc()
        return original_run(self, *args, **kwargs)

    def extract(*args, **kwargs):
        METRICS.counter("test.extract_target_observations").inc()
        return original_extract(*args, **kwargs)

    def evaluate(self, *args, **kwargs):
        if active["enforce"]:
            METRICS.counter("test.evaluate.enforce").inc()
        return original_evaluate(self, *args, **kwargs)

    def scoped(caller, original):
        def wrapper(*args, **kwargs):
            active[caller] += 1
            try:
                return original(*args, **kwargs)
            finally:
                active[caller] -= 1

        return wrapper

    monkeypatch.setattr(ConcreteInterpreter, "run", run)
    monkeypatch.setattr(group_module, "extract_target_observations", extract)
    monkeypatch.setattr(ErrorDetector, "evaluate", evaluate)
    monkeypatch.setattr(GoalDirectedEnforcer, "run", scoped("enforce", original_enforce))
    monkeypatch.setattr(WitnessTriager, "triage", scoped("triage", original_triage))


_COUNTS = (
    "test.runs.concolic",
    "test.extract_target_observations",
    "test.runs.witness.enforce",
    "test.evaluate.enforce",
    "test.runs.witness.triage",
)


def _counts(result):
    return {name: counter_value(result.metrics, name) for name in _COUNTS}


class TestRunCounts:
    def test_serial_registry_campaign_runs_each_seed_path_once(self, monkeypatch):
        _count_unit_work(monkeypatch)
        result = run_campaign(CampaignConfig(backend="serial", jobs=1))
        assert result.unit_count == 40
        assert _counts(result) == {
            # 40 -> 30: one concolic run per seed-path group.
            "test.runs.concolic": 30,
            "test.extract_target_observations": 30,
            # 49 -> 35: one witness run per distinct candidate of a group.
            "test.runs.witness.enforce": 35,
            # Every candidate is still screened, and triage does not share.
            "test.evaluate.enforce": 49,
            "test.runs.witness.triage": 31,
        }

    @needs_fork
    def test_process_backend_counts_equal_serial(self, monkeypatch):
        _count_unit_work(monkeypatch)
        apps = ["dillo", "swfplay"]
        serial = run_campaign(
            CampaignConfig(backend="serial", jobs=1, applications=apps)
        )
        process = run_campaign(
            CampaignConfig(backend="process", jobs=2, applications=apps)
        )
        assert process.classifications() == serial.classifications()
        assert _counts(process) == _counts(serial)
        assert _counts(serial)["test.runs.concolic"] == 6 + 6

    @needs_fork
    def test_process_counts_equal_serial_after_a_warm_analysis_table(
        self, monkeypatch
    ):
        """The parent's process-lifetime analyses (taint run, sites, seed
        run) are warm before the counting starts and reach the workers by
        fork; the unit-side counts still agree."""
        apps = ["dillo", "swfplay"]
        run_campaign(CampaignConfig(backend="serial", jobs=1, applications=apps))
        _count_unit_work(monkeypatch)
        serial = run_campaign(
            CampaignConfig(backend="serial", jobs=1, applications=apps)
        )
        process = run_campaign(
            CampaignConfig(backend="process", jobs=2, applications=apps)
        )
        assert process.classifications() == serial.classifications()
        assert _counts(process) == _counts(serial)
        assert _counts(serial)["test.runs.concolic"] == 6 + 6

    def test_diode_analyze_shares_the_group_work(self, monkeypatch):
        _count_unit_work(monkeypatch)
        mark = METRICS.snapshot()
        Diode().analyze(get_application("dillo"))
        delta = METRICS.delta(mark)
        assert counter_value(delta, "test.runs.concolic") == 6

    def test_the_concolic_run_happens_in_the_first_site_of_its_group(
        self, dillo, monkeypatch
    ):
        """Discovery time stays honest: the shared run is charged to the
        first site that needs it, not hoisted out of every site."""
        _, sites = dillo
        current = []
        charged = {}
        original_analyze = engine_module.analyze_site
        original_run = ConcreteInterpreter.run

        def analyze(application, site, *args, **kwargs):
            current.append(site.name)
            try:
                return original_analyze(application, site, *args, **kwargs)
            finally:
                current.pop()

        def run(self, *args, **kwargs):
            if type(self).__name__ == "ConcolicInterpreter":
                charged[current[-1]] = charged.get(current[-1], 0) + 1
            return original_run(self, *args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_site", analyze)
        monkeypatch.setattr(ConcreteInterpreter, "run", run)
        run_campaign(CampaignConfig(backend="serial", jobs=1, applications=["dillo"]))
        firsts = {sites[members[0]].name for members in seed_path_groups(sites)}
        assert charged == {name: 1 for name in firsts}


class TestApplicationAnalyses:
    def test_a_second_serial_campaign_makes_no_taint_run(self, monkeypatch):
        """Each application's taint run, site list and seed run happen once
        per process; a later campaign builds fresh contexts around them."""
        monkeypatch.setattr(context_module, "_ANALYSES", {})
        runs = []
        original_run = ConcreteInterpreter.run

        def run(self, *args, **kwargs):
            runs.append(type(self).__name__)
            return original_run(self, *args, **kwargs)

        monkeypatch.setattr(ConcreteInterpreter, "run", run)
        first = run_campaign(CampaignConfig(backend="serial", jobs=1))
        assert runs.count("TaintInterpreter") == 5
        del runs[:]
        second = run_campaign(CampaignConfig(backend="serial", jobs=1))
        assert runs.count("TaintInterpreter") == 0
        assert second.classifications() == first.classifications()
        assert [r.analysis_seconds for r in second.application_results] == [
            r.analysis_seconds for r in first.application_results
        ]

    def test_each_campaign_gets_its_own_context(self, monkeypatch):
        monkeypatch.setattr(context_module, "_ANALYSES", {})
        first = build_application_context(0, get_application("dillo"))
        second = build_application_context(3, get_application("dillo"))
        assert (first.index, second.index) == (0, 3)
        assert second is not first
        assert second.application is not first.application
        assert second.mapper is not first.mapper
        assert second.sites is not first.sites
        assert second.sites == first.sites
        assert second.detector is first.detector


class TestGroupFailure:
    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("process", marks=needs_fork)]
    )
    def test_failure_in_a_groups_second_site_names_that_site(
        self, dillo, backend, monkeypatch
    ):
        _, sites = dillo
        first, second = (sites[index].name for index in seed_path_groups(sites)[0][:2])
        analyzed = []
        original = engine_module.analyze_site

        def exploding(application, site, *args, **kwargs):
            analyzed.append(site.name)
            if site.name == second:
                raise RuntimeError("second site fails")
            return original(application, site, *args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_site", exploding)
        with pytest.raises(UnitAnalysisError) as info:
            run_campaign(
                CampaignConfig(backend=backend, jobs=1, applications=["dillo"])
            )
        error = info.value
        assert error.site_name == second
        assert error.application_name == "Dillo 2.1"
        assert second in str(error)
        assert isinstance(error.__cause__, RuntimeError)
        assert "second site fails" in repr(error.__cause__)
        if backend == "serial":
            assert analyzed[:2] == [first, second]
