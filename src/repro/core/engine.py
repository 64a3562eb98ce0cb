"""The DIODE front end: orchestrate the full Figure-1 pipeline.

``Diode.analyze(application)`` runs, for one benchmark application model and
its seed input:

1. target site identification (taint stage),
2. per-site target expression and branch constraint extraction (concolic
   stage restricted to the site's relevant bytes, run once per seed-path
   group of sites sharing those bytes),
3. target constraint construction and solution,
4. goal-directed conditional branch enforcement,
5. error detection and bug-report generation,

and returns an :class:`~repro.core.report.ApplicationResult` with the
per-site classifications (Table 1) and bug reports (Table 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.apps.appbase import Application
from repro.core.detection import ErrorDetector
from repro.core.enforcement import (
    EnforcementConfig,
    EnforcementOutcome,
    EnforcementResult,
    GoalDirectedEnforcer,
)
from repro.core.fieldmap import FieldMapper
from repro.core.group import SeedPathGroup, seed_path_groups
from repro.core.inputs import InputGenerator
from repro.core.report import (
    ApplicationResult,
    OverflowBugReport,
    SiteClassification,
    SiteResult,
    classification_from_enforcement,
)
from repro.core.sites import TargetSite, identify_target_sites
from repro.obs.trace import TRACER
from repro.smt.cache import SolverCache
from repro.smt.solver import PortfolioSolver, SolverConfig


@dataclass
class DiodeConfig:
    """Configuration for a DIODE analysis run.

    The whole tree is primitives-only dataclasses, so a config pickles
    cleanly into worker processes (the ``process`` execution backend ships
    one per pool initializer).
    """

    enforcement: EnforcementConfig = field(default_factory=EnforcementConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    max_observations_per_site: int = 2

    def solver_fingerprint(self) -> tuple:
        """Fingerprint of the solver knobs cached verdicts depend on.

        Keys every solver-cache entry and stamps the persistent
        :class:`~repro.smt.cachestore.CacheStore`, so verdicts never leak
        across configurations — within a run or between runs.
        """
        return self.solver.fingerprint()


def analyze_site(
    application: Application,
    site: TargetSite,
    config: Optional[DiodeConfig] = None,
    *,
    solver_cache: Optional[SolverCache] = None,
    detector: Optional[ErrorDetector] = None,
    field_mapper: Optional[FieldMapper] = None,
    group: Optional[SeedPathGroup] = None,
) -> SiteResult:
    """Run extraction + enforcement for one target site.

    ``group`` is the site's seed-path group (:mod:`repro.core.group`): the
    sites of the application with the same relevant bytes, whose concolic
    run, branch constraints and candidate witness runs are done once for
    all of them.  The first site of a group to get here runs the concolic
    stage, inside its own ``concolic`` span and discovery time; the others
    read its result.  Without a group the site forms its own.

    Apart from its group, the call reads only its arguments and shares no
    mutable state with other sites (the optional ``solver_cache`` is
    thread-safe and idempotent, and a shared ``detector`` is immutable
    after construction), and is deterministic for a given
    application/site/config: a group's shared work is a pure function of
    the application and the relevant bytes.  The campaign engine runs
    each group as one task on an execution backend's workers — threads or
    whole processes (:mod:`repro.sched`); :class:`Diode` runs them
    serially.

    Solving is incremental: the enforcer drives a
    :class:`~repro.smt.solver.SolverSession` per site (constraint deltas
    instead of rebuilt conjunction lists).
    """
    config = config or DiodeConfig()
    started = time.perf_counter()
    program = application.program
    seed = application.seed_input
    mapper = field_mapper or FieldMapper(application.format_spec)
    if group is None:
        group = SeedPathGroup([site])

    with TRACER.span("concolic", site=site.name):
        observations = group.observations(
            site, program, seed, mapper, config.max_observations_per_site
        )

    solver = PortfolioSolver(config.solver, cache=solver_cache)
    generator = InputGenerator(seed, application.format_spec)
    if detector is None:
        detector = ErrorDetector(program, seed)
    enforcer = GoalDirectedEnforcer(
        solver, generator, detector, config.enforcement, group=group
    )

    best: Optional[EnforcementResult] = None
    for observation in observations:
        enforcement = enforcer.run(observation)
        if best is None or _better_outcome(enforcement, best):
            best = enforcement
        if enforcement.found_overflow:
            break

    discovery_seconds = time.perf_counter() - started
    if best is None:
        return SiteResult(
            site=site,
            classification=SiteClassification.TARGET_UNSATISFIABLE,
            discovery_seconds=discovery_seconds,
        )

    classification = classification_from_enforcement(best)
    bug_report = None
    if classification is SiteClassification.OVERFLOW_EXPOSED:
        bug_report = _bug_report(application, site, best, discovery_seconds)
    return SiteResult(
        site=site,
        classification=classification,
        enforcement=best,
        bug_report=bug_report,
        discovery_seconds=discovery_seconds,
    )


def _bug_report(
    application: Application,
    site: TargetSite,
    enforcement: EnforcementResult,
    discovery_seconds: float,
) -> OverflowBugReport:
    evaluation = enforcement.evaluation
    error_type = evaluation.error_type() if evaluation is not None else "None"
    field_values = {}
    if enforcement.triggering_model:
        field_values = {
            name: value
            for name, value in enforcement.triggering_model.items()
            if not name.startswith("inp[")
        }
    return OverflowBugReport(
        application=application.name,
        target=site.name,
        cve=application.known_cves.get(site.name, "New"),
        error_type=error_type,
        enforced_branches=enforcement.enforced_count,
        relevant_branches=enforcement.relevant_branch_count,
        analysis_seconds=0.0,
        discovery_seconds=discovery_seconds,
        triggering_field_values=field_values,
        triggering_input=enforcement.triggering_input,
    )


class Diode:
    """The directed integer overflow discovery engine."""

    def __init__(
        self,
        config: Optional[DiodeConfig] = None,
        solver_cache: Optional[SolverCache] = None,
    ) -> None:
        self.config = config or DiodeConfig()
        self.solver_cache = solver_cache

    # ------------------------------------------------------------------
    # Whole-application analysis
    # ------------------------------------------------------------------
    def analyze(self, application: Application) -> ApplicationResult:
        """Run the full pipeline on one application model.

        Sites run one seed-path group at a time, sharing one error detector
        and field mapper across the application; results keep site order.
        """
        started = time.perf_counter()
        program = application.program
        seed = application.seed_input

        sites = identify_target_sites(program, seed)
        analysis_seconds = time.perf_counter() - started

        detector = ErrorDetector(program, seed)
        mapper = FieldMapper(application.format_spec)
        site_results: Dict[int, SiteResult] = {}
        for indices in seed_path_groups(sites):
            group = SeedPathGroup([sites[index] for index in indices])
            for index in indices:
                site_results[index] = analyze_site(
                    application,
                    sites[index],
                    self.config,
                    solver_cache=self.solver_cache,
                    detector=detector,
                    field_mapper=mapper,
                    group=group,
                )

        result = ApplicationResult(
            application=application.name,
            seed_input=seed,
            analysis_seconds=analysis_seconds,
        )
        result.site_results.extend(site_results[index] for index in range(len(sites)))
        return result

    # ------------------------------------------------------------------
    # Per-site analysis
    # ------------------------------------------------------------------
    def analyze_site(self, application: Application, site: TargetSite) -> SiteResult:
        """Run extraction + enforcement for one target site."""
        return analyze_site(
            application, site, self.config, solver_cache=self.solver_cache
        )


_OUTCOME_PRIORITY = {
    EnforcementOutcome.OVERFLOW_TRIGGERED: 5,
    EnforcementOutcome.SEED_PATH_EXHAUSTED: 4,
    EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE: 3,
    EnforcementOutcome.TARGET_UNSATISFIABLE: 2,
    EnforcementOutcome.ITERATION_LIMIT: 1,
    EnforcementOutcome.SOLVER_UNKNOWN: 0,
}


def _better_outcome(candidate: EnforcementResult, incumbent: EnforcementResult) -> bool:
    return _OUTCOME_PRIORITY[candidate.outcome] > _OUTCOME_PRIORITY[incumbent.outcome]
