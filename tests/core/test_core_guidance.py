"""Tests for UNSAT-core-guided enforcement and per-site session reuse.

Parity is the contract: core guidance answers a candidate query from an
accumulated core only when the solver was *guaranteed* to return UNSAT
(superset of an unsatisfiable set), so guided and unguided enforcement
take identical decisions — checked here per site on a synthetic
application and registry-wide as a campaign classification comparison.
"""

from __future__ import annotations

import pytest

from repro.apps.appbase import Application
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.detection import ErrorDetector
from repro.core.enforcement import EnforcementOutcome, GoalDirectedEnforcer
from repro.core.fieldmap import FieldMapper
from repro.core.inputs import InputGenerator
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.spec import FormatSpec
from repro.lang.program import Program
from repro.obs.metrics import METRICS, counter_value
from repro.smt.solver import PortfolioSolver, SolverConfig

# One immediately-exposed site, one site whose target constraint is
# unsatisfiable (16-bit quantity * 4 cannot exceed the overflow bound), and
# one capped site the sanity checks protect.
SOURCE = """
proc be32(o) {
  v = (input(o) << 24) | (input(o + 1) << 16) | (input(o + 2) << 8) | input(o + 3);
  return v;
}

proc main() {
  count = be32(4);
  unit  = be32(8);
  small = (input(12) << 8) | input(13);

  open_buf = alloc(count * unit) @ "open.c@1";

  if (count > 100000) { halt "count too large"; }
  if (unit > 100000) { halt "unit too large"; }

  capped_buf = alloc(count * 8 + unit) @ "capped.c@2";
  narrow_buf = alloc(small * 4) @ "narrow.c@3";
}
"""

SPEC = FormatSpec(
    "guidance",
    [
        FieldSpec("/magic", 0, 4, FieldKind.MAGIC, mutable=False),
        FieldSpec("/count", 4, 4, FieldKind.UINT, Endianness.BIG),
        FieldSpec("/unit", 8, 4, FieldKind.UINT, Endianness.BIG),
        FieldSpec("/small", 12, 2, FieldKind.UINT, Endianness.BIG),
    ],
)


def _seed() -> bytes:
    return (
        b"GDNC"
        + (20).to_bytes(4, "big")
        + (16).to_bytes(4, "big")
        + (9).to_bytes(2, "big")
        + bytes(2)
    )


@pytest.fixture(scope="module")
def app() -> Application:
    return Application(
        name="Guidance",
        program=Program.from_source(SOURCE, name="guidance"),
        format_spec=SPEC,
        seed_input=_seed(),
        expectations=[],
    )


def _enforcer(app: Application, config: SolverConfig) -> GoalDirectedEnforcer:
    return GoalDirectedEnforcer(
        PortfolioSolver(config),
        InputGenerator(app.seed_input, app.format_spec),
        ErrorDetector(app.program, app.seed_input),
    )


def _observation(app: Application, tag: str):
    sites = identify_target_sites(app.program, app.seed_input)
    site = next(s for s in sites if s.site_tag == tag)
    return extract_target_observations(
        app.program, app.seed_input, site, field_mapper=FieldMapper(app.format_spec)
    )[0]


class TestGuidedParity:
    @pytest.mark.parametrize("tag", ["open.c@1", "capped.c@2", "narrow.c@3"])
    def test_guided_matches_unguided_per_site(self, app, tag):
        observation = _observation(app, tag)
        guided = _enforcer(app, SolverConfig()).run(observation)
        unguided = _enforcer(
            app, SolverConfig(enable_unsat_cores=False)
        ).run(observation)
        assert guided.outcome is unguided.outcome
        assert guided.enforced_count == unguided.enforced_count
        assert [s.solver_status for s in guided.steps] == [
            s.solver_status for s in unguided.steps
        ]

    def test_registry_campaign_parity_guided_vs_unguided(self):
        def classifications(guided: bool):
            config = CampaignConfig(jobs=1, backend="serial")
            config.diode.solver.enable_unsat_cores = guided
            return run_campaign(config).classifications()

        assert classifications(True) == classifications(False)


class TestCoreAccumulation:
    def test_unsat_target_accumulates_a_core(self, app):
        enforcer = _enforcer(app, SolverConfig())
        result = enforcer.run(_observation(app, "narrow.c@3"))
        assert result.outcome is EnforcementOutcome.TARGET_UNSATISFIABLE
        assert len(enforcer.accumulated_cores) == 1

    def test_rerun_is_answered_from_the_core_without_a_solver_call(self, app):
        enforcer = _enforcer(app, SolverConfig())
        observation = _observation(app, "narrow.c@3")
        first = enforcer.run(observation)

        mark = METRICS.snapshot()
        second = enforcer.run(observation)
        delta = METRICS.delta(mark)

        assert second.outcome is first.outcome
        assert counter_value(delta, "solver.core_pruned_candidates") == 1
        # The pruned β query never reached the solver.
        assert counter_value(delta, "solver.session_checks") == 0

    def test_unguided_rerun_pays_the_solver_call(self, app):
        enforcer = _enforcer(app, SolverConfig(enable_unsat_cores=False))
        observation = _observation(app, "narrow.c@3")
        enforcer.run(observation)
        assert enforcer.accumulated_cores == ()

        mark = METRICS.snapshot()
        enforcer.run(observation)
        delta = METRICS.delta(mark)
        assert counter_value(delta, "solver.session_checks") > 0
        assert counter_value(delta, "solver.core_pruned_candidates") == 0


class TestSessionReuse:
    def test_site_session_is_reused_across_observations(self, app):
        enforcer = _enforcer(app, SolverConfig(enable_unsat_cores=False))
        observation = _observation(app, "capped.c@2")
        mark = METRICS.snapshot()
        first = enforcer.run(observation)
        session = enforcer._session
        assert session is not None
        second = enforcer.run(observation)
        delta = METRICS.delta(mark)
        assert enforcer._session is session
        assert counter_value(delta, "solver.sessions_reused") == 1
        assert first.outcome is second.outcome
        # The reused session was popped back before the second observation:
        # its stack holds only the second run's frames.
        assert len(session) == len(second.enforced_branches) + 1

    def test_reuse_disabled_opens_a_fresh_session_per_observation(self, app):
        enforcer = _enforcer(
            app, SolverConfig(reuse_sessions=False, enable_unsat_cores=False)
        )
        observation = _observation(app, "capped.c@2")
        mark = METRICS.snapshot()
        enforcer.run(observation)
        assert enforcer._session is None
        enforcer.run(observation)
        delta = METRICS.delta(mark)
        assert counter_value(delta, "solver.sessions_reused") == 0
