"""Tests for the goal-directed enforcement loop and the Diode engine on a
small synthetic application (fast), exercising every termination mode."""

import pytest

from repro.apps.appbase import Application, SiteExpectation
from repro.core.detection import ErrorDetector
from repro.core.enforcement import (
    EnforcementConfig,
    EnforcementOutcome,
    GoalDirectedEnforcer,
)
from repro.core.engine import Diode, DiodeConfig
from repro.core.fieldmap import FieldMapper
from repro.core.inputs import InputGenerator
from repro.core.report import SiteClassification, classification_from_enforcement
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.spec import FormatSpec
from repro.lang.program import Program
from repro.smt.solver import PortfolioSolver

# A miniature application with one site of each classification:
#  - guarded.c@1   : exposed only after enforcing the two sanity checks
#  - open.c@2      : exposed immediately (no checks)
#  - capped.c@3    : protected by the sanity checks (cannot overflow below caps)
#  - narrow.c@4    : target constraint unsatisfiable (16-bit quantity * 4)
MINI_SOURCE = """
proc be32(o) {
  v = (input(o) << 24) | (input(o + 1) << 16) | (input(o + 2) << 8) | input(o + 3);
  return v;
}

proc main() {
  count = be32(4);
  unit  = be32(8);
  small = (input(12) << 8) | input(13);

  open_buf = alloc(count * unit) @ "open.c@2";

  if (count > 100000) { halt "count too large"; }
  if (unit > 100000) { halt "unit too large"; }

  guarded_buf = alloc(count * unit * 64) @ "guarded.c@1";
  capped_buf  = alloc(count * 8 + unit) @ "capped.c@3";
  narrow_buf  = alloc(small * 4) @ "narrow.c@4";

  guarded_buf[count * unit * 64 - 1] = 1;
  probe = guarded_buf[(count - 1) * unit * 64];
}
"""

MINI_SPEC = FormatSpec(
    "mini",
    [
        FieldSpec("/magic", 0, 4, FieldKind.MAGIC, mutable=False),
        FieldSpec("/count", 4, 4, FieldKind.UINT, Endianness.BIG),
        FieldSpec("/unit", 8, 4, FieldKind.UINT, Endianness.BIG),
        FieldSpec("/small", 12, 2, FieldKind.UINT, Endianness.BIG),
    ],
)


def _mini_seed(count=20, unit=16, small=9) -> bytes:
    return (
        b"MINI"
        + count.to_bytes(4, "big")
        + unit.to_bytes(4, "big")
        + small.to_bytes(2, "big")
        + bytes(2)
    )


@pytest.fixture(scope="module")
def mini_app() -> Application:
    program = Program.from_source(MINI_SOURCE, name="mini")
    return Application(
        name="Mini",
        program=program,
        format_spec=MINI_SPEC,
        seed_input=_mini_seed(),
        expectations=[
            SiteExpectation("open.c@2", "exposed", enforced_branches=0),
            SiteExpectation("guarded.c@1", "exposed", enforced_branches=2),
            SiteExpectation("capped.c@3", "prevented"),
            SiteExpectation("narrow.c@4", "unsatisfiable"),
        ],
    )


def _run_site(app: Application, tag: str, config: EnforcementConfig | None = None):
    sites = identify_target_sites(app.program, app.seed_input)
    site = next(s for s in sites if s.site_tag == tag)
    mapper = FieldMapper(app.format_spec)
    observation = extract_target_observations(
        app.program, app.seed_input, site, field_mapper=mapper
    )[0]
    enforcer = GoalDirectedEnforcer(
        PortfolioSolver(),
        InputGenerator(app.seed_input, app.format_spec),
        ErrorDetector(app.program, app.seed_input),
        config,
    )
    return enforcer.run(observation)


class TestEnforcementOutcomes:
    def test_open_site_triggers_without_enforcement(self, mini_app):
        result = _run_site(mini_app, "open.c@2")
        assert result.outcome is EnforcementOutcome.OVERFLOW_TRIGGERED
        assert result.enforced_count == 0
        assert result.triggering_input is not None

    def test_guarded_site_requires_enforcement(self, mini_app):
        result = _run_site(mini_app, "guarded.c@1")
        assert result.outcome is EnforcementOutcome.OVERFLOW_TRIGGERED
        assert 1 <= result.enforced_count <= 3
        assert result.relevant_branch_count >= result.enforced_count
        # Every enforced branch is one of the two sanity checks.
        assert result.evaluation is not None and result.evaluation.triggers_overflow

    def test_capped_site_is_prevented(self, mini_app):
        result = _run_site(mini_app, "capped.c@3")
        assert result.outcome in (
            EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE,
            EnforcementOutcome.SEED_PATH_EXHAUSTED,
        )
        assert not result.found_overflow

    def test_narrow_site_target_unsatisfiable(self, mini_app):
        result = _run_site(mini_app, "narrow.c@4")
        assert result.outcome is EnforcementOutcome.TARGET_UNSATISFIABLE

    def test_triggering_input_is_well_formed(self, mini_app):
        result = _run_site(mini_app, "guarded.c@1")
        data = result.triggering_input
        assert data[:4] == b"MINI"
        assert len(data) == len(mini_app.seed_input)

    def test_steps_are_recorded(self, mini_app):
        result = _run_site(mini_app, "guarded.c@1")
        assert result.steps
        assert result.steps[0].iteration == 0
        assert result.steps[-1].triggered

    def test_classification_mapping(self, mini_app):
        exposed = _run_site(mini_app, "open.c@2")
        unsat = _run_site(mini_app, "narrow.c@4")
        prevented = _run_site(mini_app, "capped.c@3")
        assert classification_from_enforcement(exposed) is SiteClassification.OVERFLOW_EXPOSED
        assert (
            classification_from_enforcement(unsat)
            is SiteClassification.TARGET_UNSATISFIABLE
        )
        assert (
            classification_from_enforcement(prevented)
            is SiteClassification.SANITY_PREVENTED
        )

    def test_iteration_limit_respected(self, mini_app):
        config = EnforcementConfig(max_iterations=0)
        result = _run_site(mini_app, "guarded.c@1", config)
        assert result.outcome in (
            EnforcementOutcome.ITERATION_LIMIT,
            EnforcementOutcome.OVERFLOW_TRIGGERED,  # solved before any enforcement
        )

    def test_ablation_reverse_order_still_terminates(self, mini_app):
        config = EnforcementConfig(flip_selection="last")
        result = _run_site(mini_app, "guarded.c@1", config)
        assert result.outcome in (
            EnforcementOutcome.OVERFLOW_TRIGGERED,
            EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE,
            EnforcementOutcome.ITERATION_LIMIT,
        )

    def test_ablation_without_relevance_filter(self, mini_app):
        config = EnforcementConfig(filter_relevant=False)
        result = _run_site(mini_app, "guarded.c@1", config)
        assert result.relevant_branch_count >= 2

    def test_unknown_flip_selection_rejected(self, mini_app):
        config = EnforcementConfig(flip_selection="sideways")
        with pytest.raises(ValueError):
            _run_site(mini_app, "guarded.c@1", config)


class TestDiodeEngine:
    def test_analyze_classifies_all_sites(self, mini_app):
        result = Diode().analyze(mini_app)
        assert result.total_target_sites == 4
        assert result.exposed_count == 2
        assert result.unsatisfiable_count == 1
        assert result.sanity_prevented_count == 1

    def test_bug_reports_only_for_exposed_sites(self, mini_app):
        result = Diode().analyze(mini_app)
        reports = result.bug_reports()
        assert {r.target for r in reports} == {"open.c@2", "guarded.c@1"}
        for report in reports:
            assert report.enforced_ratio().count("/") == 1
            assert report.triggering_input is not None

    def test_table1_row_format(self, mini_app):
        row = Diode().analyze(mini_app).table1_row()
        assert row["total_target_sites"] == 4
        assert sum(v for k, v in row.items() if k != "total_target_sites") == 4

    def test_engine_config_is_used(self, mini_app):
        config = DiodeConfig()
        config.enforcement.max_iterations = 1
        result = Diode(config).analyze(mini_app)
        assert result.total_target_sites == 4

    def test_known_cve_mapping(self, mini_app):
        mini_app.expectations[0] = SiteExpectation(
            "open.c@2", "exposed", enforced_branches=0, cve="CVE-0000-0001"
        )
        result = Diode().analyze(mini_app)
        report = next(r for r in result.bug_reports() if r.target == "open.c@2")
        assert report.cve == "CVE-0000-0001"


class TestSessionOracle:
    """Each session check the enforcement loop makes on the mini-app sites
    agrees with an independent uncached one-shot check (the
    ``session_oracle`` fixture)."""

    @pytest.mark.parametrize(
        "tag, outcome, statuses",
        [
            ("open.c@2", EnforcementOutcome.OVERFLOW_TRIGGERED, {"sat": 1}),
            ("guarded.c@1", EnforcementOutcome.OVERFLOW_TRIGGERED, {"sat": 3}),
            (
                "capped.c@3",
                EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE,
                {"sat": 2, "unsat": 1},
            ),
            ("narrow.c@4", EnforcementOutcome.TARGET_UNSATISFIABLE, {"unsat": 1}),
        ],
    )
    def test_session_checks_match_one_shot_checks(
        self, mini_app, session_oracle, tag, outcome, statuses
    ):
        result = _run_site(mini_app, tag)
        assert result.outcome is outcome
        assert session_oracle.problems == []
        assert dict(session_oracle.statuses) == statuses
