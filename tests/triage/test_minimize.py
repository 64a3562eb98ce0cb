"""Tests for witness minimization (ddmin + shrink-toward-baseline)."""

import pytest

from repro.apps import get_application
from repro.core import Diode
from repro.core.detection import ErrorDetector
from repro.core.inputs import InputGenerator
from repro.triage.minimize import WitnessMinimizer


@pytest.fixture(scope="module")
def dillo():
    return get_application("dillo")


@pytest.fixture(scope="module")
def detector(dillo):
    return ErrorDetector(dillo.program, dillo.seed_input)


@pytest.fixture(scope="module")
def exposed_site(dillo):
    """The png.c@203 site result with its discovered bug report."""
    result = Diode().analyze(dillo)
    for site_result in result.site_results:
        if site_result.site.name == "png.c@203":
            assert site_result.bug_report is not None
            return site_result
    raise AssertionError("png.c@203 not found")


class TestMinimize:
    def test_minimized_witness_still_triggers(self, dillo, detector, exposed_site):
        minimizer = WitnessMinimizer(dillo, detector=detector)
        site = exposed_site.site
        outcome = minimizer.minimize(
            site.site_label, exposed_site.bug_report.triggering_field_values
        )
        assert outcome.validated
        # Re-verify the final candidate from scratch: a fresh concrete run
        # of the minimized field values must still wrap the allocation.
        generator = InputGenerator(dillo.seed_input, dillo.format_spec)
        data = generator.generate_from_fields(outcome.field_values).data
        evaluation = detector.evaluate(data, site.site_label)
        assert evaluation.triggers_overflow
        assert evaluation.wrap_provenance

    def test_minimization_never_grows_the_witness(
        self, dillo, detector, exposed_site
    ):
        minimizer = WitnessMinimizer(dillo, detector=detector)
        original = exposed_site.bug_report.triggering_field_values
        outcome = minimizer.minimize(exposed_site.site.site_label, original)
        assert outcome.validated
        assert set(outcome.field_values) <= set(original)
        assert outcome.original_fields == len(original)
        assert outcome.removed_fields == len(original) - len(outcome.field_values)

    def test_redundant_field_is_dropped(self, dillo, detector, exposed_site):
        """png.c@203 wraps on width*height; bit_depth is along for the ride."""
        minimizer = WitnessMinimizer(dillo, detector=detector)
        original = dict(exposed_site.bug_report.triggering_field_values)
        assert "/header/bit_depth" in original
        outcome = minimizer.minimize(exposed_site.site.site_label, original)
        assert outcome.validated
        assert "/header/bit_depth" not in outcome.field_values

    def test_baseline_valued_fields_cost_no_budget(
        self, dillo, detector, exposed_site
    ):
        """Fields already at the seed value are dropped without extra runs."""
        minimizer = WitnessMinimizer(dillo, detector=detector)
        spec = dillo.format_spec
        baseline = spec.field("/header/bit_depth").read(dillo.seed_input)
        values = {
            "/header/width": 65536,
            "/header/height": 65536,
            "/header/bit_depth": baseline,
        }
        outcome = minimizer.minimize(exposed_site.site.site_label, values)
        assert outcome.validated
        assert "/header/bit_depth" not in outcome.field_values

    def test_non_triggering_values_fail_validation(
        self, dillo, detector, exposed_site
    ):
        minimizer = WitnessMinimizer(dillo, detector=detector)
        outcome = minimizer.minimize(
            exposed_site.site.site_label,
            {"/header/width": 2, "/header/height": 2},
        )
        assert not outcome.validated
        assert outcome.evaluation is None
        # The input comes back unchanged — nothing was proven removable.
        assert outcome.field_values == {"/header/width": 2, "/header/height": 2}

    def test_budget_is_respected(self, dillo, detector, exposed_site):
        minimizer = WitnessMinimizer(dillo, detector=detector, max_attempts=3)
        outcome = minimizer.minimize(
            exposed_site.site.site_label,
            exposed_site.bug_report.triggering_field_values,
        )
        assert outcome.attempts <= 3
        # Validation still succeeded (the first run is the original witness).
        assert outcome.validated

    def test_enforcement_witness_seeds_the_memo(self, dillo, exposed_site):
        """No candidate runs twice, and enforcement's own witness runs never."""
        detector = ErrorDetector(dillo.program, dillo.seed_input)
        ran = []
        evaluate = detector.evaluate

        def counting(candidate, site_label):
            ran.append(candidate)
            return evaluate(candidate, site_label)

        detector.evaluate = counting
        minimizer = WitnessMinimizer(dillo, detector=detector)
        enforcement = exposed_site.enforcement
        outcome = minimizer.minimize(
            exposed_site.site.site_label,
            exposed_site.bug_report.triggering_field_values,
            enforcement,
        )
        assert outcome.validated
        assert outcome.root_kinds == ("mul",)
        assert outcome.attempts == len(ran) == len(set(ran))
        assert enforcement.triggering_input not in ran

    def test_goal_direction_spends_fewer_runs(self, dillo, detector, exposed_site):
        site_label = exposed_site.site.site_label
        values = exposed_site.bug_report.triggering_field_values
        concrete = WitnessMinimizer(dillo, detector=detector).minimize(
            site_label, values
        )
        directed = WitnessMinimizer(dillo, detector=detector).minimize(
            site_label, values, exposed_site.enforcement
        )
        assert set(directed.field_values) == set(concrete.field_values)
        assert directed.attempts < concrete.attempts
        assert directed.evaluation.wrap_provenance == (
            concrete.evaluation.wrap_provenance
        )

    def test_baseline_value_reads_the_seed(self, dillo, detector):
        minimizer = WitnessMinimizer(dillo, detector=detector)
        spec = dillo.format_spec
        assert minimizer.baseline_value("/header/width") == spec.field(
            "/header/width"
        ).read(dillo.seed_input)
        assert minimizer.baseline_value("/not/a/field") is None
