"""Unit tests for DIODE's pipeline components on small synthetic programs."""

import pytest

from repro.core.branches import (
    BranchConstraint,
    compress_branches,
    extract_branch_constraints,
    first_unsatisfied,
    relevant_branches,
)
from repro.core.detection import ErrorDetector
from repro.core.fieldmap import FieldMapper
from repro.core.inputs import InputGenerator
from repro.core.overflow import (
    OverflowSpec,
    overflow_conditions,
    overflow_constraint,
)
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.exec.concolic import ConcolicInterpreter
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.spec import FormatSpec
from repro.lang.program import Program
from repro.smt import builder as b
from repro.smt.evalmodel import Model, evaluate, satisfies
from repro.smt.solver import PortfolioSolver
from repro.smt.terms import TermKind


def _program(body: str) -> Program:
    return Program.from_source("proc main() { " + body + " }")


SIMPLE_SPEC = FormatSpec(
    "simple",
    [
        FieldSpec("/magic", 0, 2, FieldKind.MAGIC, mutable=False),
        FieldSpec("/w", 2, 2, FieldKind.UINT, Endianness.BIG),
        FieldSpec("/h", 4, 2, FieldKind.UINT, Endianness.LITTLE),
        FieldSpec("/flags", 6, 1, FieldKind.UINT),
    ],
)


class TestOverflowConstraint:
    def test_multiplication_condition(self):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        constraint = overflow_constraint(b.mul(x, y))
        assert satisfies(constraint, {"x": 1 << 20, "y": 1 << 20})
        assert not satisfies(constraint, {"x": 10, "y": 10})

    def test_addition_condition(self):
        x = b.bv_var("x", 32)
        constraint = overflow_constraint(b.add(x, b.bv_const(2, 32)))
        assert satisfies(constraint, {"x": 0xFFFFFFFE})
        assert satisfies(constraint, {"x": 0xFFFFFFFF})
        assert not satisfies(constraint, {"x": 0xFFFFFFFD})

    def test_subtraction_borrow_condition(self):
        x = b.bv_var("x", 32)
        constraint = overflow_constraint(b.sub(x, b.bv_const(10, 32)))
        assert satisfies(constraint, {"x": 3})
        assert not satisfies(constraint, {"x": 10})

    def test_subtraction_can_be_disabled(self):
        x = b.bv_var("x", 32)
        constraint = overflow_constraint(
            b.sub(x, b.bv_const(10, 32)), OverflowSpec(include_sub=False)
        )
        assert constraint is b.bool_const(False)

    def test_shift_condition(self):
        x = b.bv_var("x", 32)
        constraint = overflow_constraint(b.shl(x, b.bv_const(8, 32)))
        assert satisfies(constraint, {"x": 1 << 25})
        assert not satisfies(constraint, {"x": 1 << 10})

    def test_subexpression_overflow_counts(self):
        """The paper's Section 4.3 example: only the inner product can wrap."""
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        bpp = b.bv_const(8, 32)
        expression = b.udiv(b.mul(b.mul(w, h), b.bv_const(4, 32)), bpp)
        constraint = overflow_constraint(expression)
        model = {"w": 1 << 17, "h": 1 << 17}
        assert satisfies(constraint, model)

    def test_expression_without_arithmetic_has_no_conditions(self):
        x = b.bv_var("x", 32)
        assert overflow_constraint(b.bvand(x, 0xFF)) is b.bool_const(False)

    def test_conditions_enumerated_per_operation(self):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        expression = b.add(b.mul(x, y), b.bv_const(16, 32))
        kinds = {c.operation.kind for c in overflow_conditions(expression)}
        assert kinds == {TermKind.ADD, TermKind.MUL}

    def test_boolean_expression_rejected(self):
        with pytest.raises(ValueError):
            overflow_constraint(b.bool_var("p"))


class TestBranchHelpers:
    def _observations(self):
        program = _program(
            """
            v = input(0);
            i = 0;
            while (i < v) { i = i + 1; }
            if (v < 50) { x = 1; }
            if (input(1) > 3) { y = 1; }
            buf = alloc(v * 16777216);
            """
        )
        report = ConcolicInterpreter(program).run_concolic(bytes([3, 9]))
        return report

    def test_extract_keeps_only_symbolic_branches(self):
        report = self._observations()
        constraints = extract_branch_constraints(report.branches)
        assert len(constraints) == len(report.symbolic_branches())

    def test_compress_coalesces_loop_iterations(self):
        report = self._observations()
        constraints = extract_branch_constraints(report.branches)
        compressed = compress_branches(constraints)
        labels = [c.label for c in compressed]
        assert len(labels) == len(set(labels))
        loop_constraint = max(compressed, key=lambda c: c.occurrences)
        assert loop_constraint.occurrences == 4  # 3 taken + 1 exit
        # The compressed loop condition pins v to the seed's trip count.
        assert loop_constraint.satisfied_by(Model({"inp[0]": 3, "inp[1]": 9}))
        assert not loop_constraint.satisfied_by(Model({"inp[0]": 10, "inp[1]": 9}))

    def test_compress_preserves_first_occurrence_order(self):
        report = self._observations()
        compressed = compress_branches(extract_branch_constraints(report.branches))
        indexes = [c.first_sequence_index for c in compressed]
        assert indexes == sorted(indexes)

    def test_relevant_filters_by_shared_variables(self):
        report = self._observations()
        allocation = report.allocations[0]
        beta = overflow_constraint(allocation.size_expression)
        compressed = compress_branches(extract_branch_constraints(report.branches))
        relevant = relevant_branches(compressed, beta)
        # The branch over input(1) shares no variable with the target
        # expression over input(0) and must be discarded.
        assert len(relevant) == len(compressed) - 1

    def test_first_unsatisfied_picks_execution_order(self):
        report = self._observations()
        compressed = compress_branches(extract_branch_constraints(report.branches))
        violating = Model({"inp[0]": 200, "inp[1]": 9})
        flipped = first_unsatisfied(compressed, violating)
        assert flipped is compressed[0]

    def test_first_unsatisfied_none_when_all_hold(self):
        report = self._observations()
        compressed = compress_branches(extract_branch_constraints(report.branches))
        assert first_unsatisfied(compressed, Model({"inp[0]": 3, "inp[1]": 9})) is None


class TestFieldMapper:
    def test_field_map_big_and_little_endian(self):
        mapper = FieldMapper(SIMPLE_SPEC)
        mapping = mapper.field_map()
        assert mapping[2] == ("/w", 16, 8)   # big endian: first byte is MSB
        assert mapping[3] == ("/w", 16, 0)
        assert mapping[4] == ("/h", 16, 0)   # little endian: first byte is LSB
        assert mapping[5] == ("/h", 16, 8)
        assert mapping[6] == ("/flags", 8, 0)
        assert 0 not in mapping  # magic bytes are not mapped

    def test_model_to_byte_values_field_and_raw(self):
        mapper = FieldMapper(SIMPLE_SPEC)
        values = mapper.model_to_byte_values(Model({"/w": 0x0102, "inp[6]": 0x7F}))
        assert values[2] == 0x01 and values[3] == 0x02
        assert values[6] == 0x7F

    def test_assignment_for_input_covers_fields_and_bytes(self):
        mapper = FieldMapper(SIMPLE_SPEC)
        data = bytes([0xAA, 0xBB, 0x01, 0x02, 0x03, 0x04, 0x05])
        assignment = mapper.assignment_for_input(data, range(len(data)))
        assert assignment["/w"] == 0x0102
        assert assignment["/h"] == 0x0403
        assert assignment["inp[6]"] == 0x05

    def test_describe_relevant_bytes(self):
        mapper = FieldMapper(SIMPLE_SPEC)
        grouped = mapper.describe_relevant_bytes([2, 3, 6, 40])
        assert grouped["/w"] == [2, 3]
        assert grouped["/flags"] == [6]
        assert grouped["<raw>"] == [40]

    def test_without_spec_everything_is_raw(self):
        mapper = FieldMapper(None)
        assert mapper.field_map() == {}
        assert mapper.describe_relevant_bytes([1, 2]) == {"<raw>": [1, 2]}


class TestSitesAndTargets:
    PROGRAM = """
    proc main() {
      w = (input(2) << 8) | input(3);
      flags = input(6);
      if (w > 60000) { halt "too wide"; }
      buf = alloc(w * w * 2) @ "demo.c@1";
      fixed = alloc(256);
    }
    """

    def test_identify_target_sites(self):
        program = Program.from_source(self.PROGRAM)
        sites = identify_target_sites(program, bytes([0, 0, 0, 40, 0, 0, 1]))
        assert len(sites) == 1
        assert sites[0].site_tag == "demo.c@1"
        assert sites[0].relevant_bytes == frozenset({2, 3})
        assert sites[0].seed_size == 3200

    def test_extract_target_observations(self):
        program = Program.from_source(self.PROGRAM)
        seed = bytes([0, 0, 0, 40, 0, 0, 1])
        sites = identify_target_sites(program, seed)
        mapper = FieldMapper(SIMPLE_SPEC)
        observations = extract_target_observations(program, seed, sites[0], mapper)
        assert len(observations) == 1
        observation = observations[0]
        assert observation.seed_size == 3200
        names = {str(v.name) for v in observation.size_expression.variables()}
        assert names == {"/w"}
        assert evaluate(observation.size_expression, {"/w": 40}) == 3200


class TestInputGeneratorAndDetection:
    PROGRAM = """
    proc main() {
      w = (input(2) << 8) | input(3);
      buf = alloc(w * w * 2) @ "demo.c@1";
      buf[w * w * 2 - 1] = 5;
      probe = buf[(w - 1) * w * 2];
    }
    """

    def test_generated_input_carries_field_values(self):
        seed = bytes([0xAA, 0xBB, 0, 40, 0, 0, 1])
        generator = InputGenerator(seed, SIMPLE_SPEC)
        candidate = generator.generate(Model({"/w": 0x1234}))
        assert candidate.data[2] == 0x12 and candidate.data[3] == 0x34
        assert candidate.data[0] == 0xAA  # magic untouched

    def test_detector_reports_overflow_and_errors(self):
        program = Program.from_source(self.PROGRAM)
        seed = bytes([0xAA, 0xBB, 0, 40, 0, 0, 1])
        detector = ErrorDetector(program, seed)
        assert not detector.evaluate(seed, program.label_of_tag("demo.c@1")).overflow_triggered
        # Choose w so that w*w*2 wraps: w = 0xFFFF -> w*w*2 = 0x1FFFC0002 wraps.
        candidate = InputGenerator(seed, SIMPLE_SPEC).generate(Model({"/w": 0xFFFF}))
        evaluation = detector.evaluate(candidate.data, program.label_of_tag("demo.c@1"))
        assert evaluation.site_executed
        assert evaluation.overflow_triggered
        assert evaluation.triggers_overflow
        assert evaluation.error_type() != "None"

    def test_detector_negative_candidate(self):
        program = Program.from_source(self.PROGRAM)
        seed = bytes([0xAA, 0xBB, 0, 40, 0, 0, 1])
        detector = ErrorDetector(program, seed)
        candidate = InputGenerator(seed, SIMPLE_SPEC).generate(Model({"/w": 50}))
        evaluation = detector.evaluate(candidate.data, program.label_of_tag("demo.c@1"))
        assert evaluation.site_executed
        assert not evaluation.overflow_triggered
        assert evaluation.new_memory_errors == []
