"""Tests for the concrete, taint, concolic and overflow-witness interpreters."""

import pytest

from repro.exec.concolic import ConcolicInterpreter, input_byte_variable, input_variable_offset
from repro.exec.concrete import ConcreteInterpreter, ExecutionLimits
from repro.exec.overflow_witness import OverflowWitnessInterpreter
from repro.exec.taint import TaintInterpreter
from repro.exec.trace import ExecutionOutcome, MemoryErrorKind
from repro.exec.values import MachineInt
from repro.lang.program import Program
from repro.smt.evalmodel import evaluate


def _program(body: str) -> Program:
    return Program.from_source("proc main() { " + body + " }")


class TestMachineInt:
    machine = MachineInt(8)

    def test_wrap(self):
        assert self.machine.wrap(300) == 44

    def test_signed(self):
        assert self.machine.to_signed(0xFF) == -1


class TestConcreteInterpreter:
    def test_arithmetic_and_environment(self):
        report = ConcreteInterpreter(_program("x = 2 + 3 * 4;")).run(b"")
        assert report.final_environment["x"][0] == 14

    def test_input_bytes_and_size(self):
        report = ConcreteInterpreter(
            _program("a = input(0); b = input(9); n = input_size;")
        ).run(bytes([7, 8]))
        env = report.final_environment
        assert env["a"][0] == 7
        assert env["b"][0] == 0  # past the end reads as zero
        assert env["n"][0] == 2

    def test_if_branches_recorded(self):
        report = ConcreteInterpreter(
            _program("if (input(0) > 5) { x = 1; } else { x = 2; }")
        ).run(bytes([9]))
        assert report.final_environment["x"][0] == 1
        assert report.branch_path() == [(report.branches[0].label, True)]

    def test_while_loop_counts(self):
        report = ConcreteInterpreter(
            _program("i = 0; while (i < 5) { i = i + 1; }")
        ).run(b"")
        assert report.final_environment["i"][0] == 5
        taken = [taken for _label, taken in report.branch_path()]
        assert taken == [True] * 5 + [False]

    def test_halt_outcome(self):
        report = ConcreteInterpreter(_program('halt "fatal";')).run(b"")
        assert report.outcome is ExecutionOutcome.HALTED
        assert report.halt_message == "fatal"

    def test_warning_recorded(self):
        report = ConcreteInterpreter(_program('warn "odd"; x = 1;')).run(b"")
        assert report.warnings == ["odd"]
        assert report.outcome is ExecutionOutcome.COMPLETED

    def test_allocation_and_memory_roundtrip(self):
        report = ConcreteInterpreter(
            _program("buf = alloc(8); buf[3] = 77; x = buf[3]; y = buf[4];")
        ).run(b"")
        assert report.final_environment["x"][0] == 77
        assert report.final_environment["y"][0] == 0
        assert len(report.allocations) == 1
        assert report.allocations[0].requested_size == 8

    def test_out_of_bounds_write_within_page_is_recorded_not_fatal(self):
        report = ConcreteInterpreter(
            _program("buf = alloc(4); buf[5] = 1; x = 3;")
        ).run(b"")
        assert report.outcome is ExecutionOutcome.COMPLETED
        assert len(report.memory_errors) == 1
        assert report.memory_errors[0].kind is MemoryErrorKind.INVALID_WRITE
        assert report.final_environment["x"][0] == 3

    def test_far_out_of_bounds_write_is_a_crash(self):
        report = ConcreteInterpreter(
            _program("buf = alloc(4); buf[100000] = 1; x = 3;")
        ).run(b"")
        assert report.outcome is ExecutionOutcome.CRASHED
        assert report.memory_errors[0].kind is MemoryErrorKind.SEGFAULT_WRITE
        assert "x" not in report.final_environment

    def test_negative_offset_read(self):
        report = ConcreteInterpreter(
            _program("buf = alloc(4); x = buf[0 - 1];")
        ).run(b"")
        assert any(
            e.kind in (MemoryErrorKind.INVALID_READ, MemoryErrorKind.SEGFAULT_READ)
            for e in report.memory_errors
        )

    def test_wild_access_through_non_pointer(self):
        report = ConcreteInterpreter(_program("x = 5; x[0] = 1;")).run(b"")
        assert report.outcome is ExecutionOutcome.CRASHED

    def test_step_limit(self):
        limits = ExecutionLimits(max_steps=100)
        report = ConcreteInterpreter(
            _program("i = 0; while (i < 100000) { i = i + 1; }"), limits=limits
        ).run(b"")
        assert report.outcome is ExecutionOutcome.STEP_LIMIT

    def test_allocation_site_tag_recorded(self):
        report = ConcreteInterpreter(
            _program('buf = alloc(input(0)) @ "site.x";')
        ).run(bytes([12]))
        assert report.allocations[0].site_tag == "site.x"
        assert report.allocations[0].requested_size == 12


class TestTaintInterpreter:
    def test_allocation_taint_tracks_relevant_bytes(self):
        program = _program(
            "w = input(0) | (input(1) << 8); pad = input(5); buf = alloc(w * 2);"
        )
        taint = TaintInterpreter(program).run_taint(bytes([4, 0, 0, 0, 0, 9]))
        sites = taint.target_sites()
        assert len(sites) == 1
        assert taint.relevant_bytes_for(sites[0]) == frozenset({0, 1})

    def test_untainted_allocation_not_a_target(self):
        program = _program("x = input(0); buf = alloc(64);")
        taint = TaintInterpreter(program).run_taint(bytes([1]))
        assert taint.target_sites() == []

    def test_taint_through_memory(self):
        program = _program(
            "buf = alloc(8); buf[0] = input(2); v = buf[0]; out = alloc(v + 1);"
        )
        taint = TaintInterpreter(program).run_taint(bytes([0, 0, 5]))
        sites = taint.target_sites()
        assert len(sites) == 1
        assert taint.relevant_bytes_for(sites[0]) == frozenset({2})

    def test_tainted_branches_recorded(self):
        program = _program("if (input(1) > 3) { x = 1; } buf = alloc(input(1));")
        taint = TaintInterpreter(program).run_taint(bytes([0, 9]))
        assert len(taint.tainted_branch_labels) == 1

    def test_constant_branches_not_recorded(self):
        program = _program("if (3 > 2) { x = 1; } buf = alloc(input(0));")
        taint = TaintInterpreter(program).run_taint(bytes([1]))
        assert taint.tainted_branch_labels == {}


class TestConcolicInterpreter:
    def test_size_expression_over_input_bytes(self):
        program = _program("w = input(0) + 3; buf = alloc(w * 2);")
        report = ConcolicInterpreter(program).run_concolic(bytes([5]))
        allocation = report.allocations[0]
        assert allocation.requested_size == 16
        assert allocation.size_expression is not None
        assert evaluate(allocation.size_expression, {"inp[0]": 5}) == 16
        assert evaluate(allocation.size_expression, {"inp[0]": 200}) == (203 * 2) % (1 << 32)

    def test_restriction_to_relevant_bytes(self):
        program = _program("a = input(0); b = input(1); buf = alloc(a + b);")
        report = ConcolicInterpreter(program, relevant_bytes={0}).run_concolic(bytes([2, 3]))
        expression = report.allocations[0].size_expression
        names = {str(v.name) for v in expression.variables()}
        assert names == {"inp[0]"}

    def test_branch_conditions_oriented_along_taken_path(self):
        program = _program("if (input(0) > 5) { x = 1; } else { x = 2; }")
        taken = ConcolicInterpreter(program).run_concolic(bytes([9]))
        not_taken = ConcolicInterpreter(program).run_concolic(bytes([1]))
        taken_cond = taken.branches[0].condition
        not_taken_cond = not_taken.branches[0].condition
        assert evaluate(taken_cond, {"inp[0]": 9}) == 1
        assert evaluate(taken_cond, {"inp[0]": 1}) == 0
        assert evaluate(not_taken_cond, {"inp[0]": 1}) == 1
        assert evaluate(not_taken_cond, {"inp[0]": 9}) == 0

    def test_untainted_branches_have_no_condition(self):
        program = _program("if (1 < 2) { x = 1; } buf = alloc(input(0));")
        report = ConcolicInterpreter(program).run_concolic(bytes([3]))
        # The constant branch is observed concretely but carries no symbolic
        # condition, so it never appears among the symbolic branches.
        assert report.execution.branches[0].condition is None
        assert len(report.symbolic_branches()) == 0

    def test_field_map_produces_field_variables(self):
        program = _program(
            "w = (input(0) << 8) | input(1); buf = alloc(w * 4);"
        )
        field_map = {0: ("/hdr/w", 16, 8), 1: ("/hdr/w", 16, 0)}
        report = ConcolicInterpreter(program, field_map=field_map).run_concolic(
            bytes([1, 0])
        )
        expression = report.allocations[0].size_expression
        names = {str(v.name) for v in expression.variables()}
        assert names == {"/hdr/w"}
        assert evaluate(expression, {"/hdr/w": 256}) == 1024

    def test_input_variable_name_roundtrip(self):
        assert input_variable_offset(str(input_byte_variable(17).name)) == 17
        assert input_variable_offset("other") is None

    def test_abs_and_signed_comparison_symbolics(self):
        program = _program(
            "v = input(0) * input(1); if (abs(v) > 100) { x = 1; } buf = alloc(v);"
        )
        report = ConcolicInterpreter(program).run_concolic(bytes([20, 20]))
        condition = report.branches[0].condition
        assert condition is not None
        assert evaluate(condition, {"inp[0]": 20, "inp[1]": 20}) == 1


class TestOverflowWitness:
    def test_wrapping_allocation_flagged(self):
        program = _program("w = input(0) * 16777216; buf = alloc(w * 256);")
        report = OverflowWitnessInterpreter(program).run_witness(bytes([255]))
        assert report.overflowed_allocations
        assert report.site_overflowed(report.overflowed_allocations[0].site_label)

    def test_non_wrapping_allocation_not_flagged(self):
        program = _program("w = input(0) * 4; buf = alloc(w + 1);")
        report = OverflowWitnessInterpreter(program).run_witness(bytes([200]))
        assert report.overflowed_allocations == []

    def test_wrap_in_unrelated_computation_not_flagged(self):
        program = _program(
            "noise = 4000000000 + 4000000000; buf = alloc(input(0) + 1);"
        )
        report = OverflowWitnessInterpreter(program).run_witness(bytes([5]))
        assert report.overflowed_allocations == []

    def test_subtraction_underflow_flagged(self):
        program = _program("w = input(0) - 10; buf = alloc(w);")
        report = OverflowWitnessInterpreter(program).run_witness(bytes([3]))
        assert len(report.overflowed_allocations) == 1

    def test_provenance_names_the_wrapping_operators(self):
        program = _program(
            "w = input(0) * 16777216; v = w * 256 + 5; buf = alloc(v);"
        )
        report = OverflowWitnessInterpreter(program).run_witness(bytes([255]))
        assert len(report.overflowed_allocations) == 1
        record = report.overflowed_allocations[0]
        # The multiply wrapped; the add of 5 to the (wrapped-to-zero) value
        # did not wrap again, so it carries the flag but adds no provenance.
        assert record.provenance == ("mul",)
        assert report.site_provenance(record.site_label) == ("mul",)

    def test_provenance_accumulates_distinct_operators(self):
        program = _program(
            "a = input(0) * 33554432; b = a + 4026531840; buf = alloc(a + b);"
        )
        report = OverflowWitnessInterpreter(program).run_witness(bytes([255]))
        assert report.overflowed_allocations
        provenance = report.site_provenance(
            report.overflowed_allocations[0].site_label
        )
        assert "mul" in provenance
        assert provenance == tuple(sorted(provenance))

    def test_site_provenance_empty_for_clean_site(self):
        program = _program("buf = alloc(input(0) + 1);")
        report = OverflowWitnessInterpreter(program).run_witness(bytes([5]))
        assert report.site_provenance(0) == ()

    def test_overflowed_site_labels_deduplicates_in_first_seen_order(self):
        program = _program(
            "i = 0; while (i < 3) {"
            " buf = alloc(input(0) * 16777216 * 256);"
            " buf2 = alloc(input(0) * 33554432 * 128);"
            " i = i + 1; }"
        )
        report = OverflowWitnessInterpreter(program).run_witness(bytes([255]))
        labels = report.overflowed_site_labels()
        # Two distinct sites, each overflowed three times: deduplicated,
        # first-dynamic-execution order preserved.
        assert len(report.overflowed_allocations) == 6
        assert len(labels) == 2
        assert labels == sorted(set(labels), key=labels.index)
        first_seen = [r.site_label for r in report.overflowed_allocations]
        assert labels == list(dict.fromkeys(first_seen))

    @pytest.mark.parametrize("shift", [31, 32, 63, 64, 65, 200])
    def test_shift_out_of_width_is_flagged_for_any_amount(self, shift):
        # Every shift by the word width or more yields size 0 from a
        # non-zero value; all of them wrapped, not just those below 64.
        program = _program(f"s = input(0) << {shift}; buf = alloc(s);")
        report = OverflowWitnessInterpreter(program).run_witness(bytes([3]))
        assert [r.provenance for r in report.overflowed_allocations] == [("shl",)]
        assert report.overflowed_allocations[0].requested_size == (
            (3 << shift) & 0xFFFFFFFF
        )

    def test_shift_of_zero_never_wraps(self):
        program = _program("s = input(0) << input(1); buf = alloc(s);")
        report = OverflowWitnessInterpreter(program).run_witness(bytes([0, 200]))
        assert report.overflowed_allocations == []
        report = OverflowWitnessInterpreter(program).run_witness(bytes([1, 200]))
        assert report.site_provenance(report.overflowed_allocations[0].site_label) == (
            "shl",
        )
