"""Differential oracle: the compiled executor against the reference walker.

Hypothesis generates lowered core-language programs directly as ASTs —
assignments, allocations, loads and stores, branches, bounded and unbounded
loops, halts, warnings and nested blocks over every binary and unary
operator — and runs each on random inputs, step limits and word widths
through both implementations in all four annotation domains.  Reports must
be equal field for field: outcome, steps, warnings, branch and allocation
records with their sequence indices, memory errors, the final environment
and every annotation.  Concolic terms are interned, so equality is
identity.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_walker import (
    Environment,
    ReferenceConcolic,
    ReferenceInterpreter,
    ReferenceMemory,
    ReferenceTaint,
    ReferenceWitness,
)
import repro.exec.compiler as compiler
from repro.exec.concolic import ConcolicInterpreter
from repro.exec.concrete import ConcreteInterpreter, ExecutionLimits
from repro.exec.overflow_witness import OverflowWitnessInterpreter
from repro.exec.taint import TaintInterpreter
from repro.exec.trace import ExecutionOutcome
from repro.lang.ast import (
    AllocStmt,
    AssignStmt,
    BinaryExpr,
    BinaryOp,
    ConstExpr,
    HaltStmt,
    IfStmt,
    InputByteExpr,
    InputSizeExpr,
    LoadExpr,
    SeqStmt,
    SkipStmt,
    Stmt,
    StoreStmt,
    UnaryExpr,
    UnaryOp,
    VarExpr,
    WarnStmt,
    WhileStmt,
    walk_statements,
)
from repro.lang.parser import parse_program
from repro.lang.program import Program

#: Variables the generated statements assign; ``u`` is never assigned.
SCALARS = ["a", "b", "c"]
POINTERS = ["p", "q"]
READABLE = SCALARS + POINTERS + ["u"]

CONSTANTS = [0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 33, 63, 64, 65, 127, 128, 255,
             256, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 1 << 32, 1 << 40, -1, -7]

FIELD_MAP = {0: ("hdr.len", 16, 0), 1: ("hdr.len", 16, 8), 3: ("hdr.kind", 8, 0)}


def _expressions(depth: int):
    leaves = st.one_of(
        st.sampled_from(CONSTANTS).map(ConstExpr),
        st.integers(min_value=0, max_value=300).map(ConstExpr),
        st.sampled_from(READABLE).map(VarExpr),
        st.just(InputSizeExpr()),
        st.integers(min_value=0, max_value=9).map(
            lambda offset: InputByteExpr(ConstExpr(offset))
        ),
        # An input-dependent offset: input(input(k)).
        st.integers(min_value=0, max_value=9).map(
            lambda offset: InputByteExpr(InputByteExpr(ConstExpr(offset)))
        ),
    )
    if depth == 0:
        return leaves
    sub = _expressions(depth - 1)
    return st.one_of(
        leaves,
        st.builds(UnaryExpr, st.sampled_from(list(UnaryOp)), sub),
        st.builds(BinaryExpr, st.sampled_from(list(BinaryOp)), sub, sub),
        st.builds(InputByteExpr, sub),
        st.builds(LoadExpr, st.sampled_from(POINTERS + ["a"]), sub),
    )


EXPRESSIONS = _expressions(2)


@st.composite
def _statements(draw, depth: int) -> Stmt:
    # Halts are rarer so most programs run to their end.
    if draw(st.integers(0, 9)) == 0:
        return HaltStmt(draw(st.sampled_from(["stop", "fatal"])))
    choices = [
        st.builds(AssignStmt, st.sampled_from(SCALARS + POINTERS), EXPRESSIONS),
        st.builds(AllocStmt, st.sampled_from(POINTERS), EXPRESSIONS),
        st.builds(StoreStmt, st.sampled_from(POINTERS + ["a"]), EXPRESSIONS, EXPRESSIONS),
        st.builds(WarnStmt, st.sampled_from(["w1", "w2"])),
        st.builds(SkipStmt),
    ]
    if depth > 0:
        block = _blocks(depth - 1)
        counter = f"i{depth}"
        choices += [
            st.builds(IfStmt, EXPRESSIONS, block, block),
            st.builds(SeqStmt, st.lists(_statements(depth - 1), max_size=3)),
            # Bounded loop on a counter no generated statement assigns.
            st.builds(
                lambda bound, body: SeqStmt(
                    [
                        AssignStmt(counter, ConstExpr(0)),
                        WhileStmt(
                            BinaryExpr(BinaryOp.LT, VarExpr(counter), ConstExpr(bound)),
                            SeqStmt(
                                body.statements
                                + [
                                    AssignStmt(
                                        counter,
                                        BinaryExpr(BinaryOp.ADD, VarExpr(counter), ConstExpr(1)),
                                    )
                                ]
                            ),
                        ),
                    ]
                ),
                st.integers(min_value=0, max_value=3),
                block,
            ),
            # Arbitrary condition: may spin until the step limit.
            st.builds(WhileStmt, EXPRESSIONS, block),
        ]
    return draw(st.one_of(choices))


def _blocks(depth: int):
    return st.lists(_statements(depth), max_size=3).map(SeqStmt)


def _label(body: SeqStmt) -> Program:
    for label, statement in enumerate(walk_statements(body)):
        statement.label = label
        if isinstance(statement, AllocStmt):
            statement.tag = f"site{label}"
    return Program("generated", body)


PROGRAMS = st.lists(_statements(2), min_size=1, max_size=6).map(SeqStmt).map(_label)
INPUTS = st.binary(max_size=10)
LIMITS = st.sampled_from([1, 2, 3, 5, 8, 20, 100, 2_000]).map(
    lambda steps: ExecutionLimits(max_steps=steps, page_size=64)
)
WIDTHS = st.sampled_from([8, 16, 32])

DIFFERENTIAL = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@DIFFERENTIAL
@given(PROGRAMS, INPUTS, LIMITS, WIDTHS)
def test_concrete_domain_matches_reference(program, data, limits, width):
    compiled = ConcreteInterpreter(program, limits=limits, word_width=width).run(data)
    reference = ReferenceInterpreter(program, limits=limits, word_width=width).run(data)
    assert compiled == reference


@DIFFERENTIAL
@given(PROGRAMS, INPUTS, LIMITS, WIDTHS)
def test_taint_domain_matches_reference(program, data, limits, width):
    compiled = TaintInterpreter(program, limits=limits, word_width=width).run_taint(data)
    reference = ReferenceTaint(program, limits=limits, word_width=width).run_taint(data)
    assert compiled == reference


@DIFFERENTIAL
@given(PROGRAMS, INPUTS, LIMITS, WIDTHS)
def test_witness_domain_matches_reference(program, data, limits, width):
    compiled = OverflowWitnessInterpreter(
        program, limits=limits, word_width=width
    ).run_witness(data)
    reference = ReferenceWitness(program, limits=limits, word_width=width).run_witness(data)
    assert compiled == reference


@DIFFERENTIAL
@given(
    PROGRAMS,
    INPUTS,
    LIMITS,
    WIDTHS,
    st.one_of(st.none(), st.sets(st.integers(min_value=0, max_value=9))),
    st.booleans(),
    st.booleans(),
)
def test_concolic_domain_matches_reference(
    program, data, limits, width, relevant, simplify_online, use_fields
):
    options = dict(
        relevant_bytes=relevant,
        simplify_online=simplify_online,
        field_map=FIELD_MAP if use_fields else None,
        limits=limits,
        word_width=width,
    )
    compiled = ConcolicInterpreter(program, **options).run_concolic(data)
    reference = ReferenceConcolic(program, **options).run_concolic(data)
    # Dataclass equality compares terms with ``Term.__eq__``: identity.
    assert compiled == reference


def _assert_runs_match(program, data, limits, budget=compiler.UNIT_CHARS):
    """Every domain, compiled into units of at most ``budget`` characters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiler, "UNIT_CHARS", budget)
        pairs = [
            (ConcreteInterpreter(program, limits=limits).run, ReferenceInterpreter),
            (TaintInterpreter(program, limits=limits).run_taint, ReferenceTaint),
            (OverflowWitnessInterpreter(program, limits=limits).run_witness, ReferenceWitness),
            (
                ConcolicInterpreter(program, limits=limits, field_map=FIELD_MAP).run_concolic,
                ReferenceConcolic,
            ),
        ]
        for run, reference_class in pairs:
            options = {"field_map": FIELD_MAP} if reference_class is ReferenceConcolic else {}
            reference = reference_class(program, limits=limits, **options)
            expected = getattr(reference, run.__name__)(data)
            assert run(data) == expected, reference_class.__name__


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(PROGRAMS, INPUTS, LIMITS, st.sampled_from([150, 400]))
def test_split_units_match_reference(program, data, limits, budget):
    """Tiny compile units: blocks, ``if`` and ``while`` statements split too."""
    _assert_runs_match(program, data, limits, budget)


#: Split statements whose definite assignments, loop state, halts and step
#: limits cross the units of their blocks and headers.
SPLIT_PROGRAMS = {
    "one-branch assignment": (
        "if (input(0) > 3) { a = input(1) * 2; c = a + 1; } else { warn \"small\"; }"
        " b = a + 1; p = alloc(b);"
    ),
    "loop state": (
        "i = 0; s = 0; while (i < input(0)) { s = s + i * 3; i = i + 1;"
        " if (s > 10) { t = s; } } u = t + s;"
    ),
    "halt in a split body": (
        "n = input(0); if (n > 2) { m = n * 4; q = alloc(m); q[m] = 1; halt \"big\"; } r = n;"
    ),
}


@pytest.mark.parametrize("name", sorted(SPLIT_PROGRAMS))
@pytest.mark.parametrize("data", [b"\x01\x05", b"\x09\x05"])
@pytest.mark.parametrize("max_steps", [3, 9, 1000])
def test_split_statements_match_reference(name, data, max_steps):
    source = "proc main() { " + SPLIT_PROGRAMS[name] + " }"
    program = Program.from_unit(parse_program(source))
    limits = ExecutionLimits(max_steps=max_steps, page_size=64)
    _assert_runs_match(program, data, limits, 150)


@pytest.mark.parametrize(
    "condition",
    ["(a || b) && c", "a || (b && c)", "!(a && b) || c", "(a && b) == (b || c)", "(a <s b) && !c"],
)
def test_nested_boolean_operators_match_reference(condition):
    """Tests of ``&&`` and ``||`` operands nest as the operators do."""
    source = (
        f"proc main() {{ a = input(0); b = input(1); c = input(2); x = {condition};"
        f" if ({condition}) {{ y = 1; }} }}"
    )
    program = Program.from_unit(parse_program(source))
    for bits in range(8):
        data = bytes(0xFF * (bits >> shift & 1) for shift in range(3))
        _assert_runs_match(program, data, ExecutionLimits())


def test_long_expression_matches_reference():
    """More operators in one expression than CPython nests parentheses."""
    terms = " + ".join(f"input({k % 4}) * {k + 1}" for k in range(300))
    source = f"proc main() {{ x = {terms}; p = alloc(x & 255); y = -(~(!(x < 7))); }}"
    program = Program.from_unit(parse_program(source))
    _assert_runs_match(program, b"\x01\x02\x03\x04", ExecutionLimits())


def _edge_operands(width: int):
    mask = (1 << width) - 1
    edges = [0, 1, 2, width - 1, width, width + 1, 63, 64, mask >> 1, (mask >> 1) + 1,
             mask - 1, mask, mask + 1]
    return st.one_of(st.sampled_from(edges), st.integers(min_value=0, max_value=mask))


@st.composite
def _operand_cases(draw):
    """Edge operands, each a literal or an input byte, at one word width."""
    width = draw(WIDTHS)
    first = draw(_edge_operands(width))
    # Partners that put a sum, difference or product right on the boundary.
    mask = (1 << width) - 1
    partner = st.sampled_from(
        [mask + 1 - first, mask - first, first, first + 1, mask // max(first, 1) + 1]
    )
    values = [first, draw(st.one_of(_edge_operands(width), partner))]
    operands = [
        InputByteExpr(ConstExpr(index)) if draw(st.booleans()) else ConstExpr(value)
        for index, value in enumerate(values)
    ]
    # Input bytes carry the low bits of the drawn values.
    return operands, bytes(value & 0xFF for value in values), width


def _operator_program(op, operands) -> Program:
    if isinstance(op, UnaryOp):
        expression = UnaryExpr(op, operands[0])
    else:
        expression = BinaryExpr(op, operands[0], operands[1])
    return _label(
        SeqStmt(
            [
                AssignStmt("x", expression),
                IfStmt(VarExpr("x"), SeqStmt([SkipStmt()]), SeqStmt([])),
                AllocStmt("p", VarExpr("x")),
            ]
        )
    )


@settings(max_examples=100, deadline=None)
@given(_operand_cases())
def test_every_operator_matches_reference_on_edge_operands(case):
    operands, data, width = case
    pairs = [
        (ConcreteInterpreter, "run", ReferenceInterpreter),
        (TaintInterpreter, "run_taint", ReferenceTaint),
        (OverflowWitnessInterpreter, "run_witness", ReferenceWitness),
        (ConcolicInterpreter, "run_concolic", ReferenceConcolic),
    ]
    for op in list(BinaryOp) + list(UnaryOp):
        program = _operator_program(op, operands)
        for compiled_class, method, reference_class in pairs:
            compiled = getattr(compiled_class(program, word_width=width), method)(data)
            reference = getattr(reference_class(program, word_width=width), method)(data)
            assert compiled == reference, (op, compiled_class.__name__)


def _program(body: str) -> Program:
    return Program.from_source("proc main() { " + body + " }")


OUTCOME_PROGRAMS = {
    "halt": ('x = input(0); if (x > 3) { halt "bad"; } warn "ok";', ExecutionOutcome.HALTED),
    "segfault": ("p = alloc(4); p[input(0) * 4096] = 1;", ExecutionOutcome.CRASHED),
    "wild": ("q = 5; y = q[0];", ExecutionOutcome.CRASHED),
    "spin": ("i = input(0); while (1) { i = i + 1; }", ExecutionOutcome.STEP_LIMIT),
    "overrun": (
        "n = input(0); p = alloc(n); i = 0; while (i < 8) { p[i] = i; i = i + 1; }",
        ExecutionOutcome.COMPLETED,
    ),
}


@pytest.mark.parametrize("name", sorted(OUTCOME_PROGRAMS))
@pytest.mark.parametrize("max_steps", [1, 2, 4, 7, 12, 40, 1000])
def test_every_outcome_agrees_at_small_step_limits(name, max_steps):
    source, full_outcome = OUTCOME_PROGRAMS[name]
    program = _program(source)
    limits = ExecutionLimits(max_steps=max_steps)
    pairs = [
        (ConcreteInterpreter(program, limits=limits).run, ReferenceInterpreter(program, limits=limits).run),
        (TaintInterpreter(program, limits=limits).run_taint, ReferenceTaint(program, limits=limits).run_taint),
        (
            OverflowWitnessInterpreter(program, limits=limits).run_witness,
            ReferenceWitness(program, limits=limits).run_witness,
        ),
        (
            ConcolicInterpreter(program, limits=limits).run_concolic,
            ReferenceConcolic(program, limits=limits).run_concolic,
        ),
    ]
    outcomes: List[ExecutionOutcome] = []
    for compiled_run, reference_run in pairs:
        compiled = compiled_run(bytes([5]))
        assert compiled == reference_run(bytes([5]))
        execution = getattr(compiled, "execution", compiled)
        outcomes.append(execution.outcome)
        assert execution.steps <= max_steps + 1
    assert len(set(outcomes)) == 1
    if max_steps == 1000:
        assert outcomes[0] is full_outcome


class TestReferenceState:
    """The walker's own environment and memory-cell accessors."""

    def test_undefined_variable_reads_as_zero(self):
        assert Environment().read("nothing") == (0, None)

    def test_variable_write_then_read(self):
        env = Environment()
        env.write("x", 7, "annotation")
        assert env.read("x") == (7, "annotation")

    def test_environment_snapshot_is_a_copy(self):
        env = Environment()
        env.write("x", 1)
        snapshot = env.snapshot()
        env.write("x", 2)
        assert snapshot["x"][0] == 1

    def test_memory_read_write_cells(self):
        memory = ReferenceMemory()
        block = memory.allocate(8, site_label=1)
        memory.write(block.address, 3, 99, "ann")
        assert memory.read(block.address, 3) == (99, "ann")
        assert memory.read(block.address, 4) == (0, None)

    def test_memory_read_unknown_block_is_zero(self):
        assert ReferenceMemory().read(42, 0) == (0, None)
