"""Brute-force oracles for the complete solving path.

Each layer of the complete backend is held to ground truth that does not
depend on any other implementation of the same layer:

* the CDCL core against exhaustive enumeration of small CNFs (≤10
  variables), with every SAT assignment checked clause by clause;
* assumption-based UNSAT cores against enumeration: each core is a subset
  of the assumptions, and the CNF plus the core as unit clauses has no
  model at all;
* the Tseitin encoder (``solve_terms``) against enumeration of all 256
  assignments to two width-4 variables through the term evaluator, on
  random systems and on systems pinned to one point;
* the compiled term evaluator against the simplifier's constant folder,
  applied to the same term shape built over constants instead of
  variables.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import METRICS, counter_value
from repro.smt import builder as b
from repro.smt.bitblast import solve_terms
from repro.smt.cnf import CNF
from repro.smt.evalmodel import Model, evaluate, satisfies
from repro.smt.sat import CDCLSolver, SatStatus
from repro.smt.simplify import simplify
from repro.smt.solver import PortfolioSolver, SolverConfig
from repro.smt.terms import TermKind


# ----------------------------------------------------------------------
# CDCL core vs enumeration
# ----------------------------------------------------------------------
@st.composite
def random_cnfs(draw):
    num_vars = draw(st.integers(min_value=1, max_value=10))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(
            st.lists(literal, min_size=1, max_size=4), min_size=0, max_size=24
        )
    )
    return _cnf(num_vars, clauses)


@st.composite
def ternary_cnfs(draw):
    """Random 3-SAT near its threshold (about 4.3 clauses per variable).

    Unlike :func:`random_cnfs`, whose short clauses are mostly decided by
    unit propagation, these instances are decided by search: conflicts,
    learning and backjumps.  The CNF is derived from one drawn seed, which
    keeps generation cheap and every failure reproducible.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    num_vars = rng.randint(6, 10)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(rng.randint(4 * num_vars - 2, 4 * num_vars + 6))
    ]
    return _cnf(num_vars, clauses)


def _cnf(num_vars, clauses) -> CNF:
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _brute_force_sat(num_vars, clauses) -> bool:
    """Whether some assignment of ``num_vars`` variables satisfies ``clauses``.

    Assignment ``bits`` sets variable ``v`` true iff bit ``v - 1`` is set; a
    clause holds when one of its positive variables is set or one of its
    negative variables is clear.
    """
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    full = (1 << num_vars) - 1
    return any(
        all((bits & pos) or (~bits & full & neg) for pos, neg in masks)
        for bits in range(1 << num_vars)
    )


def _satisfies_every_clause(assignment, clauses) -> bool:
    return all(
        any(assignment.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in clauses
    )


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_cnfs(), ternary_cnfs()))
def test_cdcl_status_matches_enumeration(cnf):
    result = CDCLSolver(cnf).solve()
    expected = _brute_force_sat(cnf.num_vars, cnf.clauses)
    assert result.status == (SatStatus.SAT if expected else SatStatus.UNSAT)
    if result.is_sat:
        assert _satisfies_every_clause(result.assignment, cnf.clauses)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(random_cnfs(), ternary_cnfs()),
    st.lists(
        st.lists(st.integers(min_value=-10, max_value=10), max_size=4),
        min_size=1,
        max_size=3,
    ),
)
def test_assumption_cores_are_unsat_subsets(cnf, raw_rounds):
    # One solver answers every round, as a solver session does: learned
    # clauses carry over, assumptions do not.
    solver = CDCLSolver(cnf)
    for raw in raw_rounds:
        assumptions = list(
            dict.fromkeys(
                lit for lit in raw if lit != 0 and abs(lit) <= cnf.num_vars
            )
        )
        units = [(lit,) for lit in assumptions]
        result = solver.solve(assumptions=assumptions)
        expected = _brute_force_sat(cnf.num_vars, list(cnf.clauses) + units)
        assert result.status == (SatStatus.SAT if expected else SatStatus.UNSAT)
        if result.is_sat:
            assert _satisfies_every_clause(result.assignment, cnf.clauses + units)
            continue
        assert set(result.core) <= set(assumptions)
        core_units = [(lit,) for lit in result.core]
        assert not _brute_force_sat(cnf.num_vars, list(cnf.clauses) + core_units)


# ----------------------------------------------------------------------
# Term shapes, buildable over variables or over constants
# ----------------------------------------------------------------------
_BINARY = {
    "add": b.add,
    "sub": b.sub,
    "mul": b.mul,
    "udiv": b.udiv,
    "urem": b.urem,
    "and": b.bvand,
    "or": b.bvor,
    "xor": b.bvxor,
    "shl": b.shl,
    "lshr": b.lshr,
    "ashr": b.ashr,
}
_UNARY = {"neg": b.neg, "not": b.bvnot}
_COMPARE = {
    "eq": b.eq,
    "ne": b.ne,
    "ult": b.ult,
    "ule": b.ule,
    "ugt": b.ugt,
    "uge": b.uge,
    "slt": b.slt,
    "sle": b.sle,
    "sgt": b.sgt,
    "sge": b.sge,
}


_CONNECTIVES = {"band": b.band, "bor": b.bor, "bxor": b.bxor, "implies": b.implies}
_BV_OPS = sorted(_UNARY) + sorted(_BINARY) + ["ite", "zext", "sext", "concat"]
_BOOL_OPS = sorted(_CONNECTIVES) + ["bnot"]


@st.composite
def bv_shapes(draw, names, width, depth):
    """A nested-tuple description of a bitvector term of one width."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        if draw(st.booleans()):
            return ("var", draw(st.sampled_from(names)))
        return ("const", draw(st.integers(min_value=0, max_value=(1 << width) - 1)))

    def child():
        return draw(bv_shapes(names, width, depth - 1))

    op = draw(st.sampled_from(_BV_OPS))
    if op in _UNARY:
        return (op, child())
    if op in _BINARY:
        return (op, child(), child())
    if op == "ite":
        return (op, draw(st.sampled_from(sorted(_COMPARE))), (child(), child()), (child(), child()))
    if op == "concat":
        return (op, child(), child(), draw(st.integers(min_value=1, max_value=width - 1)))
    # Width-changing round trip: extract a slice, then zero- or
    # sign-extend it back to ``width``.
    bit = st.integers(min_value=0, max_value=width - 1)
    return (op, child(), draw(bit), draw(bit))


@st.composite
def bool_shapes(draw, names, width, depth):
    """A comparison of two bitvector shapes, under boolean connectives."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return (
            draw(st.sampled_from(sorted(_COMPARE))),
            draw(bv_shapes(names, width, depth)),
            draw(bv_shapes(names, width, depth)),
        )
    op = draw(st.sampled_from(_BOOL_OPS))
    if op == "bnot":
        return (op, draw(bool_shapes(names, width, depth - 1)))
    return (
        op,
        draw(bool_shapes(names, width, depth - 1)),
        draw(bool_shapes(names, width, depth - 1)),
    )


def _build(shape, leaf, width):
    """The term a shape describes; ``leaf(name)`` supplies each variable."""
    op = shape[0]
    if op == "var":
        return leaf(shape[1])
    if op == "const":
        return b.bv_const(shape[1], width)
    if op in _UNARY:
        return _UNARY[op](_build(shape[1], leaf, width))
    if op in _BINARY:
        return _BINARY[op](_build(shape[1], leaf, width), _build(shape[2], leaf, width))
    if op == "ite":
        _, compare, (left, right), (then, otherwise) = shape
        condition = _COMPARE[compare](_build(left, leaf, width), _build(right, leaf, width))
        return b.ite(condition, _build(then, leaf, width), _build(otherwise, leaf, width))
    if op in ("zext", "sext"):
        _, child, i, j = shape
        high, low = max(i, j), min(i, j)
        piece = b.extract(_build(child, leaf, width), high, low)
        if high - low + 1 == width:
            return piece
        extend = b.zext if op == "zext" else b.sext
        return extend(piece, width)
    if op == "concat":
        _, left, right, split = shape
        high = b.extract(_build(left, leaf, width), width - split - 1, 0)
        low = b.extract(_build(right, leaf, width), split - 1, 0)
        return b.concat(high, low)
    if op in _COMPARE:
        return _COMPARE[op](_build(shape[1], leaf, width), _build(shape[2], leaf, width))
    if op == "bnot":
        return b.bnot(_build(shape[1], leaf, width))
    return _CONNECTIVES[op](_build(shape[1], leaf, width), _build(shape[2], leaf, width))


# ----------------------------------------------------------------------
# Evaluator vs the simplifier's constant folder
# ----------------------------------------------------------------------
EVAL_WIDTH = 8
EVAL_NAMES = ["x", "y", "z"]
EVAL_MODELS = st.fixed_dictionaries(
    {name: st.integers(min_value=0, max_value=255) for name in EVAL_NAMES}
)


def _folded(shape, model):
    """``simplify`` of the shape built over the model's values as constants."""
    term = simplify(
        _build(shape, lambda name: b.bv_const(model[name], EVAL_WIDTH), EVAL_WIDTH)
    )
    assert term.kind in (TermKind.BV_CONST, TermKind.BOOL_CONST)
    return term.value


@settings(max_examples=200, deadline=None)
@given(bv_shapes(EVAL_NAMES, EVAL_WIDTH, depth=4), EVAL_MODELS)
def test_evaluator_matches_constant_folding_on_bitvectors(shape, model):
    term = _build(shape, lambda name: b.bv_var(name, EVAL_WIDTH), EVAL_WIDTH)
    assert evaluate(term, Model(model)) == _folded(shape, model)


@settings(max_examples=100, deadline=None)
@given(bool_shapes(EVAL_NAMES, EVAL_WIDTH, depth=3), EVAL_MODELS)
def test_evaluator_matches_constant_folding_on_booleans(shape, model):
    term = _build(shape, lambda name: b.bv_var(name, EVAL_WIDTH), EVAL_WIDTH)
    assert evaluate(term, model) == _folded(shape, model)


# ----------------------------------------------------------------------
# Encoder vs enumeration through the evaluator
# ----------------------------------------------------------------------
ENC_WIDTH = 4
ENC_NAMES = ["p", "q"]


def _assert_encoder_matches_enumeration(system):
    expected = any(
        all(satisfies(term, {"p": p, "q": q}) for term in system)
        for p in range(1 << ENC_WIDTH)
        for q in range(1 << ENC_WIDTH)
    )
    status, model = solve_terms(system)
    assert status == (SatStatus.SAT if expected else SatStatus.UNSAT)
    if status == SatStatus.SAT:
        # A variable the encoder never had to allocate is absent from the
        # model; the system holds for any value of it.
        full = {"p": 0, "q": 0}
        full.update(model.as_dict())
        assert all(satisfies(term, full) for term in system)


def _over_variables(shape):
    return _build(shape, lambda name: b.bv_var(name, ENC_WIDTH), ENC_WIDTH)


@settings(max_examples=60, deadline=None)
@given(st.lists(bool_shapes(ENC_NAMES, ENC_WIDTH, depth=3), min_size=1, max_size=2))
def test_encoder_status_matches_enumeration(shapes):
    _assert_encoder_matches_enumeration([_over_variables(s) for s in shapes])


@settings(max_examples=60, deadline=None)
@given(
    bv_shapes(ENC_NAMES, ENC_WIDTH, depth=4),
    st.integers(min_value=0, max_value=(1 << ENC_WIDTH) - 1),
    st.integers(min_value=0, max_value=(1 << ENC_WIDTH) - 1),
    st.booleans(),
)
def test_encoder_matches_enumeration_at_a_pinned_point(shape, p, q, equal):
    # Pinning both inputs leaves one candidate assignment, so the status
    # turns on the encoded value of the term at exactly that point: any
    # gate that computes a wrong bit there flips it.
    term = _over_variables(shape)
    value = b.bv_const(evaluate(term, {"p": p, "q": q}), ENC_WIDTH)
    pins = [
        b.eq(b.bv_var("p", ENC_WIDTH), b.bv_const(p, ENC_WIDTH)),
        b.eq(b.bv_var("q", ENC_WIDTH), b.bv_const(q, ENC_WIDTH)),
    ]
    claim = b.eq(term, value) if equal else b.ne(term, value)
    _assert_encoder_matches_enumeration(pins + [claim])


# ----------------------------------------------------------------------
# Complete-backend work counters
# ----------------------------------------------------------------------
def test_cdcl_bound_solve_records_propagation_counters():
    config = SolverConfig(
        enable_sessions=False,
        enable_decomposition=False,
        heuristic_max_checks=2,
    )
    x = b.bv_var("tc", 16)
    system = [
        b.eq(b.bvand(b.mul(x, x), b.bv_const(31, 16)), b.bv_const(5, 16))
    ]
    mark = METRICS.snapshot()
    result = PortfolioSolver(config).check(system)
    delta = METRICS.delta(mark)
    assert result.is_unsat
    assert counter_value(delta, "solver.bitblast_calls") == 1
    assert counter_value(delta, "solver.cdcl_propagations") > 0
    assert counter_value(delta, "solver.cdcl_decisions") > 0
