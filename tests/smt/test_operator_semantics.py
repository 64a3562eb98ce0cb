"""Every operator against a plain-integer reference, exhaustively.

Each operator of the term language gets a reference meaning written with
Python integers only (modular arithmetic, two's-complement reads for the
signed operators, SMT-LIB's total division).  Three layers that each
implement the operators on their own are held to that table over every
input of a small width:

* the simplifier's constant folder, on the operator applied to constants;
* the compiled term evaluator, on the operator applied to variables;
* the bit-blaster, on the operator applied to variables pinned to one
  point: the pinned system with the reference value is SAT and returns
  the pinned inputs, and the one with any other value is UNSAT.

Where the random-shape oracles in ``test_solver_oracles.py`` check how
operators compose, these tables reach every corner of each operator alone,
such as division by zero and shifts by the full width or more.
"""

from __future__ import annotations

import itertools

import pytest

from repro.smt import builder as b
from repro.smt.bitblast import solve_terms
from repro.smt.evalmodel import evaluate
from repro.smt.sat import SatStatus
from repro.smt.simplify import simplify
from repro.smt.terms import TermKind


def _signed(value, width):
    return value - (1 << width) if value >> (width - 1) else value


def _udiv(a, c, w):
    return a // c if c else (1 << w) - 1


def _urem(a, c, w):
    return a % c if c else a


def _shl(a, c, w):
    return (a << c) % (1 << w) if c < w else 0


def _ashr(a, c, w):
    return (_signed(a, w) >> min(c, w - 1)) % (1 << w)


#: name -> (operand sort, build(x, y, width), reference(a, c, width)).
#: Unary operators ignore ``y``; bitvector results are unsigned and
#: boolean results are 0 or 1.
OPERATORS = {
    # Bitvector arithmetic and bitwise operators.
    "neg": ("bv", lambda x, y, w: b.neg(x), lambda a, c, w: -a % (1 << w)),
    "not": ("bv", lambda x, y, w: b.bvnot(x), lambda a, c, w: ~a % (1 << w)),
    "add": ("bv", lambda x, y, w: b.add(x, y), lambda a, c, w: (a + c) % (1 << w)),
    "sub": ("bv", lambda x, y, w: b.sub(x, y), lambda a, c, w: (a - c) % (1 << w)),
    "mul": ("bv", lambda x, y, w: b.mul(x, y), lambda a, c, w: a * c % (1 << w)),
    "udiv": ("bv", lambda x, y, w: b.udiv(x, y), _udiv),
    "urem": ("bv", lambda x, y, w: b.urem(x, y), _urem),
    "and": ("bv", lambda x, y, w: b.bvand(x, y), lambda a, c, w: a & c),
    "or": ("bv", lambda x, y, w: b.bvor(x, y), lambda a, c, w: a | c),
    "xor": ("bv", lambda x, y, w: b.bvxor(x, y), lambda a, c, w: a ^ c),
    "shl": ("bv", lambda x, y, w: b.shl(x, y), _shl),
    "lshr": ("bv", lambda x, y, w: b.lshr(x, y), lambda a, c, w: a >> c),
    "ashr": ("bv", lambda x, y, w: b.ashr(x, y), _ashr),
    # Structural operators.
    "zext": ("bv", lambda x, y, w: b.zext(x, 2 * w), lambda a, c, w: a),
    "sext": (
        "bv",
        lambda x, y, w: b.sext(x, 2 * w),
        lambda a, c, w: _signed(a, w) % (1 << 2 * w),
    ),
    "extract": ("bv", lambda x, y, w: b.extract(x, w - 1, 1), lambda a, c, w: a >> 1),
    "concat": ("bv", lambda x, y, w: b.concat(x, y), lambda a, c, w: a << w | c),
    "ite": ("bv", lambda x, y, w: b.ite(b.ult(x, y), y, x), lambda a, c, w: max(a, c)),
    # Comparisons.
    "eq": ("bv", lambda x, y, w: b.eq(x, y), lambda a, c, w: a == c),
    "ne": ("bv", lambda x, y, w: b.ne(x, y), lambda a, c, w: a != c),
    "ult": ("bv", lambda x, y, w: b.ult(x, y), lambda a, c, w: a < c),
    "ule": ("bv", lambda x, y, w: b.ule(x, y), lambda a, c, w: a <= c),
    "ugt": ("bv", lambda x, y, w: b.ugt(x, y), lambda a, c, w: a > c),
    "uge": ("bv", lambda x, y, w: b.uge(x, y), lambda a, c, w: a >= c),
    "slt": (
        "bv",
        lambda x, y, w: b.slt(x, y),
        lambda a, c, w: _signed(a, w) < _signed(c, w),
    ),
    "sle": (
        "bv",
        lambda x, y, w: b.sle(x, y),
        lambda a, c, w: _signed(a, w) <= _signed(c, w),
    ),
    "sgt": (
        "bv",
        lambda x, y, w: b.sgt(x, y),
        lambda a, c, w: _signed(a, w) > _signed(c, w),
    ),
    "sge": (
        "bv",
        lambda x, y, w: b.sge(x, y),
        lambda a, c, w: _signed(a, w) >= _signed(c, w),
    ),
    # Boolean connectives.
    "band": ("bool", lambda x, y, w: b.band(x, y), lambda a, c, w: a and c),
    "bor": ("bool", lambda x, y, w: b.bor(x, y), lambda a, c, w: a or c),
    "bxor": ("bool", lambda x, y, w: b.bxor(x, y), lambda a, c, w: a != c),
    "implies": ("bool", lambda x, y, w: b.implies(x, y), lambda a, c, w: not a or c),
    "bnot": ("bool", lambda x, y, w: b.bnot(x), lambda a, c, w: not a),
    "bite": ("bool", lambda x, y, w: b.bite(x, y, b.bnot(y)), lambda a, c, w: a == c),
}


def test_the_table_covers_every_operator_kind():
    leaves = {TermKind.BV_CONST, TermKind.BV_VAR, TermKind.BOOL_CONST, TermKind.BOOL_VAR}
    assert {kind.value for kind in TermKind} - {kind.value for kind in leaves} == set(
        OPERATORS
    )


def _inputs(sort, width):
    values = range(1 << width) if sort == "bv" else (0, 1)
    return itertools.product(values, repeat=2)


def _variables(sort, width):
    if sort == "bv":
        return b.bv_var("x", width), b.bv_var("y", width)
    return b.bool_var("u"), b.bool_var("v")


def _constant(sort, value, width):
    return b.bv_const(value, width) if sort == "bv" else b.bool_const(bool(value))


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_constant_folder_matches_the_reference(name):
    sort, build, reference = OPERATORS[name]
    width = 4
    for a, c in _inputs(sort, width):
        folded = simplify(build(_constant(sort, a, width), _constant(sort, c, width), width))
        assert folded.kind in (TermKind.BV_CONST, TermKind.BOOL_CONST), (a, c)
        assert int(folded.value) == int(reference(a, c, width)), (a, c)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_evaluator_matches_the_reference(name):
    sort, build, reference = OPERATORS[name]
    width = 4
    x, y = _variables(sort, width)
    term = build(x, y, width)
    for a, c in _inputs(sort, width):
        assert evaluate(term, {x.name: a, y.name: c}) == int(reference(a, c, width)), (a, c)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_encoder_matches_the_reference(name):
    sort, build, reference = OPERATORS[name]
    width = 3
    x, y = _variables(sort, width)
    term = build(x, y, width)
    for a, c in _inputs(sort, width):
        expected = int(reference(a, c, width))
        if sort == "bv":
            pins = [b.eq(x, b.bv_const(a, width)), b.eq(y, b.bv_const(c, width))]
        else:
            pins = [x if a else b.bnot(x), y if c else b.bnot(y)]
        if term.is_bool:
            agrees = term if expected else b.bnot(term)
            differs = b.bnot(agrees)
        else:
            agrees = b.eq(term, b.bv_const(expected, term.width))
            differs = b.ne(term, b.bv_const(expected, term.width))
        status, model = solve_terms(pins + [agrees])
        assert status == SatStatus.SAT, (a, c)
        if sort == "bv":
            assert (model["x"], model["y"]) == (a, c)
        status, _ = solve_terms(pins + [differs])
        assert status == SatStatus.UNSAT, (a, c)
