"""Brute-force oracle for interval propagation (solver layer 2).

At 3- and 4-bit widths every assignment of a small system can be
enumerated, so the contractor is held to ground truth that does not depend
on any interval code, only on the compiled term evaluator:

* ``feasible=False`` means no assignment satisfies the system;
* every satisfying assignment lies inside the returned box;
* every term's forward interval contains its concrete value, under the
  propagated box and under a random sub-box of the variables;
* a constraint that the sub-box decides has that value on every
  assignment inside it.

Systems are built over a pool of shared terms (each new term is made from
earlier ones), so conjuncts share nodes: term-bound learning, contraction
over several rounds and the byte-assembly kinds (ZEXT, EXTRACT, CONCAT)
the registry's parsers produce are all reached.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, seed, settings, strategies as st

from repro.smt import builder as b
from repro.smt.evalcompile import compiled_evaluator
from repro.smt.interval import Interval, IntervalAnalysis, interval_of, propagate_intervals

_BINARY_OPS = (b.add, b.sub, b.mul, b.udiv, b.urem, b.shl, b.lshr, b.bvand, b.bvor)
_INVERTIBLE_OPS = (b.add, b.mul, b.shl, b.lshr, b.udiv)
_COMPARISONS = (b.eq, b.ne, b.ult, b.ule, b.ugt, b.uge)


def _system(rng: random.Random, variables: int, conjuncts: int):
    """``(names, width, terms, constraints)`` for one random system."""
    width = 3 if variables == 3 else 4
    names = ["x", "y", "z"][:variables]
    pool = {width: [b.bv_var(name, width) for name in names], 2 * width: []}

    def const(w):
        top = (1 << w) - 1
        return b.bv_const(rng.choice([0, 1, 2, w - 1, top, rng.randrange(top + 1)]), w)

    def operand(w, terms=0.8):
        if pool[w] and rng.random() < terms:
            return rng.choice(pool[w])
        return const(w)

    # Comparisons mostly constrain built terms, against a constant half the
    # time: the shape the contractor pushes down through.
    def comparison(w):
        built = [t for t in pool[w] if not t.is_var]
        left = rng.choice(built) if built and rng.random() < 0.7 else operand(w)
        return rng.choice(_COMPARISONS)(left, operand(w, terms=0.5))

    for _ in range(rng.randrange(2, 6)):
        w = rng.choice([width, 2 * width])
        shape = rng.randrange(5)
        if shape == 0:
            term = rng.choice(_BINARY_OPS)(operand(w), operand(w))
        elif shape == 1:
            # The operators the contractor inverts: x + c, x * c, x << c,
            # x >> c and x / c.
            term = rng.choice(_INVERTIBLE_OPS)(operand(w), const(w))
        elif shape == 2:
            term = b.ite(comparison(width), operand(w), operand(w))
        elif w == width:
            # The low or high half of a wide term, or a full-width extract.
            if pool[2 * width] and rng.random() < 0.7:
                low = rng.choice([0, width])
                term = b.extract(rng.choice(pool[2 * width]), low + width - 1, low)
            else:
                term = b.extract(operand(width), width - 1, 0)
        else:
            narrow = operand(width)
            term = rng.choice(
                [b.zext(narrow, w), b.sext(narrow, w), b.concat(narrow, operand(width))]
            )
        pool[w].append(term)

    constraints = []
    for _ in range(conjuncts):
        w = rng.choice([width, 2 * width])
        constraint = comparison(w)
        wrapper = rng.random()
        if wrapper < 0.2:
            constraint = b.bnot(constraint)
        elif wrapper < 0.35:
            constraint = b.band(constraint, comparison(rng.choice([width, 2 * width])))
        elif wrapper < 0.5:
            constraint = b.bor(constraint, comparison(rng.choice([width, 2 * width])))
        constraints.append(constraint)
    terms = [t for w in pool for t in pool[w] if not t.is_var]
    return names, width, terms, constraints


@st.composite
def systems(draw):
    variables = draw(st.sampled_from([2, 3]))
    conjuncts = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    names, width, terms, constraints = _system(rng, variables, conjuncts)
    top = (1 << width) - 1
    sub_box = {}
    for name in names:
        lo, hi = sorted((rng.randrange(top + 1), rng.randrange(top + 1)))
        sub_box[name] = Interval(lo, hi)
    return names, width, terms, constraints, sub_box


def _models(names, ranges):
    return [dict(zip(names, values)) for values in itertools.product(*ranges)]


def _forward_contains(terms, box, models):
    """Every term's forward interval under ``box`` holds its value on ``models``."""
    for term in terms:
        lo, hi = interval_of(term, box)
        value = compiled_evaluator(term)
        for model in models:
            assert lo <= value(model) <= hi, (term, box, model)


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(system=systems())
def test_propagation_agrees_with_enumeration(system):
    names, width, terms, constraints, sub_box = system
    feasible, box = propagate_intervals(constraints, {name: width for name in names})
    holds = compiled_evaluator(b.band(*constraints))
    everything = _models(names, [range(1 << width)] * len(names))
    satisfying = [model for model in everything if holds(model)]
    assert feasible or not satisfying, f"{satisfying[0]} satisfies an infeasible system"
    for name in names:
        assert all(model[name] in box[name] for model in satisfying), name
    _forward_contains(terms, box, satisfying)

    inside = _models(names, [range(lo, hi + 1) for lo, hi in sub_box.values()])
    _forward_contains(terms, sub_box, inside)
    analysis = IntervalAnalysis(sub_box)
    for constraint in constraints:
        verdict = analysis.decide(constraint)
        if verdict is not None:
            check = compiled_evaluator(constraint)
            assert all(bool(check(model)) is verdict for model in inside), constraint
