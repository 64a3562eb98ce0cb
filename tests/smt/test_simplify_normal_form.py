"""The simplified form stored on each interned term.

:func:`repro.smt.simplify.simplify` keeps its answer in the term's
``_simplified`` slot.  The oracle here is an independent reference: the
same bottom-up rewrite with a private per-call table and no slot access.
Whatever order terms and their subterms are simplified in, and however
many threads race on a fresh DAG, the slot must hold exactly the
reference answer for the term that was asked.
"""

from __future__ import annotations

import itertools
import sys
import threading
from typing import Dict

from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.evalmodel import evaluate
from repro.smt.simplify import _rewrite, simplify
from repro.smt.solver import PortfolioSolver
from repro.smt.terms import Term
from tests.smt.test_solver_cache import (
    VALUE,
    _assert_model_satisfies,
    _rename,
    bv_terms,
    constraint_systems,
)

_FRESH = itertools.count()


def reference_simplify(term: Term) -> Term:
    """Bottom-up rewrite over a private table; never reads or writes slots."""
    table: Dict[Term, Term] = {}

    def walk(node: Term) -> Term:
        hit = table.get(node)
        if hit is not None:
            return hit
        if node.is_const or node.is_var:
            result = node
        else:
            result = _rewrite(node, tuple(walk(arg) for arg in node.args))
        table[node] = result
        return result

    return walk(term)


def _fresh(term: Term) -> Term:
    """A copy of ``term`` over never-seen variable names, so no slot is filled."""
    tag = next(_FRESH)
    return _rename(term, {name: f"{name}#{tag}" for name in ("x", "y", "z")})


def _flag(condition: Term, width: int = 8) -> Term:
    return b.ite(condition, b.bv_const(1, width), b.bv_const(0, width))


@st.composite
def flag_conditions(draw):
    """Comparisons over ``ite(c, 1, 0)`` flags, optionally negated — the
    shape the concolic interpreter gives branch conditions."""
    comparisons = st.sampled_from([b.ult, b.ule, b.eq, b.ne, b.ugt, b.uge])
    inner = draw(comparisons)(draw(bv_terms(max_depth=2)), draw(bv_terms(max_depth=2)))
    constant = b.bv_const(draw(st.sampled_from([0, 1, 2])), 8)
    outer = draw(comparisons)(_flag(inner), constant)
    return b.bnot(outer) if draw(st.booleans()) else outer


def _check_any_order(root: Term, data) -> None:
    subterms = sorted(root.subterms(), key=lambda term: term._id)
    plan = data.draw(
        st.lists(
            st.sampled_from(["before", "after", "never"]),
            min_size=len(subterms),
            max_size=len(subterms),
        )
    )
    expected = {}
    if data.draw(st.booleans(), label="reference first"):
        expected = {term: reference_simplify(term) for term in subterms}
    asked = {}
    for term, when in zip(subterms, plan):
        if when == "before":
            asked[term] = simplify(term)
    asked[root] = simplify(root)
    for term, when in zip(subterms, plan):
        if when == "after":
            asked[term] = simplify(term)
    for term in subterms:
        expected.setdefault(term, reference_simplify(term))
        if term in asked:
            assert asked[term] is expected[term]
        elif term._simplified is not None:
            # Filled on the way to the root, never asked directly.
            assert term._simplified is expected[term]


class TestSlotMatchesReference:
    @given(term=bv_terms(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bitvector_terms_in_any_order(self, term, data):
        _check_any_order(_fresh(term), data)

    @given(system=constraint_systems(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_constraint_systems_in_any_order(self, system, data):
        for conjunct in system:
            _check_any_order(_fresh(conjunct), data)

    @given(condition=flag_conditions(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flag_conditions_in_any_order(self, condition, data):
        _check_any_order(_fresh(condition), data)

    def test_leaves_are_their_own_form(self):
        variable = b.bv_var(f"leaf#{next(_FRESH)}", 8)
        assert simplify(variable) is variable
        assert variable._simplified is variable

    def test_concurrent_first_simplification_agrees(self):
        tag = next(_FRESH)
        x, y = b.bv_var(f"x#{tag}", 32), b.bv_var(f"y#{tag}", 32)
        root = x
        for step in range(60):
            operand = b.add(y, b.bv_const(step, 32))
            if step % 3 == 0:
                root = b.mul(root, operand)
            elif step % 3 == 1:
                root = b.bvxor(root, _flag(b.ult(root, operand), 32))
            else:
                root = b.add(b.add(root, b.bv_const(1, 32)), b.bv_const(step, 32))
        assert root._simplified is None
        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(index: int) -> None:
            barrier.wait()
            results[index] = simplify(root)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is results[0] for result in results)
        assert results[0] is reference_simplify(root)
        for term in root.subterms():
            if term._simplified is not None:
                assert term._simplified is reference_simplify(term)


class TestNormalFormProperties:
    @given(term=bv_terms(), model=st.fixed_dictionaries({"x": VALUE, "y": VALUE, "z": VALUE}))
    @settings(max_examples=60, deadline=None)
    def test_simplify_preserves_semantics(self, term, model):
        assert evaluate(simplify(term), model) == evaluate(term, model)

    @given(system=constraint_systems())
    @settings(max_examples=30, deadline=None)
    def test_filled_slots_do_not_change_verdicts(self, system):
        for conjunct in system:
            simplify(conjunct)
        warm = PortfolioSolver().check(system)
        renaming = {name: f"{name}#{next(_FRESH)}" for name in ("x", "y", "z")}
        fresh = [_rename(conjunct, renaming) for conjunct in system]
        cold = PortfolioSolver().check(fresh)
        assert cold.status == warm.status
        if warm.is_sat:
            _assert_model_satisfies(warm.model, system)
        if cold.is_sat:
            _assert_model_satisfies(cold.model, fresh)


class TestNegatedComparison:
    def test_negated_flag_test_simplifies_in_one_pass(self):
        x = b.bv_var("x", 32)
        condition = b.ult(x, 7)
        term = b.bnot(b.ule(_flag(condition, 32), b.bv_const(0, 32)))
        once = simplify(term)
        assert once is condition
        assert simplify(once) is once

    def test_flag_equal_to_zero_negates_the_comparison(self):
        x = b.bv_var("x", 32)
        once = simplify(b.eq(_flag(b.ult(x, 7), 32), b.bv_const(0, 32)))
        assert once is b.uge(x, 7)
        assert simplify(once) is once
