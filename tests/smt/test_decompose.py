"""Tests for connected-component decomposition (:mod:`repro.smt.decompose`).

Contracts: components partition the conjuncts; variable sets are pairwise
disjoint; ordering is deterministic (by first conjunct position, original
relative order inside each component); composed per-component models decide
the whole conjunction.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.decompose import Component, compose_models, decompose
from repro.smt.evalmodel import Model, satisfies
from repro.smt.solver import PortfolioSolver, SolverConfig

WIDTH = 8


def _var(name):
    return b.bv_var(name, WIDTH)


class TestDecompose:
    def test_empty_conjunction_has_no_components(self):
        assert decompose([]) == []

    def test_disjoint_conjuncts_split(self):
        first = b.ult(_var("x"), b.bv_const(10, WIDTH))
        second = b.ugt(_var("y"), b.bv_const(3, WIDTH))
        components = decompose([first, second])
        assert len(components) == 2
        assert components[0].conjuncts == (first,)
        assert components[0].variables == ("x",)
        assert components[1].conjuncts == (second,)
        assert components[1].variables == ("y",)

    def test_shared_variable_joins_conjuncts(self):
        first = b.ult(_var("x"), _var("y"))
        second = b.ugt(_var("y"), b.bv_const(3, WIDTH))
        components = decompose([first, second])
        assert len(components) == 1
        assert components[0].conjuncts == (first, second)
        assert components[0].variables == ("x", "y")

    def test_transitive_sharing_joins_chains(self):
        """x-y and y-z and z-w chain into one component."""
        chain = [
            b.ult(_var("x"), _var("y")),
            b.ult(_var("y"), _var("z")),
            b.ult(_var("z"), _var("w")),
            b.ugt(_var("q"), b.bv_const(0, WIDTH)),
        ]
        components = decompose(chain)
        assert len(components) == 2
        assert components[0].conjuncts == tuple(chain[:3])
        assert components[1].conjuncts == (chain[3],)

    def test_interleaved_components_keep_relative_order(self):
        """Conjunct order inside a component follows the input order even
        when the components interleave."""
        a1 = b.ult(_var("a"), b.bv_const(9, WIDTH))
        b1 = b.ult(_var("b"), b.bv_const(9, WIDTH))
        a2 = b.ugt(_var("a"), b.bv_const(1, WIDTH))
        b2 = b.ugt(_var("b"), b.bv_const(1, WIDTH))
        components = decompose([a1, b1, a2, b2])
        assert [c.conjuncts for c in components] == [(a1, a2), (b1, b2)]

    def test_variable_free_conjuncts_are_singletons(self):
        constant = b.TRUE
        other = b.ult(_var("x"), b.bv_const(4, WIDTH))
        components = decompose([constant, other, constant])
        assert [c.conjuncts for c in components] == [
            (constant,),
            (other,),
            (constant,),
        ]
        assert components[0].variables == ()

    def test_boolean_variables_join_the_graph(self):
        flag = b.bool_var("flag")
        first = b.bor(flag, b.ult(_var("x"), b.bv_const(3, WIDTH)))
        second = b.bor(flag, b.ugt(_var("y"), b.bv_const(5, WIDTH)))
        assert len(decompose([first, second])) == 1

    def test_decomposition_partitions_the_input(self):
        conjuncts = [
            b.ult(_var("x"), _var("y")),
            b.ugt(_var("z"), b.bv_const(1, WIDTH)),
            b.eq(_var("y"), b.bv_const(4, WIDTH)),
        ]
        components = decompose(conjuncts)
        flattened = [c for comp in components for c in comp.conjuncts]
        assert sorted(map(id, flattened)) == sorted(map(id, conjuncts))
        names = [set(comp.variables) for comp in components]
        for index, left in enumerate(names):
            for right in names[index + 1:]:
                assert not left & right


class TestComposeModels:
    def test_union_of_disjoint_models(self):
        composed = compose_models(
            [Model({"x": 1}), Model({"y": 2}), Model()]
        )
        assert composed.as_dict() == {"x": 1, "y": 2}


@st.composite
def disjoint_systems(draw):
    """Conjuncts over three disjoint variable pools."""
    comparisons = st.sampled_from([b.ult, b.ule, b.eq, b.ne, b.ugt, b.uge])
    value = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)
    conjuncts = []
    for pool in ("x", "y", "z"):
        count = draw(st.integers(min_value=0, max_value=2))
        for _ in range(count):
            op = draw(comparisons)
            conjuncts.append(op(_var(pool), b.bv_const(draw(value), WIDTH)))
    return conjuncts


class TestDecomposedSolving:
    @given(system=disjoint_systems())
    @settings(max_examples=50, deadline=None)
    def test_decomposed_status_matches_monolithic(self, system):
        """Decomposition never changes the verdict, and composed SAT models
        satisfy every conjunct."""
        decomposed = PortfolioSolver(SolverConfig(incremental=True)).check(system)
        monolithic = PortfolioSolver(SolverConfig(incremental=False)).check(system)
        assert decomposed.status == monolithic.status
        if decomposed.is_sat:
            completed = decomposed.model.copy()
            for conjunct in system:
                for variable in conjunct.variables():
                    if variable not in completed:
                        completed[variable] = 0
            assert all(satisfies(c, completed) for c in system)
