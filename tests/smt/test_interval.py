"""Tests for the interval domain, forward analysis and backward propagation."""

from repro.smt import builder as b
from repro.smt.interval import (
    Interval,
    IntervalAnalysis,
    interval_of,
    propagate_intervals,
)
from repro.smt.terms import Term


class TestIntervalLattice:
    def test_full(self):
        assert Interval.full(8) == Interval(0, 255)

    def test_point(self):
        assert Interval.point(7).is_point

    def test_ite_interval_is_the_hull_of_its_arms(self):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        bounds = {"x": Interval(0, 2), "y": Interval(8, 9)}
        assert interval_of(b.ite(b.bool_var("p"), x, y), bounds) == Interval(0, 9)

    def test_contains(self):
        assert 5 in Interval(0, 10)
        assert 11 not in Interval(0, 10)

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)

    def test_intersect_disjoint_is_empty(self):
        assert Interval(0, 4).intersect(Interval(5, 9)).is_empty


class TestForwardAnalysis:
    def test_constant(self):
        assert interval_of(b.bv_const(9, 8)) == Interval.point(9)

    def test_unbounded_variable(self):
        assert interval_of(b.bv_var("x", 8)) == Interval(0, 255)

    def test_bounded_variable(self):
        x = b.bv_var("x", 8)
        assert interval_of(x, {"x": Interval(3, 5)}) == Interval(3, 5)

    def test_add_without_wrap(self):
        x = b.bv_var("x", 32)
        result = interval_of(b.add(x, 10), {"x": Interval(0, 100)})
        assert result == Interval(10, 110)

    def test_add_possible_wrap_goes_full(self):
        x = b.bv_var("x", 8)
        assert interval_of(b.add(x, 200)) == Interval.full(8)

    def test_mul_without_wrap(self):
        x = b.bv_var("x", 32)
        result = interval_of(b.mul(x, 4), {"x": Interval(1, 10)})
        assert result == Interval(4, 40)

    def test_lshr_by_constant(self):
        x = b.bv_var("x", 32)
        assert interval_of(b.lshr(x, b.bv_const(3, 32)), {"x": Interval(0, 1024)}) == Interval(0, 128)

    def test_zext_preserves(self):
        x = b.bv_var("x", 8)
        assert interval_of(b.zext(x, 32), {"x": Interval(2, 9)}) == Interval(2, 9)

    def test_and_upper_bound(self):
        x = b.bv_var("x", 32)
        result = interval_of(b.bvand(x, 0xFF))
        assert result.hi <= 0xFF

    def test_ite_union(self):
        x = b.bv_var("x", 8)
        term = b.ite(b.bool_var("c"), b.bv_const(3, 8), b.bv_const(9, 8))
        assert interval_of(term) == Interval(3, 9)

    def test_udiv_by_constant(self):
        x = b.bv_var("x", 32)
        assert interval_of(b.udiv(x, 4), {"x": Interval(8, 40)}) == Interval(2, 10)


class TestDecide:
    def test_decides_true(self):
        x = b.bv_var("x", 32)
        analysis = IntervalAnalysis({"x": Interval(0, 10)})
        assert analysis.decide(b.ult(x, 11)) is True

    def test_decides_false(self):
        x = b.bv_var("x", 32)
        analysis = IntervalAnalysis({"x": Interval(0, 10)})
        assert analysis.decide(b.ugt(x, 20)) is False

    def test_undecided(self):
        x = b.bv_var("x", 32)
        analysis = IntervalAnalysis({"x": Interval(0, 10)})
        assert analysis.decide(b.ult(x, 5)) is None

    def test_disjunction(self):
        x = b.bv_var("x", 32)
        analysis = IntervalAnalysis({"x": Interval(0, 10)})
        constraint = b.bor(b.ugt(x, 20), b.ult(x, 11))
        assert analysis.decide(constraint) is True

    def test_conjunction_false(self):
        x = b.bv_var("x", 32)
        analysis = IntervalAnalysis({"x": Interval(0, 10)})
        constraint = b.band(b.ugt(x, 20), b.ult(x, 5))
        assert analysis.decide(constraint) is False


class TestPropagation:
    def test_simple_upper_bound(self):
        x = b.bv_var("x", 32)
        feasible, bounds = propagate_intervals([b.ult(x, 100)], {"x": 32})
        assert feasible
        assert bounds["x"].hi == 99

    def test_contradictory_bounds_infeasible(self):
        x = b.bv_var("x", 32)
        feasible, _ = propagate_intervals(
            [b.ult(x, 10), b.ugt(x, 20)], {"x": 32}
        )
        assert not feasible

    def test_propagates_through_multiplication_by_constant(self):
        x = b.bv_var("x", 32)
        wide = b.mul(b.zext(x, 64), b.bv_const(4, 64))
        feasible, bounds = propagate_intervals(
            [b.ule(wide, b.bv_const(400, 64))], {"x": 32}
        )
        assert feasible
        assert bounds["x"].hi == 100

    def test_equality_pins_variable(self):
        x = b.bv_var("x", 32)
        feasible, bounds = propagate_intervals([b.eq(x, 42)], {"x": 32})
        assert feasible
        assert bounds["x"] == Interval(42, 42)

    def test_overflow_with_sanity_bounds_is_infeasible(self):
        """The paper's Dillo scenario: bounded width/height cannot overflow."""
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        overflow = b.ugt(
            b.mul(b.zext(w, 64), b.zext(h, 64)), b.bv_const(0xFFFFFFFF, 64)
        )
        feasible, _ = propagate_intervals(
            [overflow, b.ult(w, 1154), b.ult(h, 1_000_000)], {"w": 32, "h": 32}
        )
        assert not feasible

    def test_overflow_with_loose_bounds_stays_feasible(self):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        overflow = b.ugt(
            b.mul(b.zext(w, 64), b.zext(h, 64)), b.bv_const(0xFFFFFFFF, 64)
        )
        feasible, _ = propagate_intervals(
            [overflow, b.ult(w, 1_000_000), b.ult(h, 1_000_000)], {"w": 32, "h": 32}
        )
        assert feasible

    def test_term_bound_learning_on_shared_expression(self):
        """A bound on a shared expression node limits other constraints.

        This mirrors the paper's blocking check: the seed-path loop pins
        ``rowbytes`` even though ``rowbytes`` is not a variable.
        """
        w = b.bv_var("w", 32)
        bd = b.bv_var("bd", 32)
        h = b.bv_var("h", 32)
        rowbytes = b.lshr(b.mul(w, bd), b.bv_const(3, 32))
        overflow = b.ugt(
            b.mul(b.zext(rowbytes, 64), b.zext(h, 64)),
            b.bv_const(0xFFFFFFFF, 64),
        )
        feasible, _ = propagate_intervals(
            [overflow, b.ule(rowbytes, 1154), b.ult(h, 1_000_000)],
            {"w": 32, "bd": 32, "h": 32},
        )
        assert not feasible

    def test_initial_bounds_respected(self):
        x = b.bv_var("x", 32)
        feasible, bounds = propagate_intervals(
            [b.ugt(x, 5)], {"x": 32}, initial={"x": Interval(0, 10)}
        )
        assert feasible
        assert bounds["x"] == Interval(6, 10)

    def test_box_lists_width_names_first_then_names_met_by_contraction(self):
        x, y, z = (b.bv_var(name, 8) for name in "xyz")
        feasible, bounds = propagate_intervals(
            [b.ult(z, 7), b.ule(y, 9), b.ult(x, 3)], {"y": 8, "x": 8}
        )
        assert feasible
        assert list(bounds.items()) == [
            ("y", Interval(0, 9)), ("x", Interval(0, 2)), ("z", Interval(0, 6))
        ]


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


class TestStaticLowering:
    def test_term_slot_holds_only_static_structure(self):
        """The lowering cached on a term is filled once and holds no term
        and no bound: later calls under other boxes reuse it as it is."""
        x, y = b.bv_var("x", 8), b.bv_var("y", 8)
        constraint = b.ule(b.add(b.mul(x, 3), y), 200)
        propagate_intervals([constraint], {"x": 8, "y": 8})
        lowered = constraint._lowered
        before = list(_leaves(lowered))
        propagate_intervals(
            [b.ult(x, 5), constraint], {"x": 8, "y": 8}, initial={"y": Interval(3, 9)}
        )
        assert constraint._lowered is lowered
        assert list(_leaves(lowered)) == before
        assert not any(isinstance(leaf, Term) for leaf in before)
