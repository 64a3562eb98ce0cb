"""Tests for the simplifier and the evaluator."""

import pytest

from repro.smt import builder as b
from repro.smt.evalmodel import EvaluationError, Model, evaluate, satisfies
from repro.smt.simplify import simplify
from repro.smt.terms import TermKind


class TestConstantFolding:
    def test_add_folds(self):
        assert simplify(b.add(b.bv_const(3, 8), b.bv_const(4, 8))).value == 7

    def test_add_wraps(self):
        assert simplify(b.add(b.bv_const(200, 8), b.bv_const(100, 8))).value == 44

    def test_mul_folds_and_wraps(self):
        assert simplify(b.mul(b.bv_const(16, 8), b.bv_const(16, 8))).value == 0

    def test_sub_borrow_wraps(self):
        assert simplify(b.sub(b.bv_const(1, 8), b.bv_const(2, 8))).value == 0xFF

    def test_udiv_by_zero_is_all_ones(self):
        assert simplify(b.udiv(b.bv_const(9, 8), b.bv_const(0, 8))).value == 0xFF

    def test_urem_by_zero_is_dividend(self):
        assert simplify(b.urem(b.bv_const(9, 8), b.bv_const(0, 8))).value == 9

    def test_comparison_folds_to_bool(self):
        assert simplify(b.ult(b.bv_const(3, 8), b.bv_const(4, 8))) is b.TRUE
        assert simplify(b.ugt(b.bv_const(3, 8), b.bv_const(4, 8))) is b.FALSE

    def test_signed_comparison_folds(self):
        assert simplify(b.slt(b.bv_const(0xFF, 8), b.bv_const(1, 8))) is b.TRUE

    def test_shift_folds(self):
        assert simplify(b.shl(b.bv_const(1, 8), b.bv_const(3, 8))).value == 8
        assert simplify(b.lshr(b.bv_const(0x80, 8), b.bv_const(7, 8))).value == 1

    def test_oversized_shift_is_zero(self):
        assert simplify(b.shl(b.bv_const(1, 8), b.bv_const(9, 8))).value == 0

    def test_extract_folds(self):
        assert simplify(b.extract(b.bv_const(0xABCD, 16), 15, 8)).value == 0xAB

    def test_concat_folds(self):
        assert simplify(b.concat(b.bv_const(0xAB, 8), b.bv_const(0xCD, 8))).value == 0xABCD


class TestIdentityRules:
    def test_add_zero_identity(self):
        x = b.bv_var("x", 32)
        assert simplify(b.add(x, 0)) is x

    def test_mul_one_identity(self):
        x = b.bv_var("x", 32)
        assert simplify(b.mul(x, 1)) is x

    def test_mul_zero_absorbs(self):
        x = b.bv_var("x", 32)
        assert simplify(b.mul(x, 0)).value == 0

    def test_sub_self_is_zero(self):
        x = b.bv_var("x", 32)
        assert simplify(b.sub(x, x)).value == 0

    def test_and_with_zero(self):
        x = b.bv_var("x", 32)
        assert simplify(b.bvand(x, 0)).value == 0

    def test_or_with_zero_identity(self):
        x = b.bv_var("x", 32)
        assert simplify(b.bvor(x, 0)) is x

    def test_xor_self_is_zero(self):
        x = b.bv_var("x", 32)
        assert simplify(b.bvxor(x, x)).value == 0

    def test_double_negation(self):
        x = b.bv_var("x", 32)
        assert simplify(b.neg(b.neg(x))) is x

    def test_double_bitwise_not(self):
        x = b.bv_var("x", 32)
        assert simplify(b.bvnot(b.bvnot(x))) is x

    def test_double_boolean_not(self):
        p = b.bool_var("p")
        assert simplify(b.bnot(b.bnot(p))) is p

    def test_constant_add_chain_coalesces(self):
        x = b.bv_var("x", 32)
        chained = b.add(b.add(b.add(x, 1), 1), 1)
        simplified = simplify(chained)
        # The paper's Add32 coalescing example: x+1+1+1 becomes x+3.
        assert simplified.kind is TermKind.ADD
        constants = [a.value for a in simplified.args if a.is_const]
        assert constants == [3]

    def test_not_pushes_into_comparison(self):
        x = b.bv_var("x", 32)
        assert simplify(b.bnot(b.ult(x, 5))).kind is TermKind.UGE


class TestBooleanRules:
    def test_band_true_identity(self):
        p = b.bool_var("p")
        assert simplify(b.band(p, True)) is p

    def test_band_false_absorbs(self):
        p = b.bool_var("p")
        assert simplify(b.band(p, False)) is b.FALSE

    def test_bor_true_absorbs(self):
        p = b.bool_var("p")
        assert simplify(b.bor(p, True)) is b.TRUE

    def test_implies_false_antecedent(self):
        p = b.bool_var("p")
        assert simplify(b.implies(False, p)) is b.TRUE

    def test_ite_constant_condition(self):
        x = b.bv_var("x", 8)
        assert simplify(b.ite(True, x, 0)) is x

    def test_ite_equal_branches(self):
        x = b.bv_var("x", 8)
        assert simplify(b.ite(b.bool_var("c"), x, x)) is x


class TestBooleanTestUnwrapping:
    """The ite(c,1,0) != 0 patterns the concolic interpreter produces."""

    def test_ne_zero_of_flag_ite(self):
        c = b.ult(b.bv_var("x", 32), 10)
        flag = b.ite(c, b.bv_const(1, 32), b.bv_const(0, 32))
        assert simplify(b.ne(flag, 0)) is simplify(c)

    def test_eq_zero_of_flag_ite_negates(self):
        c = b.ult(b.bv_var("x", 32), 10)
        flag = b.ite(c, b.bv_const(1, 32), b.bv_const(0, 32))
        simplified = simplify(b.eq(flag, 0))
        # The flag test collapses to the negated condition (either as a BNOT
        # node or as the complementary comparison).
        assert evaluate(simplified, {"x": 3}) == 0
        assert evaluate(simplified, {"x": 30}) == 1
        assert simplified.size() <= 4

    def test_ugt_zero_of_flag_ite(self):
        c = b.ugt(b.bv_var("x", 32), 10)
        flag = b.ite(c, b.bv_const(1, 32), b.bv_const(0, 32))
        assert simplify(b.ugt(flag, 0)) is simplify(c)


class TestByteReassembly:
    def test_big_endian_reassembly_collapses_to_field(self):
        w = b.bv_var("/header/width", 32)
        pieces = [
            b.shl(b.zext(b.extract(w, 31, 24), 32), 24),
            b.shl(b.zext(b.extract(w, 23, 16), 32), 16),
            b.shl(b.zext(b.extract(w, 15, 8), 32), 8),
            b.zext(b.extract(w, 7, 0), 32),
        ]
        term = b.bvor(b.bvor(b.bvor(pieces[0], pieces[1]), pieces[2]), pieces[3])
        assert simplify(term) is w

    def test_little_endian_reassembly_collapses_to_field(self):
        w = b.bv_var("/fmt/extra", 32)
        term = b.bvor(
            b.bvor(
                b.zext(b.extract(w, 7, 0), 32),
                b.shl(b.zext(b.extract(w, 15, 8), 32), 8),
            ),
            b.bvor(
                b.shl(b.zext(b.extract(w, 23, 16), 32), 16),
                b.shl(b.zext(b.extract(w, 31, 24), 32), 24),
            ),
        )
        assert simplify(term) is w

    def test_sixteen_bit_field_reassembly_zero_extends(self):
        w = b.bv_var("/jpeg/width", 16)
        term = b.bvor(
            b.shl(b.zext(b.extract(w, 15, 8), 32), 8),
            b.zext(b.extract(w, 7, 0), 32),
        )
        simplified = simplify(term)
        assert simplified.kind is TermKind.ZEXT
        assert simplified.args[0] is w

    def test_partial_reassembly_not_collapsed(self):
        w = b.bv_var("w", 32)
        term = b.bvor(
            b.shl(b.zext(b.extract(w, 31, 24), 32), 24),
            b.shl(b.zext(b.extract(w, 15, 8), 32), 8),
        )
        assert simplify(term).kind is TermKind.OR

    def test_mixed_variables_not_collapsed(self):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        term = b.bvor(
            b.shl(b.zext(b.extract(w, 15, 8), 32), 8),
            b.zext(b.extract(h, 7, 0), 32),
        )
        assert simplify(term).kind is TermKind.OR


class TestSimplifyPreservesSemantics:
    @pytest.mark.parametrize("value", [0, 1, 254, 255, 128, 77])
    def test_reassembly_semantics(self, value):
        w = b.bv_var("w", 8)
        term = b.zext(b.extract(w, 7, 0), 32)
        assert evaluate(simplify(term), {"w": value}) == evaluate(term, {"w": value})

    @pytest.mark.parametrize("x,y", [(0, 0), (255, 1), (128, 128), (3, 200)])
    def test_add_chain_semantics(self, x, y):
        a = b.bv_var("a", 8)
        term = b.add(b.add(a, b.bv_const(x, 8)), b.bv_const(y, 8))
        model = {"a": 17}
        assert evaluate(simplify(term), model) == evaluate(term, model)


class TestEvaluator:
    def test_variable_lookup(self):
        x = b.bv_var("x", 16)
        assert evaluate(x, {"x": 513}) == 513

    def test_unassigned_variable_raises(self):
        with pytest.raises(EvaluationError, match="unassigned bitvector variable 'missing'"):
            evaluate(b.bv_var("missing", 8), {})

    def test_wrapping_mul(self):
        x = b.bv_var("x", 8)
        assert evaluate(b.mul(x, 2), {"x": 200}) == (400 & 0xFF)

    def test_ashr_sign_fill(self):
        x = b.bv_var("x", 8)
        assert evaluate(b.ashr(x, b.bv_const(1, 8)), {"x": 0x80}) == 0xC0

    def test_sext(self):
        x = b.bv_var("x", 8)
        assert evaluate(b.sext(x, 16), {"x": 0xFF}) == 0xFFFF

    def test_signed_comparison(self):
        x = b.bv_var("x", 8)
        assert evaluate(b.slt(x, 0), {"x": 0x80}) == 1

    def test_ite_evaluation(self):
        x = b.bv_var("x", 8)
        term = b.ite(b.ult(x, 10), b.bv_const(1, 8), b.bv_const(2, 8))
        assert evaluate(term, {"x": 5}) == 1
        assert evaluate(term, {"x": 50}) == 2

    def test_satisfies_requires_bool(self):
        with pytest.raises(EvaluationError):
            satisfies(b.bv_var("x", 8), {"x": 1})

    def test_satisfies(self):
        x = b.bv_var("x", 8)
        assert satisfies(b.ugt(x, 10), {"x": 11})
        assert not satisfies(b.ugt(x, 10), {"x": 10})


class TestModel:
    def test_mapping_interface(self):
        model = Model({"a": 1})
        model["b"] = 2
        assert model["a"] == 1 and model["b"] == 2
        assert "a" in model and len(model) == 2

    def test_term_keys(self):
        x = b.bv_var("x", 8)
        model = Model()
        model[x] = 7
        assert model[x] == 7 and model["x"] == 7

    def test_copy_is_independent(self):
        model = Model({"a": 1})
        clone = model.copy()
        clone["a"] = 2
        assert model["a"] == 1

    def test_restricted_to(self):
        model = Model({"a": 1, "b": 2})
        assert model.restricted_to(["a"]).as_dict() == {"a": 1}

    def test_equality_and_hash(self):
        assert Model({"a": 1}) == Model({"a": 1})
        assert hash(Model({"a": 1})) == hash(Model({"a": 1}))
