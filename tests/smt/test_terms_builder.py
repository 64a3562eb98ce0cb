"""Tests for the term language and constructors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.smt import builder as b
from repro.smt.builder import SortError
from repro.smt.terms import Term, TermKind, mask, to_signed, truncate


class TestLeafConstruction:
    def test_bv_const_wraps_to_width(self):
        assert b.bv_const(0x1FF, 8).value == 0xFF

    def test_bv_const_negative_wraps(self):
        assert b.bv_const(-1, 8).value == 0xFF

    def test_bv_const_width_recorded(self):
        assert b.bv_const(3, 16).width == 16

    def test_bv_const_rejects_zero_width(self):
        with pytest.raises(SortError):
            b.bv_const(1, 0)

    def test_bv_var_name_and_width(self):
        var = b.bv_var("w", 32)
        assert var.name == "w"
        assert var.width == 32
        assert var.is_var

    def test_bool_constants(self):
        assert b.bool_const(True).value == 1
        assert b.bool_const(False).value == 0
        assert b.TRUE.is_bool

    def test_bool_var(self):
        var = b.bool_var("flag")
        assert var.is_bool and var.is_var


class TestHashConsing:
    def test_identical_constants_are_interned(self):
        assert b.bv_const(7, 32) is b.bv_const(7, 32)

    def test_different_width_not_shared(self):
        assert b.bv_const(7, 32) is not b.bv_const(7, 16)

    def test_identical_compound_terms_are_interned(self):
        x = b.bv_var("x", 32)
        assert b.add(x, 1) is b.add(x, 1)

    def test_commutative_operands_are_canonicalised(self):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        assert b.add(x, y) is b.add(y, x)
        assert b.mul(x, y) is b.mul(y, x)

    def test_non_commutative_operands_not_swapped(self):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        assert b.sub(x, y) is not b.sub(y, x)

    def test_hashes_do_not_depend_on_the_process(self):
        """Set orders over terms, and so the solver's search, must
        not change with the hash seed or the memory layout."""
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        script = (
            f"import sys; sys.path.insert(0, {src_dir!r}); "
            "from repro.smt import builder as b; "
            "x = b.bv_var('x', 8); y = b.bv_var('y', 8); "
            "terms = [x, y, b.bool_var('p'), b.add(x, y), b.mul(b.sub(x, 3), y), "
            "b.ult(x, y), b.band(b.eq(x, 1), b.ne(y, 2))]; "
            "print([hash(term) for term in terms])"
        )

        def hashes(seed: str) -> str:
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=120, check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            return completed.stdout

        assert hashes("0") == hashes("1") == hashes("7")

    def test_distinct_terms_never_share_a_hash(self):
        x = b.bv_var("x", 16)
        terms = {b.add(x, k) for k in range(1, 300)}
        terms |= {b.mul(x, k) for k in range(2, 300)}
        terms |= {b.extract(x, high, 0) for high in range(16)}
        assert len({hash(term) for term in terms}) == len(terms)


class TestSortChecking:
    def test_width_mismatch_rejected(self):
        with pytest.raises(SortError):
            b.add(b.bv_var("a", 8), b.bv_var("b", 16))

    def test_bool_operand_in_arithmetic_rejected(self):
        with pytest.raises(SortError):
            b.add(b.bool_var("p"), b.bv_var("b", 16))

    def test_two_python_ints_rejected(self):
        with pytest.raises(SortError):
            b.add(1, 2)

    def test_extract_out_of_range_rejected(self):
        with pytest.raises(SortError):
            b.extract(b.bv_var("x", 8), 8, 0)

    def test_zext_shrinking_rejected(self):
        with pytest.raises(SortError):
            b.zext(b.bv_var("x", 16), 8)

    def test_zext_same_width_is_identity(self):
        x = b.bv_var("x", 16)
        assert b.zext(x, 16) is x


class TestStructuralOperators:
    def test_concat_width(self):
        assert b.concat(b.bv_var("h", 8), b.bv_var("l", 16)).width == 24

    def test_extract_width(self):
        assert b.extract(b.bv_var("x", 32), 15, 8).width == 8

    def test_ite_requires_bool_condition(self):
        with pytest.raises(SortError):
            b.ite(b.bv_var("x", 8), 1, 2)

    def test_ite_infers_width_from_branch(self):
        x = b.bv_var("x", 8)
        term = b.ite(b.bool_var("c"), x, 0)
        assert term.width == 8

    def test_comparison_result_is_bool(self):
        assert b.ult(b.bv_var("x", 8), 3).is_bool

    def test_boolean_connective_arity(self):
        p, q, r = b.bool_var("p"), b.bool_var("q"), b.bool_var("r")
        assert b.band(p, q, r).is_bool
        assert b.band() is b.TRUE
        assert b.bor() is b.FALSE


class TestTraversal:
    def test_variables_collects_distinct_vars(self):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        term = b.add(b.mul(x, y), x)
        names = {v.name for v in term.variables()}
        assert names == {"x", "y"}

    def test_subterms_includes_self(self):
        x = b.bv_var("x", 32)
        term = b.add(x, 1)
        assert term in term.subterms()
        assert x in term.subterms()

    def test_size_counts_dag_nodes_once(self):
        x = b.bv_var("x", 32)
        shared = b.mul(x, x)
        term = b.add(shared, shared)
        assert term.size() == 3  # add, mul, x

    def test_pretty_renders_something(self):
        term = b.add(b.bv_var("x", 8), 3)
        assert "add" in term.pretty()


class TestNumericHelpers:
    def test_mask(self):
        assert mask(8) == 0xFF

    def test_truncate(self):
        assert truncate(0x123, 8) == 0x23

    def test_to_signed_negative(self):
        assert to_signed(0xFF, 8) == -1

    def test_to_signed_positive(self):
        assert to_signed(0x7F, 8) == 127

    def test_truncate_inverts_to_signed(self):
        assert truncate(-2, 8) == 0xFE
        for value in range(256):
            assert truncate(to_signed(value, 8), 8) == value
