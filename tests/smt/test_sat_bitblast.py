"""Tests for the CDCL SAT solver and the bit-blasting backend."""

import pytest

from repro.smt import builder as b
from repro.smt.bitblast import BitBlaster, solve_terms
from repro.smt.cnf import CNF
from repro.smt.evalmodel import evaluate, satisfies
from repro.smt.sat import CDCLSolver, SatStatus, solve_cnf


class TestCNF:
    def test_new_var_allocation(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2

    def test_var_for_reuses_a_named_variable(self):
        cnf = CNF()
        a = cnf.var_for("a")
        assert cnf.var_for("a") == a
        assert cnf.var_for("b") != a

    def test_tautology_dropped(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause((a, -a))
        assert len(cnf) == 0

    def test_empty_clause_marks_contradiction(self):
        cnf = CNF()
        cnf.add_clause(())
        assert cnf.has_contradiction

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause((0,))


class TestCDCL:
    def test_trivially_satisfiable(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause((a,))
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.assignment[a] is True

    def test_trivially_unsatisfiable(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause((a,))
        cnf.add_clause((-a,))
        assert solve_cnf(cnf).is_unsat

    def test_requires_propagation(self):
        cnf = CNF()
        a, b_, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_clause((a,))
        cnf.add_clause((-a, b_))
        cnf.add_clause((-b_, c))
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.assignment[c] is True

    def test_pigeonhole_2_into_1_unsat(self):
        # Two pigeons, one hole: p1h1, p2h1, not both.
        cnf = CNF()
        p1, p2 = cnf.new_var(), cnf.new_var()
        cnf.add_clause((p1,))
        cnf.add_clause((p2,))
        cnf.add_clause((-p1, -p2))
        assert solve_cnf(cnf).is_unsat

    def test_xor_chain_satisfiable(self):
        cnf = CNF()
        variables = [cnf.new_var() for _ in range(6)]
        outputs = []
        for left, right in zip(variables, variables[1:]):
            out = cnf.new_var()
            cnf.encode_xor(out, left, right)
            outputs.append(out)
        cnf.add_clause((outputs[0],))
        cnf.add_clause((-outputs[-1],))
        assert solve_cnf(cnf).is_sat

    def test_random_3sat_instances_agree_with_bruteforce(self):
        import itertools
        import random

        rng = random.Random(7)
        for _ in range(25):
            num_vars = 6
            clauses = []
            for _ in range(14):
                literals = rng.sample(range(1, num_vars + 1), 3)
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in literals))
            cnf = CNF()
            for _ in range(num_vars):
                cnf.new_var()
            for clause in clauses:
                cnf.add_clause(clause)
            result = solve_cnf(cnf)

            def clause_holds(clause, assignment):
                return any(
                    (lit > 0) == assignment[abs(lit) - 1] for lit in clause
                )

            brute_sat = any(
                all(clause_holds(c, bits) for c in clauses)
                for bits in itertools.product([False, True], repeat=num_vars)
            )
            assert result.is_sat == brute_sat
            if result.is_sat:
                assignment = result.assignment
                assert all(
                    any((lit > 0) == assignment[abs(lit)] for lit in clause)
                    for clause in clauses
                )

    def test_assumptions_restrict_models(self):
        cnf = CNF()
        a, b_ = cnf.new_var(), cnf.new_var()
        cnf.add_clause((a, b_))
        result = CDCLSolver(cnf).solve(assumptions=[-a])
        assert result.is_sat
        assert result.assignment[b_] is True

    def test_conflicting_assumption_unsat(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause((a,))
        assert CDCLSolver(cnf).solve(assumptions=[-a]).is_unsat


class TestBitBlaster:
    def _check_sat_model(self, constraints):
        status, model = solve_terms(constraints)
        assert status == SatStatus.SAT
        for constraint in constraints:
            assert satisfies(constraint, model)
        return model

    def test_equality_with_constant(self):
        x = b.bv_var("x", 8)
        model = self._check_sat_model([b.eq(x, 173)])
        assert model["x"] == 173

    def test_addition(self):
        x = b.bv_var("x", 8)
        y = b.bv_var("y", 8)
        self._check_sat_model([b.eq(b.add(x, y), 100), b.ugt(x, 50), b.ugt(y, 30)])

    def test_addition_wraps(self):
        x = b.bv_var("x", 8)
        self._check_sat_model([b.eq(b.add(x, 200), 100)])

    def test_subtraction(self):
        x = b.bv_var("x", 8)
        model = self._check_sat_model([b.eq(b.sub(x, 7), 250)])
        assert model["x"] == (250 + 7) % 256

    def test_multiplication(self):
        x = b.bv_var("x", 8)
        y = b.bv_var("y", 8)
        self._check_sat_model(
            [b.eq(b.mul(x, y), 77), b.ugt(x, 1), b.ugt(y, 1), b.ult(x, 12)]
        )

    def test_multiplication_unsat(self):
        x = b.bv_var("x", 8)
        status, _ = solve_terms([b.eq(b.mul(x, 2), 7)])
        assert status == SatStatus.UNSAT

    def test_division(self):
        x = b.bv_var("x", 8)
        self._check_sat_model([b.eq(b.udiv(x, 5), 10), b.ne(x, 50)])

    def test_remainder(self):
        x = b.bv_var("x", 8)
        self._check_sat_model([b.eq(b.urem(x, 7), 3), b.ugt(x, 20)])

    def test_shifts_by_variable_amount(self):
        x = b.bv_var("x", 8)
        amount = b.bv_var("s", 8)
        self._check_sat_model(
            [b.eq(b.shl(x, amount), 0x40), b.ugt(amount, 2), b.ult(amount, 8)]
        )

    def test_logical_shift_right(self):
        x = b.bv_var("x", 8)
        self._check_sat_model([b.eq(b.lshr(x, b.bv_const(3, 8)), 0x1F)])

    def test_bitwise_operators(self):
        x = b.bv_var("x", 8)
        y = b.bv_var("y", 8)
        self._check_sat_model(
            [
                b.eq(b.bvand(x, y), 0x0F),
                b.eq(b.bvor(x, y), 0xFF),
                b.eq(b.bvxor(x, y), 0xF0),
            ]
        )

    def test_unsigned_comparisons(self):
        x = b.bv_var("x", 8)
        model = self._check_sat_model([b.uge(x, 100), b.ule(x, 100)])
        assert model["x"] == 100

    def test_signed_comparison(self):
        x = b.bv_var("x", 8)
        model = self._check_sat_model([b.slt(x, 0)])
        assert model["x"] >= 128

    def test_zext_sext_extract_concat(self):
        x = b.bv_var("x", 8)
        y = b.bv_var("y", 8)
        self._check_sat_model(
            [
                b.eq(b.concat(x, y), b.bv_const(0xAB12, 16)),
                b.eq(b.extract(x, 7, 4), b.bv_const(0xA, 4)),
                b.eq(b.zext(y, 16), b.bv_const(0x12, 16)),
            ]
        )

    def test_sext_negative(self):
        x = b.bv_var("x", 8)
        model = self._check_sat_model([b.eq(b.sext(x, 16), b.bv_const(0xFFFE, 16))])
        assert model["x"] == 0xFE

    def test_ite(self):
        x = b.bv_var("x", 8)
        y = b.bv_var("y", 8)
        term = b.ite(b.ult(x, 10), y, b.bv_const(0, 8))
        self._check_sat_model([b.eq(term, 42), b.ult(x, 5)])

    def test_boolean_structure(self):
        p = b.bool_var("p")
        q = b.bool_var("q")
        status, model = solve_terms([b.band(b.bor(p, q), b.bnot(p))])
        assert status == SatStatus.SAT

    def test_overflow_style_query(self):
        """A small version of the paper's target constraint."""
        w = b.bv_var("w", 8)
        h = b.bv_var("h", 8)
        wide = b.mul(b.zext(w, 16), b.zext(h, 16))
        model = self._check_sat_model(
            [b.ugt(wide, b.bv_const(0xFF, 16)), b.ult(w, 32), b.ult(h, 32)]
        )
        assert model["w"] * model["h"] > 0xFF

    def test_unsat_bounded_overflow(self):
        w = b.bv_var("w", 8)
        wide = b.mul(b.zext(w, 16), b.bv_const(2, 16))
        status, _ = solve_terms([b.ugt(wide, b.bv_const(0x1FF, 16)), b.ult(w, 10)])
        assert status == SatStatus.UNSAT

    def test_model_extraction_requires_sat(self):
        blaster = BitBlaster()
        blaster.assert_all([b.eq(b.bv_var("x", 4), 3)])
        solver = CDCLSolver(blaster.cnf)
        result = solver.solve()
        model = blaster.extract_model(result)
        assert model["x"] == 3
