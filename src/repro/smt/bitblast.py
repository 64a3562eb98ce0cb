"""Tseitin bit-blasting of bitvector terms into CNF.

Each bitvector term maps to a list of CNF literals (least-significant bit
first); each boolean term maps to a single literal.  Constants map to two
reserved literals for true/false.  The encoding is the textbook one:
ripple-carry adders, shift-and-add multipliers, mux-chains for variable
shifts, and lexicographic comparators.

This is the complete backend of the portfolio solver; the cheaper layers
(simplification, interval propagation, algebraic heuristics) exist so it is
only rarely needed — exactly the role Z3 plays in the paper, where DIODE
keeps constraints small via staged, relevant-bytes-only symbolic recording.

The blaster **structurally hashes** its gates: AND/XOR/MUX outputs are
memoized on canonically-ordered operand literal pairs (with constant
folding and negation-aware normalisation — OR is encoded as a negated AND
via De Morgan so both kinds share one cache, XOR strips operand signs and
re-applies them to the output, MUX folds a negated condition into a branch
swap).  Shared subterms across a query's conjuncts therefore encode
once: fewer variables and clauses reach the SAT core, while
:meth:`BitBlaster.extract_model` reads back the same models.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.smt.cnf import CNF
from repro.smt.sat import CDCLSolver, SatResult, SatStatus
from repro.smt.evalmodel import Model
from repro.smt.terms import Term, TermKind


class BitBlastError(ValueError):
    """Raised when a term cannot be bit-blasted."""


class BitBlaster:
    """Translate terms into a growing :class:`CNF` formula."""

    def __init__(self) -> None:
        self.cnf = CNF()
        self._true = self.cnf.new_var("__true__")
        self.cnf.add_unit(self._true)
        self._false = -self._true
        self._bv_cache: Dict[int, List[int]] = {}
        self._bool_cache: Dict[int, int] = {}
        self._var_bits: Dict[str, List[int]] = {}
        # Structural-hashing gate caches: canonical operand key -> output
        # literal.  Sound for the lifetime of the blaster because the CNF
        # only ever grows (Tseitin definitions are never retracted).
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}
        self._mux_cache: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def assert_all(self, conjuncts) -> None:
        """Batch-assert a query's conjunct list in one pass.

        All conjuncts are translated before any unit is asserted, so shared
        subterms across the query encode once through the structural
        gate caches and the resulting CNF is identical regardless of how
        callers chunk the conjunct list.
        """
        for literal in self.literals_for(conjuncts):
            self.cnf.add_unit(literal)

    def literals_for(self, conjuncts) -> List[int]:
        """Translate a conjunct list (without asserting) in one pass."""
        return [self.literal_for(conjunct) for conjunct in conjuncts]

    def literal_for(self, constraint: Term) -> int:
        """Translate a boolean term *without* asserting it.

        The returned literal is equivalent to the constraint under the
        accumulated Tseitin definitions; a solver session asserts it per
        call through CDCL assumptions instead of a permanent unit clause,
        which is what makes push/pop over a persistent blaster possible.
        Terms are hash-consed and the per-term literal is cached, so only
        delta conjuncts cost any new CNF.
        """
        if not constraint.is_bool:
            raise BitBlastError("can only assert boolean terms")
        return self.blast_bool(constraint)

    def assumptions_for(
        self, conjuncts
    ) -> Tuple[List[int], Dict[int, List[Term]]]:
        """Translate ``conjuncts`` into assumption literals plus their map.

        Returns ``(literals, by_literal)``: one literal per conjunct (in
        order, for :meth:`CDCLSolver.solve` assumptions) and the inverse map
        from each literal to every conjunct that blasted to it — terms are
        hash-consed, so distinct conjuncts can share a literal.  The map is
        what lets a SAT-level UNSAT core (a subset of the assumption
        literals) be lifted back to the subset of *terms* that caused the
        failure.
        """
        literals: List[int] = []
        by_literal: Dict[int, List[Term]] = {}
        for conjunct in conjuncts:
            literal = self.literal_for(conjunct)
            literals.append(literal)
            by_literal.setdefault(literal, []).append(conjunct)
        return literals, by_literal

    def extract_model(self, result: SatResult) -> Model:
        """Convert a SAT assignment into a bitvector model."""
        if not result.is_sat or result.assignment is None:
            raise BitBlastError("no satisfying assignment to extract a model from")
        model = Model()
        for name, bits in self._var_bits.items():
            value = 0
            for position, literal in enumerate(bits):
                bit = result.assignment.get(abs(literal), False)
                if literal < 0:
                    bit = not bit
                if bit:
                    value |= 1 << position
            model[name] = value
        return model

    # ------------------------------------------------------------------
    # Bitvector blasting
    # ------------------------------------------------------------------
    def blast_bv(self, term: Term) -> List[int]:
        """Return the literal vector (LSB first) for a bitvector term."""
        if not term.is_bv:
            raise BitBlastError(f"expected a bitvector term, got {term.sort()}")
        cached = self._bv_cache.get(id(term))
        if cached is not None:
            return cached
        bits = self._blast_bv(term)
        if len(bits) != term.width:
            raise BitBlastError(
                f"internal width mismatch for {term.kind}: {len(bits)} != {term.width}"
            )
        self._bv_cache[id(term)] = bits
        return bits

    def _const_bits(self, value: int, width: int) -> List[int]:
        return [self._true if (value >> i) & 1 else self._false for i in range(width)]

    def _fresh_bits(self, width: int, name: str = "") -> List[int]:
        return [self.cnf.new_var(f"{name}[{i}]" if name else None) for i in range(width)]

    def _blast_bv(self, term: Term) -> List[int]:
        kind = term.kind
        width = term.width

        if kind is TermKind.BV_CONST:
            return self._const_bits(term.value, width)
        if kind is TermKind.BV_VAR:
            name = str(term.name)
            bits = self._var_bits.get(name)
            if bits is None:
                bits = self._fresh_bits(width, name)
                self._var_bits[name] = bits
            return bits

        args = [self.blast_bv(a) for a in term.args if a.is_bv]

        if kind is TermKind.ADD:
            total, _carry = self._adder(args[0], args[1])
            return total
        if kind is TermKind.SUB:
            negated = [self._not_gate(b) for b in args[1]]
            total, _carry = self._adder(args[0], negated, carry_in=self._true)
            return total
        if kind is TermKind.NEG:
            negated = [self._not_gate(b) for b in args[0]]
            zero = self._const_bits(0, width)
            total, _carry = self._adder(zero, negated, carry_in=self._true)
            return total
        if kind is TermKind.MUL:
            return self._multiplier(args[0], args[1])
        if kind is TermKind.UDIV:
            quotient, _remainder = self._divider(args[0], args[1])
            return quotient
        if kind is TermKind.UREM:
            _quotient, remainder = self._divider(args[0], args[1])
            return remainder
        if kind is TermKind.AND:
            return [self._and_gate(a, b) for a, b in zip(args[0], args[1])]
        if kind is TermKind.OR:
            return [self._or_gate(a, b) for a, b in zip(args[0], args[1])]
        if kind is TermKind.XOR:
            return [self._xor_gate(a, b) for a, b in zip(args[0], args[1])]
        if kind is TermKind.NOT:
            return [self._not_gate(a) for a in args[0]]
        if kind is TermKind.SHL:
            return self._shift(args[0], term.args[1], args[1], direction="left")
        if kind is TermKind.LSHR:
            return self._shift(args[0], term.args[1], args[1], direction="right")
        if kind is TermKind.ASHR:
            return self._shift(args[0], term.args[1], args[1], direction="arith")
        if kind is TermKind.ZEXT:
            inner = args[0]
            return inner + [self._false] * (width - len(inner))
        if kind is TermKind.SEXT:
            inner = args[0]
            sign = inner[-1]
            return inner + [sign] * (width - len(inner))
        if kind is TermKind.EXTRACT:
            high, low = term.params
            return args[0][low : high + 1]
        if kind is TermKind.CONCAT:
            high_bits, low_bits = args[0], args[1]
            return low_bits + high_bits
        if kind is TermKind.ITE:
            cond = self.blast_bool(term.args[0])
            then_bits = self.blast_bv(term.args[1])
            else_bits = self.blast_bv(term.args[2])
            return [self._mux(cond, t, e) for t, e in zip(then_bits, else_bits)]
        raise BitBlastError(f"cannot bit-blast bitvector kind {kind}")

    # ------------------------------------------------------------------
    # Boolean blasting
    # ------------------------------------------------------------------
    def blast_bool(self, term: Term) -> int:
        """Return the literal for a boolean term."""
        if not term.is_bool:
            raise BitBlastError(f"expected a boolean term, got {term.sort()}")
        cached = self._bool_cache.get(id(term))
        if cached is not None:
            return cached
        literal = self._blast_bool(term)
        self._bool_cache[id(term)] = literal
        return literal

    def _blast_bool(self, term: Term) -> int:
        kind = term.kind
        if kind is TermKind.BOOL_CONST:
            return self._true if term.value else self._false
        if kind is TermKind.BOOL_VAR:
            return self.cnf.var_for(f"bool:{term.name}")
        if kind is TermKind.BNOT:
            return -self.blast_bool(term.args[0])
        if kind is TermKind.BAND:
            return self._and_gate(
                self.blast_bool(term.args[0]), self.blast_bool(term.args[1])
            )
        if kind is TermKind.BOR:
            return self._or_gate(
                self.blast_bool(term.args[0]), self.blast_bool(term.args[1])
            )
        if kind is TermKind.BXOR:
            return self._xor_gate(
                self.blast_bool(term.args[0]), self.blast_bool(term.args[1])
            )
        if kind is TermKind.IMPLIES:
            return self._or_gate(
                -self.blast_bool(term.args[0]), self.blast_bool(term.args[1])
            )
        if kind is TermKind.BITE:
            return self._mux(
                self.blast_bool(term.args[0]),
                self.blast_bool(term.args[1]),
                self.blast_bool(term.args[2]),
            )
        if kind in (TermKind.EQ, TermKind.NE):
            left = self.blast_bv(term.args[0])
            right = self.blast_bv(term.args[1])
            equal = self._equality(left, right)
            return equal if kind is TermKind.EQ else -equal
        if kind in (TermKind.ULT, TermKind.ULE, TermKind.UGT, TermKind.UGE):
            left = self.blast_bv(term.args[0])
            right = self.blast_bv(term.args[1])
            if kind is TermKind.ULT:
                return self._unsigned_less(left, right, strict=True)
            if kind is TermKind.ULE:
                return self._unsigned_less(left, right, strict=False)
            if kind is TermKind.UGT:
                return self._unsigned_less(right, left, strict=True)
            return self._unsigned_less(right, left, strict=False)
        if kind in (TermKind.SLT, TermKind.SLE, TermKind.SGT, TermKind.SGE):
            left = self.blast_bv(term.args[0])
            right = self.blast_bv(term.args[1])
            # Signed comparison: flip the sign bits and compare unsigned.
            flipped_left = left[:-1] + [self._not_gate(left[-1])]
            flipped_right = right[:-1] + [self._not_gate(right[-1])]
            if kind is TermKind.SLT:
                return self._unsigned_less(flipped_left, flipped_right, strict=True)
            if kind is TermKind.SLE:
                return self._unsigned_less(flipped_left, flipped_right, strict=False)
            if kind is TermKind.SGT:
                return self._unsigned_less(flipped_right, flipped_left, strict=True)
            return self._unsigned_less(flipped_right, flipped_left, strict=False)
        raise BitBlastError(f"cannot bit-blast boolean kind {kind}")

    # ------------------------------------------------------------------
    # Gate helpers
    # ------------------------------------------------------------------
    def _not_gate(self, literal: int) -> int:
        return -literal

    def _and_gate(self, a: int, b: int) -> int:
        if a == self._false or b == self._false:
            return self._false
        if a == self._true:
            return b
        if b == self._true:
            return a
        if a == b:
            return a
        if a == -b:
            return self._false
        if b < a:
            a, b = b, a
        key = (a, b)
        output = self._and_cache.get(key)
        if output is None:
            output = self.cnf.new_var()
            self.cnf.encode_and(output, (a, b))
            self._and_cache[key] = output
        return output

    def _or_gate(self, a: int, b: int) -> int:
        # De Morgan: OR(a, b) = -AND(-a, -b).  Routing through the AND cache
        # lets AND and OR gates over the same operands share one definition
        # (and inherits every constant fold of :meth:`_and_gate`).
        return -self._and_gate(-a, -b)

    def _xor_gate(self, a: int, b: int) -> int:
        if a == self._false:
            return b
        if b == self._false:
            return a
        if a == self._true:
            return -b
        if b == self._true:
            return -a
        if a == b:
            return self._false
        if a == -b:
            return self._true
        # XOR(-a, b) = -XOR(a, b): strip operand signs into an output sign
        # so all four polarity combinations share one definition.
        negate = False
        if a < 0:
            a = -a
            negate = not negate
        if b < 0:
            b = -b
            negate = not negate
        if b < a:
            a, b = b, a
        key = (a, b)
        output = self._xor_cache.get(key)
        if output is None:
            output = self.cnf.new_var()
            self.cnf.encode_xor(output, a, b)
            self._xor_cache[key] = output
        return -output if negate else output

    def _mux(self, cond: int, then: int, otherwise: int) -> int:
        if cond == self._true:
            return then
        if cond == self._false:
            return otherwise
        if then == otherwise:
            return then
        if then == -otherwise:
            # mux(c, t, -t) = XNOR(c, t)
            return -self._xor_gate(cond, then)
        if then == self._true:
            return self._or_gate(cond, otherwise)
        if then == self._false:
            return self._and_gate(-cond, otherwise)
        if otherwise == self._true:
            return self._or_gate(-cond, then)
        if otherwise == self._false:
            return self._and_gate(cond, then)
        if cond < 0:
            # mux(-c, t, e) = mux(c, e, t)
            cond, then, otherwise = -cond, otherwise, then
        key = (cond, then, otherwise)
        output = self._mux_cache.get(key)
        if output is None:
            output = self.cnf.new_var()
            self.cnf.encode_ite(output, cond, then, otherwise)
            self._mux_cache[key] = output
        return output

    def _full_adder(self, a: int, b: int, carry_in: int) -> Tuple[int, int]:
        axb = self._xor_gate(a, b)
        total = self._xor_gate(axb, carry_in)
        carry = self._or_gate(self._and_gate(a, b), self._and_gate(axb, carry_in))
        return total, carry

    def _adder(
        self, left: List[int], right: List[int], carry_in: int | None = None
    ) -> Tuple[List[int], int]:
        carry = carry_in if carry_in is not None else self._false
        out: List[int] = []
        for a, b in zip(left, right):
            total, carry = self._full_adder(a, b, carry)
            out.append(total)
        return out, carry

    def _multiplier(self, left: List[int], right: List[int]) -> List[int]:
        width = len(left)
        accumulator = self._const_bits(0, width)
        for position, bit in enumerate(right):
            # Partial product: left shifted by `position`, gated by `bit`.
            partial = [self._false] * position + [
                self._and_gate(bit, left[i]) for i in range(width - position)
            ]
            accumulator, _carry = self._adder(accumulator, partial)
        return accumulator

    def _divider(self, dividend: List[int], divisor: List[int]) -> Tuple[List[int], List[int]]:
        """Restoring division; div-by-zero yields all-ones quotient, dividend remainder."""
        width = len(dividend)
        remainder = self._const_bits(0, width)
        quotient = [self._false] * width
        for position in reversed(range(width)):
            remainder = [dividend[position]] + remainder[:-1]
            fits = self._unsigned_less(divisor, remainder, strict=False)
            difference, _borrow_carry = self._adder(
                remainder, [self._not_gate(b) for b in divisor], carry_in=self._true
            )
            remainder = [self._mux(fits, d, r) for d, r in zip(difference, remainder)]
            quotient[position] = fits
        divisor_zero = self._equality(divisor, self._const_bits(0, width))
        quotient = [self._mux(divisor_zero, self._true, q) for q in quotient]
        remainder = [self._mux(divisor_zero, d, r) for d, r in zip(dividend, remainder)]
        return quotient, remainder

    def _shift(
        self, bits: List[int], amount_term: Term, amount_bits: List[int], direction: str
    ) -> List[int]:
        width = len(bits)
        if amount_term.kind is TermKind.BV_CONST:
            return self._shift_by_constant(bits, amount_term.value, direction)
        # Barrel shifter over the log2(width) low bits of the amount, with an
        # "overshift" mux if any higher amount bit can be set.
        stages = max(1, (width - 1).bit_length())
        current = list(bits)
        for stage in range(stages):
            shifted = self._shift_by_constant(current, 1 << stage, direction)
            select = amount_bits[stage] if stage < len(amount_bits) else self._false
            current = [self._mux(select, s, c) for s, c in zip(shifted, current)]
        overshift = self._false
        for position in range(stages, len(amount_bits)):
            overshift = self._or_gate(overshift, amount_bits[position])
        fill = bits[-1] if direction == "arith" else self._false
        return [self._mux(overshift, fill, c) for c in current]

    def _shift_by_constant(self, bits: List[int], amount: int, direction: str) -> List[int]:
        width = len(bits)
        if amount == 0:
            return list(bits)
        fill = bits[-1] if direction == "arith" else self._false
        if amount >= width:
            return [fill] * width
        if direction == "left":
            return [self._false] * amount + bits[: width - amount]
        return bits[amount:] + [fill] * amount

    def _equality(self, left: List[int], right: List[int]) -> int:
        result = self._true
        for a, b in zip(left, right):
            result = self._and_gate(result, -self._xor_gate(a, b))
        return result

    def _unsigned_less(self, left: List[int], right: List[int], strict: bool) -> int:
        """``left < right`` (or ``<=`` when not strict), MSB-first comparison."""
        result = self._false if strict else self._true
        for a, b in zip(left, right):  # LSB to MSB; later bits dominate.
            a_lt_b = self._and_gate(-a, b)
            a_eq_b = -self._xor_gate(a, b)
            result = self._or_gate(a_lt_b, self._and_gate(a_eq_b, result))
        return result


def solve_terms(
    constraints,
    max_conflicts: int | None = None,
) -> Tuple[str, Model | None]:
    """Bit-blast a list of boolean terms and run the CDCL solver.

    Returns ``(status, model)`` where status is one of the
    :class:`repro.smt.sat.SatStatus` strings.
    """
    blaster = BitBlaster()
    blaster.assert_all(constraints)
    result = CDCLSolver(blaster.cnf, max_conflicts=max_conflicts).solve()
    if result.status == SatStatus.SAT:
        return SatStatus.SAT, blaster.extract_model(result)
    return result.status, None
