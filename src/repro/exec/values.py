"""Machine integer arithmetic for the concrete semantics.

All program variables in the benchmark application models are machine words
of a fixed width (32 bits by default, matching the 32-bit allocation-size
arithmetic the paper's overflows live in).  Arithmetic wraps around, exactly
as in the hardware — which is the behaviour the target constraints must
faithfully model.

Every operator resolves, once per width, to a plain two- or one-argument
function with the width's mask folded in; the compiled executor
(:mod:`repro.exec.compiler`) looks the function up once per program node,
so no operator enum is hashed while a program runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Tuple

from repro.lang.ast import BinaryOp, UnaryOp

#: Default machine word width for program variables.
WORD_WIDTH = 32

BinaryFn = Callable[[int, int], int]
UnaryFn = Callable[[int], int]


class MachineInt:
    """Helpers for wrap-around arithmetic at a fixed width."""

    def __init__(self, width: int = WORD_WIDTH) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.mask = (1 << width) - 1
        self.sign_bit = 1 << (width - 1)
        self._binary, self._unary = _operator_tables(width)

    # ------------------------------------------------------------------
    def wrap(self, value: int) -> int:
        """Wrap ``value`` to the unsigned range of this width."""
        return value & self.mask

    def to_signed(self, value: int) -> int:
        """Interpret an unsigned value as two's complement."""
        return ((value & self.mask) ^ self.sign_bit) - self.sign_bit

    # ------------------------------------------------------------------
    def binary_op(self, op: BinaryOp) -> BinaryFn:
        """The function applying ``op`` with machine semantics at this width.

        Comparison and boolean operators return 0/1.
        """
        handler = self._binary.get(op)
        if handler is None:
            raise ValueError(f"unsupported binary operator {op}")
        return handler

    def unary_op(self, op: UnaryOp) -> UnaryFn:
        """The function applying ``op`` with machine semantics at this width."""
        handler = self._unary.get(op)
        if handler is None:
            raise ValueError(f"unsupported unary operator {op}")
        return handler

    def binary(self, op: BinaryOp, left: int, right: int) -> int:
        """Apply a binary operator with machine semantics."""
        return self.binary_op(op)(left, right)

    def unary(self, op: UnaryOp, operand: int) -> int:
        """Apply a unary operator with machine semantics."""
        return self.unary_op(op)(operand)


@lru_cache(maxsize=None)
def _operator_tables(
    width: int,
) -> Tuple[Dict[BinaryOp, BinaryFn], Dict[UnaryOp, UnaryFn]]:
    mask = (1 << width) - 1
    sign = 1 << (width - 1)

    def signed(value: int) -> int:
        return ((value & mask) ^ sign) - sign

    def div(a: int, b: int) -> int:
        # Unsigned division; division by zero yields all-ones (the same
        # convention as the SMT substrate, so constraints stay faithful).
        return mask if b == 0 else (a // b) & mask

    def absolute(a: int) -> int:
        value = signed(a)
        return (-value if value < 0 else value) & mask

    binary: Dict[BinaryOp, BinaryFn] = {
        BinaryOp.ADD: lambda a, b: (a + b) & mask,
        BinaryOp.SUB: lambda a, b: (a - b) & mask,
        BinaryOp.MUL: lambda a, b: (a * b) & mask,
        BinaryOp.DIV: div,
        BinaryOp.MOD: lambda a, b: a if b == 0 else (a % b) & mask,
        BinaryOp.SHL: lambda a, b: 0 if b >= width else (a << b) & mask,
        BinaryOp.SHR: lambda a, b: 0 if b >= width else a >> b,
        BinaryOp.BITAND: lambda a, b: a & b,
        BinaryOp.BITOR: lambda a, b: a | b,
        BinaryOp.BITXOR: lambda a, b: a ^ b,
        BinaryOp.EQ: lambda a, b: 1 if a == b else 0,
        BinaryOp.NE: lambda a, b: 1 if a != b else 0,
        BinaryOp.LT: lambda a, b: 1 if a < b else 0,
        BinaryOp.LE: lambda a, b: 1 if a <= b else 0,
        BinaryOp.GT: lambda a, b: 1 if a > b else 0,
        BinaryOp.GE: lambda a, b: 1 if a >= b else 0,
        BinaryOp.SLT: lambda a, b: 1 if signed(a) < signed(b) else 0,
        BinaryOp.SLE: lambda a, b: 1 if signed(a) <= signed(b) else 0,
        BinaryOp.SGT: lambda a, b: 1 if signed(a) > signed(b) else 0,
        BinaryOp.SGE: lambda a, b: 1 if signed(a) >= signed(b) else 0,
        BinaryOp.AND: lambda a, b: 1 if (a and b) else 0,
        BinaryOp.OR: lambda a, b: 1 if (a or b) else 0,
    }
    unary: Dict[UnaryOp, UnaryFn] = {
        UnaryOp.NEG: lambda a: (-a) & mask,
        UnaryOp.BITNOT: lambda a: (~a) & mask,
        UnaryOp.NOT: lambda a: 0 if a else 1,
        UnaryOp.ABS: absolute,
    }
    return binary, unary
