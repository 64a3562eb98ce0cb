"""Machine integer arithmetic for the concrete semantics.

All program variables in the benchmark application models are machine words
of a fixed width (32 bits by default, matching the 32-bit allocation-size
arithmetic the paper's overflows live in).  Arithmetic wraps around, exactly
as in the hardware — which is the behaviour the target constraints must
faithfully model.

The operators themselves are inlined, mask and sign bit folded in, by the
code generator (:mod:`repro.exec.compiler`).
"""

from __future__ import annotations

#: Default machine word width for program variables.
WORD_WIDTH = 32


class MachineInt:
    """Helpers for wrap-around arithmetic at a fixed width."""

    def __init__(self, width: int = WORD_WIDTH) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.mask = (1 << width) - 1
        self.sign_bit = 1 << (width - 1)

    def wrap(self, value: int) -> int:
        """Wrap ``value`` to the unsigned range of this width."""
        return value & self.mask

    def to_signed(self, value: int) -> int:
        """Interpret an unsigned value as two's complement."""
        return ((value & self.mask) ^ self.sign_bit) - self.sign_bit
