"""``overflow(B)``: build the target constraint from a target expression.

The target constraint is satisfied if and only if the computation of the
target expression overflows its machine width — *including* overflows in
subexpressions (Section 4.3 gives the example where the whole expression
cannot overflow but the ``width16 × height16 × 4`` subexpression can).

Construction: walk the recorded (wrap-around) target expression; for every
arithmetic operation that can exceed its width — addition, subtraction
(borrow), multiplication and left shift — build the operation again over
zero-extended operands at double width and compare against the original
width's maximum value.  The target constraint is the disjunction of these
per-operation overflow conditions.  The operands are the *wrapped* recorded
subexpressions, which is exactly how the hardware computes them, so the
constraint "faithfully represents integer arithmetic as implemented in the
hardware" as the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.smt import builder as smt
from repro.smt.simplify import simplify
from repro.smt.terms import Term, TermKind, mask


@dataclass(frozen=True)
class OverflowSpec:
    """Which operations count as overflow sources.

    The paper's target constraints cover unsigned wrap-around of the
    allocation-size arithmetic; subtraction underflow is included because a
    ``length - header`` underflow produces the same too-small-allocation
    effect, but it can be disabled for a strict reading.  Frozen: it keys
    the target-constraint memo.
    """

    include_add: bool = True
    include_sub: bool = True
    include_mul: bool = True
    include_shl: bool = True


@dataclass
class OverflowCondition:
    """One per-operation overflow condition (kept for reporting/ablation)."""

    operation: Term
    condition: Term


#: ``(expression, spec)`` -> its target constraint, for the life of the
#: process.  β is a pure function of the interned expression and the
#: frozen spec, so a hit builds no term; a miss runs the construction
#: unchanged, and racing threads both store the same interned term.
_TARGET_CONSTRAINTS: Dict[Tuple[Term, OverflowSpec], Term] = {}


def overflow_constraint(
    expression: Term, spec: Optional[OverflowSpec] = None
) -> Term:
    """Return the target constraint for ``expression`` (``false`` if none)."""
    key = (expression, spec or OverflowSpec())
    beta = _TARGET_CONSTRAINTS.get(key)
    if beta is None:
        conditions = overflow_conditions(expression, spec)
        if not conditions:
            beta = smt.bool_const(False)
        else:
            beta = simplify(smt.bor(*[c.condition for c in conditions]))
        _TARGET_CONSTRAINTS[key] = beta
    return beta


def overflow_conditions(
    expression: Term, spec: Optional[OverflowSpec] = None
) -> List[OverflowCondition]:
    """Per-operation overflow conditions for every subexpression."""
    spec = spec or OverflowSpec()
    if not expression.is_bv:
        raise ValueError("target expressions must be bitvector terms")
    conditions: List[OverflowCondition] = []
    seen: Dict[int, bool] = {}
    stack: List[Term] = [expression]
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen[id(term)] = True
        stack.extend(arg for arg in term.args if arg.is_bv)
        condition = _operation_overflow(term, spec)
        if condition is not None:
            conditions.append(OverflowCondition(operation=term, condition=condition))
    return conditions


def _operation_overflow(term: Term, spec: OverflowSpec) -> Optional[Term]:
    kind = term.kind
    width = term.width
    if width is None:
        return None
    limit = smt.bv_const(mask(width), 2 * width)

    if kind is TermKind.ADD and spec.include_add:
        wide = smt.add(smt.zext(term.args[0], 2 * width), smt.zext(term.args[1], 2 * width))
        return smt.ugt(wide, limit)
    if kind is TermKind.MUL and spec.include_mul:
        wide = smt.mul(smt.zext(term.args[0], 2 * width), smt.zext(term.args[1], 2 * width))
        return smt.ugt(wide, limit)
    if kind is TermKind.SHL and spec.include_shl:
        amount = term.args[1]
        wide_amount = smt.zext(amount, 2 * width)
        wide = smt.shl(smt.zext(term.args[0], 2 * width), wide_amount)
        shift_too_far = smt.uge(amount, smt.bv_const(width, amount.width))
        return smt.bor(smt.ugt(wide, limit), shift_too_far)
    if kind is TermKind.SUB and spec.include_sub:
        # Unsigned borrow: a - b wraps exactly when a < b.
        return smt.ult(term.args[0], term.args[1])
    return None
