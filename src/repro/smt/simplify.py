"""Rewriting simplifier for bitvector / boolean terms.

The concolic interpreter records symbolic expressions for every computation
that touches relevant input bytes; the paper notes that simplifying these
expressions at record time is essential to keep them manageable (its example
coalesces chained ``Add32`` operations).  This module provides the same
service for the whole system: constant folding, identity/absorption rules,
coalescing of constant-add/shift chains, and boolean clean-up.

The simplifier is a bottom-up rewriter; each term remembers its own
simplified form, so shared subterms are rewritten once.  It is
deliberately *not* a decision procedure: anything it cannot reduce it leaves
alone for the interval analysis or the bit-blasting backend.
"""

from __future__ import annotations

from repro.smt import builder as b
from repro.smt.terms import Term, TermKind, mask, to_signed, truncate


def simplify(term: Term) -> Term:
    """Return a simplified term equivalent to ``term``.

    The result is stored on the interned term itself (``Term._simplified``,
    like :meth:`Term.variables`), so each distinct term is rewritten once
    per process.  The slot holds exactly this function's answer for that
    term; results are not marked as their own fixpoint, because a rewrite
    rule may expose a further rewrite on a second pass.
    """
    return _simplify(term)


def _simplify(term: Term) -> Term:
    # Recursion stays on this private name, so a wrapper installed on the
    # public ``simplify`` (tracing, call counting) sees outermost calls only.
    cached = term._simplified
    if cached is not None:
        return cached
    if term.is_const or term.is_var:
        result = term
    else:
        result = _rewrite(term, tuple(_simplify(a) for a in term.args))
    term._simplified = result
    return result


def _rebuild(term: Term, args: tuple) -> Term:
    """Rebuild ``term`` with new arguments, preserving kind/width/params."""
    return Term.make(
        term.kind,
        args,
        width=term.width,
        value=term.value,
        name=term.name,
        params=term.params,
    )


def _const(value: int, width: int) -> Term:
    return b.bv_const(value, width)


def _is_zero(term: Term) -> bool:
    return term.kind is TermKind.BV_CONST and term.value == 0


def _is_ones(term: Term) -> bool:
    return term.kind is TermKind.BV_CONST and term.value == mask(term.width)


def _is_one(term: Term) -> bool:
    return term.kind is TermKind.BV_CONST and term.value == 1


def _rewrite(term: Term, args: tuple) -> Term:
    kind = term.kind
    width = term.width

    # Full constant folding via the evaluator-equivalent local rules.
    if all(a.is_const for a in args) and args:
        folded = _fold_constant(kind, args, width, term.params)
        if folded is not None:
            return folded

    if kind is TermKind.ADD:
        return _rewrite_add(args, width)
    if kind is TermKind.SUB:
        left, right = args
        if _is_zero(right):
            return left
        if left is right:
            return _const(0, width)
        return _rebuild(term, args)
    if kind is TermKind.MUL:
        return _rewrite_mul(args, width)
    if kind is TermKind.UDIV:
        left, right = args
        if _is_one(right):
            return left
        return _rebuild(term, args)
    if kind is TermKind.UREM:
        left, right = args
        if _is_one(right):
            return _const(0, width)
        return _rebuild(term, args)
    if kind is TermKind.NEG:
        (operand,) = args
        if operand.kind is TermKind.NEG:
            return operand.args[0]
        return _rebuild(term, args)

    if kind is TermKind.AND:
        left, right = args
        if _is_zero(left) or _is_zero(right):
            return _const(0, width)
        if _is_ones(left):
            return right
        if _is_ones(right):
            return left
        if left is right:
            return left
        return _rebuild(term, args)
    if kind is TermKind.OR:
        left, right = args
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
        if _is_ones(left) or _is_ones(right):
            return _const(mask(width), width)
        if left is right:
            return left
        reassembled = _try_reassemble_bytes(Term.make(TermKind.OR, (left, right), width=width))
        if reassembled is not None:
            return reassembled
        return _rebuild(term, args)
    if kind is TermKind.XOR:
        left, right = args
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
        if left is right:
            return _const(0, width)
        return _rebuild(term, args)
    if kind is TermKind.NOT:
        (operand,) = args
        if operand.kind is TermKind.NOT:
            return operand.args[0]
        return _rebuild(term, args)

    if kind in (TermKind.SHL, TermKind.LSHR, TermKind.ASHR):
        left, right = args
        if _is_zero(right):
            return left
        if _is_zero(left) and kind is not TermKind.ASHR:
            return _const(0, width)
        if right.kind is TermKind.BV_CONST and right.value >= width:
            if kind is TermKind.SHL or kind is TermKind.LSHR:
                return _const(0, width)
        return _rebuild(term, args)

    if kind is TermKind.ZEXT:
        (operand,) = args
        if operand.kind is TermKind.ZEXT:
            return b.zext(operand.args[0], width)
        return _rebuild(term, args)
    if kind is TermKind.SEXT:
        return _rebuild(term, args)
    if kind is TermKind.EXTRACT:
        (operand,) = args
        high, low = term.params
        if low == 0 and high == operand.width - 1:
            return operand
        if operand.kind is TermKind.ZEXT and high < operand.args[0].width:
            return b.extract(operand.args[0], high, low)
        return _rebuild(term, args)
    if kind is TermKind.CONCAT:
        return _rebuild(term, args)
    if kind is TermKind.ITE:
        cond, then, otherwise = args
        if cond.kind is TermKind.BOOL_CONST:
            return then if cond.value else otherwise
        if then is otherwise:
            return then
        return _rebuild(term, args)

    if kind in (
        TermKind.EQ,
        TermKind.NE,
        TermKind.ULT,
        TermKind.ULE,
        TermKind.UGT,
        TermKind.UGE,
        TermKind.SLT,
        TermKind.SLE,
        TermKind.SGT,
        TermKind.SGE,
    ):
        return _rewrite_comparison(term, args)

    if kind is TermKind.BAND:
        left, right = args
        if left.kind is TermKind.BOOL_CONST:
            return right if left.value else b.FALSE
        if right.kind is TermKind.BOOL_CONST:
            return left if right.value else b.FALSE
        if left is right:
            return left
        return _rebuild(term, args)
    if kind is TermKind.BOR:
        left, right = args
        if left.kind is TermKind.BOOL_CONST:
            return b.TRUE if left.value else right
        if right.kind is TermKind.BOOL_CONST:
            return b.TRUE if right.value else left
        if left is right:
            return left
        return _rebuild(term, args)
    if kind is TermKind.BNOT:
        (operand,) = args
        if operand.kind is TermKind.BNOT:
            return operand.args[0]
        if operand.kind is TermKind.BOOL_CONST:
            return b.bool_const(not operand.value)
        negated = _negate_comparison(operand)
        if negated is not None:
            return _rewrite_comparison(negated, negated.args)
        return _rebuild(term, args)
    if kind is TermKind.BXOR:
        left, right = args
        if left.kind is TermKind.BOOL_CONST:
            return b.bnot(right) if left.value else right
        if right.kind is TermKind.BOOL_CONST:
            return b.bnot(left) if right.value else left
        if left is right:
            return b.FALSE
        return _rebuild(term, args)
    if kind is TermKind.IMPLIES:
        left, right = args
        if left.kind is TermKind.BOOL_CONST:
            return right if left.value else b.TRUE
        if right.kind is TermKind.BOOL_CONST and right.value:
            return b.TRUE
        return _rebuild(term, args)
    if kind is TermKind.BITE:
        cond, then, otherwise = args
        if cond.kind is TermKind.BOOL_CONST:
            return then if cond.value else otherwise
        if then is otherwise:
            return then
        return _rebuild(term, args)

    return _rebuild(term, args)


_COMPARISON_NEGATION = {
    TermKind.EQ: TermKind.NE,
    TermKind.NE: TermKind.EQ,
    TermKind.ULT: TermKind.UGE,
    TermKind.ULE: TermKind.UGT,
    TermKind.UGT: TermKind.ULE,
    TermKind.UGE: TermKind.ULT,
    TermKind.SLT: TermKind.SGE,
    TermKind.SLE: TermKind.SGT,
    TermKind.SGT: TermKind.SLE,
    TermKind.SGE: TermKind.SLT,
}


def _negate_comparison(term: Term) -> Term | None:
    """Push a boolean negation into a comparison (``!(a < b)`` → ``a >= b``)."""
    negated_kind = _COMPARISON_NEGATION.get(term.kind)
    if negated_kind is None:
        return None
    return Term.make(negated_kind, term.args)


def _negate(condition: Term) -> Term:
    """The simplified ``!condition`` for an already-simplified ``condition``."""
    return _rewrite(Term.make(TermKind.BNOT, (condition,)), (condition,))


def _fold_constant(kind: TermKind, args: tuple, width, params) -> Term | None:
    """Fold an all-constant application; returns ``None`` if not handled."""
    values = [a.value for a in args]
    opw = args[0].width

    if kind is TermKind.ADD:
        return _const(values[0] + values[1], width)
    if kind is TermKind.SUB:
        return _const(values[0] - values[1], width)
    if kind is TermKind.MUL:
        return _const(values[0] * values[1], width)
    if kind is TermKind.UDIV:
        return _const(mask(width) if values[1] == 0 else values[0] // values[1], width)
    if kind is TermKind.UREM:
        return _const(values[0] if values[1] == 0 else values[0] % values[1], width)
    if kind is TermKind.NEG:
        return _const(-values[0], width)
    if kind is TermKind.AND:
        return _const(values[0] & values[1], width)
    if kind is TermKind.OR:
        return _const(values[0] | values[1], width)
    if kind is TermKind.XOR:
        return _const(values[0] ^ values[1], width)
    if kind is TermKind.NOT:
        return _const(~values[0], width)
    if kind is TermKind.SHL:
        return _const(0 if values[1] >= width else values[0] << values[1], width)
    if kind is TermKind.LSHR:
        return _const(0 if values[1] >= width else values[0] >> values[1], width)
    if kind is TermKind.ASHR:
        shift = min(values[1], width - 1)
        return _const(to_signed(values[0], opw) >> shift, width)
    if kind is TermKind.ZEXT:
        return _const(values[0], width)
    if kind is TermKind.SEXT:
        return _const(to_signed(values[0], opw), width)
    if kind is TermKind.EXTRACT:
        high, low = params
        return _const(values[0] >> low, high - low + 1)
    if kind is TermKind.CONCAT:
        return _const((values[0] << args[1].width) | values[1], width)
    if kind is TermKind.ITE:
        return args[1] if values[0] else args[2]

    if kind is TermKind.EQ:
        return b.bool_const(values[0] == values[1])
    if kind is TermKind.NE:
        return b.bool_const(values[0] != values[1])
    if kind is TermKind.ULT:
        return b.bool_const(values[0] < values[1])
    if kind is TermKind.ULE:
        return b.bool_const(values[0] <= values[1])
    if kind is TermKind.UGT:
        return b.bool_const(values[0] > values[1])
    if kind is TermKind.UGE:
        return b.bool_const(values[0] >= values[1])
    if kind is TermKind.SLT:
        return b.bool_const(to_signed(values[0], opw) < to_signed(values[1], opw))
    if kind is TermKind.SLE:
        return b.bool_const(to_signed(values[0], opw) <= to_signed(values[1], opw))
    if kind is TermKind.SGT:
        return b.bool_const(to_signed(values[0], opw) > to_signed(values[1], opw))
    if kind is TermKind.SGE:
        return b.bool_const(to_signed(values[0], opw) >= to_signed(values[1], opw))

    if kind is TermKind.BAND:
        return b.bool_const(bool(values[0] and values[1]))
    if kind is TermKind.BOR:
        return b.bool_const(bool(values[0] or values[1]))
    if kind is TermKind.BNOT:
        return b.bool_const(not values[0])
    if kind is TermKind.BXOR:
        return b.bool_const(bool(values[0] ^ values[1]))
    if kind is TermKind.IMPLIES:
        return b.bool_const(bool((not values[0]) or values[1]))
    if kind is TermKind.BITE:
        return args[1] if values[0] else args[2]

    return None


def _rewrite_add(args: tuple, width: int) -> Term:
    """Coalesce constant addends: ``(x + c1) + c2`` → ``x + (c1 + c2)``."""
    left, right = args
    if _is_zero(left):
        return right
    if _is_zero(right):
        return left
    # Collect the constant offsets of a left-leaning add chain.
    terms, constant = _flatten_add(left)
    more_terms, more_constant = _flatten_add(right)
    terms = terms + more_terms
    constant = truncate(constant + more_constant, width)
    if not terms:
        return _const(constant, width)
    result = terms[0]
    for term in terms[1:]:
        result = Term.make(TermKind.ADD, _ordered(result, term), width=width)
    if constant:
        result = Term.make(
            TermKind.ADD, _ordered(result, _const(constant, width)), width=width
        )
    return result


def _flatten_add(term: Term) -> tuple:
    """Split an add tree into (non-constant terms, constant sum)."""
    if term.kind is TermKind.BV_CONST:
        return [], term.value
    if term.kind is TermKind.ADD:
        left_terms, left_const = _flatten_add(term.args[0])
        right_terms, right_const = _flatten_add(term.args[1])
        return left_terms + right_terms, left_const + right_const
    return [term], 0


def _rewrite_mul(args: tuple, width: int) -> Term:
    left, right = args
    if _is_zero(left) or _is_zero(right):
        return _const(0, width)
    if _is_one(left):
        return right
    if _is_one(right):
        return left
    # Multiplication by a power of two becomes a shift only during
    # bit-blasting; keeping the MUL here preserves readability of extracted
    # target expressions.
    return Term.make(TermKind.MUL, _ordered(left, right), width=width)


def _rewrite_comparison(term: Term, args: tuple) -> Term:
    left, right = args
    kind = term.kind
    # Boolean-valued arithmetic: the concolic interpreter encodes comparisons
    # and logical operators as ``ite(c, 1, 0)`` bitvectors; branch conditions
    # then test them against zero.  Recover the underlying boolean so that
    # interval contraction and enforcement see clean constraints.
    unwrapped = _unwrap_boolean_test(kind, left, right)
    if unwrapped is not None:
        return unwrapped
    if left is right:
        if kind in (TermKind.EQ, TermKind.ULE, TermKind.UGE, TermKind.SLE, TermKind.SGE):
            return b.TRUE
        if kind in (TermKind.NE, TermKind.ULT, TermKind.UGT, TermKind.SLT, TermKind.SGT):
            return b.FALSE
    # Trivially true/false unsigned bounds against extremes.
    if right.kind is TermKind.BV_CONST:
        if kind is TermKind.ULT and right.value == 0:
            return b.FALSE
        if kind is TermKind.UGE and right.value == 0:
            return b.TRUE
        if kind is TermKind.ULE and right.value == mask(right.width):
            return b.TRUE
        if kind is TermKind.UGT and right.value == mask(right.width):
            return b.FALSE
    if left.kind is TermKind.BV_CONST:
        if kind is TermKind.UGT and left.value == 0:
            return b.FALSE
        if kind is TermKind.ULE and left.value == 0:
            return b.TRUE
        if kind is TermKind.UGE and left.value == mask(left.width):
            return b.TRUE
        if kind is TermKind.ULT and left.value == mask(left.width):
            return b.FALSE
    return Term.make(kind, (left, right))


def _ordered(left: Term, right: Term) -> tuple:
    if left._id > right._id:
        return (right, left)
    return (left, right)


def _unwrap_boolean_test(kind: TermKind, left: Term, right: Term) -> Term | None:
    """Simplify ``ite(c, 1, 0) != 0`` (and friends) to ``c``."""
    ite_term, const_term = None, None
    if _is_flag_ite(left) and right.kind is TermKind.BV_CONST:
        ite_term, const_term = left, right
    elif _is_flag_ite(right) and left.kind is TermKind.BV_CONST:
        ite_term, const_term = right, left
        kind = _SWAPPED_COMPARISON.get(kind, kind)
    if ite_term is None or const_term is None:
        return None
    condition = ite_term.args[0]
    then_value = ite_term.args[1].value
    else_value = ite_term.args[2].value
    constant = const_term.value
    if kind is TermKind.NE and constant == else_value:
        return condition
    if kind is TermKind.NE and constant == then_value:
        return _negate(condition)
    if kind is TermKind.EQ and constant == then_value:
        return condition
    if kind is TermKind.EQ and constant == else_value:
        return _negate(condition)
    if kind is TermKind.UGT and constant < then_value and constant >= else_value:
        return condition
    return None


def _is_flag_ite(term: Term) -> bool:
    return (
        term.kind is TermKind.ITE
        and term.args[1].kind is TermKind.BV_CONST
        and term.args[2].kind is TermKind.BV_CONST
        and term.args[1].value != term.args[2].value
    )


_SWAPPED_COMPARISON = {
    TermKind.ULT: TermKind.UGT,
    TermKind.ULE: TermKind.UGE,
    TermKind.UGT: TermKind.ULT,
    TermKind.UGE: TermKind.ULE,
    TermKind.SLT: TermKind.SGT,
    TermKind.SLE: TermKind.SGE,
    TermKind.SGT: TermKind.SLT,
    TermKind.SGE: TermKind.SLE,
    TermKind.EQ: TermKind.EQ,
    TermKind.NE: TermKind.NE,
}


# ----------------------------------------------------------------------
# Byte-reassembly recognition
# ----------------------------------------------------------------------
def _try_reassemble_bytes(term: Term) -> Term | None:
    """Collapse an endianness-reassembly OR chain back into its field variable.

    Application code reads multi-byte input fields one byte at a time and
    recombines them with shifts and ORs (the paper's example target
    expression is full of exactly these ``Shl``/``BvAnd`` chains).  When the
    concolic interpreter maps input bytes to slices of a single field
    variable ``V``, that recombination has the shape::

        OR of   shl(zext(extract(V, hi_i, lo_i), w), lo_i)

    with the pieces covering a contiguous bit range starting at 0.  This
    rewrite recognises the pattern and replaces the whole chain with
    ``zext(V, w)`` (or ``zext(extract(V, max_hi, 0), w)`` for a partial
    read), which is what lets interval propagation and sampling reason about
    the field as a single variable — the same role Hachoir's byte-range →
    field conversion plays in the paper.
    """
    width = term.width
    pieces = _flatten_or(term)
    if len(pieces) < 2:
        return None
    decoded = []
    for piece in pieces:
        info = _decode_reassembly_piece(piece)
        if info is None:
            return None
        decoded.append(info)
    base = decoded[0][0]
    if any(info[0] is not base for info in decoded):
        return None
    covered = []
    for _base, lo, hi in decoded:
        covered.append((lo, hi))
    covered.sort()
    expected_lo = 0
    for lo, hi in covered:
        if lo != expected_lo:
            return None
        expected_lo = hi + 1
    max_hi = covered[-1][1]
    if max_hi >= width:
        return None
    if max_hi == base.width - 1:
        rebuilt = base
    else:
        rebuilt = Term.make(
            TermKind.EXTRACT, (base,), width=max_hi + 1, params=(max_hi, 0)
        )
    if rebuilt.width == width:
        return rebuilt
    return Term.make(TermKind.ZEXT, (rebuilt,), width=width, params=(width,))


def _flatten_or(term: Term) -> list:
    if term.kind is TermKind.OR:
        return _flatten_or(term.args[0]) + _flatten_or(term.args[1])
    return [term]


def _decode_reassembly_piece(piece: Term):
    """Decode one OR operand as (base variable, lo bit, hi bit) or ``None``."""
    shift = 0
    inner = piece
    if inner.kind is TermKind.SHL and inner.args[1].kind is TermKind.BV_CONST:
        shift = inner.args[1].value
        inner = inner.args[0]
    if inner.kind is TermKind.ZEXT:
        inner = inner.args[0]
    if inner.kind is TermKind.EXTRACT:
        high, low = inner.params
        base = inner.args[0]
        if base.kind is not TermKind.BV_VAR:
            return None
        if shift != low:
            return None
        return (base, low, high)
    if inner.kind is TermKind.BV_VAR:
        if shift != 0:
            return None
        return (inner, 0, inner.width - 1)
    return None
