"""Unsigned interval analysis with backward propagation.

Two roles in the DIODE pipeline:

* **Cheap unsatisfiability proofs.**  Many target constraints in the paper
  are unsatisfiable (17 of the 40 target sites) because sanity checks bound
  the relevant input fields so tightly that the target expression cannot wrap
  (e.g. ``rowbytes <= 1154`` and ``height <= 10^6`` bound the product below
  ``2^32``).  Forward interval evaluation plus backward propagation over the
  conjunction of constraints detects these cases without bit-blasting.

* **Sampler guidance.**  The sampler draws candidate field values from the
  propagated intervals instead of the full 2^32 space, which is what makes
  the 200-input success-rate experiments fast.

The domain is the classic unsigned interval lattice ``[lo, hi]`` (with
``lo > hi`` meaning empty / contradiction).  Operations that can wrap fall
back to the full range of the result width, which keeps the analysis sound
with respect to the modular semantics of :mod:`repro.smt.evalmodel`.

The analysis is a flat kernel.  An :class:`IntervalAnalysis` lowers the term
DAG once into a post-order node array — one ``(kind, a, b, mask, extra)``
record per distinct term, children first, kinds as small module-level
integers — and evaluates every forward interval as a plain ``(lo, hi)`` pair
in one pass over that array.  Entailment (:meth:`IntervalAnalysis.decide`),
term-bound learning and the HC4 contractor read the array by node index.
Only static structure outlives a call: each root term's own lowering is
cached in its ``Term._lowered`` slot, while the merged node array, the
learned term bounds and the forward values belong to one analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.smt.terms import Term, TermKind, mask


class Interval(NamedTuple):
    """A closed unsigned interval ``[lo, hi]``; empty when ``lo > hi``."""

    lo: int
    hi: int

    @staticmethod
    def full(width: int) -> "Interval":
        """The complete range of a ``width``-bit unsigned value."""
        return Interval(0, mask(width))

    @staticmethod
    def point(value: int) -> "Interval":
        """The singleton interval ``[value, value]``."""
        return Interval(value, value)

    @property
    def is_empty(self) -> bool:
        """Whether this interval contains no values."""
        return self.lo > self.hi

    @property
    def is_point(self) -> bool:
        """Whether this interval contains exactly one value."""
        return self.lo == self.hi

    def __contains__(self, value: int) -> bool:  # type: ignore[override]
        return self.lo <= value <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        """Meet of two intervals."""
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

# Node kinds of the lowered DAG.  Bitvector kinds come first; the unsigned
# comparisons are contiguous, so one range test recognises them.  ``_OPAQUE``
# is any other bitvector operator (full range unless an operand is empty),
# ``_BOOL`` any other boolean term (never decided, never contracted).
(
    _CONST, _VAR, _ZEXT, _MUL, _ADD, _SUB, _UDIV, _UREM, _NEG, _AND, _OR,
    _XOR, _NOT, _SHL, _LSHR, _SEXT, _EXTRACT, _CONCAT, _ITE, _OPAQUE,
    _EQ, _NE, _ULT, _ULE, _UGT, _UGE,
    _BCONST, _BNOT, _BAND, _BOR, _IMPLIES, _BOOL,
) = range(32)

_KINDS = {
    TermKind.BV_CONST: _CONST, TermKind.BV_VAR: _VAR, TermKind.ZEXT: _ZEXT,
    TermKind.MUL: _MUL, TermKind.ADD: _ADD, TermKind.SUB: _SUB,
    TermKind.UDIV: _UDIV, TermKind.UREM: _UREM, TermKind.NEG: _NEG,
    TermKind.AND: _AND, TermKind.OR: _OR, TermKind.XOR: _XOR,
    TermKind.NOT: _NOT, TermKind.SHL: _SHL, TermKind.LSHR: _LSHR,
    TermKind.SEXT: _SEXT, TermKind.EXTRACT: _EXTRACT,
    TermKind.CONCAT: _CONCAT, TermKind.ITE: _ITE,
    TermKind.EQ: _EQ, TermKind.NE: _NE, TermKind.ULT: _ULT,
    TermKind.ULE: _ULE, TermKind.UGT: _UGT, TermKind.UGE: _UGE,
    TermKind.BOOL_CONST: _BCONST, TermKind.BNOT: _BNOT,
    TermKind.BAND: _BAND, TermKind.BOR: _BOR, TermKind.IMPLIES: _IMPLIES,
}

#: The comparison a negated comparison contracts as, keyed by kind.
_NEGATED = {_EQ: _NE, _NE: _EQ, _ULT: _UGE, _ULE: _UGT, _UGT: _ULE, _UGE: _ULT}

_EMPTY = (1, 0)
_BOOL_RANGE = (0, 1)


class IntervalAnalysis:
    """Forward interval evaluation over a lowered term DAG.

    ``bounds`` maps variable names to their intervals.  The analysis also
    carries *learned* bounds for non-variable nodes: when a conjunction
    contains a constraint such as ``rowbytes_expr <= 1120``, the bound is
    attached to the expression node itself so that every other constraint
    sharing that node (thanks to hash-consing) benefits.  This is what lets
    the analysis prove the paper's blocking-check conjunctions unsatisfiable
    without bit-blasting.
    """

    def __init__(self, bounds: Optional[Dict[str, Interval]] = None) -> None:
        self.bounds: Dict[str, Interval] = dict(bounds or {})
        self._index: Dict[int, int] = {}
        #: ``(kind, a, b, mask, extra)`` per node, children first.
        self._ops: List[tuple] = []
        #: ``(node, kind, a, b, mask, extra)`` for every node the forward
        #: pass evaluates (bitvector nodes other than constants).
        self._program: List[tuple] = []
        #: Forward ``(lo, hi)`` per node as of the last :meth:`_refresh`.
        self._ivs: List[Tuple[int, int]] = []
        #: Learned ``(lo, hi)`` per node, or ``None``.
        self._learned: List[Optional[Tuple[int, int]]] = []

    def interval(self, term: Term) -> Interval:
        """Forward-evaluate the interval of a bitvector term."""
        node = self._lower(term)
        self._refresh()
        return Interval(*self._ivs[node])

    def decide(self, constraint: Term) -> Optional[bool]:
        """Return ``True``/``False`` if the bounds decide ``constraint``.

        ``None`` means the constraint is still possible either way.
        """
        node = self._lower(constraint)
        self._refresh()
        return self._decide(node)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def _lower(self, term: Term) -> int:
        """The node of ``term``, appending its DAG (children first) if new.

        The term's static lowering (:func:`_lower_term`) is cached on the
        term; merging it here maps its local node numbers to this
        analysis's, so a node shared by several roots is one node.
        """
        lowered = term._lowered
        if lowered is None:
            lowered = term._lowered = _lower_term(term)
        ids, records, values, evaluated = lowered
        if not self._ops:
            # The first root's local numbering is the analysis's.
            self._index = dict(zip(ids, range(len(ids))))
            self._ops, self._ivs = list(records), list(values)
            self._program = list(evaluated)
            self._learned = [None] * len(ids)
            return len(ids) - 1
        index, ops, program = self._index, self._ops, self._program
        local: List[int] = []
        for term_id, (kind, a, b, m, x), value in zip(ids, records, values):
            node = index.get(term_id)
            if node is None:
                node = index[term_id] = len(ops)
                if a >= 0:
                    a = local[a]
                    if b >= 0:
                        b = local[b]
                ops.append((kind, a, b, m, x))
                self._ivs.append(value)
                self._learned.append(None)
                if m is not None and kind != _CONST:
                    program.append((node, kind, a, b, m, x))
            local.append(node)
        return local[-1]

    # ------------------------------------------------------------------
    # The forward pass
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Re-evaluate every forward interval under the current bounds."""
        ivs = self._ivs
        learned = self._learned
        bounds = self.bounds
        for node, kind, a, b, m, x in self._program:
            if kind == _VAR:
                bound = bounds.get(x)
                if bound is None:
                    ivs[node] = (0, m)
                else:
                    lo, hi = bound
                    ivs[node] = (lo if lo > 0 else 0, hi if hi < m else m)
                continue
            if kind == _ITE:
                left, right = ivs[a], ivs[b]
                if left[0] > left[1]:
                    value = right
                elif right[0] > right[1]:
                    value = left
                else:
                    value = (min(left[0], right[0]), max(left[1], right[1]))
            else:
                l0, l1 = ivs[a]
                if b >= 0:
                    r0, r1 = ivs[b]
                    empty = l0 > l1 or r0 > r1
                else:
                    empty = l0 > l1
                if empty:
                    value = _EMPTY
                elif kind == _ZEXT:
                    value = (l0, l1)
                elif kind == _MUL:
                    hi = l1 * r1
                    value = (0, m) if hi > m else (l0 * r0, hi)
                elif kind == _ADD:
                    hi = l1 + r1
                    value = (0, m) if hi > m else (l0 + r0, hi)
                elif kind == _LSHR:
                    value = (0, l1) if r0 != r1 else (0, 0) if r0 >= x else (l0 >> r0, l1 >> r0)
                elif kind == _SHL:
                    if r0 != r1:
                        value = (0, m)
                    elif r0 >= x:
                        value = (0, 0)
                    else:
                        hi = l1 << r0
                        value = (0, m) if hi > m else (l0 << r0, hi)
                elif kind == _AND:
                    value = (0, l1 if l1 < r1 else r1)
                elif kind == _SUB:
                    lo = l0 - r1
                    value = (0, m) if lo < 0 else (lo, l1 - r0)
                elif kind == _UDIV:
                    value = (0, m) if r0 == 0 else (l0 // r1, l1 // r0)
                elif kind == _UREM:
                    value = (0, m) if r0 == 0 else (0, min(l1, r1 - 1))
                elif kind == _EXTRACT:
                    value = (l0, l1) if x and l1 <= m else (0, m)
                elif kind == _CONCAT:
                    value = ((l0 << x) | r0, (l1 << x) | r1)
                elif kind == _OR:
                    upper = (1 << max(l1.bit_length(), r1.bit_length())) - 1
                    value = (max(l0, r0), min(m, max(l1 | r1, upper)))
                elif kind == _XOR:
                    upper = (1 << max(l1.bit_length(), r1.bit_length())) - 1
                    value = (0, min(m, upper))
                elif kind == _NOT:
                    value = (m - l1, m - l0)
                elif kind == _NEG:
                    value = (0, 0) if l0 == l1 == 0 else (0, m)
                elif kind == _SEXT:
                    value = (l0, l1) if l1 < x else (0, m)
                else:
                    value = (0, m)
            bound = learned[node]
            if bound is not None:
                lo, hi = value
                value = (
                    lo if lo > bound[0] else bound[0],
                    hi if hi < bound[1] else bound[1],
                )
            ivs[node] = value

    # ------------------------------------------------------------------
    # Boolean entailment under the current bounds
    # ------------------------------------------------------------------
    def _decide(self, node: int) -> Optional[bool]:
        kind, a, b, _, x = self._ops[node]
        if _EQ <= kind <= _UGE:
            return _decide_comparison(kind, self._ivs[a], self._ivs[b])
        if kind == _BNOT:
            inner = self._decide(a)
            return None if inner is None else (not inner)
        if kind == _BAND or kind == _BOR or kind == _IMPLIES:
            left = self._decide(a)
            right = self._decide(b)
            if kind == _BAND:
                if left is False or right is False:
                    return False
                return True if left is True and right is True else None
            if kind == _IMPLIES:
                left = None if left is None else (not left)
            if left is True or right is True:
                return True
            return False if left is False and right is False else None
        if kind == _BCONST:
            return x
        return None

    # ------------------------------------------------------------------
    # Term-bound learning
    # ------------------------------------------------------------------
    def _learn(self, node: int) -> Dict[int, Tuple[int, int]]:
        """Derive bounds on *expression nodes* from a comparison constraint.

        Only direct comparisons (and conjunctions of them) against other
        terms are mined; the learned bound is attached to the non-constant
        side's node so it is shared wherever that node reappears.
        """
        ops, ivs = self._ops, self._ivs
        learned: Dict[int, Tuple[int, int]] = {}
        stack = [node]
        while stack:
            kind, a, b, _, _ = ops[stack.pop()]
            if kind == _BAND:
                stack.append(a)
                stack.append(b)
                continue
            if not _EQ <= kind <= _UGE or kind == _NE:
                continue
            l0, l1 = ivs[a]
            r0, r1 = ivs[b]
            if l0 > l1 or r0 > r1:
                continue
            if kind == _UGT or kind == _UGE:
                a, b, l0, l1, r0, r1 = b, a, r0, r1, l0, l1
                kind = _ULT if kind == _UGT else _ULE
            if kind == _EQ:
                meet = (max(l0, r0), min(l1, r1))
                _note(learned, ops, a, meet)
                _note(learned, ops, b, meet)
            else:
                strict = 1 if kind == _ULT else 0
                _note(learned, ops, a, (0, r1 - strict))
                _note(learned, ops, b, (l0 + strict, ops[b][3]))
        return learned

    # ------------------------------------------------------------------
    # Backward propagation (an HC4-style contractor)
    # ------------------------------------------------------------------
    def _contract(self, node: int, polarity: bool, bounds: Dict[str, Interval]) -> bool:
        """Refine ``bounds`` in place so that ``node == polarity`` can hold.

        Returns ``False`` when the constraint is contradictory under the
        current bounds (``bounds`` is then partly refined and must be
        dropped).
        """
        kind, a, b, _, x = self._ops[node]
        if kind == _BCONST:
            return x == polarity
        if kind == _BNOT:
            return self._contract(a, not polarity, bounds)
        if (kind == _BAND and polarity) or (kind == _BOR and not polarity):
            return self._contract(a, polarity, bounds) and self._contract(b, polarity, bounds)
        if _EQ <= kind <= _UGE:
            if not polarity:
                kind = _NEGATED[kind]
            return self._contract_comparison(kind, a, b, bounds)
        # Disjunctions under positive polarity (and other connectives) are
        # not contracted — that would require splitting; the portfolio
        # solver falls back to sampling / bit-blasting for those.
        return True

    def _contract_comparison(
        self, kind: int, a: int, b: int, bounds: Dict[str, Interval]
    ) -> bool:
        l0, l1 = self._ivs[a]
        r0, r1 = self._ivs[b]
        if l0 > l1 or r0 > r1:
            return False
        if kind == _NE:
            return not (l0 == l1 == r0 == r1)
        if kind == _EQ:
            left = right = (max(l0, r0), min(l1, r1))
            if left[0] > left[1]:
                return False
        else:
            if kind == _UGT or kind == _UGE:
                a, b, l0, l1, r0, r1 = b, a, r0, r1, l0, l1
            strict = 1 if kind == _ULT or kind == _UGT else 0
            left = (max(l0, 0), min(l1, r1 - strict))
            right = (max(r0, l0 + strict), min(r1, self._ops[b][3]))
            if left[0] > left[1] or right[0] > right[1]:
                return False
        return self._push_down(a, left, bounds) and self._push_down(b, right, bounds)

    def _push_down(self, node: int, target: Tuple[int, int], bounds: Dict[str, Interval]) -> bool:
        """Propagate a required output interval backwards into ``bounds``.

        Only structurally invertible operators are followed; anything else
        ends the walk (sound: the bounds simply stay wider).  Forward
        intervals bound the wrap count of modular operators.
        """
        ops, ivs = self._ops, self._ivs
        lo, hi = target
        while True:
            kind, a, b, m, x = ops[node]
            if kind == _VAR:
                current = bounds.get(x)
                c0, c1 = (0, m) if current is None else current
                lo, hi = max(c0, lo), min(c1, hi)
                if lo > hi:
                    return False
                bounds[x] = Interval(lo, hi)
                return True
            if kind == _CONST:
                return lo <= x <= hi
            if kind == _ZEXT:
                lo, hi, node = max(lo, 0), min(hi, ops[a][3]), a
                continue
            if kind == _EXTRACT:
                # The low bits being in [lo, hi] does not bound the high
                # bits, unless the extract covers the whole operand.
                if not (x and ops[a][3] == m):
                    return True
                node = a
                continue
            if kind == _ADD:
                if ops[b][0] == _CONST:
                    offset, node = ops[b][4], a
                elif ops[a][0] == _CONST:
                    offset, node = ops[a][4], b
                else:
                    return True
                lo, hi = lo - offset, hi - offset
                if lo < 0:
                    return True
                continue
            if kind == _MUL or kind == _SHL:
                if kind == _SHL:
                    if not (ops[b][0] == _CONST and ops[b][4] < x):
                        return True
                    factor = 1 << ops[b][4]
                elif ops[b][0] == _CONST and ops[b][4] > 0:
                    factor = ops[b][4]
                elif ops[a][0] == _CONST and ops[a][4] > 0:
                    factor, a = ops[a][4], b
                else:
                    return True
                base_lo, base_hi = ivs[a]
                if base_lo > base_hi:
                    base_hi = ops[a][3]
                lo, hi = _invert_scaled(lo, hi, factor, m, base_hi)
                node = a
                continue
            if kind == _LSHR or kind == _UDIV:
                amount = ops[b][4]
                if ops[b][0] != _CONST or (amount >= x if kind == _LSHR else amount <= 0):
                    return True
                if kind == _LSHR:
                    lo, hi = lo << amount, ((hi + 1) << amount) - 1
                else:
                    lo, hi = lo * amount, hi * amount + amount - 1
                lo, hi, node = max(lo, 0), min(hi, ops[a][3]), a
                continue
            return True


def _decide_comparison(
    kind: int, left: Tuple[int, int], right: Tuple[int, int]
) -> Optional[bool]:
    l0, l1 = left
    r0, r1 = right
    if l0 > l1 or r0 > r1:
        return False
    # On non-empty operands the "surely true" and "surely false" tests are
    # exclusive; UGT, UGE and NE are ULE, ULT and EQ with the two swapped.
    if kind == _EQ or kind == _NE:
        true, false = l0 == l1 == r0 == r1, l1 < r0 or r1 < l0
    elif kind == _ULT or kind == _UGE:
        true, false = l1 < r0, l0 >= r1
    else:
        true, false = l1 <= r0, l0 > r1
    if kind == _NE or kind == _UGT or kind == _UGE:
        true, false = false, true
    return True if true else (False if false else None)


def _note(learned: Dict[int, Tuple[int, int]], ops: List[tuple], node: int, bound: tuple) -> None:
    if ops[node][0] == _CONST or ops[node][0] == _VAR:
        return
    existing = learned.get(node)
    if existing is not None:
        bound = (max(existing[0], bound[0]), min(existing[1], bound[1]))
    learned[node] = bound


def _invert_scaled(lo: int, hi: int, factor: int, modulus_mask: int, base_hi: int) -> Tuple[int, int]:
    """Sound preimage hull of ``x`` for ``(x * factor) mod 2^width in [lo, hi]``.

    Multiplication is modular: for ``x`` up to ``base_hi`` (a sound upper
    bound on the base operand) the product ``x * factor`` wraps up to
    ``k_max = factor * base_hi // 2^width`` times, and every wrap count ``k``
    contributes the preimage interval ``[ceil((lo + k*2^width) / factor),
    (hi + k*2^width) // factor]``.  The convex hull of those intervals is
    ``[ceil(lo / factor), (hi + k_max*2^width) // factor]``; when no wrap is
    possible (``k_max == 0``) this is the exact non-modular inversion.
    ``modulus_mask`` is ``2^width - 1``.
    """
    modulus = modulus_mask + 1
    k_max = (factor * base_hi) // modulus
    return (lo + factor - 1) // factor, min((hi + k_max * modulus) // factor, modulus_mask)


def _lower_term(term: Term) -> Tuple[tuple, tuple, tuple, tuple]:
    """Lower the DAG under ``term`` into post-order arrays, ``term`` last.

    Returns ``(ids, ops, values, program)``: each node's term ``_id``, its
    ``(kind, a, b, mask, extra)`` record with children as local node
    numbers, its bound-independent forward value (constants and booleans;
    other nodes are set by every refresh), and the forward pass's
    ``(node, kind, a, b, mask, extra)`` steps.  Only edges the
    analysis reads are followed: an ITE's condition and the operands of
    boolean terms it neither decides nor contracts are not lowered.
    """
    index: Dict[int, int] = {}
    ids: List[int] = []
    ops: List[tuple] = []
    values: List[Tuple[int, int]] = []

    def visit(term: Term) -> int:
        node = index.get(term._id)
        if node is not None:
            return node
        kind = _KINDS.get(term.kind, _BOOL if term.width is None else _OPAQUE)
        args = term.args
        a = b = -1
        m = x = None
        value = _BOOL_RANGE
        if term.width is None:
            if kind == _BCONST:
                x = bool(term.value)
            elif _EQ <= kind <= _IMPLIES:
                a = visit(args[0])
                if len(args) > 1:
                    b = visit(args[1])
            else:
                kind = _BOOL
        else:
            m = mask(term.width)
            if kind == _CONST:
                x = term.value
                value = (x, x)
            elif kind == _VAR:
                x = str(term.name)
            elif kind == _ITE:
                a, b = visit(args[1]), visit(args[2])
            else:
                a = visit(args[0])
                if len(args) > 1:
                    b = visit(args[1])
                if kind == _SEXT:
                    x = 1 << (args[0].width - 1)
                elif kind == _EXTRACT:
                    x = term.params[1] == 0
                elif kind == _CONCAT:
                    x = args[1].width
                elif kind == _SHL or kind == _LSHR:
                    x = term.width
        index[term._id] = len(ids)
        ids.append(term._id)
        ops.append((kind, a, b, m, x))
        values.append(value)
        return index[term._id]

    visit(term)
    program = tuple(
        (node,) + op for node, op in enumerate(ops) if op[3] is not None and op[0] != _CONST
    )
    return tuple(ids), tuple(ops), tuple(values), program


def interval_of(term: Term, bounds: Optional[Dict[str, Interval]] = None) -> Interval:
    """Forward interval of ``term`` under optional variable bounds."""
    return IntervalAnalysis(bounds).interval(term)


def propagate_intervals(
    constraints: Iterable[Term],
    widths: Dict[str, int],
    initial: Optional[Dict[str, Interval]] = None,
    max_rounds: int = 16,
) -> Tuple[bool, Dict[str, Interval]]:
    """Contract variable intervals under a conjunction of boolean constraints.

    Returns ``(feasible, bounds)``.  ``feasible=False`` is a *proof* that the
    conjunction is unsatisfiable.  ``feasible=True`` means the analysis could
    not rule the conjunction out (it may still be unsatisfiable).

    Each round visits the constraints in order; the forward intervals are
    refreshed before a constraint whenever an earlier one changed a bound,
    so every constraint reads the bounds as they stand when it is reached.
    """
    box: Dict[str, Interval] = {name: Interval.full(width) for name, width in widths.items()}
    if initial:
        for name, interval in initial.items():
            if name in box:
                box[name] = box[name].intersect(interval)
    analysis = IntervalAnalysis(box)
    bounds = analysis.bounds
    roots = [analysis._lower(constraint) for constraint in constraints]
    term_bounds = analysis._learned
    stale = True
    for _ in range(max_rounds):
        changed = False
        for root in roots:
            if stale:
                analysis._refresh()
                stale = False
            if analysis._decide(root) is False:
                return False, bounds
            for node, (lo, hi) in analysis._learn(root).items():
                existing = term_bounds[node]
                if existing is not None:
                    lo, hi = max(existing[0], lo), min(existing[1], hi)
                if lo > hi:
                    return False, bounds
                if (lo, hi) != existing:
                    term_bounds[node] = (lo, hi)
                    changed = stale = True
            refined = dict(bounds)
            if not analysis._contract(root, True, refined):
                return False, bounds
            for name, interval in refined.items():
                if interval.lo > interval.hi:
                    return False, bounds
                if interval != bounds.get(name):
                    bounds[name] = interval
                    changed = stale = True
        if not changed:
            break
    if any(interval.is_empty for interval in bounds.values()):
        return False, bounds
    return True, bounds
