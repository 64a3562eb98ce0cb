"""Hash-consed bitvector / boolean term language.

Terms form an immutable DAG.  Structurally identical terms are interned, so
identity comparison (``is`` / ``id``) is equivalent to structural equality,
which keeps the simplifier, interval analysis and bit-blaster fast.

The sort of a term is either :data:`BOOL` or a bitvector of a given width
(``term.width``).  Machine arithmetic is modular: every operator wraps its
result to the operand width, matching the hardware semantics the paper's
target constraints rely on ("the target constraint faithfully represents
integer arithmetic as implemented in the hardware").
"""

from __future__ import annotations

import enum
import threading
from typing import Dict, Iterable, Optional, Tuple

#: Sort marker for boolean terms (``Term.width is None``).
BOOL = "bool"

#: Sort marker prefix for bitvector terms; the concrete sort is the width.
BV = "bv"


class TermKind(enum.Enum):
    """Operator kinds of the term language."""

    # Leaves.
    BV_CONST = "bv_const"
    BV_VAR = "bv_var"
    BOOL_CONST = "bool_const"
    BOOL_VAR = "bool_var"

    # Bitvector arithmetic (modular, unsigned representation).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    UDIV = "udiv"
    UREM = "urem"
    NEG = "neg"

    # Bitwise.
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"

    # Structural.
    ZEXT = "zext"
    SEXT = "sext"
    EXTRACT = "extract"
    CONCAT = "concat"
    ITE = "ite"

    # Comparisons (bitvector -> bool).
    EQ = "eq"
    NE = "ne"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"

    # Boolean connectives.
    BAND = "band"
    BOR = "bor"
    BNOT = "bnot"
    BXOR = "bxor"
    IMPLIES = "implies"
    BITE = "bite"


#: Kinds whose result sort is boolean.
BOOL_KINDS = frozenset(
    {
        TermKind.BOOL_CONST,
        TermKind.BOOL_VAR,
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
        TermKind.BAND,
        TermKind.BOR,
        TermKind.BNOT,
        TermKind.BXOR,
        TermKind.IMPLIES,
        TermKind.BITE,
    }
)

#: Comparison kinds (bitvector operands, boolean result).
COMPARISON_KINDS = frozenset(
    {
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
    }
)

#: Leaf kinds, built once: ``Term.is_const`` / ``Term.is_var`` run on every
#: node of every walk over the DAG (name collection, renaming, ``variables``).
_CONST_KINDS = (TermKind.BV_CONST, TermKind.BOOL_CONST)
_VAR_KINDS = (TermKind.BV_VAR, TermKind.BOOL_VAR)

#: Commutative binary kinds (used for canonical argument ordering).
COMMUTATIVE_KINDS = frozenset(
    {
        TermKind.ADD,
        TermKind.MUL,
        TermKind.AND,
        TermKind.OR,
        TermKind.XOR,
        TermKind.EQ,
        TermKind.NE,
        TermKind.BAND,
        TermKind.BOR,
        TermKind.BXOR,
    }
)


class Term:
    """A node of the hash-consed term DAG.

    Attributes:
        kind: the operator.
        args: child terms.
        width: bitvector width, or ``None`` for boolean terms.
        value: integer value for constants (``BV_CONST`` / ``BOOL_CONST``).
        name: variable name for ``BV_VAR`` / ``BOOL_VAR``.
        params: extra integer parameters (``EXTRACT`` high/low bits, ``ZEXT``
            / ``SEXT`` target widths).
    """

    __slots__ = (
        "kind",
        "args",
        "width",
        "value",
        "name",
        "params",
        "_id",
        "_vars",
        "_simplified",
        "_normalized",
        "_structural_key",
        "_lowered",
    )

    _intern_lock = threading.Lock()
    #: Never cleared: terms held by compiled programs (the concolic
    #: annotators' width constants and computed tables) must stay the
    #: interned copies.
    _intern: Dict[tuple, "Term"] = {}
    _next_id = 0

    def __init__(
        self,
        kind: TermKind,
        args: Tuple["Term", ...],
        width: Optional[int],
        value: Optional[int],
        name: Optional[str],
        params: Tuple[int, ...],
        _id: int,
    ) -> None:
        self.kind = kind
        self.args = args
        self.width = width
        self.value = value
        self.name = name
        self.params = params
        self._id = _id
        self._vars: Optional[Tuple["Term", ...]] = None
        #: What :func:`repro.smt.simplify.simplify` returns for this term,
        #: filled on first request (the simplifier owns it).
        self._simplified: Optional["Term"] = None
        #: The solver cache's canonical operand order for this term
        #: (:func:`repro.smt.cache._normalize`) and its history-independent
        #: sort key, filled on first request (the cache owns both).
        self._normalized: Optional["Term"] = None
        self._structural_key: Optional[Tuple[str, str]] = None
        #: The interval kernel's static lowering of the DAG under this term
        #: (:func:`repro.smt.interval._lower_term`), filled on first request.
        self._lowered: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    @classmethod
    def make(
        cls,
        kind: TermKind,
        args: Iterable["Term"] = (),
        width: Optional[int] = None,
        value: Optional[int] = None,
        name: Optional[str] = None,
        params: Iterable[int] = (),
    ) -> "Term":
        """Create (or return the interned copy of) a term."""
        args = tuple(args)
        params = tuple(params)
        key = (kind, tuple(map(id, args)), width, value, name, params)
        with cls._intern_lock:
            existing = cls._intern.get(key)
            if existing is not None:
                return existing
            term = cls(
                kind=kind,
                args=args,
                width=width,
                value=value,
                name=name,
                params=params,
                _id=cls._next_id,
            )
            cls._next_id += 1
            cls._intern[key] = term
            return term

    # ------------------------------------------------------------------
    # Sort helpers
    # ------------------------------------------------------------------
    @property
    def is_bool(self) -> bool:
        """Whether this term has boolean sort."""
        return self.width is None

    @property
    def is_bv(self) -> bool:
        """Whether this term has bitvector sort."""
        return self.width is not None

    @property
    def is_const(self) -> bool:
        """Whether this term is a constant leaf."""
        return self.kind in _CONST_KINDS

    @property
    def is_var(self) -> bool:
        """Whether this term is a variable leaf."""
        return self.kind in _VAR_KINDS

    def sort(self) -> str:
        """Human-readable sort name (``bool`` or ``bv<width>``)."""
        if self.is_bool:
            return BOOL
        return f"{BV}{self.width}"

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------
    def variables(self) -> Tuple["Term", ...]:
        """Return all distinct variable leaves, sorted by name.

        Terms are immutable and hash-consed, so the answer is computed once
        and cached on the term — every solver query collects its conjuncts'
        variables, and the enforcement loop and the baselines' model
        sampler ask again for the same conjuncts.
        """
        cached = self._vars
        if cached is not None:
            return cached
        seen = set()
        out = []
        stack = [self]
        while stack:
            term = stack.pop()
            if id(term) in seen:
                continue
            seen.add(id(term))
            if term.is_var:
                out.append(term)
            else:
                stack.extend(reversed(term.args))
        # First-occurrence ordering: the stack walk above is depth-first from
        # the right, so re-sort by creation id to get a deterministic order.
        out.sort(key=lambda t: t.name or "")
        result = tuple(out)
        self._vars = result
        return result

    def subterms(self) -> Tuple["Term", ...]:
        """Return every distinct subterm (including ``self``)."""
        seen = {}
        stack = [self]
        while stack:
            term = stack.pop()
            if id(term) in seen:
                continue
            seen[id(term)] = term
            stack.extend(term.args)
        return tuple(seen.values())

    def size(self) -> int:
        """Number of distinct nodes in the DAG rooted at this term."""
        return len(self.subterms())

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __hash__(self) -> int:
        # Terms compare by identity, so the creation id is a valid hash.  It
        # depends only on the order terms are built, never on memory
        # addresses or the hash seed, so set orders over terms (and the
        # solver search they steer) repeat in every process.
        return self._id

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:
        return f"Term({self.pretty()})"

    # ------------------------------------------------------------------
    # Pretty-printing
    # ------------------------------------------------------------------
    def pretty(self, max_depth: int = 12) -> str:
        """Render the term as an s-expression, truncating deep nesting."""
        return _pretty(self, max_depth)


def _pretty(term: Term, depth: int) -> str:
    if term.kind is TermKind.BV_CONST:
        return f"#x{term.value:0{(term.width + 3) // 4}x}[{term.width}]"
    if term.kind is TermKind.BOOL_CONST:
        return "true" if term.value else "false"
    if term.kind in (TermKind.BV_VAR, TermKind.BOOL_VAR):
        return str(term.name)
    if depth <= 0:
        return "..."
    parts = [term.kind.value]
    if term.params:
        parts.append(":".join(str(p) for p in term.params))
    parts.extend(_pretty(a, depth - 1) for a in term.args)
    return "(" + " ".join(parts) + ")"


def mask(width: int) -> int:
    """Return the all-ones mask for ``width`` bits."""
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Wrap ``value`` to an unsigned ``width``-bit quantity."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-bit value as two's complement."""
    value = truncate(value, width)
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value
