"""Concolic interpreter: paired concrete + symbolic execution.

This is the paper's second instrumentation stage (Section 4.2): rerun the
program recording, for every value influenced by the *relevant input bytes*,
a symbolic expression over those bytes.  Values untouched by relevant bytes
carry no symbolic expression — that restriction (plus on-the-fly
simplification) is the paper's key scalability optimisation, and it is what
keeps the extracted target expressions and branch conditions small enough to
hand to the solver.

Symbolic values are terms from :mod:`repro.smt`:

* the input byte at offset ``i`` is the 8-bit variable ``inp[i]`` zero
  extended to the machine width;
* every machine operation maps to the corresponding bitvector operation, so
  the extracted expressions faithfully model the wrap-around arithmetic of
  the concrete execution (the requirement the paper states for its target
  constraints);
* branch observations record the symbolic branch condition oriented along
  the taken direction (the ``⟨ℓ, B'⟩`` / ``⟨ℓ, !B'⟩`` of Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.exec.compiler import AnnotationDomain, Generator, Val
from repro.exec.concrete import ConcreteInterpreter
from repro.exec.trace import ExecutionReport
from repro.lang.ast import BinaryOp, UnaryOp
from repro.lang.program import Program
from repro.smt import builder as smt
from repro.smt.simplify import simplify
from repro.smt.terms import Term


def input_byte_name(offset: int) -> str:
    """The name of the symbolic variable for the input byte at ``offset``."""
    return f"inp[{offset}]"


def input_byte_variable(offset: int) -> Term:
    """The 8-bit symbolic variable for the input byte at ``offset``."""
    return smt.bv_var(input_byte_name(offset), 8)


def input_variable_offset(name: str) -> Optional[int]:
    """Inverse of :func:`input_byte_name` (``None`` if not an input var)."""
    if name.startswith("inp[") and name.endswith("]"):
        try:
            return int(name[4:-1])
        except ValueError:
            return None
    return None


@dataclass
class SymbolicAllocation:
    """A symbolic record of one allocation-site execution."""

    site_label: int
    site_tag: Optional[str]
    requested_size: int
    size_expression: Optional[Term]
    sequence_index: int


@dataclass
class SymbolicBranch:
    """A symbolic record of one conditional branch execution."""

    label: int
    taken: bool
    condition: Optional[Term]
    sequence_index: int


@dataclass
class ConcolicReport:
    """Result of a concolic run."""

    execution: ExecutionReport
    allocations: List[SymbolicAllocation] = field(default_factory=list)
    branches: List[SymbolicBranch] = field(default_factory=list)

    def allocations_at(self, site_label: int) -> List[SymbolicAllocation]:
        """Symbolic allocation records for a given site."""
        return [a for a in self.allocations if a.site_label == site_label]

    def symbolic_branches(self) -> List[SymbolicBranch]:
        """Branches whose condition is influenced by relevant input bytes."""
        return [b for b in self.branches if b.condition is not None]


def _symbolic_binary(op: BinaryOp, width: int) -> Callable[[Term, Term], Term]:
    """The bitvector term builder for one machine operator at ``width``."""
    one = smt.bv_const(1, width)
    zero = smt.bv_const(0, width)
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is not None:
        return arithmetic
    comparison = _COMPARISONS.get(op)
    if comparison is not None:
        return lambda left, right: smt.ite(comparison(left, right), one, zero)
    if op is BinaryOp.AND:
        return lambda left, right: smt.ite(
            smt.band(smt.ne(left, zero), smt.ne(right, zero)), one, zero
        )
    if op is BinaryOp.OR:
        return lambda left, right: smt.ite(
            smt.bor(smt.ne(left, zero), smt.ne(right, zero)), one, zero
        )
    raise ValueError(f"unsupported binary operator {op}")


def _symbolic_unary(op: UnaryOp, width: int) -> Callable[[Term], Term]:
    """The bitvector term builder for one unary machine operator at ``width``."""
    one = smt.bv_const(1, width)
    zero = smt.bv_const(0, width)
    if op is UnaryOp.NEG:
        return smt.neg
    if op is UnaryOp.BITNOT:
        return smt.bvnot
    if op is UnaryOp.NOT:
        return lambda operand: smt.ite(smt.eq(operand, zero), one, zero)
    if op is UnaryOp.ABS:
        return lambda operand: smt.ite(smt.slt(operand, zero), smt.neg(operand), operand)
    raise ValueError(f"unsupported unary operator {op}")


_ARITHMETIC: Dict[BinaryOp, Callable[[Term, Term], Term]] = {
    BinaryOp.ADD: smt.add,
    BinaryOp.SUB: smt.sub,
    BinaryOp.MUL: smt.mul,
    BinaryOp.DIV: smt.udiv,
    BinaryOp.MOD: smt.urem,
    BinaryOp.SHL: smt.shl,
    BinaryOp.SHR: smt.lshr,
    BinaryOp.BITAND: smt.bvand,
    BinaryOp.BITOR: smt.bvor,
    BinaryOp.BITXOR: smt.bvxor,
}

_COMPARISONS: Dict[BinaryOp, Callable[[Term, Term], Term]] = {
    BinaryOp.EQ: smt.eq,
    BinaryOp.NE: smt.ne,
    BinaryOp.LT: smt.ult,
    BinaryOp.LE: smt.ule,
    BinaryOp.GT: smt.ugt,
    BinaryOp.GE: smt.uge,
    BinaryOp.SLT: smt.slt,
    BinaryOp.SLE: smt.sle,
    BinaryOp.SGT: smt.sgt,
    BinaryOp.SGE: smt.sge,
}


def _guard(call: str, *terms: str) -> str:
    """Code for ``call``, or ``None`` where each of ``terms`` is ``None``."""
    live = " and ".join(f"{term} is None" for term in terms if term != "None")
    return f"(None if {live} else {call})" if live else "None"


class ConcolicDomain(AnnotationDomain):
    """Annotations are symbolic terms (``None`` for values no relevant byte reaches).

    Generated code calls the annotators the factories below build once per
    compiled program, and skips the call where no operand has a term.
    Every result term goes through :func:`repro.smt.simplify.simplify`.
    The relevant bytes and the field map vary per run and are read from
    the running interpreter.

    Each annotator keeps a *computed table*: a dict from its interned
    operands to the finished term.  Terms are hash-consed and never freed,
    so the same operands always build the same term; a repeated operation —
    the same seed run re-executed for a sibling target site — is one dict
    lookup and builds nothing.  A miss runs the builder and ``simplify``
    exactly as an unmemoised annotator would, so terms are created in the
    same order.  The tables live as long as the program's compiled code.
    """

    key = "concolic"

    def bind(self, width: int) -> Dict[str, Any]:
        helpers = {f"n_{op.name.lower()}": self.unary(op, width) for op in UnaryOp}
        helpers.update({f"b_{op.name.lower()}": self.binary(op, width) for op in BinaryOp})
        return {**helpers, "ti": self.input_byte(width), "SA": SymbolicAllocation}

    def emit_input_byte(self, gen: Generator, offset: Val) -> Tuple[str, bool]:
        return f"ti(rt,{offset.value},{offset.annotation})", False

    def emit_unary(self, gen: Generator, op: UnaryOp, operand: Val) -> Tuple[str, bool]:
        return _guard(f"n_{op.name.lower()}({operand.annotation})", operand.annotation), False

    def emit_binary(
        self, gen: Generator, op: BinaryOp, left: Val, right: Val
    ) -> Tuple[str, bool]:
        a, b = left.annotation, right.annotation
        if a == b == "None":
            return "None", False
        call = f"b_{op.name.lower()}({gen.atom(left)},{a},{gen.atom(right)},{b})"
        return _guard(call, a, b), False

    def emit_branch(self, gen: Generator, label: int, condition: Val) -> str:
        observe = gen.helper(f"ob{label}", lambda: self.branch(label, gen.width))
        return _guard(f"{observe}(rt,{condition.annotation},k,q)", condition.annotation)

    def emit_allocation(
        self, gen: Generator, label: int, tag: Optional[str], size: Val
    ) -> str:
        gen.use("CA", "rt.concolic_report.allocations.append")
        gen.line(f"CA(SA({label},{tag!r},{size.value},{size.annotation},q))")
        return size.annotation

    # -- annotators -------------------------------------------------------
    def _finish(self) -> Callable[[Term], Term]:
        # ``simplify`` is looked up at call time, never bound here, so a
        # wrapper installed on this module's ``simplify`` sees every call
        # the annotators make — computed-table misses only; hits skip it.
        return lambda term: simplify(term)

    def input_byte(self, width: int) -> Callable[[Any, int, Any], Optional[Term]]:
        memo: Dict[Tuple[int, Any], Term] = {}

        def annotate(rt: Any, offset: int, offset_term: Any) -> Optional[Term]:
            # An input-dependent offset (input[input[i]]) is outside the
            # relevant-byte model: the offset is concretised and the byte
            # stays symbolic if it is relevant.
            relevant = rt.relevant_bytes
            if relevant is not None and offset not in relevant:
                return None
            mapping = rt.field_map.get(offset)
            key = (offset, mapping)
            term = memo.get(key)
            if term is None:
                term = memo[key] = _input_byte_term(offset, mapping, width)
            return term

        return annotate

    def unary(self, op: UnaryOp, width: int) -> Callable[[Any], Optional[Term]]:
        build, finish = _symbolic_unary(op, width), self._finish()
        memo: Dict[Term, Term] = {}

        def annotate(term: Any) -> Optional[Term]:
            if term is None:
                return None
            result = memo.get(term)
            if result is None:
                result = memo[term] = finish(build(term))
            return result

        return annotate

    def binary(
        self, op: BinaryOp, width: int
    ) -> Callable[[int, Any, int, Any], Optional[Term]]:
        build, finish = _symbolic_binary(op, width), self._finish()
        bv_const = smt.bv_const
        # Keyed on the concrete value where a side has no term: the
        # constant that side becomes is a function of it.
        memo: Dict[Tuple[Any, Any], Term] = {}

        def annotate(left: int, left_term: Any, right: int, right_term: Any) -> Optional[Term]:
            if left_term is None and right_term is None:
                return None
            key = (
                left if left_term is None else left_term,
                right if right_term is None else right_term,
            )
            result = memo.get(key)
            if result is None:
                if left_term is None:
                    left_term = bv_const(left, width)
                elif right_term is None:
                    right_term = bv_const(right, width)
                result = memo[key] = finish(build(left_term, right_term))
            return result

        return annotate

    def branch(self, label: int, width: int) -> Callable[..., Optional[Term]]:
        zero, finish = smt.bv_const(0, width), self._finish()
        memo: Dict[Tuple[Term, bool], Term] = {}

        def observe(rt: Any, term: Any, taken: bool, seq: int) -> Optional[Term]:
            if term is None:
                return None
            key = (term, taken)
            oriented = memo.get(key)
            if oriented is None:
                truth = smt.ne(term, zero)
                oriented = memo[key] = finish(truth if taken else smt.bnot(truth))
            rt.concolic_report.branches.append(
                SymbolicBranch(label, taken, oriented, seq)
            )
            return oriented

        return observe


def _input_byte_term(
    offset: int, mapping: Optional[Tuple[str, int, int]], width: int
) -> Term:
    """The ``width``-bit term for the input byte at ``offset``.

    ``mapping`` is the byte's field-map entry: the byte becomes a slice of
    its field's variable, or its own byte variable without one.
    """
    if mapping is not None:
        field_name, field_width, low_bit = mapping
        field_var = smt.bv_var(field_name, field_width)
        if field_width <= 8 and low_bit == 0:
            byte_term = field_var
        else:
            byte_term = smt.extract(field_var, low_bit + 7, low_bit)
        return smt.zext(byte_term, width)
    return smt.zext(input_byte_variable(offset), width)


class ConcolicInterpreter(ConcreteInterpreter):
    """Concrete interpreter that pairs values with symbolic expressions.

    ``relevant_bytes`` restricts which input bytes receive symbolic
    variables; reads of other bytes stay purely concrete.  Passing ``None``
    makes every byte symbolic (useful for small programs and tests, but the
    DIODE pipeline always passes the relevant set from the taint stage).
    """

    domain = ConcolicDomain()

    def __init__(
        self,
        program: Program,
        relevant_bytes: Optional[Set[int]] = None,
        field_map: Optional[Dict[int, Tuple[str, int, int]]] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(program, **kwargs)
        self.relevant_bytes = set(relevant_bytes) if relevant_bytes is not None else None
        #: offset → (field variable name, field width in bits, low bit of
        #: this byte within the field value).  When present, input bytes are
        #: symbolised as slices of a per-field variable instead of per-byte
        #: variables — the Hachoir byte-range → field conversion of the paper.
        self.field_map = dict(field_map) if field_map else {}
        self.concolic_report: Optional[ConcolicReport] = None

    def run_concolic(self, input_bytes: bytes) -> ConcolicReport:
        """Run the program and return the concolic report."""
        execution = self.run(input_bytes)
        assert self.concolic_report is not None
        self.concolic_report.execution = execution
        return self.concolic_report

    def _setup_analysis(self) -> None:
        self.concolic_report = ConcolicReport(execution=ExecutionReport())
