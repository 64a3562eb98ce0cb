"""Overflow-witness interpreter: did an allocation size actually wrap?

DIODE's automated detection in the paper is indirect (memcheck errors), with
manual verification that the allocation size really overflowed.  This
interpreter automates that manual step: it tracks, for every value, whether
some arithmetic operation in the value's dataflow wrapped around its machine
width.  An allocation whose requested size carries that flag is a genuine
integer-overflow allocation, regardless of whether the subsequent
out-of-bounds accesses happen to fault.

The annotation is a *provenance set*, not a bare flag: the frozenset of
wrapping operator names (``mul``, ``add``, ``sub``, ``shl``) that actually
wrapped somewhere in the value's dataflow.  Truthiness keeps the original
semantics (empty set = nothing wrapped), and the set itself is the
wrapped-op provenance the triage subsystem hashes into canonical witness
signatures (:mod:`repro.triage.signature`): two witnesses for the same site
dedupe when their allocations wrapped through the same operators, however
different their triggering field values are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.exec.compiler import AnnotationDomain, Generator, Val
from repro.exec.concrete import ConcreteInterpreter
from repro.exec.trace import ExecutionReport
from repro.lang.ast import BinaryOp, UnaryOp
from repro.lang.program import Program

#: Operators whose result can exceed the machine width.
_WRAPPING_OPS = frozenset({BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.SHL})

#: The "nothing wrapped" annotation.
_CLEAN: FrozenSet[str] = frozenset()


@dataclass
class OverflowedAllocation:
    """One allocation whose size computation wrapped."""

    site_label: int
    site_tag: Optional[str]
    requested_size: int
    sequence_index: int
    #: Sorted names of the wrapping operators in the size's dataflow.
    provenance: Tuple[str, ...] = ()


@dataclass
class OverflowWitnessReport:
    """Result of an overflow-witness run."""

    execution: ExecutionReport
    overflowed_allocations: List[OverflowedAllocation] = field(default_factory=list)

    def overflowed_site_labels(self) -> List[int]:
        """Labels of allocation sites whose size overflowed in this run."""
        return list(
            dict.fromkeys(r.site_label for r in self.overflowed_allocations)
        )

    def site_overflowed(self, site_label: int) -> bool:
        """Whether the given site allocated a wrapped size during this run."""
        return any(r.site_label == site_label for r in self.overflowed_allocations)

    def site_provenance(self, site_label: int) -> Tuple[str, ...]:
        """Sorted wrapped-op names across every overflowed allocation at a site.

        This is the provenance component of the site's canonical witness
        signature; it is empty when the site did not overflow in this run.
        """
        merged = set()
        for record in self.overflowed_allocations:
            if record.site_label == site_label:
                merged.update(record.provenance)
        return tuple(sorted(merged))


def _or_clean(val: Val) -> str:
    """``annotation or _CLEAN``, as code."""
    return val.annotation if val.annotation == "C" or val.sure else f"({val.annotation} or C)"


#: Whether ``l op r`` left the unsigned range (operands are non-negative).  A
#: shift by the width or more wraps whenever the shifted value is non-zero:
#: every set bit is shifted out, as for shorter shifts that overflow.
_WRAP_TESTS = {
    BinaryOp.ADD: "{l}+{r}>{M}",
    BinaryOp.SUB: "not 0<={l}-{r}<={M}",
    BinaryOp.MUL: "{l}*{r}>{M}",
    BinaryOp.SHL: "({l}!=0 if {r}>={W} else {l}<<{r}>{M})",
}


class OverflowWitnessDomain(AnnotationDomain):
    """Annotations are the names of the operators that wrapped upstream.

    All of it is inlined: input bytes are clean, unions skip empty sides and
    each wrapping operator tests its ideal result against the mask.
    """

    key = "witness"
    constant = _CLEAN
    pure = True

    def bind(self, width: int) -> Dict[str, Any]:
        helpers: Dict[str, Any] = {"OA": OverflowedAllocation}
        for op in _WRAPPING_OPS:
            helpers[f"w_{op.name.lower()}"] = frozenset((op.name.lower(),))
        return helpers

    def emit_input_byte(self, gen: Generator, offset: Val) -> Tuple[str, bool]:
        return "C", True

    def emit_unary(self, gen: Generator, op: UnaryOp, operand: Val) -> Tuple[str, bool]:
        # Negation of a non-zero unsigned value always wraps; treat it as
        # benign (it is how two's-complement code is written) unless the
        # operand already carried a wrap.
        return _or_clean(operand), True

    def emit_binary(
        self, gen: Generator, op: BinaryOp, left: Val, right: Val
    ) -> Tuple[str, bool]:
        if left.annotation == "C" or right.annotation == "C":
            carried = _or_clean(right if left.annotation == "C" else left)
        else:
            a, b = gen.annotation(left), gen.annotation(right)
            carried = f"({a}|{b} if {a} and {b} else {a} or {b} or C)"
        if op not in _WRAPPING_OPS:
            return carried, True
        l, r = gen.atom(left), gen.atom(right)
        if op is BinaryOp.SHL and r.isdigit():
            test = f"{l}!=0" if int(r) >= gen.width else f"{l}<<{r}>{gen.mask}"
        else:
            test = _WRAP_TESTS[op].format(l=l, r=r, M=gen.mask, W=gen.width)
        if carried == "C":
            return f"(w_{op.name.lower()} if {test} else C)", True
        if not carried.isidentifier():
            carried = gen.temp(carried)
        return f"({carried}|w_{op.name.lower()} if {test} else {carried})", True

    def emit_branch(self, gen: Generator, label: int, condition: Val) -> str:
        return _or_clean(condition)

    def emit_allocation(
        self, gen: Generator, label: int, tag: Optional[str], size: Val
    ) -> str:
        if size.annotation == "C":
            return "C"
        provenance = gen.annotation(size)
        gen.use("WA", "rt.witness_report.overflowed_allocations.append")
        record = f"OA({label},{tag!r},{size.value},q,tuple(sorted({provenance})))"
        gen.line(f"if {provenance}:WA({record})")
        return _or_clean(size)


class OverflowWitnessInterpreter(ConcreteInterpreter):
    """Concrete interpreter whose annotation is "this value's computation wrapped".

    Annotations are frozensets of wrapping operator names; the empty set
    means the value's dataflow never wrapped.
    """

    domain = OverflowWitnessDomain()

    def __init__(self, program: Program, **kwargs: Any) -> None:
        super().__init__(program, **kwargs)
        self.witness_report: Optional[OverflowWitnessReport] = None

    def run_witness(self, input_bytes: bytes) -> OverflowWitnessReport:
        """Run the program and return the overflow-witness report."""
        execution = self.run(input_bytes)
        assert self.witness_report is not None
        self.witness_report.execution = execution
        return self.witness_report

    def _setup_analysis(self) -> None:
        self.witness_report = OverflowWitnessReport(execution=ExecutionReport())
