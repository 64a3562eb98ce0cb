"""Byte-granular dynamic taint tracking (the paper's Valgrind stage).

Each input byte carries a unique label (its offset).  The analysis propagates
the set of influencing labels through every arithmetic, data-movement and
logic operation — exactly the instruction classes the paper instruments —
until the taint reaches a memory allocation site.  Allocation sites whose
size is tainted are DIODE's target sites, and the union of labels reaching
the size is the set of *relevant input bytes* for that site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.exec.compiler import AnnotationDomain, Generator, Val
from repro.exec.concrete import ConcreteInterpreter
from repro.exec.trace import ExecutionReport
from repro.lang.ast import BinaryOp, UnaryOp
from repro.lang.program import Program

#: The taint annotation: a frozenset of input byte offsets (empty = untainted).
TaintSet = FrozenSet[int]

EMPTY_TAINT: TaintSet = frozenset()


@dataclass
class TaintedAllocation:
    """One allocation-site execution whose size is influenced by the input."""

    site_label: int
    site_tag: Optional[str]
    requested_size: int
    relevant_bytes: TaintSet
    sequence_index: int


@dataclass
class TaintReport:
    """Result of a taint-tracking run."""

    execution: ExecutionReport
    tainted_allocations: List[TaintedAllocation] = field(default_factory=list)
    tainted_branch_labels: Dict[int, TaintSet] = field(default_factory=dict)

    def target_sites(self) -> List[int]:
        """Labels of allocation sites whose size is input-influenced."""
        seen: List[int] = []
        for allocation in self.tainted_allocations:
            if allocation.site_label not in seen:
                seen.append(allocation.site_label)
        return seen

    def relevant_bytes_for(self, site_label: int) -> TaintSet:
        """Union of relevant input bytes over all executions of a site."""
        result: FrozenSet[int] = frozenset()
        for allocation in self.tainted_allocations:
            if allocation.site_label == site_label:
                result = result | allocation.relevant_bytes
        return result


def _input_byte(rt: Any, offset: int, offset_taint: Any) -> TaintSet:
    taint = frozenset((offset,))
    return taint | offset_taint if offset_taint else taint


def _unary(taint: Any) -> TaintSet:
    return taint or EMPTY_TAINT


def _binary(left_taint: Any, right_taint: Any) -> TaintSet:
    return (left_taint or EMPTY_TAINT) | (right_taint or EMPTY_TAINT)


def _branch(rt: Any, label: int, taint: Any) -> TaintSet:
    taint = taint or EMPTY_TAINT
    if taint:
        labels = rt.taint_report.tainted_branch_labels
        labels[label] = labels.get(label, EMPTY_TAINT) | taint
    return taint


def _allocation(
    rt: Any, label: int, tag: Optional[str], size: int, taint: Any, seq: int
) -> TaintSet:
    taint = taint or EMPTY_TAINT
    if taint:
        rt.taint_report.tainted_allocations.append(
            TaintedAllocation(label, tag, size, taint, seq)
        )
    return taint


class TaintDomain(AnnotationDomain):
    """Annotations are taint sets; every operation unions its operands' taint.

    Generated code calls the annotators above; an operation on untainted
    operands calls nothing.
    """

    key = "taint"
    constant = EMPTY_TAINT

    def bind(self, width: int) -> Dict[str, Any]:
        return {"ti": _input_byte, "tu": _unary, "tb": _binary, "tr": _branch, "ta": _allocation}

    def emit_input_byte(self, gen: Generator, offset: Val) -> Tuple[str, bool]:
        return f"ti(rt,{offset.value},{offset.annotation})", True

    def emit_unary(self, gen: Generator, op: UnaryOp, operand: Val) -> Tuple[str, bool]:
        return ("C" if operand.annotation == "C" else f"tu({operand.annotation})"), True

    def emit_binary(
        self, gen: Generator, op: BinaryOp, left: Val, right: Val
    ) -> Tuple[str, bool]:
        if left.annotation == right.annotation == "C":
            return "C", True
        return f"tb({left.annotation},{right.annotation})", True

    def emit_branch(self, gen: Generator, label: int, condition: Val) -> str:
        return "C" if condition.annotation == "C" else f"tr(rt,{label},{condition.annotation})"

    def emit_allocation(
        self, gen: Generator, label: int, tag: Optional[str], size: Val
    ) -> str:
        if size.annotation == "C":
            return "C"
        return f"ta(rt,{label},{tag!r},{size.value},{size.annotation},q)"


class TaintInterpreter(ConcreteInterpreter):
    """Concrete interpreter that additionally propagates input-byte taint.

    Taint does not flow through ``alloc`` addresses: an address is not
    input data.
    """

    domain = TaintDomain()

    def __init__(self, program: Program, **kwargs: Any) -> None:
        super().__init__(program, **kwargs)
        self.taint_report: Optional[TaintReport] = None

    def run_taint(self, input_bytes: bytes) -> TaintReport:
        """Run the program and return the taint report."""
        execution = self.run(input_bytes)
        assert self.taint_report is not None
        self.taint_report.execution = execution
        return self.taint_report

    def _setup_analysis(self) -> None:
        self.taint_report = TaintReport(execution=ExecutionReport())
