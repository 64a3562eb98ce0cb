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
from typing import Any, Callable, FrozenSet, List, Optional, Tuple

from repro.exec.compiler import AnnotationDomain
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


def _wrapped(op: BinaryOp, width: int) -> Callable[[int, int], bool]:
    """Whether ``op`` on these operands left the unsigned range of ``width``.

    A shift by ``width`` or more wraps whenever the shifted value is
    non-zero: every set bit is shifted out, exactly as for shorter shifts
    that overflow (and the ideal result is never built for huge amounts).
    """
    mask = (1 << width) - 1
    if op is BinaryOp.ADD:
        return lambda a, b: (a + b) & mask != a + b
    if op is BinaryOp.SUB:
        return lambda a, b: (a - b) & mask != a - b
    if op is BinaryOp.MUL:
        return lambda a, b: (a * b) & mask != a * b
    if op is BinaryOp.SHL:
        return lambda a, b: a != 0 if b >= width else (a << b) & mask != a << b
    raise ValueError(f"{op} cannot wrap")


class OverflowWitnessDomain(AnnotationDomain):
    """Annotations are the names of the operators that wrapped upstream."""

    key = "witness"
    constant = _CLEAN

    def input_byte(self, width: int) -> Callable[..., FrozenSet[str]]:
        return lambda rt, offset, offset_ops: _CLEAN

    def unary(self, op: UnaryOp, width: int) -> Callable[[Any], FrozenSet[str]]:
        # Negation of a non-zero unsigned value always wraps; treat it as
        # benign (it is how two's-complement code is written) unless the
        # operand already carried a wrap.
        return lambda provenance: provenance or _CLEAN

    def binary(
        self, op: BinaryOp, width: int
    ) -> Callable[[int, Any, int, Any], FrozenSet[str]]:
        if op not in _WRAPPING_OPS:
            return lambda left, left_ops, right, right_ops: (
                (left_ops or _CLEAN) | (right_ops or _CLEAN)
            )
        wrapped = _wrapped(op, width)
        this_op = frozenset((op.name.lower(),))

        def annotate(left: int, left_ops: Any, right: int, right_ops: Any) -> FrozenSet[str]:
            carried = (left_ops or _CLEAN) | (right_ops or _CLEAN)
            return carried | this_op if wrapped(left, right) else carried

        return annotate

    def branch(self, label: int, width: int) -> Callable[..., FrozenSet[str]]:
        return lambda rt, provenance, taken, seq: provenance or _CLEAN

    def allocation(self, label: int, tag: Optional[str]) -> Callable[..., FrozenSet[str]]:
        def observe(rt: Any, size: int, provenance: Any, seq: int) -> FrozenSet[str]:
            provenance = provenance or _CLEAN
            if provenance:
                rt.witness_report.overflowed_allocations.append(
                    OverflowedAllocation(
                        label, tag, size, seq, tuple(sorted(provenance))
                    )
                )
            return provenance

        return observe


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
