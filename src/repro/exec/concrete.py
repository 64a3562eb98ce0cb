"""Concrete interpreter for the core language (Figures 4–6 of the paper).

The interpreter runs a program through the closures
:mod:`repro.exec.compiler` builds once per program and annotation domain;
its own :class:`ConcreteDomain` annotates nothing.  It is the base class for the taint, overflow-witness and concolic
interpreters: the concrete value flow is identical in all of them;
subclasses name an :class:`~repro.exec.compiler.AnnotationDomain` that
tracks input-byte taint sets, wrapped-operation provenance or symbolic
expressions alongside the concrete values.

The interpreter also drives the :class:`repro.exec.memcheck.MemcheckMonitor`
so every run — seed, candidate, or fuzzed — produces the memory-error
evidence DIODE's error detection stage consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.exec.compiler import AnnotationDomain, Halt, StepLimit, compiled
from repro.exec.memcheck import MemcheckMonitor, SegmentationFault
from repro.exec.state import Memory
from repro.exec.trace import ExecutionOutcome, ExecutionReport
from repro.exec.values import MachineInt, WORD_WIDTH
from repro.lang.ast import BinaryOp, UnaryOp
from repro.lang.program import Program


@dataclass
class ExecutionLimits:
    """Resource limits for one interpreter run."""

    max_steps: int = 2_000_000
    page_size: int = 4096


def _none(*args: Any) -> None:
    return None


class ConcreteDomain(AnnotationDomain):
    """Plain execution: every annotation is ``None``."""

    key = "concrete"

    def input_byte(self, width: int) -> Callable[..., None]:
        return _none

    def unary(self, op: UnaryOp, width: int) -> Callable[..., None]:
        return _none

    def binary(self, op: BinaryOp, width: int) -> Callable[..., None]:
        return _none

    def branch(self, label: int, width: int) -> Callable[..., None]:
        return _none

    def allocation(self, label: int, tag: Optional[str]) -> Callable[..., None]:
        return _none


class ConcreteInterpreter:
    """Execute a :class:`repro.lang.program.Program` on an input byte string."""

    #: The annotation domain the program's closures are compiled for.
    domain: AnnotationDomain = ConcreteDomain()

    def __init__(
        self,
        program: Program,
        limits: Optional[ExecutionLimits] = None,
        word_width: int = WORD_WIDTH,
    ) -> None:
        self.program = program
        self.limits = limits or ExecutionLimits()
        self.machine = MachineInt(word_width)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, input_bytes: bytes) -> ExecutionReport:
        """Execute the program on ``input_bytes`` and return the report."""
        execute = compiled(self.program, self.domain, self.machine.width)
        max_steps = self.limits.max_steps
        self.input = bytes(input_bytes)
        self.env: dict = {}
        self.memory = Memory()
        self.blocks = self.memory.by_address
        self.memcheck = MemcheckMonitor(page_size=self.limits.page_size)
        self.report = report = ExecutionReport()
        self.branches = report.branches
        self.allocations = report.allocations
        self.warnings = report.warnings
        self.seq = 0
        self.limit = max_steps
        self._setup_analysis()
        try:
            execute(self)
            report.outcome = ExecutionOutcome.COMPLETED
        except Halt as halt:
            report.outcome = ExecutionOutcome.HALTED
            report.halt_message = halt.message
        except SegmentationFault:
            report.outcome = ExecutionOutcome.CRASHED
        except StepLimit:
            report.outcome = ExecutionOutcome.STEP_LIMIT
        report.steps = self.seq + max_steps - self.limit
        report.memory_errors = list(self.memcheck.errors)
        report.final_environment = dict(self.env)
        return report

    def _setup_analysis(self) -> None:
        """Per-run hook: subclasses create their domain report here."""
