"""Error detection (paper Section 4.6).

A candidate input is evaluated by running the application model concretely
with two monitors attached:

* the memcheck monitor records invalid reads/writes and simulated crashes —
  the indirect evidence the paper's automated system uses;
* the overflow-witness monitor records whether the size computation of any
  allocation actually wrapped — the paper's manual verification step, here
  automated.

Errors already present in the seed run are filtered out (the paper filters
"any errors that occur during the execution on the seed input").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.exec.overflow_witness import OverflowWitnessInterpreter, OverflowWitnessReport
from repro.exec.trace import ExecutionOutcome, MemoryError
from repro.lang.program import Program


@dataclass
class CandidateEvaluation:
    """The observable effect of running one candidate input."""

    site_label: int
    site_executed: bool
    overflow_triggered: bool
    new_memory_errors: List[MemoryError] = field(default_factory=list)
    outcome: ExecutionOutcome = ExecutionOutcome.COMPLETED
    halt_message: str = ""
    requested_size: Optional[int] = None
    #: Sorted wrapped-operator names at the target site (empty when the
    #: candidate did not overflow there) — the provenance component of the
    #: triage subsystem's canonical witness signature.
    wrap_provenance: Tuple[str, ...] = ()

    @property
    def triggers_overflow(self) -> bool:
        """Whether this candidate triggers the overflow at the target site."""
        return self.site_executed and self.overflow_triggered

    def error_type(self) -> str:
        """Classify the observable error the way the paper's Table 2 does."""
        if not self.new_memory_errors:
            return "None"
        crash = any(error.is_crash for error in self.new_memory_errors)
        has_write = any("Write" in error.kind.value for error in self.new_memory_errors)
        has_read = any("Read" in error.kind.value for error in self.new_memory_errors)
        if crash:
            kind = "InvalidWrite" if has_write else "InvalidRead"
            return f"SIGSEGV/{kind}"
        if has_read and has_write:
            return "InvalidRead/Write"
        return "InvalidWrite" if has_write else "InvalidRead"


class ErrorDetector:
    """Run candidate inputs and decide whether they trigger the overflow."""

    def __init__(self, program: Program, seed_input: bytes) -> None:
        self.program = program
        self.seed_input = bytes(seed_input)
        seed_report = OverflowWitnessInterpreter(program).run_witness(self.seed_input)
        self._seed_error_signatures: Set[Tuple[str, int, int]] = (
            seed_report.execution.error_signatures()
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        candidate: bytes,
        site_label: int,
        memo: Optional[Dict[bytes, OverflowWitnessReport]] = None,
    ) -> CandidateEvaluation:
        """Run ``candidate`` and report its effect on the target site.

        A witness run does not depend on the site it is checked at, so a
        caller screening many candidates for sites of one seed-path group
        passes ``memo`` (candidate bytes -> report): a candidate already
        in it is evaluated without running again.
        """
        report = memo.get(candidate) if memo is not None else None
        if report is None:
            report = OverflowWitnessInterpreter(self.program).run_witness(candidate)
            if memo is not None:
                memo[candidate] = report
        execution = report.execution
        site_records = execution.allocations_at(site_label)
        new_errors = [
            error
            for error in execution.memory_errors
            if error.signature() not in self._seed_error_signatures
        ]
        return CandidateEvaluation(
            site_label=site_label,
            site_executed=bool(site_records),
            overflow_triggered=report.site_overflowed(site_label),
            new_memory_errors=new_errors,
            outcome=execution.outcome,
            halt_message=execution.halt_message,
            requested_size=site_records[0].requested_size if site_records else None,
            wrap_provenance=report.site_provenance(site_label),
        )
