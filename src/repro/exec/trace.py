"""Execution reports: outcomes, memory errors, branch traces, allocations.

Every interpreter run produces an :class:`ExecutionReport`; DIODE's error
detection stage (Section 4.6 of the paper) compares reports from seed and
candidate inputs to decide whether a candidate triggered new invalid memory
accesses caused by an allocation-size overflow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.state import AllocationRecord, BranchObservation


class ExecutionOutcome(enum.Enum):
    """How an execution terminated."""

    COMPLETED = "completed"
    HALTED = "halted"          # application-level fatal error (png_error-style)
    CRASHED = "crashed"        # simulated SIGSEGV / SIGABRT from a wild access
    STEP_LIMIT = "step_limit"  # runaway loop cut off by the interpreter


class MemoryErrorKind(enum.Enum):
    """Classification of a detected invalid memory access."""

    INVALID_READ = "InvalidRead"
    INVALID_WRITE = "InvalidWrite"
    SEGFAULT_READ = "SIGSEGV/InvalidRead"
    SEGFAULT_WRITE = "SIGSEGV/InvalidWrite"


@dataclass(frozen=True)
class MemoryError:
    """One invalid memory access detected by the memcheck monitor."""

    kind: MemoryErrorKind
    block_address: int
    block_size: int
    offset: int
    allocation_site_label: int
    allocation_site_tag: Optional[str]
    access_label: int
    sequence_index: int

    @property
    def is_crash(self) -> bool:
        """Whether the access was far enough out of bounds to fault."""
        return self.kind in (
            MemoryErrorKind.SEGFAULT_READ,
            MemoryErrorKind.SEGFAULT_WRITE,
        )

    def signature(self) -> Tuple[str, int, int]:
        """A key for seed-run error filtering (kind, alloc site, access site)."""
        return (self.kind.value, self.allocation_site_label, self.access_label)


@dataclass
class ExecutionReport:
    """Everything observed during one interpreter run."""

    outcome: ExecutionOutcome = ExecutionOutcome.COMPLETED
    halt_message: str = ""
    warnings: List[str] = field(default_factory=list)
    steps: int = 0
    branches: List[BranchObservation] = field(default_factory=list)
    allocations: List[AllocationRecord] = field(default_factory=list)
    memory_errors: List[MemoryError] = field(default_factory=list)
    final_environment: Dict[str, Tuple[int, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """Whether the run ended in a simulated crash."""
        return self.outcome is ExecutionOutcome.CRASHED

    @property
    def halted(self) -> bool:
        """Whether the run ended via an application-level fatal error."""
        return self.outcome is ExecutionOutcome.HALTED

    def allocations_at(self, site_label: int) -> List[AllocationRecord]:
        """Allocation records for a specific site label."""
        return [a for a in self.allocations if a.site_label == site_label]

    def error_signatures(self) -> set:
        """Set of error signatures (used to filter seed-run errors)."""
        return {error.signature() for error in self.memory_errors}

    def branch_path(self) -> List[Tuple[int, bool]]:
        """The branch path as a list of (label, taken) pairs in order."""
        return [(b.label, b.taken) for b in self.branches]
