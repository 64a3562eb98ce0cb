"""Allocation-aware invalid memory access detection.

This plays the role of Valgrind's memcheck in the paper (Section 4.6): the
overflow itself is never detected directly — it is detected indirectly
through the invalid reads and writes that follow when the program writes
more data than the (wrapped, too small) allocation can hold.

Accesses slightly past the end of a block are recorded as invalid reads or
writes but execution continues (a real heap overrun first corrupts adjacent
heap memory).  Accesses far past the end — beyond :attr:`MemcheckMonitor.page_size`
bytes — are classified as segmentation faults and abort the run, which is
how most of the paper's discovered overflows manifest (SIGSEGV).
"""

from __future__ import annotations

from typing import List, Optional

from repro.exec.state import Memory
from repro.exec.trace import MemoryError, MemoryErrorKind


class SegmentationFault(Exception):
    """Raised by the monitor when an access is classified as a crash."""

    def __init__(self, error: MemoryError) -> None:
        super().__init__(f"simulated SIGSEGV: {error.kind.value} at offset {error.offset}")
        self.error = error


class MemcheckMonitor:
    """Track allocations and classify out-of-bounds accesses."""

    def __init__(self, page_size: int = 4096, max_errors: int = 10_000) -> None:
        self.page_size = page_size
        self.max_errors = max_errors
        self.errors: List[MemoryError] = []

    # ------------------------------------------------------------------
    def check_access(
        self,
        memory: Memory,
        address: int,
        offset: int,
        is_write: bool,
        access_label: int,
        sequence_index: int,
    ) -> Optional[MemoryError]:
        """Check one access; record and return an error if it is invalid.

        Raises :class:`SegmentationFault` when the access is far enough out
        of bounds to be classified as a crash.
        """
        block = memory.block_at(address)
        if block is not None and block.in_bounds(offset):
            return None
        # An access through a value that is not a live allocation base is a
        # wild access: always a fault.
        crash = block is None or not -self.page_size <= offset < block.size + self.page_size
        error = MemoryError(
            kind=self._classify(is_write, crash),
            block_address=address,
            block_size=0 if block is None else block.size,
            offset=offset,
            allocation_site_label=-1 if block is None else block.site_label,
            allocation_site_tag=None if block is None else block.site_tag,
            access_label=access_label,
            sequence_index=sequence_index,
        )
        self._record(error)
        if crash:
            raise SegmentationFault(error)
        return error

    # ------------------------------------------------------------------
    @staticmethod
    def _classify(is_write: bool, crash: bool) -> MemoryErrorKind:
        if crash:
            return (
                MemoryErrorKind.SEGFAULT_WRITE if is_write else MemoryErrorKind.SEGFAULT_READ
            )
        return MemoryErrorKind.INVALID_WRITE if is_write else MemoryErrorKind.INVALID_READ

    def _record(self, error: MemoryError) -> None:
        if len(self.errors) < self.max_errors:
            self.errors.append(error)
