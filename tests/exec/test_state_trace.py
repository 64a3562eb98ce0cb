"""Unit tests for the execution-state containers, memcheck and trace reports."""

import pytest

from repro.exec.memcheck import MemcheckMonitor, SegmentationFault
from repro.exec.state import (
    AllocationRecord,
    BranchObservation,
    Memory,
)
from repro.exec.trace import (
    ExecutionOutcome,
    ExecutionReport,
    MemoryError as TraceMemoryError,
    MemoryErrorKind,
)


class TestMemory:
    def test_allocation_addresses_are_distinct(self):
        memory = Memory()
        first = memory.allocate(16, site_label=1)
        second = memory.allocate(16, site_label=2)
        assert first.address != second.address
        assert len(memory) == 2

    def test_block_lookup(self):
        memory = Memory()
        block = memory.allocate(8, site_label=3, site_tag="t")
        assert memory.block_at(block.address) is block
        assert memory.block_at(12345) is None
        assert block.site_tag == "t"

    def test_in_bounds(self):
        block = Memory().allocate(4, site_label=1)
        assert block.in_bounds(0) and block.in_bounds(3)
        assert not block.in_bounds(4) and not block.in_bounds(-1)


class TestMemcheckMonitor:
    def _setup(self, size=16):
        memory = Memory()
        block = memory.allocate(size, site_label=7, site_tag="tag")
        return memory, block, MemcheckMonitor(page_size=64)

    def test_in_bounds_access_is_clean(self):
        memory, block, monitor = self._setup()
        assert monitor.check_access(memory, block.address, 3, True, 1, 1) is None
        assert monitor.errors == []

    def test_small_overrun_is_invalid_but_not_fatal(self):
        memory, block, monitor = self._setup()
        error = monitor.check_access(memory, block.address, 20, True, 1, 1)
        assert error is not None
        assert error.kind is MemoryErrorKind.INVALID_WRITE
        assert not error.is_crash

    def test_far_overrun_faults(self):
        memory, block, monitor = self._setup()
        with pytest.raises(SegmentationFault):
            monitor.check_access(memory, block.address, 16 + 64, False, 1, 1)
        assert monitor.errors[0].kind is MemoryErrorKind.SEGFAULT_READ

    def test_wild_pointer_faults(self):
        memory, _block, monitor = self._setup()
        with pytest.raises(SegmentationFault):
            monitor.check_access(memory, 0xDEAD, 0, True, 1, 1)
        assert monitor.errors[0].allocation_site_label == -1

    def test_error_records_site_metadata(self):
        memory, block, monitor = self._setup()
        error = monitor.check_access(memory, block.address, 17, False, access_label=9, sequence_index=4)
        assert error.allocation_site_tag == "tag"
        assert error.allocation_site_label == 7
        assert error.access_label == 9

    def test_error_cap(self):
        memory, block, _ = self._setup()
        monitor = MemcheckMonitor(page_size=64, max_errors=2)
        for offset in (17, 18, 19):
            monitor.check_access(memory, block.address, offset, True, 1, 1)
        assert len(monitor.errors) == 2


class TestTraceRecords:
    """The branch and allocation records the generated code builds
    positionally: named, compared field by field, read-only."""

    def test_field_names_follow_positional_order(self):
        branch = BranchObservation(4, True, "cond", 7)
        assert (branch.label, branch.taken, branch.condition, branch.sequence_index) == (
            4, True, "cond", 7
        )
        allocation = AllocationRecord(5, "tag", 64, "size", 4096, 9)
        assert (
            allocation.site_label,
            allocation.site_tag,
            allocation.requested_size,
            allocation.size_annotation,
            allocation.address,
            allocation.sequence_index,
        ) == (5, "tag", 64, "size", 4096, 9)

    def test_records_compare_field_by_field(self):
        assert BranchObservation(2, True, None, 1) == BranchObservation(2, True, None, 1)
        assert BranchObservation(2, True, None, 1) != BranchObservation(2, False, None, 1)
        assert BranchObservation(2, True, None, 1) != BranchObservation(2, True, None, 3)
        first = AllocationRecord(5, "a", 100, None, 1000, 1)
        assert first == AllocationRecord(5, "a", 100, None, 1000, 1)
        assert first != AllocationRecord(5, "a", 101, None, 1000, 1)
        assert hash(first) == hash(AllocationRecord(5, "a", 100, None, 1000, 1))

    @pytest.mark.parametrize(
        "record, field",
        [
            (BranchObservation(2, True, None, 1), "taken"),
            (BranchObservation(2, True, None, 1), "condition"),
            (AllocationRecord(5, "a", 100, None, 1000, 1), "requested_size"),
            (AllocationRecord(5, "a", 100, None, 1000, 1), "address"),
        ],
    )
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_records_take_no_extra_attributes(self):
        with pytest.raises(AttributeError):
            BranchObservation(2, True, None, 1).extra = 0


class TestExecutionReport:
    def _report(self):
        report = ExecutionReport()
        report.allocations = [
            AllocationRecord(5, "a", 100, None, 1000, 1),
            AllocationRecord(9, "b", 200, None, 2000, 2),
            AllocationRecord(5, "a", 100, None, 3000, 3),
        ]
        report.branches = [
            BranchObservation(2, True, None, 1),
            BranchObservation(2, False, None, 2),
        ]
        report.memory_errors = [
            TraceMemoryError(
                MemoryErrorKind.SEGFAULT_WRITE, 1000, 100, 5000, 5, "a", 11, 4
            )
        ]
        return report

    def test_allocations_at(self):
        assert len(self._report().allocations_at(5)) == 2

    def test_error_signatures(self):
        signatures = self._report().error_signatures()
        assert signatures == {("SIGSEGV/InvalidWrite", 5, 11)}

    def test_branch_path(self):
        assert self._report().branch_path() == [(2, True), (2, False)]

    def test_outcome_flags(self):
        report = self._report()
        report.outcome = ExecutionOutcome.CRASHED
        assert report.crashed and not report.halted
        report.outcome = ExecutionOutcome.HALTED
        assert report.halted and not report.crashed

    def test_memory_error_is_crash_classification(self):
        error = self._report().memory_errors[0]
        assert error.is_crash
        benign = TraceMemoryError(
            MemoryErrorKind.INVALID_READ, 1, 4, 5, 1, None, 2, 3
        )
        assert not benign.is_crash
