"""Reference tree-walking interpreters: the differential oracle for the executor.

This is the ``isinstance``-dispatch walker that :mod:`repro.exec` ran before
programs were compiled, with its per-node annotation hooks for
the four domains (concrete, taint, overflow witness, concolic).  It is kept
here, outside the package, only so the compiled executor can be checked
against an implementation that shares none of its dispatch, operator
resolution or step accounting.  Arithmetic uses its own copy of the
machine-integer handlers for the same reason.

The one deliberate change from the replaced walker: an overflow-witness
shift by the word width or more counts as a wrap whenever the shifted value
is non-zero (the old walker ignored shifts by 64 or more).

The walker's variable environment and its annotated memory-cell accessors
live here too; the compiled executor keeps both as plain dictionaries.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.exec.concolic import (
    ConcolicReport,
    SymbolicAllocation,
    SymbolicBranch,
    input_byte_variable,
)
from repro.exec.concrete import ExecutionLimits
from repro.exec.memcheck import MemcheckMonitor, SegmentationFault
from repro.exec.overflow_witness import OverflowedAllocation, OverflowWitnessReport
from repro.exec.state import AnnotatedValue, AllocationRecord, BranchObservation, Memory
from repro.exec.taint import EMPTY_TAINT, TaintedAllocation, TaintReport
from repro.exec.trace import ExecutionOutcome, ExecutionReport
from repro.lang.ast import (
    AllocStmt,
    AssignStmt,
    BinaryExpr,
    BinaryOp,
    ConstExpr,
    Expr,
    HaltStmt,
    IfStmt,
    InputByteExpr,
    InputSizeExpr,
    LoadExpr,
    SeqStmt,
    SkipStmt,
    Stmt,
    StoreStmt,
    UnaryExpr,
    UnaryOp,
    VarExpr,
    WarnStmt,
    WhileStmt,
)
from repro.lang.program import Program
from repro.smt import builder as smt
from repro.smt.simplify import simplify
from repro.smt.terms import Term


class Environment:
    """Variable environment ρ: name → ⟨value, annotation⟩."""

    def __init__(self) -> None:
        self._bindings: Dict[str, AnnotatedValue] = {}

    def read(self, name: str) -> AnnotatedValue:
        """Read a variable; undefined variables read as ⟨0, None⟩."""
        return self._bindings.get(name, (0, None))

    def write(self, name: str, value: int, annotation: Any = None) -> None:
        """Bind a variable to ⟨value, annotation⟩."""
        self._bindings[name] = (value, annotation)

    def snapshot(self) -> Dict[str, AnnotatedValue]:
        """Copy of the current bindings."""
        return dict(self._bindings)


class ReferenceMemory(Memory):
    """:class:`Memory` with cell accessors by (base address, offset)."""

    def read(self, address: int, offset: int) -> AnnotatedValue:
        """Read a cell; uninitialised cells and unknown blocks read as ⟨0, None⟩."""
        block = self.by_address.get(address)
        if block is None:
            return (0, None)
        return block.cells.get(offset, (0, None))

    def write(self, address: int, offset: int, value: int, annotation: Any = None) -> None:
        """Write a cell, in bounds or not (memcheck reports it); unknown blocks drop it."""
        block = self.by_address.get(address)
        if block is None:
            return
        block.cells[offset] = (value, annotation)


class ReferenceMachine:
    """Wrap-around arithmetic through a per-call operator table."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.mask = (1 << width) - 1
        self.sign_bit = 1 << (width - 1)

    def wrap(self, value: int) -> int:
        return value & self.mask

    def to_signed(self, value: int) -> int:
        value = self.wrap(value)
        return value - (1 << self.width) if value & self.sign_bit else value

    def binary(self, op: BinaryOp, a: int, b: int) -> int:
        s = self.to_signed
        table = {
            BinaryOp.ADD: lambda: self.wrap(a + b),
            BinaryOp.SUB: lambda: self.wrap(a - b),
            BinaryOp.MUL: lambda: self.wrap(a * b),
            BinaryOp.DIV: lambda: self.mask if b == 0 else self.wrap(a // b),
            BinaryOp.MOD: lambda: a if b == 0 else self.wrap(a % b),
            BinaryOp.SHL: lambda: 0 if b >= self.width else self.wrap(a << b),
            BinaryOp.SHR: lambda: 0 if b >= self.width else a >> b,
            BinaryOp.BITAND: lambda: a & b,
            BinaryOp.BITOR: lambda: a | b,
            BinaryOp.BITXOR: lambda: a ^ b,
            BinaryOp.EQ: lambda: 1 if a == b else 0,
            BinaryOp.NE: lambda: 1 if a != b else 0,
            BinaryOp.LT: lambda: 1 if a < b else 0,
            BinaryOp.LE: lambda: 1 if a <= b else 0,
            BinaryOp.GT: lambda: 1 if a > b else 0,
            BinaryOp.GE: lambda: 1 if a >= b else 0,
            BinaryOp.SLT: lambda: 1 if s(a) < s(b) else 0,
            BinaryOp.SLE: lambda: 1 if s(a) <= s(b) else 0,
            BinaryOp.SGT: lambda: 1 if s(a) > s(b) else 0,
            BinaryOp.SGE: lambda: 1 if s(a) >= s(b) else 0,
            BinaryOp.AND: lambda: 1 if (a and b) else 0,
            BinaryOp.OR: lambda: 1 if (a or b) else 0,
        }
        return table[op]()

    def unary(self, op: UnaryOp, operand: int) -> int:
        if op is UnaryOp.NEG:
            return self.wrap(-operand)
        if op is UnaryOp.BITNOT:
            return self.wrap(~operand)
        if op is UnaryOp.NOT:
            return 0 if operand else 1
        signed = self.to_signed(operand)
        return self.wrap(-signed if signed < 0 else signed)


class _Halt(Exception):
    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class _StepLimit(Exception):
    pass


class ReferenceInterpreter:
    """The concrete walker; subclasses override the annotation hooks."""

    def __init__(
        self,
        program: Program,
        limits: Optional[ExecutionLimits] = None,
        word_width: int = 32,
    ) -> None:
        self.program = program
        self.limits = limits or ExecutionLimits()
        self.machine = ReferenceMachine(word_width)

    def run(self, input_bytes: bytes) -> ExecutionReport:
        self.input_bytes = bytes(input_bytes)
        self.environment = Environment()
        self.memory = ReferenceMemory()
        self.memcheck = MemcheckMonitor(page_size=self.limits.page_size)
        self.report = ExecutionReport()
        self.sequence_index = 0
        self._setup_analysis()
        try:
            self._execute_sequence(self.program.body)
            self.report.outcome = ExecutionOutcome.COMPLETED
        except _Halt as halt:
            self.report.outcome = ExecutionOutcome.HALTED
            self.report.halt_message = halt.message
        except SegmentationFault:
            self.report.outcome = ExecutionOutcome.CRASHED
        except _StepLimit:
            self.report.outcome = ExecutionOutcome.STEP_LIMIT
        self.report.memory_errors = list(self.memcheck.errors)
        self.report.final_environment = self.environment.snapshot()
        return self.report

    # -- hooks ------------------------------------------------------------
    def _setup_analysis(self) -> None:
        pass

    def _annotate_constant(self, value: int) -> Any:
        return None

    def _annotate_input_byte(self, offset: int, value: int, offset_annotation: Any) -> Any:
        return None

    def _annotate_input_size(self, value: int) -> Any:
        return None

    def _annotate_unary(self, op: UnaryOp, operand: Tuple[int, Any], result: int) -> Any:
        return None

    def _annotate_binary(
        self, op: BinaryOp, left: Tuple[int, Any], right: Tuple[int, Any], result: int
    ) -> Any:
        return None

    def _annotate_alloc_address(self, size: Tuple[int, Any], address: int) -> Any:
        return None

    def _observe_branch(self, statement: Stmt, condition: Tuple[int, Any], taken: bool) -> Any:
        return None

    def _observe_allocation(self, statement: AllocStmt, size: Tuple[int, Any]) -> Any:
        return size[1]

    # -- statements -------------------------------------------------------
    def _tick(self) -> None:
        self.report.steps += 1
        if self.report.steps > self.limits.max_steps:
            raise _StepLimit()

    def _execute_sequence(self, sequence: SeqStmt) -> None:
        for statement in sequence.statements:
            self._execute_statement(statement)

    def _execute_statement(self, statement: Stmt) -> None:
        self._tick()
        self.sequence_index += 1
        if isinstance(statement, SkipStmt):
            return
        if isinstance(statement, WarnStmt):
            self.report.warnings.append(statement.message)
            return
        if isinstance(statement, HaltStmt):
            raise _Halt(statement.message)
        if isinstance(statement, AssignStmt):
            value, annotation = self._evaluate(statement.value)
            self.environment.write(statement.target, value, annotation)
            return
        if isinstance(statement, AllocStmt):
            self._execute_alloc(statement)
            return
        if isinstance(statement, StoreStmt):
            self._execute_store(statement)
            return
        if isinstance(statement, IfStmt):
            condition = self._evaluate(statement.condition)
            taken = bool(condition[0])
            self._record_branch(statement, condition, taken)
            self._execute_sequence(statement.then_body if taken else statement.else_body)
            return
        if isinstance(statement, WhileStmt):
            while True:
                self._tick()
                condition = self._evaluate(statement.condition)
                taken = bool(condition[0])
                self._record_branch(statement, condition, taken)
                if not taken:
                    break
                self._execute_sequence(statement.body)
            return
        if isinstance(statement, SeqStmt):
            self._execute_sequence(statement)
            return
        raise TypeError(f"cannot execute statement of type {type(statement).__name__}")

    def _execute_alloc(self, statement: AllocStmt) -> None:
        size = self._evaluate(statement.size)
        block = self.memory.allocate(
            size=size[0], site_label=statement.label, site_tag=statement.tag
        )
        self.report.allocations.append(
            AllocationRecord(
                site_label=statement.label,
                site_tag=statement.tag,
                requested_size=size[0],
                size_annotation=self._observe_allocation(statement, size),
                address=block.address,
                sequence_index=self.sequence_index,
            )
        )
        self.environment.write(
            statement.target, block.address, self._annotate_alloc_address(size, block.address)
        )

    def _execute_store(self, statement: StoreStmt) -> None:
        offset_value, _ = self._evaluate(statement.offset)
        value, annotation = self._evaluate(statement.value)
        base_value, _ = self.environment.read(statement.base)
        signed_offset = self.machine.to_signed(offset_value)
        self.memcheck.check_access(
            self.memory,
            base_value,
            signed_offset,
            is_write=True,
            access_label=statement.label,
            sequence_index=self.sequence_index,
        )
        self.memory.write(base_value, signed_offset, value, annotation)

    def _record_branch(self, statement: Stmt, condition: Tuple[int, Any], taken: bool) -> None:
        self.report.branches.append(
            BranchObservation(
                label=statement.label,
                taken=taken,
                condition=self._observe_branch(statement, condition, taken),
                sequence_index=self.sequence_index,
            )
        )

    # -- expressions ------------------------------------------------------
    def _evaluate(self, expr: Expr) -> Tuple[int, Any]:
        if isinstance(expr, ConstExpr):
            value = self.machine.wrap(expr.value)
            return value, self._annotate_constant(value)
        if isinstance(expr, VarExpr):
            return self.environment.read(expr.name)
        if isinstance(expr, InputSizeExpr):
            value = self.machine.wrap(len(self.input_bytes))
            return value, self._annotate_input_size(value)
        if isinstance(expr, InputByteExpr):
            offset_value, offset_annotation = self._evaluate(expr.offset)
            value = (
                self.input_bytes[offset_value] if offset_value < len(self.input_bytes) else 0
            )
            return value, self._annotate_input_byte(offset_value, value, offset_annotation)
        if isinstance(expr, LoadExpr):
            offset_value, _ = self._evaluate(expr.offset)
            base_value, _ = self.environment.read(expr.base)
            signed_offset = self.machine.to_signed(offset_value)
            self.memcheck.check_access(
                self.memory,
                base_value,
                signed_offset,
                is_write=False,
                access_label=-1,
                sequence_index=self.sequence_index,
            )
            return self.memory.read(base_value, signed_offset)
        if isinstance(expr, UnaryExpr):
            operand = self._evaluate(expr.operand)
            result = self.machine.unary(expr.op, operand[0])
            return result, self._annotate_unary(expr.op, operand, result)
        if isinstance(expr, BinaryExpr):
            left = self._evaluate(expr.left)
            right = self._evaluate(expr.right)
            result = self.machine.binary(expr.op, left[0], right[0])
            return result, self._annotate_binary(expr.op, left, right, result)
        raise TypeError(f"cannot evaluate expression of type {type(expr).__name__}")


class ReferenceTaint(ReferenceInterpreter):
    def run_taint(self, input_bytes: bytes) -> TaintReport:
        execution = self.run(input_bytes)
        self.taint_report.execution = execution
        return self.taint_report

    def _setup_analysis(self) -> None:
        self.taint_report = TaintReport(execution=ExecutionReport())

    def _annotate_constant(self, value: int) -> Any:
        return EMPTY_TAINT

    def _annotate_input_size(self, value: int) -> Any:
        return EMPTY_TAINT

    def _annotate_input_byte(self, offset: int, value: int, offset_annotation: Any) -> Any:
        taint = frozenset({offset})
        if offset_annotation:
            taint = taint | offset_annotation
        return taint

    def _annotate_unary(self, op, operand, result):
        return operand[1] or EMPTY_TAINT

    def _annotate_binary(self, op, left, right, result):
        return (left[1] or EMPTY_TAINT) | (right[1] or EMPTY_TAINT)

    def _annotate_alloc_address(self, size, address):
        return EMPTY_TAINT

    def _observe_branch(self, statement, condition, taken):
        taint = condition[1] or EMPTY_TAINT
        if taint:
            labels = self.taint_report.tainted_branch_labels
            labels[statement.label] = labels.get(statement.label, EMPTY_TAINT) | taint
        return taint

    def _observe_allocation(self, statement, size):
        taint = size[1] or EMPTY_TAINT
        if taint:
            self.taint_report.tainted_allocations.append(
                TaintedAllocation(
                    site_label=statement.label,
                    site_tag=statement.tag,
                    requested_size=size[0],
                    relevant_bytes=taint,
                    sequence_index=self.sequence_index,
                )
            )
        return taint


_CLEAN: frozenset = frozenset()
_WRAPPING = {BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.SHL}


class ReferenceWitness(ReferenceInterpreter):
    def run_witness(self, input_bytes: bytes) -> OverflowWitnessReport:
        execution = self.run(input_bytes)
        self.witness_report.execution = execution
        return self.witness_report

    def _setup_analysis(self) -> None:
        self.witness_report = OverflowWitnessReport(execution=ExecutionReport())

    def _annotate_constant(self, value):
        return _CLEAN

    def _annotate_input_size(self, value):
        return _CLEAN

    def _annotate_input_byte(self, offset, value, offset_annotation):
        return _CLEAN

    def _annotate_unary(self, op, operand, result):
        return operand[1] or _CLEAN

    def _annotate_binary(self, op, left, right, result):
        carried = (left[1] or _CLEAN) | (right[1] or _CLEAN)
        if op not in _WRAPPING:
            return carried
        a, b = left[0], right[0]
        if op is BinaryOp.SHL and b >= self.machine.width:
            wrapped = a != 0
        else:
            ideal = {
                BinaryOp.ADD: lambda: a + b,
                BinaryOp.SUB: lambda: a - b,
                BinaryOp.MUL: lambda: a * b,
                BinaryOp.SHL: lambda: a << b,
            }[op]()
            wrapped = self.machine.wrap(ideal) != ideal
        return carried | {op.name.lower()} if wrapped else carried

    def _annotate_alloc_address(self, size, address):
        return _CLEAN

    def _observe_branch(self, statement, condition, taken):
        return condition[1] or _CLEAN

    def _observe_allocation(self, statement, size):
        provenance = size[1] or _CLEAN
        if provenance:
            self.witness_report.overflowed_allocations.append(
                OverflowedAllocation(
                    site_label=statement.label,
                    site_tag=statement.tag,
                    requested_size=size[0],
                    sequence_index=self.sequence_index,
                    provenance=tuple(sorted(provenance)),
                )
            )
        return provenance


class ReferenceConcolic(ReferenceInterpreter):
    def __init__(
        self,
        program: Program,
        relevant_bytes: Optional[Set[int]] = None,
        simplify_online: bool = True,
        field_map: Optional[Dict[int, Tuple[str, int, int]]] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(program, **kwargs)
        self.relevant_bytes = set(relevant_bytes) if relevant_bytes is not None else None
        self.simplify_online = simplify_online
        self.field_map = dict(field_map) if field_map else {}

    def run_concolic(self, input_bytes: bytes) -> ConcolicReport:
        execution = self.run(input_bytes)
        self.concolic_report.execution = execution
        return self.concolic_report

    def _setup_analysis(self) -> None:
        self.concolic_report = ConcolicReport(execution=ExecutionReport())

    def _maybe_simplify(self, term: Term) -> Term:
        return simplify(term) if self.simplify_online else term

    @staticmethod
    def _term_of(annotated: Tuple[int, Any]) -> Optional[Term]:
        return annotated[1] if isinstance(annotated[1], Term) else None

    def _annotate_input_byte(self, offset, value, offset_annotation):
        if self.relevant_bytes is not None and offset not in self.relevant_bytes:
            return None
        width = self.machine.width
        mapping = self.field_map.get(offset)
        if mapping is not None:
            name, field_width, low_bit = mapping
            field_var = smt.bv_var(name, field_width)
            if field_width <= 8 and low_bit == 0:
                return smt.zext(field_var, width)
            return smt.zext(smt.extract(field_var, low_bit + 7, low_bit), width)
        return smt.zext(input_byte_variable(offset), width)

    def _annotate_unary(self, op, operand, result):
        term = self._term_of(operand)
        if term is None:
            return None
        width = self.machine.width
        zero, one = smt.bv_const(0, width), smt.bv_const(1, width)
        if op is UnaryOp.NEG:
            return self._maybe_simplify(smt.neg(term))
        if op is UnaryOp.BITNOT:
            return self._maybe_simplify(smt.bvnot(term))
        if op is UnaryOp.NOT:
            return self._maybe_simplify(smt.ite(smt.eq(term, zero), one, zero))
        return self._maybe_simplify(smt.ite(smt.slt(term, zero), smt.neg(term), term))

    def _annotate_binary(self, op, left, right, result):
        left_term, right_term = self._term_of(left), self._term_of(right)
        if left_term is None and right_term is None:
            return None
        width = self.machine.width
        if left_term is None:
            left_term = smt.bv_const(left[0], width)
        if right_term is None:
            right_term = smt.bv_const(right[0], width)
        one, zero = smt.bv_const(1, width), smt.bv_const(0, width)
        arithmetic = {
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
        comparisons = {
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
        if op in arithmetic:
            term = arithmetic[op](left_term, right_term)
        elif op in comparisons:
            term = smt.ite(comparisons[op](left_term, right_term), one, zero)
        else:
            both = smt.band if op is BinaryOp.AND else smt.bor
            term = smt.ite(
                both(smt.ne(left_term, zero), smt.ne(right_term, zero)), one, zero
            )
        return self._maybe_simplify(term)

    def _observe_branch(self, statement, condition, taken):
        term = self._term_of(condition)
        if term is None:
            return None
        truth = smt.ne(term, smt.bv_const(0, self.machine.width))
        oriented = self._maybe_simplify(truth if taken else smt.bnot(truth))
        self.concolic_report.branches.append(
            SymbolicBranch(
                label=statement.label,
                taken=taken,
                condition=oriented,
                sequence_index=self.sequence_index,
            )
        )
        return oriented

    def _observe_allocation(self, statement, size):
        term = self._term_of(size)
        self.concolic_report.allocations.append(
            SymbolicAllocation(
                site_label=statement.label,
                site_tag=statement.tag,
                requested_size=size[0],
                size_expression=term,
                sequence_index=self.sequence_index,
            )
        )
        return term
