"""Compile-once executor: a lowered program as nested Python closures.

Every interpreter in :mod:`repro.exec` runs a program through the closures
this module builds.  :func:`compiled` translates a program's lowered body
once per ⟨annotation domain, word width⟩ and caches the result on the
:class:`~repro.lang.program.Program`, so every later run — of any
interpreter instance, in any thread, in any fork-started worker that
inherited the program — reuses it.

Everything that does not depend on the input is resolved at compile time:
the node kind, the :class:`~repro.exec.values.MachineInt` function of every
operator, the domain's annotator for every node, literal values and their
annotations, labels and tags.  A run performs no dispatch on node kinds,
operators or domains; it only calls closures.

An expression closure returns a ``(value, annotation)`` pair, and the
environment and memory cells hold such pairs; the domain's annotators
compute the annotation of every operation, branch and allocation.  The
concrete domain's annotators all return ``None``.

Closures take one argument, the running interpreter ``rt``, which holds the
per-run state: ``input`` (bytes), ``env`` (name → pair),
``memory`` and its ``blocks`` table, ``memcheck``, the report's
``branches`` / ``allocations`` / ``warnings`` lists, and two counters.
``rt.seq`` is the statement sequence index (one per executed statement);
``rt.limit`` starts at ``max_steps`` and drops by one per ``while``
condition test, so the step count is ``seq + max_steps - limit`` and the
step limit is hit exactly when ``seq > limit`` — one comparison per
statement instead of two counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.exec.state import AllocationRecord, BranchObservation
from repro.exec.values import MachineInt
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
    StoreStmt,
    UnaryExpr,
    UnaryOp,
    VarExpr,
    WarnStmt,
    WhileStmt,
)
from repro.lang.program import Program

#: A compiled statement or block: runs against the interpreter ``rt``.
Executable = Callable[[Any], None]

#: Value and annotation of an undefined variable or uninitialised cell.
UNSET: Tuple[int, Any] = (0, None)


class Halt(Exception):
    """Control-flow signal for the ``halt`` statement."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class StepLimit(Exception):
    """Control-flow signal for runaway executions."""


class AnnotationDomain(ABC):
    """How one analysis annotates values, declared as compile-time factories.

    The compiler calls each factory once per program node (operator
    factories once per operator) and closes the annotator it returns into
    the node's closure.  Annotators are plain functions; the ones that need
    per-run state (a report, the relevant bytes) receive the running
    interpreter ``rt`` first.

    To add a domain: subclass this, set :attr:`key` so it captures every
    option the annotators close over (the key selects the program's cached
    closures), set :attr:`constant`, implement the five factories, and
    point an interpreter's ``domain`` at an instance.  The interpreter
    creates the domain's per-run report in ``_setup_analysis``; annotators
    reach it through ``rt``.
    """

    #: Identity in a program's compile cache.
    key: Hashable

    #: Annotation of literals, of ``input_size`` and of ``alloc`` addresses.
    constant: Any = None

    @abstractmethod
    def input_byte(self, width: int) -> Callable[[Any, int, Any], Any]:
        """``(rt, offset, offset_annotation) -> annotation``."""

    @abstractmethod
    def unary(self, op: UnaryOp, width: int) -> Callable[[Any], Any]:
        """``(operand_annotation) -> annotation``."""

    @abstractmethod
    def binary(self, op: BinaryOp, width: int) -> Callable[[int, Any, int, Any], Any]:
        """``(left, left_annotation, right, right_annotation) -> annotation``."""

    @abstractmethod
    def branch(self, label: int, width: int) -> Callable[[Any, Any, bool, int], Any]:
        """``(rt, annotation, taken, sequence_index) -> recorded condition``."""

    @abstractmethod
    def allocation(
        self, label: int, tag: Optional[str]
    ) -> Callable[[Any, int, Any, int], Any]:
        """``(rt, size, size_annotation, sequence_index) -> recorded size annotation``."""


def compiled(program: Program, domain: AnnotationDomain, width: int) -> Executable:
    """The program body compiled for ``domain`` at ``width`` (cached on the program)."""
    return program.compiled(
        (domain.key, width), lambda: _Compiler(width, domain).block(program.body)
    )


def _noop(rt: Any) -> None:
    return None


def _sequence(steps: Tuple[Executable, ...]) -> Executable:
    if not steps:
        return _noop
    if len(steps) == 1:
        return steps[0]

    def block(rt: Any) -> None:
        for step in steps:
            step(rt)

    return block


class _Compiler:
    """Translates one program body into closures for one domain and width."""

    def __init__(self, width: int, domain: AnnotationDomain) -> None:
        self.machine = MachineInt(width)
        self.width = width
        self.mask = self.machine.mask
        self.sign = self.machine.sign_bit
        self.domain = domain
        # Operator annotators depend on the operator only: one per program.
        self.unary_annotators = {op: domain.unary(op, width) for op in UnaryOp}
        self.binary_annotators = {op: domain.binary(op, width) for op in BinaryOp}
        self.input_byte_annotator = domain.input_byte(width)
        self._leaves: Dict[Expr, Callable[[Any], Any]] = {}

    def block(self, sequence: SeqStmt) -> Executable:
        return _sequence(tuple(self._compile(s) for s in sequence.statements))

    def expression(self, expr: Expr) -> Callable[[Any], Any]:
        if type(expr) not in (ConstExpr, VarExpr):
            return self._compile(expr)
        # Equal leaves (one literal, one variable) share a closure: it
        # keeps a compiled program small.
        leaf = self._leaves.get(expr)
        if leaf is None:
            leaf = self._leaves[expr] = self._compile(expr)
        return leaf

    def _compile(self, node: Any) -> Callable[[Any], Any]:
        method = _COMPILE_METHODS.get(type(node))
        if method is None:
            raise TypeError(f"cannot compile a {type(node).__name__} node")
        return getattr(self, method)(node)

    # -- statements that never unpack a pair ----------------------------
    def _assign(self, statement: AssignStmt) -> Executable:
        target, value_of = statement.target, self.expression(statement.value)

        def assign(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()
            rt.env[target] = value_of(rt)

        return assign

    def _skip(self, statement: SkipStmt) -> Executable:
        def skip(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()

        return skip

    def _warn(self, statement: WarnStmt) -> Executable:
        message = statement.message

        def warn(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()
            rt.warnings.append(message)

        return warn

    def _halt(self, statement: HaltStmt) -> Executable:
        message = statement.message

        def halt(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()
            raise Halt(message)

        return halt

    def _nested(self, statement: SeqStmt) -> Executable:
        body = self.block(statement)

        def nested(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()
            body(rt)

        return nested

    # -- expressions ----------------------------------------------------
    def _const(self, expr: ConstExpr) -> Callable[[Any], Tuple[int, Any]]:
        pair = (expr.value & self.mask, self.domain.constant)
        return lambda rt: pair

    def _var(self, expr: VarExpr) -> Callable[[Any], Tuple[int, Any]]:
        name = expr.name
        return lambda rt: rt.env.get(name, UNSET)

    def _input_size(self, expr: InputSizeExpr) -> Callable[[Any], Tuple[int, Any]]:
        mask, constant = self.mask, self.domain.constant
        return lambda rt: (len(rt.input) & mask, constant)

    def _input_byte(self, expr: InputByteExpr) -> Callable[[Any], Tuple[int, Any]]:
        offset_of = self.expression(expr.offset)
        annotate = self.input_byte_annotator

        def input_byte(rt: Any) -> Tuple[int, Any]:
            offset, offset_annotation = offset_of(rt)
            data = rt.input
            value = data[offset] if offset < len(data) else 0
            return value, annotate(rt, offset, offset_annotation)

        return input_byte

    def _load(self, expr: LoadExpr) -> Callable[[Any], Tuple[int, Any]]:
        offset_of = self.expression(expr.offset)
        base_name, mask, sign = expr.base, self.mask, self.sign

        def load(rt: Any) -> Tuple[int, Any]:
            offset = ((offset_of(rt)[0] & mask) ^ sign) - sign
            base = rt.env.get(base_name, UNSET)[0]
            block = rt.blocks.get(base)
            if block is None or not 0 <= offset < block.size:
                rt.memcheck.check_access(rt.memory, base, offset, False, -1, rt.seq)
            return block.cells.get(offset, UNSET)

        return load

    def _unary(self, expr: UnaryExpr) -> Callable[[Any], Tuple[int, Any]]:
        operand_of = self.expression(expr.operand)
        apply = self.machine.unary_op(expr.op)
        annotate = self.unary_annotators[expr.op]

        def unary(rt: Any) -> Tuple[int, Any]:
            operand, annotation = operand_of(rt)
            return apply(operand), annotate(annotation)

        return unary

    def _binary(self, expr: BinaryExpr) -> Callable[[Any], Tuple[int, Any]]:
        # Boolean operators evaluate both sides too: core-language
        # expressions have no side effects, so eager evaluation is
        # equivalent and keeps the annotations complete.
        left_of = self.expression(expr.left)
        right_of = self.expression(expr.right)
        apply = self.machine.binary_op(expr.op)
        annotate = self.binary_annotators[expr.op]

        def binary(rt: Any) -> Tuple[int, Any]:
            left, left_annotation = left_of(rt)
            right, right_annotation = right_of(rt)
            return apply(left, right), annotate(
                left, left_annotation, right, right_annotation
            )

        return binary

    # -- statements that unpack pairs -----------------------------------
    def _alloc(self, statement: AllocStmt) -> Executable:
        target, size_of = statement.target, self.expression(statement.size)
        label, tag = statement.label, statement.tag
        observe = self.domain.allocation(label, tag)
        address_annotation = self.domain.constant

        def alloc(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()
            size, annotation = size_of(rt)
            address = rt.memory.allocate(size, label, tag).address
            rt.allocations.append(
                AllocationRecord(
                    label, tag, size, observe(rt, size, annotation, seq), address, seq
                )
            )
            rt.env[target] = (address, address_annotation)

        return alloc

    def _store(self, statement: StoreStmt) -> Executable:
        offset_of = self.expression(statement.offset)
        value_of = self.expression(statement.value)
        base_name, label, mask, sign = statement.base, statement.label, self.mask, self.sign

        def store(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()
            offset = ((offset_of(rt)[0] & mask) ^ sign) - sign
            pair = value_of(rt)
            base = rt.env.get(base_name, UNSET)[0]
            block = rt.blocks.get(base)
            if block is None or not 0 <= offset < block.size:
                rt.memcheck.check_access(rt.memory, base, offset, True, label, seq)
            block.cells[offset] = pair

        return store

    def _if(self, statement: IfStmt) -> Executable:
        condition = self.expression(statement.condition)
        then_body = self.block(statement.then_body)
        else_body = self.block(statement.else_body)
        label = statement.label
        observe = self.domain.branch(label, self.width)

        def if_(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()
            value, annotation = condition(rt)
            taken = value != 0
            rt.branches.append(
                BranchObservation(
                    label, taken, observe(rt, annotation, taken, seq), seq
                )
            )
            if taken:
                then_body(rt)
            else:
                else_body(rt)

        return if_

    def _while(self, statement: WhileStmt) -> Executable:
        condition = self.expression(statement.condition)
        body = self.block(statement.body)
        label = statement.label
        observe = self.domain.branch(label, self.width)

        def while_(rt: Any) -> None:
            seq = rt.seq + 1
            rt.seq = seq
            if seq > rt.limit:
                raise StepLimit()
            branches = rt.branches
            while True:
                limit = rt.limit - 1
                rt.limit = limit
                seq = rt.seq
                if seq > limit:
                    raise StepLimit()
                value, annotation = condition(rt)
                taken = value != 0
                branches.append(
                    BranchObservation(
                        label, taken, observe(rt, annotation, taken, seq), seq
                    )
                )
                if not taken:
                    return
                body(rt)

        return while_


#: Node type → the compiler method that translates it.
_COMPILE_METHODS = {
    ConstExpr: "_const",
    VarExpr: "_var",
    InputSizeExpr: "_input_size",
    InputByteExpr: "_input_byte",
    LoadExpr: "_load",
    UnaryExpr: "_unary",
    BinaryExpr: "_binary",
    SkipStmt: "_skip",
    WarnStmt: "_warn",
    HaltStmt: "_halt",
    SeqStmt: "_nested",
    AssignStmt: "_assign",
    AllocStmt: "_alloc",
    StoreStmt: "_store",
    IfStmt: "_if",
    WhileStmt: "_while",
}
