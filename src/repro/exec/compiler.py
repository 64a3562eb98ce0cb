"""Compile-once executor: a lowered program as generated Python functions.

Every interpreter in :mod:`repro.exec` runs a program through the code this
module generates.  :func:`compiled` turns a program's lowered body into
Python source once per ⟨annotation domain, word width⟩, compiles it and
caches it on the :class:`~repro.lang.program.Program`, so every later run —
any interpreter, any thread, any fork-started worker — reuses it.

The code is straight-line Python.  Variable ``x`` lives in the locals
``v<i>`` (value) and ``a<i>`` (annotation; the concrete domain has none).
Operators are inlined with the width's mask and sign bit as literals,
literal divisors and shift amounts fold their guards away, and each
:class:`AnnotationDomain` emits its own annotation code.  Per-run state is
read from the running interpreter ``rt`` (``input``, ``env``, ``memory``,
``blocks``, ``memcheck``, the report's lists).  ``rt.seq`` counts executed
statements; ``rt.limit`` starts at ``max_steps`` and drops by one per
``while`` condition test, so the step count is ``seq + max_steps - limit``
and one comparison per statement, ``seq > limit``, finds the step limit.

**Compile units.**  ``compile()`` needs memory in proportion to its input,
so no input holds more than :data:`UNIT_CHARS` characters.  A block's
statements are packed greedily into *units*, one function each; an ``if``
or ``while`` too large for a unit gets a control function that calls a
*header* unit (its condition test) and its blocks' units.  Only a simple
statement whose own code exceeds the budget makes a larger unit.

**Write-back.**  A unit loads into locals ``rt.seq``, ``rt.limit`` and the
variables it may read before assigning them.  On every exit — normal,
:class:`Halt`, a segmentation fault or :class:`StepLimit` — its
``finally`` block writes the counters back and stores each variable it
assigned into ``rt.env`` (a flag ``d<i>`` marks those unassigned at unit
entry), so a name no statement assigned never reaches
``final_environment``.  Variables cross unit boundaries only there.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, NamedTuple, Optional, Set, Tuple

from repro.exec.state import AllocationRecord, BranchObservation
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

#: The most characters one ``compile()`` input may hold.
UNIT_CHARS = 8000

#: Value and annotation of an undefined variable or uninitialised cell.
UNSET: Tuple[int, Any] = (0, None)


class Halt(Exception):
    """Control-flow signal for the ``halt`` statement."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class StepLimit(Exception):
    """Control-flow signal for runaway executions."""


class Val:
    """An emitted expression: source of its value and annotation, each an atom
    (a name or integer literal) or a parenthesised pure expression.  ``sure``:
    the annotation is never ``None``; ``test``: a cheaper source of the bool
    ``value != 0``, if any."""

    __slots__ = ("value", "annotation", "sure", "test")

    def __init__(self, value: str, annotation: str, sure: bool, test: str = "") -> None:
        self.value, self.annotation, self.sure, self.test = value, annotation, sure, test


class AnnotationDomain:
    """How one analysis annotates values, as code emitted into the program.

    The generator calls an ``emit_*`` method per node, passing itself (to
    emit lines, bind helpers and per-run locals) and the operands as
    :class:`Val`.  Each returns the source of the node's annotation (and,
    for operations and input bytes, whether it is ``sure``), which runs
    after the operands' code and before the node's value is stored.  ``C``
    in the code is :attr:`constant`, the annotation of literals,
    ``input_size`` and ``alloc`` addresses; a domain emits nothing for an
    annotation it knows to be that.  The defaults annotate nothing.

    A new domain sets :attr:`key` to capture every option its code depends
    on (it selects the program's cached code), sets :attr:`constant`,
    implements the ``emit_*`` methods and is some interpreter's ``domain``;
    the interpreter's ``_setup_analysis`` creates the report it writes to.
    """

    #: Identity in a program's compile cache.
    key: Hashable
    constant: Any = None
    #: ``False``: no annotation locals or code at all (the concrete domain).
    annotated = True
    #: Annotation code has no side effects, so the generator may defer it
    #: and drop what nothing reads.  Otherwise it runs in evaluation order.
    pure = False

    def bind(self, width: int) -> Dict[str, Any]:
        """Helpers the domain's code refers to, by global name."""
        return {}

    def emit_input_byte(self, gen: "Generator", offset: Val) -> Tuple[str, bool]:
        return "None", True

    def emit_unary(self, gen: "Generator", op: UnaryOp, operand: Val) -> Tuple[str, bool]:
        return "None", True

    def emit_binary(
        self, gen: "Generator", op: BinaryOp, left: Val, right: Val
    ) -> Tuple[str, bool]:
        return "None", True

    def emit_branch(self, gen: "Generator", label: int, condition: Val) -> str:
        """The recorded condition; ``k`` holds the direction taken."""
        return "None"

    def emit_allocation(self, gen: "Generator", label: int, tag: Optional[str], size: Val) -> str:
        """The recorded size annotation (``size.value`` is an atom)."""
        return "None"


class CompiledProgram(NamedTuple):
    """A program's generated code for one domain and width."""

    #: Runs the program against the interpreter passed to it.
    run: Callable[[Any], None]
    #: Length of every source text handed to ``compile()``.
    unit_sizes: Tuple[int, ...]


def compiled(program: Program, domain: AnnotationDomain, width: int) -> CompiledProgram:
    """The program body compiled for ``domain`` at ``width`` (cached on the program)."""
    return program.compiled(
        (domain.key, width), lambda: Generator(program.name, domain, width).build(program.body)
    )


_ATOM = re.compile(r"-?\w+\Z")

#: Bool sources of ``value != 0`` for the operators yielding 0 or 1: ``l``/``r``
#: are the operands, ``tl``/``tr`` their own tests, ``bl``/``br`` them biased
#: so that unsigned order is two's-complement order.
_TESTS = {
    BinaryOp.EQ: "{l}=={r}",
    BinaryOp.NE: "{l}!={r}",
    BinaryOp.LT: "{l}<{r}",
    BinaryOp.LE: "{l}<={r}",
    BinaryOp.GT: "{l}>{r}",
    BinaryOp.GE: "{l}>={r}",
    BinaryOp.SLT: "{bl}<{br}",
    BinaryOp.SLE: "{bl}<={br}",
    BinaryOp.SGT: "{bl}>{br}",
    BinaryOp.SGE: "{bl}>={br}",
    BinaryOp.AND: "({tl} and {tr})",
    BinaryOp.OR: "({tl} or {tr})",
}
_ARITHMETIC = {
    BinaryOp.ADD: "({l}+{r}&{M})",
    BinaryOp.SUB: "({l}-{r}&{M})",
    BinaryOp.MUL: "({l}*{r}&{M})",
    BinaryOp.BITAND: "({l}&{r})",
    BinaryOp.BITOR: "({l}|{r})",
    BinaryOp.BITXOR: "({l}^{r})",
}
#: ``(guard, value when it holds, value otherwise)``.
_GUARDED = {
    BinaryOp.DIV: ("{r}==0", "{M}", "{l}//{r}&{M}"),
    BinaryOp.MOD: ("{r}==0", "{l}", "{l}%{r}&{M}"),
    BinaryOp.SHL: ("{r}>={W}", "0", "{l}<<{r}&{M}"),
    BinaryOp.SHR: ("{r}>={W}", "0", "{l}>>{r}"),
}
_UNARY = {
    UnaryOp.NEG: "(-{a}&{M})",
    UnaryOp.BITNOT: "(~{a}&{M})",
    UnaryOp.NOT: "(0 if {a} else 1)",
    UnaryOp.ABS: "(-{a}&{M} if {a}&{S} else {a}&{M})",
}


class _Fragment:
    """Code of statements (or a header) and what its unit must provide.

    ``reads``: variables read, ``unsafe`` those possibly read before an
    assignment; ``uses``: per-run locals, name → source; ``limit``: the code
    moves ``rt.limit``.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.size, self.limit = 0, False
        self.reads: Set[int] = set()
        self.unsafe: Set[int] = set()
        self.assigned: Set[int] = set()
        self.uses: Dict[str, str] = {}

    def __add__(self, other: "_Fragment") -> "_Fragment":
        merged = _Fragment()
        merged.lines, merged.size = self.lines + other.lines, self.size + other.size
        merged.reads, merged.unsafe = self.reads | other.reads, self.unsafe | other.unsafe
        merged.assigned, merged.uses = self.assigned | other.assigned, {**self.uses, **other.uses}
        merged.limit = self.limit or other.limit
        return merged


class Generator:
    """Generates and compiles one program body for one domain and width.

    While a statement is emitted, :attr:`defs` holds the variables
    definitely assigned at that point: reads of others must be loaded from
    ``rt.env`` at unit entry, and assigning one sets its flag ``d<i>``.
    """

    def __init__(self, name: str, domain: AnnotationDomain, width: int) -> None:
        self.domain, self.annotated = domain, domain.annotated
        self.width, self.mask, self.sign = width, (1 << width) - 1, 1 << (width - 1)
        self.constant = "None" if domain.constant is None else "C"
        self.filename = f"<{name}:{domain.key}:{width}>"
        self.namespace: Dict[str, Any] = {
            "SL": StepLimit, "HALT": Halt, "BO": BranchObservation, "AR": AllocationRecord,
            "U": UNSET, "C": domain.constant, **domain.bind(width),
        }
        self.variables: Dict[str, int] = {}
        #: Per variable, an upper bound on its share of a unit's frame.
        self.frame_cost: List[int] = []
        self.defs: Set[int] = set()
        self.sizes: List[int] = []
        self.fragment, self.indent, self.temps = _Fragment(), "", 0

    def build(self, body: SeqStmt) -> CompiledProgram:
        names = self._pack(body.statements, frozenset())
        if len(names) != 1:
            names = [self._control("r", [f"{name}(rt)" for name in names] or ["pass"])]
        return CompiledProgram(self.namespace[names[0]], tuple(self.sizes))

    # -- emission primitives, also used by the domains ---------------------
    def line(self, code: str) -> None:
        """Emit one line at the current indentation."""
        text = f"{self.indent}{code}\n"
        self.fragment.lines.append(text)
        self.fragment.size += len(text)

    def use(self, name: str, source: str) -> str:
        """Bind the per-run local ``name = source`` at the unit's entry."""
        self.fragment.uses.setdefault(name, source)
        return name

    def helper(self, name: str, build: Callable[[], Any]) -> str:
        """The global ``name``, bound to ``build()`` on first use."""
        if name not in self.namespace:
            self.namespace[name] = build()
        return name

    def temp(self, code: str) -> str:
        """Store ``code`` in a fresh temporary; its name."""
        name = f"t{self.temps}"
        self.temps += 1
        self.line(f"{name}={code}")
        return name

    def atom(self, val: Val) -> str:
        """``val``'s value as an atom (emitting a temporary if needed)."""
        if not _ATOM.match(val.value):
            val.value = self.temp(val.value)
        return val.value

    def annotation(self, val: Val) -> str:
        """``val``'s annotation as an atom (emitting a temporary if needed)."""
        if not _ATOM.match(val.annotation):
            val.annotation = self.temp(val.annotation)
        return val.annotation

    # -- packing statements into units -------------------------------------
    def _pack(self, statements: List[Stmt], entry: FrozenSet[int]) -> List[str]:
        """Compile a block into units; their function names, in order."""
        self.defs = set(entry)
        names: List[str] = []
        unit, unit_entry = None, entry
        pending = list(reversed(statements))
        while pending:
            statement = pending.pop()
            before = frozenset(self.defs)
            fragment = self._emit(self._statement, statement)
            if unit is not None:
                merged = unit + fragment
                if self._fits(merged):
                    unit = merged
                    continue
                names.append(self._unit("u", unit, unit_entry))
            unit, unit_entry = fragment, before
            if self._fits(unit) or not isinstance(statement, (SeqStmt, IfStmt, WhileStmt)):
                continue
            # Too large for any unit: split the statement itself.
            unit, self.defs = None, set(before)
            if type(statement) is SeqStmt:
                # A nested block is its own step followed by its statements.
                pending.extend(reversed([SkipStmt(), *statement.statements]))
            else:
                names.append(self._split(statement))
        if unit is not None:
            names.append(self._unit("u", unit, unit_entry))
        return names

    def _split(self, statement: Any) -> str:
        """A control function for an ``if`` or ``while`` too large for one unit."""
        entry = frozenset(self.defs)
        fragment = self._emit(lambda s: self._branch(s, "return k"), statement)
        header = self._unit("h", fragment, entry)

        def calls(block: SeqStmt) -> List[str]:
            return [f" {name}(rt)" for name in self._pack(block.statements, entry)] or [" pass"]

        if type(statement) is WhileStmt:
            lines = ["q=rt.seq+1", "rt.seq=q", "if q>rt.limit:raise SL", f"while {header}(rt):"]
            lines += calls(statement.body)
            self.defs = set(entry)
        else:
            lines = [f"if {header}(rt):", *calls(statement.then_body)]
            then_defs = self.defs
            lines += ["else:", *calls(statement.else_body)]
            self.defs &= then_defs
        return self._control("c", lines)

    def _emit(self, emit: Callable[[Stmt], None], statement: Stmt) -> _Fragment:
        self.fragment, self.indent, self.temps = _Fragment(), "  ", 0
        emit(statement)
        return self.fragment

    def _fits(self, unit: _Fragment) -> bool:
        """Whether an upper bound on the unit's source is within the budget.

        The bound counts the frame as a load, a flag and a store for every
        variable, so packing never renders a frame.
        """
        bound = 120 + sum(len(local) + len(source) + 3 for local, source in unit.uses.items())
        bound += sum(self.frame_cost[i] for i in unit.reads | unit.assigned | unit.unsafe)
        return unit.size + bound <= UNIT_CHARS

    def _frame(self, name: str, unit: _Fragment, entry: FrozenSet[int]) -> Tuple[str, str]:
        """A unit's entry (bindings, loads) and its ``finally`` write-back."""
        names = list(self.variables)
        # Variables assigned before the unit are loaded even when the unit
        # assigns them first: the write-back stores them unconditionally.
        loads = sorted((unit.reads | unit.assigned) & entry | unit.unsafe)
        head = [f"def {name}(rt):"]
        if loads or unit.assigned:
            head.append(" E=rt.env")
        head += [f" {local}={source}" for local, source in unit.uses.items()]
        head.append(" q=rt.seq;m=rt.limit")
        for i in loads:
            get = f"E[{names[i]!r}]" if i in entry else f"E.get({names[i]!r},U)"
            head.append(f" v{i},a{i}={get}" if self.annotated else f" v{i}={get}[0]")
        flags = sorted(unit.assigned - entry)
        if flags:
            head.append(" " + "=".join(f"d{i}" for i in flags) + "=0")
        head.append(" try:")
        foot = [" finally:", "  rt.seq=q"]
        if unit.limit:
            foot.append("  rt.limit=m")
        for i in sorted(unit.assigned):
            store = f"E[{names[i]!r}]=(v{i},{f'a{i}' if self.annotated else 'None'})"
            foot.append(f"  {store}" if i in entry else f"  if d{i}:{store}")
        return "\n".join(head) + "\n", "\n".join(foot) + "\n"

    def _unit(self, prefix: str, unit: _Fragment, entry: FrozenSet[int]) -> str:
        name = f"{prefix}{len(self.sizes)}"
        head, foot = self._frame(name, unit, entry)
        return self._compile(name, head + "".join(unit.lines) + foot)

    def _control(self, prefix: str, lines: List[str]) -> str:
        name = f"{prefix}{len(self.sizes)}"
        return self._compile(name, f"def {name}(rt):\n" + "".join(f" {line}\n" for line in lines))

    def _compile(self, name: str, source: str) -> str:
        self.sizes.append(len(source))
        exec(compile(source, self.filename, "exec"), self.namespace)
        return name

    # -- statements ----------------------------------------------------------
    def _variable(self, name: str) -> int:
        index = self.variables.get(name)
        if index is None:
            index = self.variables[name] = len(self.variables)
            self.frame_cost.append(48 + 6 * len(str(index)) + 2 * len(repr(name)))
        return index

    def _read(self, name: str) -> str:
        index = self._variable(name)
        self.fragment.reads.add(index)
        if index not in self.defs:
            self.fragment.unsafe.add(index)
        return f"v{index}"

    def _assigned(self, index: int) -> None:
        if index not in self.defs:
            self.line(f"d{index}=1")
            self.defs.add(index)
        self.fragment.assigned.add(index)

    def _block(self, opener: Optional[str], statements: List[Stmt], defs: Set[int]) -> Set[int]:
        """Emit ``opener`` and the indented statements; the definite assignments after."""
        if opener:
            self.line(opener)
        self.indent += " "
        self.defs = set(defs)
        for statement in statements:
            self._statement(statement)
        if not statements:
            self.line("pass")
        self.indent = self.indent[:-1]
        return self.defs

    def _statement(self, statement: Any) -> None:
        kind = type(statement)
        if kind is IfStmt:
            self._branch(statement, "")
            before = self.defs
            then = self._block("if k:", statement.then_body.statements, before)
            other = statement.else_body.statements
            self.defs = then & (self._block("else:", other, before) if other else before)
            return
        if kind is WhileStmt:
            before = self.defs
            self.line("if(q:=q+1)>m:raise SL")
            self.line("while 1:")
            self.indent += " "
            self._branch(statement, "if not k:break")
            self.indent = self.indent[:-1]
            self._block(None, statement.body.statements, before)
            self.defs = set(before)
            return
        self.line("if(q:=q+1)>m:raise SL")
        if kind is AssignStmt:
            index = self._variable(statement.target)
            if type(statement.value) is LoadExpr:
                self._load(statement.value, f"v{index}", f"a{index}")
            else:
                val = self._node(statement.value)
                if self.annotated:
                    self.line(f"a{index}={val.annotation}")
                self.line(f"v{index}={val.value}")
            self._assigned(index)
        elif kind is SeqStmt:
            for child in statement.statements:
                self._statement(child)
        elif kind is StoreStmt:
            offset = self._signed(self._expr(statement.offset))
            val = self._expr(statement.value)
            self._check(self._read(statement.base), offset, True, statement.label)
            self.line(f"b.cells[{offset}]=({val.value},{val.annotation})")
        elif kind is AllocStmt:
            size, index = self._expr(statement.size), self._variable(statement.target)
            if self.atom(size) == f"v{index}":
                size.value = self.temp(size.value)
            recorded = self.domain.emit_allocation(self, statement.label, statement.tag, size)
            site = f"{statement.label},{statement.tag!r}"
            self.use("A", "rt.memory.allocate")
            self.use("AL", "rt.allocations.append")
            self.line(f"v{index}=A({size.value},{site}).address")
            self.line(f"AL(AR({site},{size.value},{recorded},v{index},q))")
            if self.annotated:
                self.line(f"a{index}={self.constant}")
            self._assigned(index)
        elif kind is WarnStmt:
            self.line(f"{self.use('W', 'rt.warnings.append')}({statement.message!r})")
        elif kind is HaltStmt:
            self.line(f"raise HALT({statement.message!r})")
        elif kind is not SkipStmt:
            raise TypeError(f"cannot compile a {kind.__name__} node")

    def _branch(self, statement: Any, ending: str) -> None:
        """A condition test: its step accounting, ``k`` and branch record, then ``ending``.

        An ``if`` test is its statement's step; a ``while`` test lowers the
        limit instead.
        """
        if type(statement) is WhileStmt:
            self.fragment.limit = True
            self.line("if q>(m:=m-1):raise SL")
        else:
            self.line("if(q:=q+1)>m:raise SL")
        val = self._expr(statement.condition)
        self.line(f"k={self._test(val)}")
        recorded = self.domain.emit_branch(self, statement.label, val)
        self.line(f"{self.use('BR', 'rt.branches.append')}(BO({statement.label},k,{recorded},q))")
        if ending:
            self.line(ending)

    # -- expressions ---------------------------------------------------------
    def _expr(self, expr: Expr) -> Val:
        """An operand.  Its annotation code runs now, unless the domain is pure."""
        val = self._node(expr)
        if self.annotated and not self.domain.pure:
            self.annotation(val)
        return val

    def _node(self, expr: Any) -> Val:
        kind = type(expr)
        if kind is ConstExpr:
            return Val(str(expr.value & self.mask), self.constant, True)
        if kind is VarExpr:
            value = self._read(expr.name)
            return Val(value, f"a{value[1:]}" if self.annotated else "None", False)
        if kind is InputSizeExpr:
            return Val(self.use("Z", f"len(rt.input)&{self.mask}"), self.constant, True)
        if kind is InputByteExpr:
            offset = self._expr(expr.offset)
            at = self.atom(offset)
            self.use("D", "rt.input")
            self.use("N", "len(rt.input)")
            return Val(f"(D[{at}] if {at}<N else 0)", *self.domain.emit_input_byte(self, offset))
        if kind is LoadExpr:
            value, annotation = f"t{self.temps}", f"t{self.temps + 1}"
            self.temps += 2
            self._load(expr, value, annotation)
            return Val(value, annotation if self.annotated else "None", not self.annotated)
        if kind is UnaryExpr:
            operand = self._bounded(self._expr(expr.operand))
            annotation, sure = self.domain.emit_unary(self, expr.op, operand)
            value = self.atom(operand) if expr.op is UnaryOp.ABS else operand.value
            val = Val(_UNARY[expr.op].format(a=value, M=self.mask, S=self.sign), annotation, sure)
            val.test = f"{value}==0" if expr.op is UnaryOp.NOT else ""
            return val
        if kind is BinaryExpr:
            left = self._bounded(self._expr(expr.left))
            right = self._bounded(self._expr(expr.right))
            annotation, sure = self.domain.emit_binary(self, expr.op, left, right)
            value, test = self._binary(expr.op, left, right)
            return Val(value, annotation, sure, test)
        raise TypeError(f"cannot compile a {kind.__name__} node")

    def _bounded(self, val: Val) -> Val:
        # CPython's parser refuses more than 200 nested parentheses, and
        # each operator adds at least one pair: a long operand value goes
        # into a temporary before it nests any deeper.
        if len(val.value) > 200:
            self.atom(val)
        return val

    def _binary(self, op: BinaryOp, left: Val, right: Val) -> Tuple[str, str]:
        """The value source of a binary node, and its ``test`` (or ``""``)."""
        l, r = left.value, right.value
        if op in _TESTS:
            test = _TESTS[op].format(
                l=l, r=r, tl=self._test(left), tr=self._test(right),
                bl=self._biased(left), br=self._biased(right),
            )
            return f"(1 if {test} else 0)", test
        if op in _GUARDED:
            # Division by zero yields all-ones, modulo by zero the dividend
            # (the SMT substrate's convention), and shifts by the width or
            # more zero.  A literal right operand folds the guard away.
            guard, fallback, value = _GUARDED[op]
            if r.isdigit():
                hit = int(r) >= self.width if "W" in guard else int(r) == 0
                template = fallback if hit else f"({value})"
            else:
                r = self.atom(right)
                template = f"({fallback} if {guard} else {value})"
        else:
            template = _ARITHMETIC[op]
        return template.format(l=l, r=r, M=self.mask, W=self.width), ""

    def _test(self, val: Val) -> str:
        """Source of the bool ``value != 0``."""
        if val.test:
            return val.test
        return str(int(val.value) != 0) if val.value.isdigit() else f"{val.value}!=0"

    def _biased(self, val: Val) -> str:
        # Flipping the sign bit maps two's-complement order onto unsigned order.
        if val.value.isdigit():
            return str(int(val.value) & self.mask ^ self.sign)
        return f"({val.value}&{self.mask}^{self.sign})"

    def _signed(self, val: Val) -> str:
        """A memory offset: the value reinterpreted as two's complement."""
        if val.value.isdigit():
            return str((int(val.value) & self.mask ^ self.sign) - self.sign)
        return self.temp(f"({val.value}&{self.mask}^{self.sign})-{self.sign}")

    def _check(self, base: str, offset: str, write: bool, label: int) -> None:
        self.use("B", "rt.blocks")
        self.use("K", "rt.memcheck.check_access")
        self.use("Mm", "rt.memory")
        self.line(f"b=B.get({base})")
        self.line(f"if b is None or not 0<={offset}<b.size:K(Mm,{base},{offset},{write},{label},q)")

    def _load(self, expr: LoadExpr, value: str, annotation: str) -> None:
        offset = self._signed(self._expr(expr.offset))
        self._check(self._read(expr.base), offset, False, -1)
        if self.annotated:
            self.line(f"{value},{annotation}=b.cells.get({offset},U)")
        else:
            self.line(f"{value}=b.cells.get({offset},U)[0]")
