"""Abstract syntax for the core imperative language and the surface DSL.

The core language follows the paper's Figure 3: program variables, input
values, arithmetic and boolean expressions, assignment, dynamic allocation,
memory read/write, conditionals, loops and sequencing.  Two conservative
extensions make the benchmark application models practical without changing
the semantics the DIODE algorithm relies on:

* memory loads may appear in expression position (``LoadExpr``), not only as
  the dedicated statement form;
* the surface DSL adds procedures (``ProcDef`` / ``CallExpr`` / ``CallStmt``
  / ``ReturnStmt``), which :mod:`repro.lang.lowering` inlines away, and the
  diagnostic statements ``halt`` (fatal error, e.g. libpng's ``png_error``)
  and ``warn`` (non-fatal, e.g. ``png_warning``).

Every core statement receives a unique integer label during lowering; the
label plays the role of the paper's ``before(C)`` program point and is the
identity used for branch-condition compression and goal-directed enforcement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SourceLocation:
    """Location of a construct in the surface DSL source."""

    filename: str = "<unknown>"
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


# ======================================================================
# Expressions
# ======================================================================
class Expr:
    """Base class for expressions."""

    loc: SourceLocation


class BinaryOp(enum.Enum):
    """Binary operators (arithmetic, bitwise, comparison, boolean)."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    SHL = "<<"
    SHR = ">>"
    BITAND = "&"
    BITOR = "|"
    BITXOR = "^"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    SLT = "<s"
    SLE = "<=s"
    SGT = ">s"
    SGE = ">=s"
    AND = "&&"
    OR = "||"


class UnaryOp(enum.Enum):
    """Unary operators."""

    NEG = "-"
    BITNOT = "~"
    NOT = "!"
    ABS = "abs"


#: Operators whose result is boolean.
BOOLEAN_RESULT_OPS = frozenset(
    {
        BinaryOp.EQ,
        BinaryOp.NE,
        BinaryOp.LT,
        BinaryOp.LE,
        BinaryOp.GT,
        BinaryOp.GE,
        BinaryOp.SLT,
        BinaryOp.SLE,
        BinaryOp.SGT,
        BinaryOp.SGE,
        BinaryOp.AND,
        BinaryOp.OR,
    }
)


@dataclass(frozen=True)
class ConstExpr(Expr):
    """An integer literal."""

    value: int
    loc: SourceLocation = field(default_factory=SourceLocation, compare=False)


@dataclass(frozen=True)
class VarExpr(Expr):
    """A reference to a program variable (PgmVar in the paper)."""

    name: str
    loc: SourceLocation = field(default_factory=SourceLocation, compare=False)


@dataclass(frozen=True)
class InputByteExpr(Expr):
    """The value of the input byte at a given offset (an InpVar use).

    Concretely this reads ``input[offset]`` (0 past the end of the input);
    symbolically it is the 8-bit input variable for that offset, zero
    extended to the machine width.
    """

    offset: Expr
    loc: SourceLocation = field(default_factory=SourceLocation, compare=False)


@dataclass(frozen=True)
class InputSizeExpr(Expr):
    """The total number of input bytes."""

    loc: SourceLocation = field(default_factory=SourceLocation, compare=False)


@dataclass(frozen=True)
class UnaryExpr(Expr):
    """A unary operation."""

    op: UnaryOp
    operand: Expr
    loc: SourceLocation = field(default_factory=SourceLocation, compare=False)


@dataclass(frozen=True)
class BinaryExpr(Expr):
    """A binary operation."""

    op: BinaryOp
    left: Expr
    right: Expr
    loc: SourceLocation = field(default_factory=SourceLocation, compare=False)


@dataclass(frozen=True)
class LoadExpr(Expr):
    """A memory read ``base[offset]`` in expression position."""

    base: str
    offset: Expr
    loc: SourceLocation = field(default_factory=SourceLocation, compare=False)


@dataclass(frozen=True)
class CallExpr(Expr):
    """A procedure call in expression position (surface DSL only)."""

    callee: str
    arguments: Tuple[Expr, ...]
    loc: SourceLocation = field(default_factory=SourceLocation, compare=False)


# ======================================================================
# Statements
# ======================================================================
class Stmt:
    """Base class for statements.

    ``label`` is assigned during lowering and is unique per core statement.
    ``tag`` is an optional human-readable annotation attached in the surface
    DSL with ``@ "name"`` — application models use it to name allocation
    sites after the paper's source locations (e.g. ``png.c@203``).
    """

    label: Optional[int]
    tag: Optional[str]
    loc: SourceLocation


@dataclass
class SkipStmt(Stmt):
    """``skip``."""

    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class AssignStmt(Stmt):
    """``x = A``."""

    target: str
    value: Expr
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class AllocStmt(Stmt):
    """``x = alloc(A)`` — the potential target sites of DIODE."""

    target: str
    size: Expr
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class StoreStmt(Stmt):
    """``x[A] = B`` — memory write."""

    base: str
    offset: Expr
    value: Expr
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class IfStmt(Stmt):
    """``if B S1 S2``."""

    condition: Expr
    then_body: "SeqStmt"
    else_body: "SeqStmt"
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class WhileStmt(Stmt):
    """``while B S``."""

    condition: Expr
    body: "SeqStmt"
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class SeqStmt(Stmt):
    """``C1; ...; Cn`` — a statement sequence (block)."""

    statements: List[Stmt] = field(default_factory=list)
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)


@dataclass
class HaltStmt(Stmt):
    """Fatal error exit (``png_error``-style): stop processing the input."""

    message: str = ""
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class WarnStmt(Stmt):
    """Non-fatal warning (``png_warning``-style): record a message, continue."""

    message: str = ""
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class CallStmt(Stmt):
    """A procedure call in statement position (surface DSL only)."""

    callee: str
    arguments: Tuple[Expr, ...] = ()
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class ReturnStmt(Stmt):
    """``return A`` — only valid inside a procedure (surface DSL only)."""

    value: Optional[Expr] = None
    loc: SourceLocation = field(default_factory=SourceLocation)
    label: Optional[int] = None
    tag: Optional[str] = None


@dataclass
class ProcDef:
    """A surface-DSL procedure definition."""

    name: str
    parameters: Tuple[str, ...]
    body: SeqStmt
    loc: SourceLocation = field(default_factory=SourceLocation)


# ======================================================================
# Traversal helpers
# ======================================================================
def walk_statements(stmt: Stmt):
    """Yield every statement in the subtree rooted at ``stmt`` (pre-order)."""
    yield stmt
    if isinstance(stmt, SeqStmt):
        for child in stmt.statements:
            yield from walk_statements(child)
    elif isinstance(stmt, IfStmt):
        yield from walk_statements(stmt.then_body)
        yield from walk_statements(stmt.else_body)
    elif isinstance(stmt, WhileStmt):
        yield from walk_statements(stmt.body)


def walk_expressions(expr: Expr):
    """Yield every sub-expression of ``expr`` (pre-order)."""
    yield expr
    if isinstance(expr, UnaryExpr):
        yield from walk_expressions(expr.operand)
    elif isinstance(expr, BinaryExpr):
        yield from walk_expressions(expr.left)
        yield from walk_expressions(expr.right)
    elif isinstance(expr, InputByteExpr):
        yield from walk_expressions(expr.offset)
    elif isinstance(expr, LoadExpr):
        yield from walk_expressions(expr.offset)
    elif isinstance(expr, CallExpr):
        for argument in expr.arguments:
            yield from walk_expressions(argument)


def statement_expressions(stmt: Stmt):
    """Yield the expressions directly referenced by a single statement."""
    if isinstance(stmt, AssignStmt):
        yield stmt.value
    elif isinstance(stmt, AllocStmt):
        yield stmt.size
    elif isinstance(stmt, StoreStmt):
        yield stmt.offset
        yield stmt.value
    elif isinstance(stmt, (IfStmt, WhileStmt)):
        yield stmt.condition
    elif isinstance(stmt, CallStmt):
        yield from stmt.arguments
    elif isinstance(stmt, ReturnStmt):
        if stmt.value is not None:
            yield stmt.value
