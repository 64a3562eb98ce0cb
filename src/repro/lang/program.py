"""Program container: a lowered core-language program plus metadata.

A :class:`Program` bundles the labelled core statement sequence with lookup
tables (label → statement, tag → label) and validation.  It is the unit the
interpreters in :mod:`repro.exec` execute and the unit DIODE analyses.

Programs are immutable once built, which makes them safe to share:
:meth:`Program.from_source` returns one process-wide instance per
``(source, name, entry)``, and the executor caches the code it generates
for it on that instance (:meth:`Program.compiled`), so a program is parsed,
lowered and compiled once per process — fork-started workers inherit all
three.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterator, List, Tuple

from repro.lang.ast import (
    AllocStmt,
    CallExpr,
    CallStmt,
    ReturnStmt,
    SeqStmt,
    Stmt,
    statement_expressions,
    walk_expressions,
    walk_statements,
)
from repro.lang.lowering import lower_program
from repro.lang.parser import ParsedUnit, parse_program


class ProgramError(ValueError):
    """Raised when a program fails validation."""


#: ``(class, source, name, entry)`` → the shared program built from them.
_FROM_SOURCE: Dict[Tuple[type, str, str, str], "Program"] = {}


class Program:
    """A lowered, labelled core-language program.

    Attributes cannot be rebound after construction, and nothing may mutate
    :attr:`body`: one instance is shared by every user of the same source
    and carries generated code derived from the body.
    """

    def __init__(self, name: str, body: SeqStmt) -> None:
        self.name = name
        self.body = body
        self._by_label: Dict[int, Stmt] = {}
        self._by_tag: Dict[str, Stmt] = {}
        self._compiled: Dict[Hashable, Any] = {}
        self._validate_and_index()
        self._frozen = True

    def __setattr__(self, name: str, value: Any) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(f"Program is immutable; cannot set {name!r}")
        super().__setattr__(name, value)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_source(cls, source: str, name: str = "program", entry: str = "main") -> "Program":
        """Parse and lower DSL source text into a :class:`Program`.

        Memoised per process: the same ``(source, name, entry)`` returns the
        same instance.  A program that fails to build is not memoised.
        """
        key = (cls, source, name, entry)
        program = _FROM_SOURCE.get(key)
        if program is None:
            unit = parse_program(source, filename=name)
            # Racing first builds are benign: the first stored one wins.
            program = _FROM_SOURCE.setdefault(
                key, cls.from_unit(unit, name=name, entry=entry)
            )
        return program

    @classmethod
    def from_unit(cls, unit: ParsedUnit, name: str = "program", entry: str = "main") -> "Program":
        """Lower an already-parsed unit into a :class:`Program`."""
        body = lower_program(unit, entry=entry)
        return cls(name=name, body=body)

    # ------------------------------------------------------------------
    # Validation / indexing
    # ------------------------------------------------------------------
    def _validate_and_index(self) -> None:
        for statement in walk_statements(self.body):
            if statement.label is None:
                raise ProgramError(
                    f"statement at {statement.loc} has no label; "
                    "programs must be built through lowering"
                )
            if statement.label in self._by_label:
                raise ProgramError(f"duplicate label {statement.label}")
            self._by_label[statement.label] = statement
            if statement.tag:
                if statement.tag in self._by_tag:
                    raise ProgramError(f"duplicate tag {statement.tag!r}")
                self._by_tag[statement.tag] = statement
            if isinstance(statement, (CallStmt, ReturnStmt)):
                raise ProgramError(
                    f"surface-only statement {type(statement).__name__} survived lowering"
                )
            for expression in statement_expressions(statement):
                for sub in walk_expressions(expression):
                    if isinstance(sub, CallExpr):
                        raise ProgramError("CallExpr survived lowering")

    # ------------------------------------------------------------------
    # Derived artifacts
    # ------------------------------------------------------------------
    def compiled(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The artifact cached under ``key``, built by ``build()`` on first use.

        Concurrent first uses may each build; the first to finish is kept
        and every caller gets that one, so builds must be pure.
        """
        artifact = self._compiled.get(key)
        if artifact is None:
            artifact = self._compiled.setdefault(key, build())
        return artifact

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def statements(self) -> Iterator[Stmt]:
        """Iterate over every statement in the program."""
        return walk_statements(self.body)

    def label_of_tag(self, tag: str) -> int:
        """Return the label of the statement carrying the ``@ "tag"`` annotation."""
        try:
            statement = self._by_tag[tag]
        except KeyError as error:
            raise ProgramError(f"no statement tagged {tag!r}") from error
        assert statement.label is not None
        return statement.label

    def allocation_sites(self) -> List[AllocStmt]:
        """All ``alloc`` statements in the program (potential target sites)."""
        return [s for s in self.statements() if isinstance(s, AllocStmt)]

    def statement_count(self) -> int:
        """Total number of core statements."""
        return len(self._by_label)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, statements={self.statement_count()}, "
            f"allocation_sites={len(self.allocation_sites())})"
        )
