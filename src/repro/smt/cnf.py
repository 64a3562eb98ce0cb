"""CNF container used by the bit-blaster and the CDCL SAT solver.

Variables are positive integers starting at 1; literals follow the DIMACS
convention (negative integer = negated variable).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class CNF:
    """A growable CNF formula with named variable allocation."""

    def __init__(self) -> None:
        self.clauses: List[Tuple[int, ...]] = []
        self.num_vars: int = 0
        self._names: Dict[str, int] = {}
        self._contradiction = False

    # ------------------------------------------------------------------
    # Variable allocation
    # ------------------------------------------------------------------
    def new_var(self, name: Optional[str] = None) -> int:
        """Allocate a fresh variable, optionally remembering a name for it."""
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            self._names[name] = var
        return var

    def var_for(self, name: str) -> int:
        """Return the variable registered under ``name``, allocating it if new."""
        existing = self._names.get(name)
        if existing is not None:
            return existing
        return self.new_var(name)

    # ------------------------------------------------------------------
    # Clause construction
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; the empty clause marks the formula as contradictory."""
        clause = tuple(dict.fromkeys(int(lit) for lit in literals))
        if any(lit == 0 for lit in clause):
            raise ValueError("0 is not a valid literal")
        if any(-lit in clause for lit in clause):
            return  # tautology
        if not clause:
            self._contradiction = True
        self.clauses.append(clause)

    def add_unit(self, literal: int) -> None:
        """Add a unit clause forcing ``literal`` to be true."""
        self.add_clause((literal,))

    @property
    def has_contradiction(self) -> bool:
        """Whether an empty clause has been added."""
        return self._contradiction

    # ------------------------------------------------------------------
    # Gate encodings (Tseitin)
    # ------------------------------------------------------------------
    def encode_and(self, output: int, inputs: Iterable[int]) -> None:
        """Constrain ``output <-> AND(inputs)``."""
        inputs = list(inputs)
        for lit in inputs:
            self.add_clause((-output, lit))
        self.add_clause([output] + [-lit for lit in inputs])

    def encode_xor(self, output: int, a: int, b: int) -> None:
        """Constrain ``output <-> a XOR b``."""
        self.add_clause((-output, a, b))
        self.add_clause((-output, -a, -b))
        self.add_clause((output, -a, b))
        self.add_clause((output, a, -b))

    def encode_ite(self, output: int, cond: int, then: int, otherwise: int) -> None:
        """Constrain ``output <-> (cond ? then : otherwise)``."""
        self.add_clause((-cond, -then, output))
        self.add_clause((-cond, then, -output))
        self.add_clause((cond, -otherwise, output))
        self.add_clause((cond, otherwise, -output))

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return f"CNF(vars={self.num_vars}, clauses={len(self.clauses)})"
