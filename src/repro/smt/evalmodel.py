"""Models and term evaluation.

A :class:`Model` assigns integer values to bitvector variables (and booleans
to boolean variables).  :func:`evaluate` computes the concrete value of any
term under such an assignment, using the same wrap-around machine semantics
as the interpreter code :mod:`repro.exec.compiler` generates.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Union

from repro.smt import evalcompile
from repro.smt.terms import Term


class EvaluationError(ValueError):
    """Raised when a term cannot be evaluated (e.g. an unassigned variable)."""


class Model:
    """An assignment of values to variables.

    Values are stored by variable *name*; widths are validated lazily when a
    term is evaluated.
    """

    def __init__(self, assignment: Optional[Mapping[str, int]] = None) -> None:
        self._assignment: Dict[str, int] = dict(assignment or {})

    # ------------------------------------------------------------------
    # Mapping-like interface
    # ------------------------------------------------------------------
    def __contains__(self, name: Union[str, Term]) -> bool:
        return self._name_of(name) in self._assignment

    def __getitem__(self, name: Union[str, Term]) -> int:
        return self._assignment[self._name_of(name)]

    def __setitem__(self, name: Union[str, Term], value: int) -> None:
        self._assignment[self._name_of(name)] = int(value)

    def __iter__(self):
        return iter(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(frozenset(self._assignment.items()))

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v}" for k, v in sorted(self._assignment.items()))
        return f"Model({items})"

    @staticmethod
    def _name_of(name: Union[str, Term]) -> str:
        if isinstance(name, Term):
            if not name.is_var:
                raise EvaluationError("model keys must be variables or names")
            return str(name.name)
        return name

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def get(self, name: Union[str, Term], default: Optional[int] = None) -> Optional[int]:
        """Return the value assigned to ``name`` or ``default``."""
        return self._assignment.get(self._name_of(name), default)

    def copy(self) -> "Model":
        """Return an independent copy of this model."""
        return Model(self._assignment)

    def as_dict(self) -> Dict[str, int]:
        """Return the assignment as a plain dictionary."""
        return dict(self._assignment)

    def restricted_to(self, names: Iterable[str]) -> "Model":
        """Return a model containing only the listed variable names."""
        keep = set(names)
        return Model({k: v for k, v in self._assignment.items() if k in keep})


def evaluate(term: Term, model: Union[Model, Mapping[str, int]]) -> int:
    """Evaluate ``term`` under ``model``.

    Bitvector terms evaluate to unsigned Python integers in ``[0, 2^w)``;
    boolean terms evaluate to ``0`` or ``1``.  Evaluation runs the term's
    straight-line compiled evaluator (:mod:`repro.smt.evalcompile`).
    """
    # Compiled code only reads the mapping, so the model's own dict can be
    # passed without a defensive copy.
    lookup = model._assignment if isinstance(model, Model) else model
    return evalcompile.compiled_evaluator(term)(lookup)


def satisfies(constraint: Term, model: Union[Model, Mapping[str, int]]) -> bool:
    """Whether ``model`` makes the boolean ``constraint`` true."""
    if not constraint.is_bool:
        raise EvaluationError("satisfies() expects a boolean constraint")
    return evaluate(constraint, model) == 1
