"""Branch constraint extraction, compression and relevance filtering.

These are the φ-manipulating pieces of the paper's algorithm (Section 3.3
and Figure 8):

* :func:`extract_branch_constraints` — turn the concolic seed run's branch
  observations into branch constraints: for each executed conditional branch
  influenced by the relevant input bytes, the symbolic condition oriented so
  that an input satisfying it takes the *same* direction as the seed input.
* :func:`compress_branches` — coalesce the multiple dynamic occurrences of
  the same conditional statement (loop iterations) into a single constraint:
  the conjunction of all observed occurrence constraints, positioned at the
  first occurrence (Figure 8's ``compress``).
* :func:`relevant_branches` — drop constraints that share no input variable
  with the target constraint (``relevant(φ, β)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.exec.concolic import SymbolicBranch
from repro.smt import builder as smt
from repro.smt.evalmodel import Model, satisfies
from repro.smt.simplify import simplify
from repro.smt.terms import Term


@dataclass(frozen=True)
class BranchConstraint:
    """A constraint forcing an input to follow the seed path at one branch.

    Attributes:
        label: the conditional statement's label.
        condition: boolean term over input variables; true iff an input takes
            the same direction(s) as the seed input at this branch.
        first_sequence_index: execution-order position of the branch's first
            occurrence (used to order enforcement).
        occurrences: how many dynamic occurrences were coalesced into this
            constraint.
    """

    label: int
    condition: Term
    first_sequence_index: int
    occurrences: int

    def satisfied_by(self, assignment: Model) -> bool:
        """Whether an input described by ``assignment`` satisfies this constraint."""
        return satisfies(self.condition, assignment)


def extract_branch_constraints(
    seed_path: Sequence[SymbolicBranch],
) -> List[BranchConstraint]:
    """One constraint per dynamic branch occurrence with a symbolic condition.

    The concolic interpreter already orients each recorded condition along
    the direction the seed took, so the constraint is the recorded condition
    itself.
    """
    constraints: List[BranchConstraint] = []
    for branch in seed_path:
        if branch.condition is None:
            continue
        constraints.append(
            BranchConstraint(
                label=branch.label,
                condition=branch.condition,
                first_sequence_index=branch.sequence_index,
                occurrences=1,
            )
        )
    return constraints


#: Occurrence conditions -> their simplified conjunction, for the life of
#: the process.  Every concolic rerun of a label yields the same interned
#: conditions, so a hit builds no term; a miss runs ``simplify(band(...))``
#: unchanged, and racing threads both store the same interned term.
_CONJUNCTIONS: Dict[Tuple[Term, ...], Term] = {}


def compress_branches(constraints: Sequence[BranchConstraint]) -> List[BranchConstraint]:
    """Coalesce occurrences of the same conditional into one constraint.

    Follows Figure 8: the compressed constraint for a label is the
    conjunction of every occurrence's constraint, placed at the position of
    the label's first occurrence, preserving first-occurrence order.
    """
    by_label: Dict[int, List[BranchConstraint]] = {}
    order: List[int] = []
    for constraint in constraints:
        if constraint.label not in by_label:
            order.append(constraint.label)
        by_label.setdefault(constraint.label, []).append(constraint)
    compressed: List[BranchConstraint] = []
    for label in order:
        group = by_label[label]
        conditions = tuple(c.condition for c in group)
        condition = _CONJUNCTIONS.get(conditions)
        if condition is None:
            condition = _CONJUNCTIONS[conditions] = simplify(smt.band(*conditions))
        compressed.append(
            BranchConstraint(
                label=label,
                condition=condition,
                first_sequence_index=group[0].first_sequence_index,
                occurrences=sum(c.occurrences for c in group),
            )
        )
    return compressed


def relevant_branches(
    constraints: Sequence[BranchConstraint], target_constraint: Term
) -> List[BranchConstraint]:
    """Keep only constraints sharing an input variable with the target constraint."""
    target_variables = _variable_names(target_constraint)
    out: List[BranchConstraint] = []
    for constraint in constraints:
        if _variable_names(constraint.condition) & target_variables:
            out.append(constraint)
    return out


def first_unsatisfied(
    constraints: Sequence[BranchConstraint], assignment: Model
) -> BranchConstraint | None:
    """The first (program execution order) constraint ``assignment`` violates.

    This is the paper's *first flipped branch*: the earliest relevant
    conditional where the candidate input takes a different path than the
    seed input.  Returns ``None`` when every constraint is satisfied.
    """
    for constraint in sorted(constraints, key=lambda c: c.first_sequence_index):
        if not constraint.satisfied_by(assignment):
            return constraint
    return None


def _variable_names(term: Term) -> Set[str]:
    return {str(v.name) for v in term.variables()}
