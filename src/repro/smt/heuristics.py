"""Algebraic heuristics for overflow constraints.

The target constraints DIODE generates have a very regular shape: an
arithmetic expression over a handful of input fields must exceed the range of
its machine width (directly, or in one of its subexpressions).  Before paying
for bit-blasting, the portfolio solver tries a few algebraic moves that solve
the common shapes instantly:

* For ``a * b`` overflowing ``w`` bits with ``a`` and ``b`` bounded by sanity
  checks, pick the largest admissible values and check whether the product
  wraps.
* For sums/shifted sums, push every free field to the top of its admissible
  interval.
* For equalities pinning a field (blocking checks), substitute the pinned
  value and retry.

These heuristics never claim unsatisfiability — they only try to produce a
model quickly; failure simply defers to the next portfolio layer.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.smt.evalmodel import Model, satisfies
from repro.smt.interval import Interval, propagate_intervals
from repro.smt.sampler import split_conjuncts
from repro.smt.terms import Term


def _variables_of(constraints: Sequence[Term]) -> List[Term]:
    seen: Dict[str, Term] = {}
    for constraint in constraints:
        for variable in constraint.variables():
            if variable.is_bv:
                seen.setdefault(str(variable.name), variable)
    return list(seen.values())


def extreme_point_models(
    variables: Sequence[Term],
    bounds: Dict[str, Interval],
    rng: Optional[random.Random] = None,
) -> Iterable[Model]:
    """Yield candidate models built from the extreme points of ``bounds``.

    ``bounds`` is a propagated interval box (see
    :func:`~repro.smt.interval.propagate_intervals`).  The candidates are
    the Cartesian "corners" of its intervals (capped combinatorially), plus
    a few mixed corner/midpoint combinations.
    """
    rng = rng or random.Random(0)
    widths = {str(v.name): v.width for v in variables}
    names = [str(v.name) for v in variables]

    def candidates_for(name: str, width: int) -> List[int]:
        interval = bounds.get(name, Interval.full(width))
        if interval.is_empty:
            interval = Interval.full(width)
        points = {interval.lo, interval.hi}
        if interval.hi > interval.lo:
            points.add(interval.hi - 1)
            points.add((interval.lo + interval.hi) // 2)
        for shift in (7, 8, 15, 16, 23, 24, 31):
            boundary = 1 << shift
            if interval.lo <= boundary <= interval.hi:
                points.add(boundary)
                points.add(boundary - 1)
        # Descending order: overflow constraints are satisfied at the top of
        # the admissible box, so the most informative corner — every variable
        # at its maximum — is tried first (this also mirrors how an SMT
        # solver's first model for "x is huge" tends to look).
        return sorted(points, reverse=True)

    per_variable = {
        name: candidates_for(name, widths[name]) for name in names
    }

    # Enumerate corners breadth-first but cap the total number of candidates.
    max_candidates = 512
    produced = 0

    def model_from(choice: List[int]) -> Model:
        model = Model()
        for name, index in zip(names, choice):
            options = per_variable[name]
            model[name] = options[index % len(options)]
        return model

    # Deterministic sweep over the first few corners.
    for combo in itertools.product(*(range(len(per_variable[n])) for n in names)):
        yield model_from(list(combo))
        produced += 1
        if produced >= max_candidates:
            break

    # Randomised mixtures for larger spaces.
    for _ in range(128):
        combo = [rng.randrange(len(per_variable[n])) for n in names]
        yield model_from(combo)


def try_algebraic_solution(
    constraint: Union[Term, Sequence[Term]],
    variables: Optional[Sequence[Term]] = None,
    rng: Optional[random.Random] = None,
    max_checks: int = 768,
    bounds: Optional[Dict[str, Interval]] = None,
) -> Optional[Model]:
    """Try to find a model of ``constraint`` using extreme-point candidates.

    ``constraint`` is a boolean term or the list of its conjuncts; each
    candidate is checked against the conjuncts one by one, so no evaluator
    is compiled for their conjunction.  ``bounds`` is the caller's
    propagated box over ``variables`` (the portfolio passes the one its
    interval layer already computed).  Without it, the box is propagated
    here over the conjuncts, and an infeasible box yields ``None``.
    """
    if isinstance(constraint, Term):
        conjuncts = split_conjuncts(constraint)
    else:
        conjuncts = list(constraint)
    if variables is None:
        variables = _variables_of(conjuncts)
    if bounds is None:
        widths = {str(v.name): v.width for v in variables}
        feasible, bounds = propagate_intervals(conjuncts, widths)
        if not feasible:
            return None
    checks = 0
    for candidate in extreme_point_models(variables, bounds, rng):
        if all(satisfies(conjunct, candidate) for conjunct in conjuncts):
            return candidate
        checks += 1
        if checks >= max_checks:
            break
    return None
