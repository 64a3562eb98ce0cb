"""Witness minimization: the smallest field values that still wrap.

A discovered witness carries the solver's triggering field values verbatim
— often more fields than the overflow needs, at values further from the
seed than necessary.  Before a witness enters the corpus, the minimizer
reduces it in two passes:

1. **ddmin over the changed fields** — fields whose triggering value equals
   the seed baseline are dropped outright; the rest go through the classic
   delta-debugging complement loop (Zeller & Hildebrandt, TSE 2002) until
   no chunk of the surviving fields can be reverted to baseline without
   losing the overflow;
2. **per-field shrink toward baseline** — for each surviving field, a
   binary search between the seed's value and the triggering value finds a
   smaller perturbation that still wraps the allocation.

When the caller passes the site's
:class:`~repro.core.enforcement.EnforcementResult`, both passes are
*goal-directed*: the site's own target constraint ``overflow(B)`` and the
branch constraints enforcement conjoined form a symbolic predicate, compiled
once per witness (:func:`~repro.smt.evalcompile.compiled_evaluator`) and
evaluated on each candidate in microseconds.  A ddmin complement runs
concretely only if the predicate holds on it; the shrink pass searches the
predicate for the value nearest the baseline at which an operator of every
kind that wrapped innermost still wraps, and confirms that one value with a
single concrete run — falling back to a bounded concrete bisection above the
predicted value when the run disagrees (the seed path diverges before the
site, say).

Rejections may therefore be symbolic, but every **acceptance** is a concrete
:class:`~repro.exec.overflow_witness.OverflowWitnessInterpreter` run (via
the application's :class:`~repro.core.detection.ErrorDetector`, so seed-run
errors stay filtered).  A wrong predicate can only keep a field or stop a
shrink early; it can never admit a witness that does not trigger, so the
minimized witness is re-verified by construction — the property
``bench_triage.py`` gates.  A predicate that does not even hold on the
witness enforcement validated is discarded, and the minimizer runs the
concrete-only search it runs when no enforcement result is passed.

Concrete runs are memoised per :meth:`WitnessMinimizer.minimize` call on the
candidate's bytes (seeded with enforcement's own validated run) and budgeted
(:attr:`WitnessMinimizer.max_attempts` runs; memo hits are free); exhausting
the budget just stops shrinking early, it never invalidates the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.apps.appbase import Application
from repro.core.detection import CandidateEvaluation, ErrorDetector
from repro.core.enforcement import EnforcementResult
from repro.core.inputs import InputGenerator
from repro.core.overflow import overflow_conditions
from repro.formats.spec import FormatError
from repro.obs.metrics import METRICS
from repro.smt import builder as smt
from repro.smt.evalcompile import compiled_evaluator

__all__ = ["MinimizationOutcome", "WitnessMinimizer"]

#: Default budget of concrete validation runs per witness.  Triggering
#: candidates exercise the overflow path (the *slow* executions), so the
#: default trades the last few bits of shrink precision for keeping the
#: triage pass a small fraction of campaign wall-clock; callers persisting
#: a long-lived corpus can raise it.
DEFAULT_MAX_ATTEMPTS = 32

#: Binary-search steps per field in a concrete shrink.
_SHRINK_STEPS = 6


@dataclass
class MinimizationOutcome:
    """The result of minimizing one witness."""

    #: The minimized triggering field values (only fields that differ from
    #: the seed baseline survive).
    field_values: Dict[str, int]
    #: Whether the final ``field_values`` re-triggered the overflow.  When
    #: False the witness could not even be rebuilt from its field values
    #: (e.g. raw-byte assignments the field vocabulary cannot express) and
    #: ``field_values`` echoes the input unchanged.
    validated: bool
    #: Concrete validation runs spent (memo hits excluded).
    attempts: int
    #: Fields reverted to their baseline value by the ddmin pass.
    removed_fields: int
    #: Fields whose value the shrink pass moved toward the baseline.
    shrunk_fields: int
    #: Field count of the original witness.
    original_fields: int
    #: The detector evaluation of the final minimized candidate (``None``
    #: when ``validated`` is False).
    evaluation: Optional[CandidateEvaluation] = field(default=None, repr=False)
    #: Operator kinds every shrink step had to keep wrapping (empty for a
    #: concrete-only minimization).
    root_kinds: Tuple[str, ...] = ()
    #: Fields whose symbolic shrink a concrete run refuted, so they were
    #: shrunk by bounded concrete bisection instead.
    fallback_fields: Tuple[str, ...] = ()


class _Goal:
    """The site's symbolic goal over field-value candidates.

    ``holds(values, kinds)`` is the enforced branch constraints conjoined
    with, per kind in ``kinds``, "some operator of that kind wraps" (any
    operator at all when ``kinds`` is ``None``).  Candidates are evaluated
    on the enforcement witness's assignment with the witness's fields reset
    to baseline and the candidate's values laid over them.
    """

    def __init__(
        self,
        enforcement: EnforcementResult,
        generator: InputGenerator,
        baselines: Mapping[str, Optional[int]],
    ) -> None:
        observation = enforcement.observation
        self._branches = [b.condition for b in enforcement.enforced_branches]
        self._ops = overflow_conditions(observation.size_expression)
        assignment = generator.assignment_for(
            enforcement.triggering_input, observation.site.relevant_bytes
        ).as_dict()
        self._reset = {
            path: value
            for path, value in baselines.items()
            if path in assignment and value is not None
        }
        self._base = {**assignment, **self._reset}
        self._evaluators: Dict[Optional[Tuple[str, ...]], Callable] = {}

    def _assignment(self, values: Mapping[str, int]) -> Dict[str, int]:
        assignment = dict(self._base)
        for path, value in values.items():
            if path in self._reset:
                assignment[path] = value
        return assignment

    def holds(
        self, values: Mapping[str, int], kinds: Optional[Tuple[str, ...]] = None
    ) -> bool:
        evaluator = self._evaluators.get(kinds)
        if evaluator is None:
            groups = (
                [self._ops]
                if kinds is None
                else [
                    [op for op in self._ops if op.operation.kind.value == kind]
                    for kind in kinds
                ]
            )
            wraps = [smt.bor(*[op.condition for op in group]) for group in groups]
            evaluator = compiled_evaluator(smt.band(*self._branches, *wraps))
            self._evaluators[kinds] = evaluator
        return bool(evaluator(self._assignment(values)))

    def innermost_kinds(self, values: Mapping[str, int]) -> Tuple[str, ...]:
        """Kinds of the wrapping operators with no wrapping operator below."""
        assignment = self._assignment(values)
        wrapping = [
            op.operation
            for op in self._ops
            if compiled_evaluator(op.condition)(assignment)
        ]
        innermost = {
            operation.kind.value
            for operation in wrapping
            if not any(
                other is not operation and other in operation.subterms()
                for other in wrapping
            )
        }
        return tuple(sorted(innermost))


class WitnessMinimizer:
    """ddmin-style reduction of triggering field values for one application."""

    def __init__(
        self,
        application: Application,
        detector: Optional[ErrorDetector] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self.application = application
        self.detector = detector or ErrorDetector(
            application.program, application.seed_input
        )
        self.generator = InputGenerator(
            application.seed_input, application.format_spec
        )
        self.max_attempts = max(1, int(max_attempts))
        self._attempts = 0
        self._last_evaluation: Optional[CandidateEvaluation] = None
        self._memo: Dict[bytes, CandidateEvaluation] = {}

    # ------------------------------------------------------------------
    def baseline_value(self, path: str) -> Optional[int]:
        """The seed input's value for a named field (``None`` if unknown)."""
        spec = self.application.format_spec
        if spec is None or not spec.has_field(path):
            return None
        try:
            return spec.field(path).read(self.application.seed_input)
        except FormatError:
            return None

    # ------------------------------------------------------------------
    def minimize(
        self,
        site_label: int,
        field_values: Mapping[str, int],
        enforcement: Optional[EnforcementResult] = None,
    ) -> MinimizationOutcome:
        """Reduce ``field_values`` to a minimal overflow-triggering core.

        ``enforcement`` — the site's successful enforcement result — makes
        the search goal-directed; without it every probe is a concrete run.
        """
        self._attempts = 0
        self._last_evaluation = None
        self._memo = {}
        original = dict(field_values)
        goal = None
        if enforcement is not None and enforcement.triggering_input is not None:
            if enforcement.evaluation is not None:
                self._memo[enforcement.triggering_input] = enforcement.evaluation
            goal = self._goal(enforcement, original)

        if not self._triggers(site_label, original):
            return MinimizationOutcome(
                field_values=original,
                validated=False,
                attempts=self._attempts,
                removed_fields=0,
                shrunk_fields=0,
                original_fields=len(original),
            )
        best_evaluation = self._last_evaluation

        # Fields already at their baseline value contribute nothing to the
        # rewritten input; drop them before spending ddmin budget.
        changed = [
            path
            for path in original
            if original[path] != self.baseline_value(path)
        ]
        kept = self._ddmin(site_label, changed, original, goal)
        values = {path: original[path] for path in kept}
        if kept != changed:
            # The reduced set was validated inside _ddmin; keep its run.
            best_evaluation = self._last_evaluation

        kinds: Tuple[str, ...] = ()
        if goal is not None:
            kinds = goal.innermost_kinds(values)
            if not kinds:
                goal = None
        shrunk = 0
        fallbacks: List[str] = []
        for path in list(values):
            if self._shrink_field(site_label, values, path, goal, kinds, fallbacks):
                shrunk += 1
                best_evaluation = self._last_evaluation

        return MinimizationOutcome(
            field_values=values,
            validated=True,
            attempts=self._attempts,
            removed_fields=len(original) - len(values),
            shrunk_fields=shrunk,
            original_fields=len(original),
            evaluation=best_evaluation,
            root_kinds=kinds,
            fallback_fields=tuple(fallbacks),
        )

    # ------------------------------------------------------------------
    def _goal(
        self, enforcement: EnforcementResult, original: Mapping[str, int]
    ) -> Optional[_Goal]:
        """The witness's symbolic goal, or ``None`` if it cannot be trusted.

        A goal that does not hold on the witness enforcement validated
        disagrees with the concrete evidence, so it is not used at all.
        """
        if enforcement.observation.size_expression is None:
            return None
        baselines = {path: self.baseline_value(path) for path in original}
        try:
            goal = _Goal(enforcement, self.generator, baselines)
            return goal if goal.holds(original) else None
        except ValueError:  # an unassigned variable or an unreadable field
            return None

    def _triggers(
        self,
        site_label: int,
        field_values: Mapping[str, int],
        kinds: Tuple[str, ...] = (),
    ) -> bool:
        """Whether the candidate triggers with every kind in ``kinds`` wrapped.

        One budgeted concrete run, unless the candidate's bytes were already
        run during this minimization.
        """
        candidate = self.generator.generate_from_fields(field_values).data
        evaluation = self._memo.get(candidate)
        if evaluation is None:
            if self._attempts >= self.max_attempts:
                return False
            self._attempts += 1
            METRICS.counter("triage.witness_runs").inc()
            evaluation = self.detector.evaluate(candidate, site_label)
            self._memo[candidate] = evaluation
        if evaluation.triggers_overflow and set(kinds) <= set(
            evaluation.wrap_provenance
        ):
            self._last_evaluation = evaluation
            return True
        return False

    def _ddmin(
        self,
        site_label: int,
        changed: List[str],
        values: Mapping[str, int],
        goal: Optional[_Goal],
    ) -> List[str]:
        """Classic ddmin complement loop over the changed-field list.

        With a goal, a complement the goal rejects counts as "does not
        trigger" without a concrete run.
        """
        current = list(changed)
        granularity = 2
        while len(current) >= 2 and self._attempts < self.max_attempts:
            chunk = math.ceil(len(current) / granularity)
            reduced = False
            for start in range(0, len(current), chunk):
                subset = set(current[start : start + chunk])
                complement = [path for path in current if path not in subset]
                if not complement:
                    continue
                trial = {path: values[path] for path in complement}
                if goal is not None and not goal.holds(trial):
                    continue
                if self._triggers(site_label, trial):
                    current = complement
                    granularity = max(2, granularity - 1)
                    reduced = True
                    break
            if not reduced:
                if granularity >= len(current):
                    break
                granularity = min(len(current), granularity * 2)
        return current

    def _shrink_field(
        self,
        site_label: int,
        values: Dict[str, int],
        path: str,
        goal: Optional[_Goal],
        kinds: Tuple[str, ...],
        fallbacks: List[str],
    ) -> bool:
        """Move ``values[path]`` toward the seed baseline in place.

        With a goal, the symbolic search predicts the boundary and one
        concrete run confirms it; a refuted prediction (recorded in
        ``fallbacks``) narrows the concrete bisection to the values above
        it.  Every accepted value keeps each kind in ``kinds`` wrapping.
        """
        baseline = self.baseline_value(path)
        current = values[path]
        if baseline is None or baseline == current:
            return False

        def trial(value: int) -> Dict[str, int]:
            return {**values, path: value}

        # Invariant for both searches: ``current`` satisfies the probe and
        # ``low`` does not (ddmin established that reverting the field to
        # baseline loses the wrap).
        low = baseline
        if goal is not None:
            if goal.holds(values, kinds):
                predicted = _bisect(
                    baseline, current, lambda value: goal.holds(trial(value), kinds)
                )
                if predicted == current:
                    return False
                if self._triggers(site_label, trial(predicted), kinds):
                    values[path] = predicted
                    return True
                low = predicted
            fallbacks.append(path)
            METRICS.counter("triage.shrink.fallbacks").inc()
        high = _bisect(
            low,
            current,
            lambda value: self._triggers(site_label, trial(value), kinds),
            steps=_SHRINK_STEPS,
            exhausted=lambda: self._attempts >= self.max_attempts,
        )
        if high == current:
            return False
        # Each acceptance runs exactly the then-current composition with
        # ``values[path]`` set to the accepted value, so the last accepted
        # run is the final composition's evaluation: no re-validation.
        values[path] = high
        return True


def _bisect(
    low: int,
    high: int,
    holds: Callable[[int], bool],
    steps: Optional[int] = None,
    exhausted: Callable[[], bool] = lambda: False,
) -> int:
    """Binary-search from ``high`` (holds) toward ``low`` (does not hold).

    Returns the value nearest ``low`` found to hold, after at most ``steps``
    probes (unbounded when ``None``) or until ``exhausted()``.
    """
    taken = 0
    while abs(high - low) > 1 and (steps is None or taken < steps):
        if exhausted():
            break
        mid = (low + high) // 2
        taken += 1
        if holds(mid):
            high = mid
        else:
            low = mid
    return high
