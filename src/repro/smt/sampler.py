"""Constraint-guided random model sampling.

The paper's Sections 5.5 and 5.6 sample 200 inputs that satisfy the target
constraint (alone, or together with the enforced branch constraints) and
report how many of those inputs actually trigger the overflow.  This module
provides the sampling primitive: draw diverse models of a boolean constraint
over bitvector variables.

Strategy (cheapest first):

1. Propagate intervals over the constraint conjunction to shrink the search
   box for each variable.
2. Draw random points from the box, biased towards interval end points and
   power-of-two boundaries (overflow constraints are almost always satisfied
   near the extremes).
3. Hill-climb points that are close: flip one variable at a time towards the
   direction suggested by the first falsified conjunct.
4. If nothing is found, fall back to the complete solver for a single model
   and then perturb unconstrained low-order bits of that model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.smt.evalmodel import Model, satisfies
from repro.smt.interval import Interval, propagate_intervals
from repro.smt.simplify import simplify, split_conjuncts
from repro.smt.terms import Term, TermKind, mask


@dataclass
class SamplerConfig:
    """Tuning knobs for :class:`ModelSampler`."""

    random_attempts_per_sample: int = 400
    hill_climb_steps: int = 60
    #: Every sampler starts from this seed, so a query gets the same model
    #: in every process; ``None`` seeds from the OS and is not reproducible.
    seed: Optional[int] = 0
    boundary_bias: float = 0.4
    perturbation_attempts: int = 40


class ModelSampler:
    """Sample diverse models of a boolean constraint."""

    def __init__(
        self,
        constraint: Term,
        variables: Sequence[Term],
        config: Optional[SamplerConfig] = None,
        fallback_solve: Optional[Callable[[Term], Optional[Model]]] = None,
    ) -> None:
        if not constraint.is_bool:
            raise ValueError("sampler constraint must be boolean")
        self.constraint = simplify(constraint)
        self.variables = list(variables)
        self.config = config or SamplerConfig()
        self.random = random.Random(self.config.seed)
        self.fallback_solve = fallback_solve
        self._widths = {str(v.name): v.width for v in self.variables}
        self._conjuncts = split_conjuncts(self.constraint)
        self.feasible_hint, self.bounds = propagate_intervals(
            self._conjuncts, self._widths
        )
        self._anchor: Optional[Model] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sample(self, count: int) -> List[Model]:
        """Return up to ``count`` models satisfying the constraint.

        Models are not guaranteed distinct (the paper samples with
        replacement: the same field values can be generated twice), but the
        sampler biases towards diversity.
        """
        models: List[Model] = []
        for _ in range(count):
            model = self.sample_one()
            if model is None:
                break
            models.append(model)
        return models

    def sample_one(self) -> Optional[Model]:
        """Return a single model of the constraint, or ``None`` on failure."""
        if self.constraint.kind is TermKind.BOOL_CONST:
            if self.constraint.value:
                return self._random_point()
            return None
        if not self.feasible_hint:
            return None
        for _ in range(self.config.random_attempts_per_sample):
            candidate = self._random_point()
            if satisfies(self.constraint, candidate):
                return candidate
            improved = self._hill_climb(candidate)
            if improved is not None:
                return improved
        return self._fallback_sample()

    # ------------------------------------------------------------------
    # Random point generation
    # ------------------------------------------------------------------
    def _random_point(self) -> Model:
        model = Model()
        for variable in self.variables:
            name = str(variable.name)
            model[name] = self._random_value(name, variable.width)
        return model

    def _random_value(self, name: str, width: int) -> int:
        interval = self.bounds.get(name, Interval.full(width))
        if interval.is_empty:
            interval = Interval.full(width)
        if interval.is_point:
            return interval.lo
        roll = self.random.random()
        if roll < self.config.boundary_bias:
            # Boundary-biased draws: interval ends and near-power-of-two
            # points are where overflow constraints flip.
            candidates = [interval.lo, interval.hi, max(interval.lo, interval.hi - 1)]
            for shift in (8, 16, 24, 31):
                point = 1 << shift
                if interval.lo <= point <= interval.hi:
                    candidates.append(point)
                    candidates.append(point - 1)
            return self.random.choice(candidates)
        if roll < self.config.boundary_bias + 0.3:
            # Log-uniform draw: choose a bit-length first so small and large
            # magnitudes are equally likely.
            low_bits = max(interval.lo.bit_length(), 1)
            high_bits = max(interval.hi.bit_length(), 1)
            bits = self.random.randint(low_bits, high_bits)
            lo = max(interval.lo, 1 << (bits - 1))
            hi = min(interval.hi, (1 << bits) - 1)
            if lo > hi:
                return self.random.randint(interval.lo, interval.hi)
            return self.random.randint(lo, hi)
        return self.random.randint(interval.lo, interval.hi)

    # ------------------------------------------------------------------
    # Local search
    # ------------------------------------------------------------------
    def _hill_climb(self, model: Model) -> Optional[Model]:
        current = model.copy()
        for _ in range(self.config.hill_climb_steps):
            failing = self._first_failing_conjunct(current)
            if failing is None:
                return current
            moved = self._move_towards(current, failing)
            if moved is None:
                return None
            current = moved
        if satisfies(self.constraint, current):
            return current
        return None

    def _first_failing_conjunct(self, model: Model) -> Optional[Term]:
        for conjunct in self._conjuncts:
            if not satisfies(conjunct, model):
                return conjunct
        return None

    def _move_towards(self, model: Model, conjunct: Term) -> Optional[Model]:
        """Randomly adjust one variable appearing in the failing conjunct."""
        variables = [v for v in conjunct.variables() if str(v.name) in self._widths]
        if not variables:
            return None
        variable = self.random.choice(variables)
        name = str(variable.name)
        width = variable.width
        interval = self.bounds.get(name, Interval.full(width))
        moved = model.copy()
        strategy = self.random.random()
        current_value = model.get(name, 0) or 0
        if strategy < 0.3:
            moved[name] = interval.hi if not interval.is_empty else mask(width)
        elif strategy < 0.6:
            moved[name] = interval.lo if not interval.is_empty else 0
        elif strategy < 0.8:
            delta = 1 << self.random.randint(0, max(width - 1, 1) - 1)
            moved[name] = (current_value + delta) & mask(width)
        else:
            moved[name] = self._random_value(name, width)
        return moved

    # ------------------------------------------------------------------
    # Complete-solver fallback
    # ------------------------------------------------------------------
    def _fallback_sample(self) -> Optional[Model]:
        if self._anchor is None and self.fallback_solve is not None:
            self._anchor = self.fallback_solve(self.constraint)
        if self._anchor is None:
            return None
        anchor = self._anchor
        for _ in range(self.config.perturbation_attempts):
            perturbed = anchor.copy()
            for variable in self.variables:
                name = str(variable.name)
                if self.random.random() < 0.5:
                    continue
                flip = 1 << self.random.randint(0, variable.width - 1)
                perturbed[name] = (perturbed.get(name, 0) ^ flip) & mask(variable.width)
            if satisfies(self.constraint, perturbed):
                return perturbed
        return anchor.copy()
