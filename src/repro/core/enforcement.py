"""Goal-directed conditional branch enforcement (paper Figure 7).

The algorithm, for one ⟨target expression, seed path⟩ observation:

1. Build the target constraint β = ``overflow(B)`` and ask the solver for an
   input satisfying β.  If that input triggers the overflow, done — no
   conditional branches were enforced (the common case in Table 2).
2. Otherwise compress the seed path, keep only the branches relevant to β,
   and repeat: find the *first flipped branch* — the earliest relevant
   conditional where the current candidate diverges from the seed path —
   conjoin its branch constraint, re-solve, re-test.  Stop when an input
   triggers the overflow, when the constraint becomes unsatisfiable, or when
   the candidate already follows the seed path on every relevant branch yet
   still does not trigger the overflow.

Enforcing only first-flipped branches is the paper's key idea: the candidate
is forced through the sanity checks it actually failed while remaining free
to take any path through the blocking checks.

Solver interaction is *incremental*: the loop drives one
:class:`~repro.smt.solver.SolverSession` — held open across all of a
site's observations, so the persistent bit-blaster and learned clauses
survive from one observation to the next — pushes the target constraint
β once per observation, then pushes one branch-constraint delta per
iteration instead of rebuilding (and re-simplifying, re-splitting,
re-blasting) the whole conjunction list every time.

**UNSAT-core guidance** (``SolverConfig.enable_unsat_cores``, on by
default): every UNSAT verdict carries a subset of the pushed conjuncts
that is already jointly infeasible (precise final-conflict cores from the
session's assumption-based CDCL, whole-conjunction cores from the cheaper
layers).  The enforcer accumulates these cores for
the lifetime of the site and *prunes* any later candidate query — the
initial β check or a flipped-branch enforcement check — whose conjunct
set subsumes an accumulated core: a superset of an unsatisfiable set is
unsatisfiable, so the verdict is synthesized without touching the solver.
Because subsumption only ever replaces a solver call that would have
returned UNSAT, the guided loop takes exactly the decisions the unguided
loop takes and site classifications are identical by construction (the
one principled gap: a query the solver would have *timed out* on — budget
UNKNOWN — can be answered UNSAT by a core, which is strictly more
accurate; ``benchmarks/bench_enforcement.py`` gates registry-wide parity
empirically).  In the ablation selection modes (``flip_selection`` of
``last``/``random``), candidates disjoint from every accumulated core are
additionally preferred — those modes already deviate from the paper's
first-flip order, and steering them away from known-infeasible territory
is exactly the core's job.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.branches import (
    BranchConstraint,
    first_unsatisfied,
    relevant_branches,
)
from repro.core.detection import CandidateEvaluation, ErrorDetector
from repro.core.group import SeedPathGroup
from repro.core.inputs import GeneratedInput, InputGenerator
from repro.core.overflow import OverflowSpec, overflow_constraint
from repro.core.target import TargetObservation
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.smt import builder as smt
from repro.smt.simplify import simplify, split_conjuncts
from repro.smt.solver import (
    PortfolioSolver,
    SolverResult,
    SolverSession,
    SolverStatus,
)
from repro.smt.terms import Term


class EnforcementOutcome(enum.Enum):
    """How the enforcement loop for one observation terminated."""

    OVERFLOW_TRIGGERED = "overflow_triggered"
    TARGET_UNSATISFIABLE = "target_unsatisfiable"
    CONSTRAINTS_UNSATISFIABLE = "constraints_unsatisfiable"
    SEED_PATH_EXHAUSTED = "seed_path_exhausted"
    ITERATION_LIMIT = "iteration_limit"
    SOLVER_UNKNOWN = "solver_unknown"


@dataclass
class EnforcementStep:
    """One iteration of the enforcement loop (for reporting and ablation)."""

    iteration: int
    enforced_label: Optional[int]
    solver_status: str
    candidate_size: Optional[int]
    triggered: bool
    candidate_model: Optional[dict] = None


@dataclass
class EnforcementConfig:
    """Tuning knobs for the enforcement loop.

    ``flip_selection`` and ``filter_relevant`` exist for the ablation
    benchmarks: the paper's algorithm always enforces the *first* flipped
    branch in execution order and always discards branches that share no
    input variable with the target constraint.  Selecting the last/random
    flipped branch, or keeping irrelevant branches, lets the benchmarks
    quantify how much those two design choices matter.
    """

    max_iterations: int = 32
    overflow_spec: OverflowSpec = field(default_factory=OverflowSpec)
    flip_selection: str = "first"
    filter_relevant: bool = True


@dataclass
class EnforcementResult:
    """The outcome of running Figure 7 on one target observation."""

    observation: TargetObservation
    outcome: EnforcementOutcome
    target_constraint: Term
    enforced_branches: List[BranchConstraint] = field(default_factory=list)
    relevant_branch_count: int = 0
    triggering_input: Optional[bytes] = None
    triggering_model: Optional[dict] = None
    evaluation: Optional[CandidateEvaluation] = None
    steps: List[EnforcementStep] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def enforced_count(self) -> int:
        """Number of conditional branches enforced before success/termination."""
        return len(self.enforced_branches)

    @property
    def found_overflow(self) -> bool:
        """Whether an overflow-triggering input was generated."""
        return self.outcome is EnforcementOutcome.OVERFLOW_TRIGGERED


class GoalDirectedEnforcer:
    """Run the goal-directed conditional branch enforcement algorithm.

    One enforcer serves one target site (``analyze_site`` constructs one
    per site).  It reads the site's seed-path ``group`` for the work the
    group's sites share — compressed branch constraints and the witness
    run of each distinct candidate (a private group when none is given) —
    and owns two pieces of cross-observation state:

    * a reusable :class:`~repro.smt.solver.SolverSession`, popped back to
      an empty stack between observations so the persistent bit-blaster's
      CNF and the CDCL's learned clauses — both derived from Tseitin
      definitions alone, hence sound for any later conjunction — carry
      over;
    * the accumulated UNSAT cores (with ``enable_unsat_cores``), used to
      answer later queries whose conjunct set subsumes a core without a
      solver call.  Soundness invariant: a core is a set of conjuncts whose
      conjunction is unsatisfiable, so any superset query is UNSAT — the
      synthesized verdict is one the solver was guaranteed to return.
    """

    def __init__(
        self,
        solver: PortfolioSolver,
        input_generator: InputGenerator,
        detector: ErrorDetector,
        config: Optional[EnforcementConfig] = None,
        group: Optional[SeedPathGroup] = None,
    ) -> None:
        self.solver = solver
        self.input_generator = input_generator
        self.detector = detector
        self.config = config or EnforcementConfig()
        self.group = group if group is not None else SeedPathGroup(())
        self._session: Optional[SolverSession] = None
        self._cores: List[FrozenSet[Term]] = []

    # ------------------------------------------------------------------
    @property
    def accumulated_cores(self) -> Tuple[FrozenSet[Term], ...]:
        """UNSAT cores learned at this site so far (each a conjunct set)."""
        return tuple(self._cores)

    # ------------------------------------------------------------------
    def run(self, observation: TargetObservation) -> EnforcementResult:
        """Run the algorithm for one ⟨target expression, seed path⟩ pair."""
        with TRACER.span("enforce", site=observation.site.site_label):
            return self._run(observation)

    def _run(self, observation: TargetObservation) -> EnforcementResult:
        started = time.perf_counter()
        site_label = observation.site.site_label

        if observation.size_expression is None:
            return self._finish(
                EnforcementResult(
                    observation=observation,
                    outcome=EnforcementOutcome.TARGET_UNSATISFIABLE,
                    target_constraint=smt.bool_const(False),
                ),
                started,
            )

        beta = overflow_constraint(
            observation.size_expression, self.config.overflow_spec
        )
        result = EnforcementResult(
            observation=observation,
            outcome=EnforcementOutcome.ITERATION_LIMIT,
            target_constraint=beta,
        )

        # One incremental session per site: β is pushed once, each
        # iteration pushes only its branch-constraint delta.
        session = self._acquire_session()

        # Step 1: solve the target constraint alone.
        session.push(beta)
        solver_result = self._check(session)
        if solver_result.is_unsat:
            result.outcome = EnforcementOutcome.TARGET_UNSATISFIABLE
            return self._finish(result, started)
        if not solver_result.is_sat:
            result.outcome = EnforcementOutcome.SOLVER_UNKNOWN
            return self._finish(result, started)

        candidate = self.input_generator.generate(solver_result.model)
        with TRACER.span("screen", site=site_label, iteration=0):
            evaluation = self.detector.evaluate(
                candidate.data, site_label, self.group.witness_reports
            )
        result.steps.append(
            EnforcementStep(
                iteration=0,
                enforced_label=None,
                solver_status=solver_result.status,
                candidate_size=evaluation.requested_size,
                triggered=evaluation.triggers_overflow,
                candidate_model=solver_result.model.as_dict(),
            )
        )
        if evaluation.triggers_overflow:
            return self._succeed(result, candidate, evaluation, started)

        # Step 2: prepare the relevant compressed seed-path constraints.
        compressed = self.group.branch_constraints(observation.seed_path)
        if self.config.filter_relevant:
            relevant = relevant_branches(compressed, beta)
        else:
            relevant = compressed
        result.relevant_branch_count = len(relevant)
        # The flip check evaluates only the relevant conditions, so each
        # candidate is described over just the offsets their variables read.
        offsets = self.input_generator.mapper.variable_offsets(
            branch.condition for branch in relevant
        )

        enforced: List[BranchConstraint] = []
        previous_candidate = candidate

        for iteration in range(1, self.config.max_iterations + 1):
            assignment = self.input_generator.assignment_for(
                previous_candidate.data, offsets
            )
            flipped = self._select_flipped(relevant, enforced, assignment)
            if flipped is None:
                # The candidate follows the seed path at every relevant
                # branch yet still does not trigger the overflow: the sanity
                # checks prevent any overflow at this site.
                result.outcome = EnforcementOutcome.SEED_PATH_EXHAUSTED
                return self._finish(result, started)

            enforced.append(flipped)
            result.enforced_branches = list(enforced)
            session.push(flipped.condition)
            solver_result = self._check(session)
            if solver_result.is_unsat:
                result.outcome = EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE
                result.steps.append(
                    EnforcementStep(
                        iteration=iteration,
                        enforced_label=flipped.label,
                        solver_status=solver_result.status,
                        candidate_size=None,
                        triggered=False,
                    )
                )
                return self._finish(result, started)
            if not solver_result.is_sat:
                result.outcome = EnforcementOutcome.SOLVER_UNKNOWN
                return self._finish(result, started)

            candidate = self.input_generator.generate(solver_result.model)
            with TRACER.span("screen", site=site_label, iteration=iteration):
                evaluation = self.detector.evaluate(
                    candidate.data, site_label, self.group.witness_reports
                )
            result.steps.append(
                EnforcementStep(
                    iteration=iteration,
                    enforced_label=flipped.label,
                    solver_status=solver_result.status,
                    candidate_size=evaluation.requested_size,
                    triggered=evaluation.triggers_overflow,
                    candidate_model=solver_result.model.as_dict(),
                )
            )
            if evaluation.triggers_overflow:
                return self._succeed(result, candidate, evaluation, started)
            previous_candidate = candidate

        result.outcome = EnforcementOutcome.ITERATION_LIMIT
        return self._finish(result, started)

    # ------------------------------------------------------------------
    def _acquire_session(self) -> SolverSession:
        """The observation's solver session.

        The site's one session is popped back to an empty constraint stack
        and handed out again: everything that survives the pops (the
        blaster's Tseitin definitions, the CDCL's learned clauses,
        activities and phases) is implied by — or heuristic state over —
        the definitional CNF alone, so reuse can steer *which* model a
        later check finds but never its status.
        """
        session = self._session
        if session is not None:
            while len(session):
                session.pop()
            METRICS.counter("solver.sessions_reused").inc()
            return session
        self._session = self.solver.open_session()
        return self._session

    def _check(self, session: SolverSession) -> SolverResult:
        """Decide the session's conjunction, consulting accumulated cores.

        When core guidance is on and the session's conjunct set subsumes
        an accumulated core, the UNSAT verdict is synthesized without a
        solver call; this cannot diverge from the unguided path because the
        solver is guaranteed to answer a superset of an unsatisfiable set
        with UNSAT.  Every solver-derived UNSAT feeds its core (or, absent
        one, the full conjunct set) back into the accumulator.
        """
        guided = self.solver.config.enable_unsat_cores
        active = set(session.conjuncts)
        if guided and any(core <= active for core in self._cores):
            METRICS.counter("solver.core_pruned_candidates").inc()
            return SolverResult(SolverStatus.UNSAT, reason="unsat-core")
        result = session.check()
        if guided and result.is_unsat:
            core = frozenset(result.unsat_core or active)
            if core and core not in self._cores:
                self._cores.append(core)
                METRICS.counter("solver.cores_extracted").inc()
        return result

    def _disjoint_from_cores(self, branch: BranchConstraint) -> bool:
        """Whether a candidate's conjuncts avoid every accumulated core."""
        conjuncts = set(split_conjuncts(simplify(branch.condition)))
        return all(not (core & conjuncts) for core in self._cores)

    # ------------------------------------------------------------------
    def _select_flipped(
        self,
        relevant: Sequence[BranchConstraint],
        enforced: Sequence[BranchConstraint],
        assignment,
    ) -> Optional[BranchConstraint]:
        """Pick which flipped branch to enforce next.

        The paper's algorithm takes the first flipped branch in execution
        order; the other modes exist only for the ablation study.  In those
        modes, candidates disjoint from every accumulated UNSAT core are
        preferred when core guidance is on — the paper path is left
        untouched (its selection is part of the parity contract).
        """
        if self.config.flip_selection == "first":
            return first_unsatisfied(relevant, assignment)
        already = {id(branch) for branch in enforced}
        unsatisfied = [
            branch
            for branch in sorted(relevant, key=lambda b: b.first_sequence_index)
            if id(branch) not in already and not branch.satisfied_by(assignment)
        ]
        if not unsatisfied:
            # Fall back to the paper's definition so that termination
            # behaviour (seed path exhausted) stays identical.
            return first_unsatisfied(relevant, assignment)
        if self.solver.config.enable_unsat_cores and len(unsatisfied) > 1:
            clear = [b for b in unsatisfied if self._disjoint_from_cores(b)]
            if clear:
                unsatisfied = clear
        if self.config.flip_selection == "last":
            return unsatisfied[-1]
        if self.config.flip_selection == "random":
            import random

            return random.Random(len(enforced)).choice(unsatisfied)
        raise ValueError(f"unknown flip_selection {self.config.flip_selection!r}")

    def _succeed(
        self,
        result: EnforcementResult,
        candidate: GeneratedInput,
        evaluation: CandidateEvaluation,
        started: float,
    ) -> EnforcementResult:
        result.outcome = EnforcementOutcome.OVERFLOW_TRIGGERED
        result.triggering_input = candidate.data
        result.triggering_model = candidate.model.as_dict()
        result.evaluation = evaluation
        return self._finish(result, started)

    @staticmethod
    def _finish(result: EnforcementResult, started: float) -> EnforcementResult:
        result.elapsed_seconds = time.perf_counter() - started
        return result
