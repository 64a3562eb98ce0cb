"""The portfolio solver front end.

This is the component the rest of the system treats as "the SMT solver" (the
role played by Z3 in the paper).  A query is a conjunction of boolean terms
over bitvector variables; the answer is SAT with a model, UNSAT, or UNKNOWN.

The portfolio runs, in order:

1. **Simplification** — constant folding may already decide the query.
2. **Interval propagation** — an HC4-style contractor over the conjunction;
   an empty box is a proof of unsatisfiability, and the contracted box feeds
   the later layers.
3. **Algebraic heuristics** — extreme-point candidates tuned to the shape of
   overflow constraints, drawn from layer 2's box (not propagated again).
4. **Guided random sampling** — boundary-biased sampling plus hill climbing.
5. **Bit-blasting + CDCL** — the complete fallback.

Layers 3 and 4 can only return SAT (with a checked model); layer 2 can only
return UNSAT; layer 5 is complete but is budgeted by a conflict limit so the
front end degrades to UNKNOWN rather than hanging on adversarial queries.

Two mechanisms exploit the structure *across* queries:

* **The cache** (:class:`~repro.smt.cache.SolverCache`): queries are
  canonicalized (alpha-renamed over the hash-consed DAG) and verdicts are
  shared per whole canonical query, so alpha-equivalent queries from
  sibling sites and repeated enforcement iterations are decided once.
* **Sessions** (:class:`SolverSession`, via :meth:`PortfolioSolver.open_session`):
  a push/pop constraint stack for callers that issue long chains of
  near-identical queries (the enforcement loop).  A session keeps one
  persistent :class:`~repro.smt.bitblast.BitBlaster` and one incremental
  :class:`~repro.smt.sat.CDCLSolver`, so only delta conjuncts are blasted
  and learned clauses carry over between checks; per-check conjuncts are
  asserted through CDCL assumptions, never permanent units.

UNSAT verdicts additionally carry an **UNSAT core**
(:attr:`SolverResult.unsat_core`, ``enable_unsat_cores``): a subset of
the query's conjuncts that is already jointly infeasible — precise
final-conflict cores from a session's assumption-based CDCL, the full
conjunction otherwise.  The enforcement loop accumulates cores per target
site and prunes candidate queries subsumed by one (see
``docs/solver.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.smt import builder as b
from repro.smt.cache import CachedVerdict, SolverCache
from repro.smt.evalmodel import Model, satisfies
from repro.smt.heuristics import try_algebraic_solution
from repro.smt.interval import propagate_intervals
from repro.smt.sampler import ModelSampler, SamplerConfig, split_conjuncts
from repro.smt.simplify import simplify
from repro.smt.terms import Term, TermKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Layer 5 (bit-blasting + CDCL) loads on its first call: most workloads,
    # the registry campaign among them, never reach it.
    from repro.smt.bitblast import BitBlaster
    from repro.smt.sat import CDCLSolver, SatResult


class SolverStatus:
    """Status constants for :class:`SolverResult`."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverResult:
    """Outcome of a portfolio query."""

    status: str
    model: Optional[Model] = None
    reason: str = ""
    elapsed_seconds: float = 0.0
    stages_tried: Tuple[str, ...] = ()
    #: For UNSAT results (with ``enable_unsat_cores``): a subset of the
    #: query's conjuncts whose conjunction is already unsatisfiable, in the
    #: caller's term space.  The core is sound but not necessarily minimal:
    #: a session's assumption-based CDCL yields the final-conflict subset,
    #: and the remaining UNSAT layers fall back to the full conjunct list.
    #: ``None`` when the status is not UNSAT, when cores are disabled, or
    #: when the verdict came from a cache hit (cores are per-derivation and
    #: are never cached).
    unsat_core: Optional[Tuple[Term, ...]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == SolverStatus.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status == SolverStatus.UNKNOWN


@dataclass
class SolverConfig:
    """Tuning knobs for :class:`PortfolioSolver`."""

    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    bitblast_max_conflicts: int = 200_000
    heuristic_max_checks: int = 768
    #: Attach UNSAT cores (:attr:`SolverResult.unsat_core`) to UNSAT
    #: verdicts and let the enforcement loop use them to prune candidate
    #: branch queries whose conjunct set is subsumed by an accumulated core
    #: (``repro campaign --no-core-guidance`` disables this).
    enable_unsat_cores: bool = True

    def fingerprint(self) -> Tuple:
        """The knobs a cached verdict depends on.

        Part of every solver-cache key, and the validity stamp of a
        persistent :class:`~repro.smt.cachestore.CacheStore` — results
        computed under different budgets must never be conflated, within a
        run or across runs.  Every knob is part of it.  Primitives only, so
        it survives a JSON round trip unchanged.
        """
        sampler = self.sampler
        return (
            self.bitblast_max_conflicts,
            self.heuristic_max_checks,
            sampler.random_attempts_per_sample,
            sampler.hill_climb_steps,
            sampler.seed,
            sampler.boundary_bias,
            sampler.perturbation_attempts,
            self.enable_unsat_cores,
        )


def _record_bitblast(started: float, result: Optional[SatResult]) -> None:
    """Count one complete-backend call and the CDCL work it did."""
    METRICS.counter("solver.bitblast_calls").inc()
    METRICS.histogram("solver.bitblast.seconds").observe(
        time.perf_counter() - started
    )
    if result is not None:
        METRICS.counter("solver.cdcl_conflicts").inc(result.conflicts)
        METRICS.counter("solver.cdcl_decisions").inc(result.decisions)
        METRICS.counter("solver.cdcl_propagations").inc(result.propagations)


def _translate_core(
    core: Sequence[Term],
    canonical_conjuncts: Sequence[Term],
    conjuncts: Sequence[Term],
) -> Optional[Tuple[Term, ...]]:
    """Map an UNSAT core from canonical space back to the caller's terms.

    Canonicalization preserves positions (conjunct ``i`` rewrites to
    canonical conjunct ``i``), so each canonical core term maps back to the
    first original conjunct that produced it (cores are sets — when two
    conjuncts canonicalize identically, naming either one is sound).
    Returns ``None`` if a core term has no preimage (cannot happen through
    the positional pipeline; guarded so a plumbing regression degrades to
    "no core" instead of an unsound one).
    """
    back: Dict[Term, Term] = {}
    for original, canonical in zip(conjuncts, canonical_conjuncts):
        back.setdefault(canonical, original)
    translated: List[Term] = []
    for term in core:
        original = back.get(term)
        if original is None:
            return None
        translated.append(original)
    return tuple(dict.fromkeys(translated))


class PortfolioSolver:
    """Layered QF_BV solver: simplify → intervals → heuristics → sampling → CDCL.

    When a :class:`~repro.smt.cache.SolverCache` is supplied, queries are
    canonicalized (alpha-renamed over the hash-consed DAG) and the portfolio
    decides the canonical representative, so alpha-equivalent queries from
    sibling sites and repeated enforcement iterations share one verdict.
    """

    def __init__(
        self,
        config: Optional[SolverConfig] = None,
        cache: Optional[SolverCache] = None,
    ) -> None:
        self.config = config or SolverConfig()
        self.cache = cache
        self.query_count = 0
        self.stage_hits: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(self, constraints: Iterable[Term]) -> SolverResult:
        """Decide the conjunction of ``constraints``."""
        return self._solve(constraints, None)

    def open_session(self) -> "SolverSession":
        """Create an incremental push/pop session backed by this solver.

        Sessions are classification-transparent (same statuses as
        :meth:`check`, possibly different models) and not thread-safe;
        see :class:`SolverSession` for the full contract.
        """
        return SolverSession(self)

    def _solve(
        self,
        constraints: Iterable[Term],
        session: Optional["SolverSession"],
    ) -> SolverResult:
        """The one query body behind :meth:`check` and :meth:`SolverSession.check`.

        A one-shot query simplifies and splits ``constraints``; a session
        passes its conjuncts (already simplified and split) and layer 5
        runs on its incremental backend.
        """
        with TRACER.span("solve", session=session is not None) as span:
            mark = METRICS.counter("solver.cdcl_propagations").value
            started = time.perf_counter()
            self.query_count += 1
            METRICS.counter("solver.queries").inc()
            stages: List[str] = ["simplify"]
            if session is None:
                conjuncts = [
                    part for c in constraints for part in split_conjuncts(simplify(c))
                ]
            else:
                METRICS.counter("solver.session_checks").inc()
                conjuncts = list(constraints)
                # A query makes at most one complete-backend call; these
                # report on it, so nothing may linger from the previous check.
                session.last_call_tainted = False
                session.last_call_core = None

            try:
                # Layer 1: simplification may already decide the query.
                result = self._decide_by_simplification(conjuncts)
                if result is None and self.cache is None:
                    result = self._run_portfolio(conjuncts, stages, session)
                elif result is None:
                    result = self._check_cached(conjuncts, stages, session)
                return self._finish(result, started, stages)
            finally:
                # Propagation-loop work attributed to this solve, so trace
                # reports can rank queries by SAT-core effort, not just wall.
                span.attrs["propagations"] = (
                    METRICS.counter("solver.cdcl_propagations").value - mark
                )

    def solve_for_model(self, constraints: Iterable[Term]) -> Optional[Model]:
        """Return a model of the conjunction, or ``None`` if UNSAT/UNKNOWN."""
        result = self.check(constraints)
        return result.model if result.is_sat else None

    def sample_models(
        self,
        constraints: Iterable[Term],
        count: int,
        seed: Optional[int] = None,
    ) -> List[Model]:
        """Sample up to ``count`` models of the conjunction (with replacement)."""
        constraint_list = [simplify(c) for c in constraints]
        conjuncts: List[Term] = []
        for constraint in constraint_list:
            conjuncts.extend(split_conjuncts(constraint))
        variables = self._collect_variables(conjuncts)
        whole = b.band(*conjuncts) if conjuncts else b.TRUE
        config = SamplerConfig(
            random_attempts_per_sample=self.config.sampler.random_attempts_per_sample,
            hill_climb_steps=self.config.sampler.hill_climb_steps,
            seed=seed if seed is not None else self.config.sampler.seed,
            boundary_bias=self.config.sampler.boundary_bias,
            perturbation_attempts=self.config.sampler.perturbation_attempts,
        )
        sampler = ModelSampler(
            whole,
            variables,
            config=config,
            fallback_solve=lambda c: self.solve_for_model([c]),
        )
        return sampler.sample(count)

    # ------------------------------------------------------------------
    # Cached path
    # ------------------------------------------------------------------
    def _check_cached(
        self,
        conjuncts: List[Term],
        stages: List[str],
        session: Optional["SolverSession"],
    ) -> SolverResult:
        """Answer the query through the shared cache.

        Canonicalize, look up (verifying any translated SAT model against
        the actual conjuncts — a failure is treated as a miss and
        re-derived), solve the canonical representative on a miss, store
        the verdict unless the session's (history-dependent) incremental
        CDCL decided it, and translate the answer back.  Hit or miss, the
        verdict is derived from the *canonical representative* of the
        query, so the answer is a pure function of the canonical system —
        independent of worker scheduling and of which alpha-variant of the
        system was solved first.
        """
        stages.append("cache")
        system = self.cache.canonicalize(conjuncts, self.config.fingerprint())
        cached = self.cache.lookup(system)
        if cached is not None:
            if cached.status != SolverStatus.SAT:
                stages.extend(cached.stages)
                return SolverResult(cached.status, reason="cache")
            model = system.translate_model(cached.canonical_model)
            if all(satisfies(c, model) for c in conjuncts):
                stages.extend(cached.stages)
                return SolverResult(SolverStatus.SAT, model=model, reason="cache")
            # A stored model that does not survive translation means the
            # canonicalization missed a distinction; fall through and
            # re-derive (and overwrite) the entry.
            self.cache.note_invalid_hit()

        mark = len(stages)
        canonical_result = self._run_portfolio(
            list(system.conjuncts), stages, session
        )
        if session is None or not session.last_call_tainted:
            self.cache.store(
                system,
                CachedVerdict(
                    status=canonical_result.status,
                    canonical_model=canonical_result.model,
                    reason=canonical_result.reason,
                    stages=tuple(stages[mark:]),
                ),
            )
        result = SolverResult(canonical_result.status, reason=canonical_result.reason)
        if canonical_result.is_sat:
            result.model = system.translate_model(canonical_result.model)
        elif canonical_result.unsat_core is not None:
            # Canonicalization is positional (conjunct i renames to
            # canonical conjunct i), so a core over canonical terms maps
            # straight back to the caller's conjuncts.
            result.unsat_core = _translate_core(
                canonical_result.unsat_core, system.conjuncts, conjuncts
            )
        return result

    # ------------------------------------------------------------------
    # The layered portfolio
    # ------------------------------------------------------------------
    def _run_portfolio(
        self,
        conjuncts: List[Term],
        stages: List[str],
        session: Optional["SolverSession"],
    ) -> SolverResult:
        """Layers 2-5 over an already simplified, split conjunction.

        With a ``session``, layer 5 runs on its incremental backend.
        """
        variables = self._collect_variables(conjuncts)
        widths = {str(v.name): v.width for v in variables}

        # Layer 2: interval propagation (UNSAT proofs + bounds for later layers).
        stages.append("intervals")
        feasible, bounds = propagate_intervals(conjuncts, widths)
        if not feasible:
            # The contractor does not explain which conjuncts emptied the
            # box; the full conjunct list is still a sound core.
            return SolverResult(
                SolverStatus.UNSAT,
                reason="interval propagation",
                unsat_core=tuple(conjuncts),
            )
        # Layer 3: algebraic extreme-point heuristics over layer 2's box,
        # checked against the conjuncts' own evaluators.
        stages.append("heuristics")
        model = try_algebraic_solution(
            conjuncts,
            variables,
            max_checks=self.config.heuristic_max_checks,
            bounds=bounds,
        )
        if model is not None:
            return SolverResult(SolverStatus.SAT, model=model, reason="heuristics")

        # Layer 4: guided sampling over the conjunction, in layer 2's box.
        stages.append("sampling")
        sampler = ModelSampler(
            b.band(*conjuncts) if conjuncts else b.TRUE,
            variables,
            config=self.config.sampler,
            fallback_solve=None,
            bounds=bounds,
        )
        model = sampler.sample_one()
        if model is not None:
            return SolverResult(SolverStatus.SAT, model=model, reason="sampling")

        # Layer 5: complete bit-blasting backend.
        if self._blastable(conjuncts):
            stages.append("bitblast")
            backend = self._bitblast if session is None else session._bitblast
            status, model = backend(conjuncts)
            if status == SolverStatus.SAT and model is not None:
                restricted = model.restricted_to(widths)
                return SolverResult(
                    SolverStatus.SAT, model=restricted, reason="bitblast"
                )
            if status == SolverStatus.UNSAT:
                core = None if session is None else session.last_call_core
                return SolverResult(
                    SolverStatus.UNSAT,
                    reason="bitblast",
                    unsat_core=core or tuple(conjuncts),
                )

        return SolverResult(SolverStatus.UNKNOWN, reason="portfolio exhausted")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finish(
        self, result: SolverResult, started: float, stages: List[str]
    ) -> SolverResult:
        result.elapsed_seconds = time.perf_counter() - started
        result.stages_tried = tuple(stages)
        self.stage_hits[result.reason] = self.stage_hits.get(result.reason, 0) + 1
        if result.is_sat and result.model is None:
            raise AssertionError("SAT result without a model")
        # Cores are an UNSAT-only, opt-out feature; strip anything a lower
        # layer attached when the knob is off (or on a non-UNSAT status).
        if result.unsat_core is not None and not (
            result.is_unsat and self.config.enable_unsat_cores
        ):
            result.unsat_core = None
        return result

    @staticmethod
    def _decide_by_simplification(constraints: Sequence[Term]) -> Optional[SolverResult]:
        all_true = True
        for constraint in constraints:
            if constraint.kind is TermKind.BOOL_CONST:
                if not constraint.value:
                    return SolverResult(
                        SolverStatus.UNSAT,
                        reason="simplify",
                        unsat_core=(constraint,),
                    )
            else:
                all_true = False
        if all_true:
            return SolverResult(SolverStatus.SAT, model=Model(), reason="simplify")
        return None

    @staticmethod
    def _collect_variables(conjuncts: Sequence[Term]) -> List[Term]:
        seen: Dict[str, Term] = {}
        for conjunct in conjuncts:
            for variable in conjunct.variables():
                if variable.is_bv:
                    seen.setdefault(str(variable.name), variable)
        return [seen[name] for name in sorted(seen)]

    def _blastable(self, conjuncts: Sequence[Term]) -> bool:
        node_budget = 4000
        wide_multiplications = 0
        nodes = 0
        for conjunct in conjuncts:
            for term in conjunct.subterms():
                nodes += 1
                if nodes > node_budget:
                    return False
                if term.is_bv and term.width > 64:
                    return False
                if (
                    term.kind is TermKind.MUL
                    and term.width is not None
                    and term.width > 32
                    and not any(a.is_const for a in term.args)
                ):
                    wide_multiplications += 1
        # Each wide variable×variable multiplier costs thousands of clauses;
        # a pure-Python CDCL run over several of them will not finish in a
        # useful amount of time, so the portfolio degrades to UNKNOWN instead.
        return wide_multiplications <= 2

    def _bitblast(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        from repro.smt.bitblast import BitBlaster, BitBlastError
        from repro.smt.sat import CDCLSolver, SatStatus

        started = time.perf_counter()
        try:
            blaster = BitBlaster()
            blaster.assert_all(conjuncts)
            result = CDCLSolver(
                blaster.cnf, max_conflicts=self.config.bitblast_max_conflicts
            ).solve()
        except (BitBlastError, RecursionError, MemoryError):
            _record_bitblast(started, None)
            return SatStatus.UNKNOWN, None
        _record_bitblast(started, result)
        if result.status == SatStatus.SAT:
            return SatStatus.SAT, blaster.extract_model(result)
        return result.status, None


class SolverSession:
    """An incremental solving session over one :class:`PortfolioSolver`.

    The session holds a stack of conjuncts manipulated with :meth:`push` /
    :meth:`pop` and decided with :meth:`check`; the enforcement loop pushes
    the target constraint once and then one branch-constraint delta per
    iteration instead of rebuilding (and re-simplifying, re-splitting,
    re-blasting) the whole conjunction list every time.

    The cheap portfolio layers and the cache behave exactly as in
    :meth:`PortfolioSolver.check`; what is incremental is the
    complete backend: one persistent :class:`BitBlaster` translates only
    the conjuncts it has not seen before (terms are hash-consed, and
    canonicalized prefixes are stable across growing queries), and one
    persistent :class:`CDCLSolver` keeps its learned clauses, variable
    activity and saved phases across checks, asserting the current
    conjuncts through per-call assumptions.  Parity with a one-shot
    :meth:`PortfolioSolver.check` of the same conjuncts is the invariant:
    the incremental backend may find a different *model* but must not
    change the *status*.  SAT and UNSAT are semantic, so they can never
    flip; the one principled gap is the conflict-budget boundary, where
    inherited search state could make a timeout land differently — a
    session CDCL timeout therefore retries the pure one-shot backend
    (never less complete than one-shot), and the per-check oracles in the
    tests and ``bench_solver.py`` check the equality on the registry.

    Sessions are not thread-safe; each worker drives its own.
    """

    def __init__(self, solver: PortfolioSolver) -> None:
        self.solver = solver
        self.check_count = 0
        #: Whether the current check's verdict depends on session state:
        #: ``True`` when the incremental CDCL decided it, ``False`` when a
        #: cheap layer or one of the fresh-solve fallbacks (width clash,
        #: resource limits, budget exhaustion) did.  The CDCL retains
        #: learned clauses, activities and phases from earlier checks, so
        #: its verdicts are per-session history, not a pure function of the
        #: canonical system, and the cached path never stores them.  Reset
        #: by :meth:`PortfolioSolver._solve` before each check.
        self.last_call_tainted = False
        #: UNSAT core of the current check's complete-backend call, as a
        #: subset of the conjunct terms that call received (``None`` unless
        #: the incremental CDCL returned UNSAT with cores enabled).  Reset
        #: and read like ``last_call_tainted``.
        self.last_call_core: Optional[Tuple[Term, ...]] = None
        self._conjuncts: List[Term] = []
        self._frames: List[int] = []
        self._blaster: Optional[BitBlaster] = None
        self._cdcl: Optional[CDCLSolver] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of pushed (still-active) frames."""
        return len(self._frames)

    @property
    def conjuncts(self) -> Tuple[Term, ...]:
        """The currently asserted conjuncts (simplified and split)."""
        return tuple(self._conjuncts)

    def push(self, *constraints: Term) -> None:
        """Open a frame asserting ``constraints`` on top of the stack."""
        self._frames.append(len(self._conjuncts))
        for constraint in constraints:
            self._conjuncts.extend(split_conjuncts(simplify(constraint)))

    def pop(self) -> None:
        """Drop the most recent frame and its conjuncts.

        The persistent bit-blaster keeps the popped conjuncts' Tseitin
        definitions (they are unasserted and satisfiable, so retained
        learned clauses stay sound); re-pushing the same constraint later
        costs no new CNF.
        """
        if not self._frames:
            raise IndexError("pop from an empty solver session")
        del self._conjuncts[self._frames.pop():]

    def check(self) -> SolverResult:
        """Decide the conjunction of every pushed constraint.

        Parity invariant: the status is identical to what
        :meth:`PortfolioSolver.check` would return for the same conjuncts
        — only the model may differ.  An UNSAT result carries
        :attr:`SolverResult.unsat_core` (a subset of
        :attr:`conjuncts`) when cores are enabled; verdicts the
        incremental CDCL derives are answered but never stored in the
        shared cache (they depend on this session's history).
        """
        self.check_count += 1
        return self.solver._solve(self._conjuncts, self)

    # ------------------------------------------------------------------
    def _bitblast(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        """Complete-backend hook: delta-blast + assumption-based CDCL."""
        from repro.smt.bitblast import BitBlaster, BitBlastError
        from repro.smt.sat import CDCLSolver, SatStatus

        started = time.perf_counter()
        config = self.solver.config
        try:
            if self._blaster is None:
                self._blaster = BitBlaster()
            assumptions, by_literal = self._blaster.assumptions_for(conjuncts)
            if self._cdcl is None:
                self._cdcl = CDCLSolver(
                    self._blaster.cnf, max_conflicts=config.bitblast_max_conflicts
                )
            result = self._cdcl.solve(assumptions=assumptions)
        except (BitBlastError, RecursionError, MemoryError):
            # The session's accumulated CNF blew a resource limit the
            # current (smaller) conjunction alone would not, or a conjunct
            # reuses a variable name the blaster holds at another width
            # (canonical names restart at ``v000`` per query); same policy
            # as the budget case below — retry fresh.
            _record_bitblast(started, None)
            return self.solver._bitblast(conjuncts)
        _record_bitblast(started, result)
        if result.status == SatStatus.UNKNOWN:
            # The per-call conflict budget ran out under the session's
            # inherited search state (learned clauses, activities, phases).
            # Retry once with the pure one-shot backend: a session must
            # never be *less* complete than a one-shot check.
            return self.solver._bitblast(conjuncts)
        self.last_call_tainted = True
        if result.status == SatStatus.SAT:
            return SatStatus.SAT, self._blaster.extract_model(result)
        if result.core and config.enable_unsat_cores:
            # Lift the assumption-literal core back to terms.  A literal
            # shared by several (hash-consed-identical after blasting)
            # conjuncts names all of them: asserting a superset of an
            # unsatisfiable set stays unsatisfiable.
            lifted: List[Term] = []
            for literal in result.core:
                lifted.extend(by_literal.get(literal, ()))
            self.last_call_core = tuple(dict.fromkeys(lifted))
        return result.status, None
