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
   overflow constraints.
4. **Guided random sampling** — boundary-biased sampling plus hill climbing.
5. **Bit-blasting + CDCL** — the complete fallback.

Layers 3 and 4 can only return SAT (with a checked model); layer 2 can only
return UNSAT; layer 5 is complete but is budgeted by a conflict limit so the
front end degrades to UNKNOWN rather than hanging on adversarial queries.

Two orthogonal mechanisms exploit the structure *within and across*
queries:

* **Decomposition** (``enable_decomposition``): the conjunction is split
  into independent connected components over the variable-sharing graph
  (:mod:`repro.smt.decompose`); each component is decided separately —
  against a component-granularity cache when one is attached — and
  per-component models compose into the whole-query model (UNSAT in any
  component is UNSAT overall).
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
final-conflict cores from a session's assumption-based CDCL, the UNSAT
component's conjuncts under decomposition, the full conjunction
otherwise.  The enforcement loop accumulates cores per target site and
prunes candidate queries subsumed by one (see ``docs/solver.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.smt import builder as b
from repro.smt.bitblast import BitBlaster, BitBlastError
from repro.smt.cache import CachedVerdict, SolverCache
from repro.smt.decompose import compose_models, decompose
from repro.smt.evalmodel import EvaluationError, Model, satisfies
from repro.smt.heuristics import try_algebraic_solution
from repro.smt.interval import Interval, propagate_intervals
from repro.smt.sampler import ModelSampler, SamplerConfig, split_conjuncts
from repro.smt.sat import CDCLSolver, SatResult, SatStatus
from repro.smt.simplify import simplify
from repro.smt.terms import Term, TermKind


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
    #: an UNSAT connected component yields that component's conjuncts, and
    #: the remaining UNSAT layers fall back to the full conjunct list.
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
    enable_bitblast: bool = True
    bitblast_max_conflicts: int = 200_000
    bitblast_max_width: int = 64
    heuristic_max_checks: int = 768
    seed: Optional[int] = 0
    #: Decide independent connected components separately (and cache them
    #: at component granularity when a cache is attached).
    enable_decomposition: bool = True
    #: Let callers that hold a :class:`SolverSession` drive the incremental
    #: push/pop path (the enforcement loop checks this knob).
    enable_sessions: bool = True
    #: Attach UNSAT cores (:attr:`SolverResult.unsat_core`) to UNSAT
    #: verdicts and let the enforcement loop use them to prune candidate
    #: branch queries whose conjunct set is subsumed by an accumulated core
    #: (``repro campaign --no-core-guidance`` disables this).
    enable_unsat_cores: bool = True
    #: Reuse one :class:`SolverSession` across all of a target site's
    #: observations (the enforcement loop pops back to an empty stack
    #: between observations) instead of opening a fresh session — and
    #: re-blasting the shared constraint prefix — per observation.
    reuse_sessions: bool = True
    #: Persist and replay blasted-CNF skeletons
    #: (:class:`~repro.smt.bitblast.CnfSkeleton`) through the attached
    #: cache: the complete backend looks a canonical conjunct list up
    #: before translating and stores the translation after, so a warm run
    #: (or a sibling query in this one) skips the Tseitin step entirely.
    #: The replayed CNF is the same formula the fresh path would build, so
    #: statuses and models are identical
    #: (``repro campaign --no-cnf-skeletons`` disables it).
    enable_cnf_skeletons: bool = True

    def fingerprint(self) -> Tuple:
        """The knobs a cached verdict depends on.

        Part of every solver-cache key, and the validity stamp of a
        persistent :class:`~repro.smt.cachestore.CacheStore` — results
        computed under different budgets must never be conflated, within a
        run or across runs.  The incremental knobs are included because
        they steer *which* model a heuristic layer lands on (never the
        status), and cached models must stay deterministic per
        configuration.  Primitives only, so it survives a JSON round trip
        unchanged.
        """
        sampler = self.sampler
        return (
            self.enable_bitblast,
            self.bitblast_max_conflicts,
            self.bitblast_max_width,
            self.heuristic_max_checks,
            self.seed,
            sampler.random_attempts_per_sample,
            sampler.hill_climb_steps,
            sampler.seed,
            sampler.boundary_bias,
            sampler.perturbation_attempts,
            self.enable_decomposition,
            self.enable_sessions,
            self.enable_unsat_cores,
            self.reuse_sessions,
            self.enable_cnf_skeletons,
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

#: Signature of the complete-backend hook: conjuncts -> (status, model).
BitblastFn = Callable[[Sequence[Term]], Tuple[str, Optional[Model]]]


class _TrackedBackend:
    """Record whether a complete-backend hook produced a *tainted* verdict.

    Stored cache verdicts must be a pure function of the canonical system —
    that is what makes cached answers schedule- and run-independent.  A
    verdict derived through a *session's* incremental CDCL is not: the
    solver retains learned clauses, activities and phases from earlier
    checks, so the result depends on the session's private (but per-caller
    deterministic) history.  The store sites wrap the hook and skip caching
    any verdict whose derivation flowed through tainted state; verdicts
    decided by the pure layers, answered from the cache, or re-derived by
    the session's *fresh-solve fallbacks* (width clash, resource limits,
    budget exhaustion) are pure and remain storable.

    Taint is reported per call by the wrapped hook through its
    ``last_call_tainted`` attribute (unknown callables are conservatively
    treated as tainted) and propagates through nested wrappers, so a
    component-level tainted call also marks the enclosing whole-query
    wrapper.

    The wrapper also forwards the hook's per-call ``last_call_core`` (the
    UNSAT-core terms of a session's assumption-based CDCL, in the space of
    the conjuncts passed to that call), so core extraction survives the
    cache/decomposition plumbing between the session and the portfolio.
    """

    __slots__ = ("fn", "used", "last_call_tainted", "last_call_core")

    def __init__(self, fn: BitblastFn) -> None:
        self.fn = fn
        self.used = False
        self.last_call_tainted = False
        self.last_call_core: Optional[Tuple[Term, ...]] = None

    def __call__(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        result = self.fn(conjuncts)
        self.last_call_tainted = getattr(self.fn, "last_call_tainted", True)
        self.last_call_core = getattr(self.fn, "last_call_core", None)
        self.used = self.used or self.last_call_tainted
        return result

    @classmethod
    def wrap(cls, fn: Optional[BitblastFn]) -> Optional["_TrackedBackend"]:
        return None if fn is None else cls(fn)


class PortfolioSolver:
    """Layered QF_BV solver: simplify → intervals → heuristics → sampling → CDCL.

    When a :class:`~repro.smt.cache.SolverCache` is supplied, queries are
    canonicalized (alpha-renamed over the hash-consed DAG) and the portfolio
    decides the canonical representative, so alpha-equivalent queries from
    sibling sites and repeated enforcement iterations share one verdict —
    at whole-query granularity first, then per connected component.
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
        with TRACER.span("solve", session=False) as span:
            mark = METRICS.counter("solver.cdcl_propagations").value
            started = time.perf_counter()
            self.query_count += 1
            METRICS.counter("solver.queries").inc()
            constraint_list = [simplify(c) for c in constraints]
            stages: List[str] = []

            try:
                # Layer 1: simplification may already decide the query.
                stages.append("simplify")
                decided = self._decide_by_simplification(constraint_list)
                if decided is not None:
                    return self._finish(decided, started, stages)

                conjuncts: List[Term] = []
                for constraint in constraint_list:
                    conjuncts.extend(split_conjuncts(constraint))

                if self.cache is not None:
                    return self._check_cached(conjuncts, started, stages)
                return self._finish(
                    self._solve_conjuncts(conjuncts, stages), started, stages
                )
            finally:
                # Propagation-loop work attributed to this solve, so trace
                # reports can rank queries by SAT-core effort, not just wall.
                span.attrs["propagations"] = (
                    METRICS.counter("solver.cdcl_propagations").value - mark
                )

    def open_session(self) -> "SolverSession":
        """Create an incremental push/pop session backed by this solver.

        Sessions are classification-transparent (same statuses as
        :meth:`check`, possibly different models) and not thread-safe;
        see :class:`SolverSession` for the full contract.
        """
        return SolverSession(self)

    def _check_session(self, session: "SolverSession") -> SolverResult:
        """Decide a session's conjunction (see :meth:`SolverSession.check`)."""
        with TRACER.span("solve", session=True) as span:
            mark = METRICS.counter("solver.cdcl_propagations").value
            started = time.perf_counter()
            self.query_count += 1
            METRICS.counter("solver.queries").inc()
            METRICS.counter("solver.session_checks").inc()
            stages: List[str] = ["simplify"]
            conjuncts = list(session.conjuncts)

            try:
                decided = self._decide_by_simplification(conjuncts)
                if decided is not None:
                    return self._finish(decided, started, stages)
                if self.cache is not None:
                    return self._check_cached(
                        conjuncts, started, stages, bitblast_fn=session
                    )
                return self._finish(
                    self._solve_conjuncts(conjuncts, stages, session),
                    started,
                    stages,
                )
            finally:
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
        started: float,
        stages: List[str],
        bitblast_fn: Optional[BitblastFn] = None,
    ) -> SolverResult:
        """Answer the query through the shared cache.

        Hit or miss, the verdict is derived from the *canonical
        representative* of the query, so the answer is a pure function of
        the canonical system — independent of worker scheduling and of
        which alpha-variant of the system was solved first.
        """
        stages.append("cache")
        result = self._solve_through_cache(
            conjuncts,
            stages,
            bitblast_fn,
            lookup=self.cache.lookup,
            store=self.cache.store,
            reason="cache",
            solve=self._solve_conjuncts,
        )
        return self._finish(result, started, stages)

    def _solve_through_cache(
        self,
        conjuncts: List[Term],
        stages: List[str],
        bitblast_fn: Optional[BitblastFn],
        *,
        lookup,
        store,
        reason: str,
        solve,
    ) -> SolverResult:
        """The cache protocol shared by both granularities.

        Canonicalize, look up (verifying any translated SAT model against
        the actual conjuncts — a failure is treated as a miss and
        re-derived), solve the canonical representative on a miss, store
        the verdict unless the (history-dependent) session backend was
        actually invoked, and translate the answer back.  ``lookup`` /
        ``store`` select the whole-query or component table; ``solve``
        decides the canonical conjuncts (the decomposing pipeline for
        whole queries, the monolithic portfolio for one component).
        """
        system = self.cache.canonicalize(conjuncts, self._config_fingerprint())
        cached = lookup(system)
        if cached is not None:
            if cached.status != SolverStatus.SAT:
                stages.extend(cached.stages)
                return SolverResult(cached.status, reason=reason)
            model = system.translate_model(cached.canonical_model)
            if all(satisfies(c, model) for c in conjuncts):
                stages.extend(cached.stages)
                return SolverResult(
                    SolverStatus.SAT, model=model, reason=reason
                )
            # A stored model that does not survive translation means the
            # canonicalization missed a distinction; fall through and
            # re-derive (and overwrite) the entry.
            self.cache.note_invalid_hit()

        if self.config.enable_unsat_cores:
            # A stored canonical core whose conjuncts are a subset of this
            # system's is a proof: asserting a superset of a jointly
            # infeasible set stays infeasible.  Answer UNSAT without
            # solving and store the verdict like any other derivation
            # (it is a pure function of the canonical system).
            core = self.cache.match_core(system)
            if core is not None:
                stages.append("core-subsumed")
                store(
                    system,
                    CachedVerdict(
                        status=SolverStatus.UNSAT,
                        canonical_model=None,
                        reason="core-subsumed",
                        stages=("core-subsumed",),
                    ),
                )
                return SolverResult(
                    SolverStatus.UNSAT,
                    reason="core-subsumed",
                    unsat_core=_translate_core(
                        core, system.conjuncts, conjuncts
                    ),
                )

        mark = len(stages)
        tracked = _TrackedBackend.wrap(bitblast_fn)
        canonical_result = solve(list(system.conjuncts), stages, tracked)
        if (
            canonical_result.is_unsat
            and canonical_result.unsat_core
            and self.config.enable_unsat_cores
        ):
            # Cores are sound whatever derived them (even a session's
            # history-dependent CDCL: the certificate is about the terms,
            # not the search), so record them even for tainted verdicts.
            self.cache.add_core(system.key[0], canonical_result.unsat_core)
        if tracked is None or not tracked.used:
            store(
                system,
                CachedVerdict(
                    status=canonical_result.status,
                    canonical_model=canonical_result.model,
                    reason=canonical_result.reason,
                    stages=tuple(stages[mark:]),
                ),
            )
        result = SolverResult(
            canonical_result.status, reason=canonical_result.reason
        )
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

    def _config_fingerprint(self) -> Tuple:
        """The configuration knobs a cached verdict depends on."""
        return self.config.fingerprint()

    # ------------------------------------------------------------------
    # Decomposed solving
    # ------------------------------------------------------------------
    def _solve_conjuncts(
        self,
        conjuncts: List[Term],
        stages: List[str],
        bitblast_fn: Optional[BitblastFn] = None,
    ) -> SolverResult:
        """Decide a simplified, split conjunction, decomposing if enabled.

        A single-component conjunction (the common case for enforcement
        queries, whose branch constraints all share variables with the
        target constraint) takes exactly the monolithic pipeline; a
        multi-component one is decided component-by-component and the
        models composed.  UNSAT in any component is UNSAT overall; an
        undecided component degrades the whole query to UNKNOWN unless
        some other component proves UNSAT.
        """
        if not self.config.enable_decomposition:
            return self._run_portfolio(conjuncts, stages, bitblast_fn)
        components = decompose(conjuncts)
        if len(components) <= 1:
            return self._solve_component(conjuncts, stages, bitblast_fn)

        stages.append("decompose")
        models: List[Model] = []
        unknown: Optional[SolverResult] = None
        for component in components:
            component_stages: List[str] = []
            result = self._solve_component(
                list(component.conjuncts), component_stages, bitblast_fn
            )
            for stage in component_stages:
                if stage not in stages:
                    stages.append(stage)
            if result.is_unsat:
                # The UNSAT component's core (or, failing that, its whole
                # conjunct list) is already a core of the whole query.
                return SolverResult(
                    SolverStatus.UNSAT,
                    reason=result.reason,
                    unsat_core=result.unsat_core or tuple(component.conjuncts),
                )
            if not result.is_sat:
                # Keep scanning: an UNSAT in a later component still decides
                # the whole query even when this one timed out.
                unknown = unknown or result
                continue
            models.append(result.model)
        if unknown is not None:
            return SolverResult(SolverStatus.UNKNOWN, reason=unknown.reason)

        composed = compose_models(models)
        try:
            if all(satisfies(c, composed) for c in conjuncts):
                return SolverResult(
                    SolverStatus.SAT, model=composed, reason="decompose"
                )
        except EvaluationError:
            pass
        # Composition can only fail if a component model was partial in a
        # way the component verification missed; fall back to the
        # monolithic pipeline rather than guessing.
        return self._run_portfolio(conjuncts, stages, bitblast_fn)

    def _solve_component(
        self,
        conjuncts: List[Term],
        stages: List[str],
        bitblast_fn: Optional[BitblastFn] = None,
    ) -> SolverResult:
        """Decide one connected component, through the component cache.

        The conjuncts are re-canonicalized even when they arrive already in
        whole-canonical form: first-application canonicalization is *not* a
        normal form (the commutative-operand tiebreak compares variable
        names, which the rename just changed), and the component key
        convention is the re-canonicalized one — the same convention every
        embedding of this component in any whole query computes, which is
        what makes cross-query component sharing line up.
        """
        if self.cache is None:
            return self._run_portfolio(conjuncts, stages, bitblast_fn)
        return self._solve_through_cache(
            conjuncts,
            stages,
            bitblast_fn,
            lookup=self.cache.lookup_component,
            store=self.cache.store_component,
            reason="component-cache",
            solve=self._run_portfolio,
        )

    # ------------------------------------------------------------------
    # The layered portfolio
    # ------------------------------------------------------------------
    def _run_portfolio(
        self,
        conjuncts: List[Term],
        stages: List[str],
        bitblast_fn: Optional[BitblastFn] = None,
    ) -> SolverResult:
        """Layers 2-5 over an already simplified, split conjunction."""
        variables = self._collect_variables(conjuncts)
        widths = {str(v.name): v.width for v in variables}

        # Layer 2: interval propagation (UNSAT proofs + bounds for later layers).
        stages.append("intervals")
        feasible, bounds = propagate_intervals(conjuncts, widths)
        if not feasible:
            # The contractor does not explain which conjuncts emptied the
            # box; the full (component-granularity) conjunct list is still
            # a sound core.
            return SolverResult(
                SolverStatus.UNSAT,
                reason="interval propagation",
                unsat_core=tuple(conjuncts),
            )
        point_model = self._point_model_if_determined(variables, bounds)
        if point_model is not None and all(
            satisfies(c, point_model) for c in conjuncts
        ):
            return SolverResult(
                SolverStatus.SAT, model=point_model, reason="interval point"
            )

        whole = b.band(*conjuncts) if conjuncts else b.TRUE

        # Layer 3: algebraic extreme-point heuristics.
        stages.append("heuristics")
        model = try_algebraic_solution(
            whole, variables, max_checks=self.config.heuristic_max_checks
        )
        if model is not None:
            return SolverResult(SolverStatus.SAT, model=model, reason="heuristics")

        # Layer 4: guided sampling.
        stages.append("sampling")
        sampler = ModelSampler(
            whole,
            variables,
            config=self.config.sampler,
            fallback_solve=None,
        )
        model = sampler.sample_one()
        if model is not None:
            return SolverResult(SolverStatus.SAT, model=model, reason="sampling")

        # Layer 5: complete bit-blasting backend.
        if self.config.enable_bitblast and self._blastable(conjuncts):
            stages.append("bitblast")
            status, model = (bitblast_fn or self._bitblast)(conjuncts)
            if status == SatStatus.SAT and model is not None:
                restricted = model.restricted_to(widths)
                return SolverResult(
                    SolverStatus.SAT, model=restricted, reason="bitblast"
                )
            if status == SatStatus.UNSAT:
                core = (
                    getattr(bitblast_fn, "last_call_core", None)
                    if bitblast_fn is not None
                    else None
                )
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

    @staticmethod
    def _point_model_if_determined(
        variables: Sequence[Term], bounds: Dict[str, Interval]
    ) -> Optional[Model]:
        model = Model()
        for variable in variables:
            interval = bounds.get(str(variable.name))
            if interval is None or not interval.is_point:
                return None
            model[str(variable.name)] = interval.lo
        return model if len(model) == len(variables) else None

    def _blastable(self, conjuncts: Sequence[Term]) -> bool:
        node_budget = 4000
        wide_multiplications = 0
        nodes = 0
        for conjunct in conjuncts:
            for term in conjunct.subterms():
                nodes += 1
                if nodes > node_budget:
                    return False
                if term.is_bv and term.width > self.config.bitblast_max_width:
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
        if self.cache is not None and self.config.enable_cnf_skeletons:
            via_skeleton = self._bitblast_via_skeleton(conjuncts)
            if via_skeleton is not None:
                return via_skeleton
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

    def _bitblast_via_skeleton(
        self, conjuncts: Sequence[Term]
    ) -> Optional[Tuple[str, Optional[Model]]]:
        """Complete backend through the cache's CNF-skeleton table.

        Only *already-canonical* conjunct lists are eligible (the cached
        pipeline always hands the backend canonical conjuncts; the check
        is a cheap memoized re-canonicalization).  For those, blasting is
        a pure function of the interned conjunct list, so a stored
        skeleton rebuilds the exact CNF the fresh path would build —
        identical CDCL run, identical status and model, minus the Tseitin
        translation.  Returns ``None`` to defer to the fresh one-shot
        path: a non-canonical conjunct list (a session fallback in caller
        space), or a replayed model that fails verification (a plumbing
        regression must degrade to re-derivation, not a wrong model).
        """
        system = self.cache.canonicalize(
            list(conjuncts), self._config_fingerprint()
        )
        if system.conjuncts != tuple(conjuncts):
            return None
        skeleton = self.cache.lookup_cnf(system.conjuncts)
        started = time.perf_counter()
        if skeleton is None:
            try:
                blaster = BitBlaster()
                blaster.assert_all(system.conjuncts)
            except (BitBlastError, RecursionError, MemoryError):
                _record_bitblast(started, None)
                return SatStatus.UNKNOWN, None
            skeleton = blaster.skeleton()
            if self.cache.store_cnf(system.conjuncts, skeleton):
                METRICS.counter("solver.skeleton_stores").inc()
            cnf = blaster.cnf
        else:
            METRICS.counter("solver.skeleton_hits").inc()
            cnf = skeleton.build_cnf()
        try:
            result = CDCLSolver(
                cnf, max_conflicts=self.config.bitblast_max_conflicts
            ).solve()
        except (RecursionError, MemoryError):
            _record_bitblast(started, None)
            return SatStatus.UNKNOWN, None
        _record_bitblast(started, result)
        if result.status != SatStatus.SAT:
            return result.status, None
        model = skeleton.extract_model(result)
        try:
            if all(satisfies(c, model) for c in conjuncts):
                return SatStatus.SAT, model
        except EvaluationError:
            pass
        return None


class SolverSession:
    """An incremental solving session over one :class:`PortfolioSolver`.

    The session holds a stack of conjuncts manipulated with :meth:`push` /
    :meth:`pop` and decided with :meth:`check`; the enforcement loop pushes
    the target constraint once and then one branch-constraint delta per
    iteration instead of rebuilding (and re-simplifying, re-splitting,
    re-blasting) the whole conjunction list every time.

    The cheap portfolio layers and both cache granularities behave exactly
    as in :meth:`PortfolioSolver.check`; what is incremental is the
    complete backend: one persistent :class:`BitBlaster` translates only
    the conjuncts it has not seen before (terms are hash-consed, and
    canonicalized prefixes are stable across growing queries), and one
    persistent :class:`CDCLSolver` keeps its learned clauses, variable
    activity and saved phases across checks, asserting the current
    conjuncts through per-call assumptions.  Classification parity with
    the fresh-query path is the invariant: the incremental backend may
    find a different *model* but must not change the *status*.  SAT and
    UNSAT are semantic, so they can never flip; the one principled gap is
    the conflict-budget boundary, where inherited search state could make
    a timeout land differently — a session CDCL timeout therefore retries
    the pure one-shot backend (never less complete than fresh), and the
    registry-wide parity gates in the tests and ``bench_solver.py`` check
    the equality empirically.

    Sessions are not thread-safe; each worker drives its own.
    """

    def __init__(self, solver: PortfolioSolver) -> None:
        self.solver = solver
        self.check_count = 0
        #: Whether the most recent complete-backend call's verdict depended
        #: on session state (see :class:`_TrackedBackend`): ``True`` when
        #: the incremental CDCL decided it, ``False`` when a cheap layer
        #: or one of the fresh-solve fallbacks did.
        self.last_call_tainted = False
        #: UNSAT core of the most recent complete-backend call, as a subset
        #: of the conjunct terms that call received (``None`` unless the
        #: incremental CDCL returned UNSAT with cores enabled).  Read by
        #: the portfolio right after the call, like ``last_call_tainted``.
        self.last_call_core: Optional[Tuple[Term, ...]] = None
        self._conjuncts: List[Term] = []
        self._frames: List[int] = []
        self._blaster: Optional[BitBlaster] = None
        self._cdcl: Optional[CDCLSolver] = None
        #: name -> width of every bitvector variable the persistent blaster
        #: has seen.  The blaster keys variable bit-vectors by *name*, but
        #: component-canonical names restart at ``v000`` per component, so
        #: two components can reuse one name at different widths; such a
        #: clash must not reach (and corrupt) the shared blaster.
        self._var_widths: Dict[str, int] = {}

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
        return self.solver._check_session(self)

    # ------------------------------------------------------------------
    def __call__(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        """The session *is* its complete-backend hook (see ``_bitblast``)."""
        return self._bitblast(conjuncts)

    def _bitblast(self, conjuncts: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        """Complete-backend hook: delta-blast + assumption-based CDCL.

        When a conjunct reuses a variable *name* the persistent blaster has
        already allocated at a different width (component-canonical names
        restart at ``v000`` per component), the call falls back to a fresh
        one-shot blast: the per-name bit-vectors of the shared blaster
        cannot represent both widths, and a collision would wrongly degrade
        a decidable query to UNKNOWN.
        """
        self.last_call_tainted = False
        self.last_call_core = None
        if self._width_clash(conjuncts):
            return self.solver._bitblast(conjuncts)
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
            # current (smaller) conjunction alone would not; same policy
            # as the budget case below — retry fresh.
            _record_bitblast(started, None)
            return self.solver._bitblast(conjuncts)
        _record_bitblast(started, result)
        if result.status == SatStatus.UNKNOWN:
            # The per-call conflict budget ran out under the session's
            # inherited search state (learned clauses, activities, phases).
            # Retry once with the pure one-shot backend: a session must
            # never be *less* complete than the fresh-query path.
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

    def _width_clash(self, conjuncts: Sequence[Term]) -> bool:
        """Whether ``conjuncts`` reuse a seen variable name at a new width.

        On no clash, the conjuncts' variables are recorded as seen.  The
        name keeps its first-seen width for the session's lifetime: the
        blaster's per-name bit-vectors can hold only one width, so later
        queries using the other width take the fresh one-shot backend —
        first width wins the incremental machinery, correctness never
        depends on which.
        """
        variables = [
            variable
            for conjunct in conjuncts
            for variable in conjunct.variables()
            if variable.is_bv
        ]
        for variable in variables:
            known = self._var_widths.get(str(variable.name))
            if known is not None and known != variable.width:
                return True
        for variable in variables:
            self._var_widths[str(variable.name)] = variable.width
        return False
