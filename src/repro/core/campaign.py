"""The parallel analysis campaign engine.

``Diode.analyze`` walks one application's target sites strictly serially.
A *campaign* instead treats every seed-path group — the sites of one
application that share relevant input bytes — as one independent unit
of work and hands the unit list to a pluggable execution backend
(:mod:`repro.sched`): ``serial`` (the deterministic reference
schedule), ``thread`` (a work queue sharing one in-process cache) or
``process`` (real CPU parallelism over a process pool, with per-worker
caches merged back into the parent).  Every unit's
solver is backed by a shared :class:`~repro.smt.cache.SolverCache`, and
every term keeps its simplified form, so enforcement iterations and
sibling sites stop re-deriving work.  Units solve incrementally (one
:class:`~repro.smt.solver.SolverSession` per site); the cache carries
whole-query verdicts through every backend — the process backend ships
them as wire-format deltas.

With a ``cache_dir``, the campaign also warm-starts across runs: the
solver cache is loaded from a persistent
:class:`~repro.smt.cachestore.CacheStore` before the units run (verified
against the store format version and the solver-configuration
fingerprint) and saved back afterwards, so a second campaign answers most
of its queries from the first one's verdicts.

Discovered overflows flow through the witness-triage subsystem
(:mod:`repro.triage`): every bug report is re-validated by a concrete
overflow-witness run, minimized (ddmin over the triggering field values),
and collapsed onto its canonical signature, so the campaign reports
*distinct verified* witnesses — the paper's Table-2 notion — instead of
per-run rediscoveries.  Each unit triages its own reports on every
backend (:func:`~repro.sched.base.analyze_unit`); the campaign only folds
the records into its dedup table, in registry order.  With a
``corpus_dir`` the deduplicated witnesses persist across runs
(merge-on-save, so parallel campaigns converge), and
``skip_known`` lets a warm campaign replay a stored witness per site —
one cheap concrete run — instead of re-deriving it through the
enforcement loop; a witness that no longer replays falls back to full
analysis, which keeps the skip parity-safe.

Structure of a run:

1. build the application models (registry order) and, per application, the
   shared immutable collaborators — one :class:`ErrorDetector` seed run and
   one :class:`FieldMapper` instead of one per site;
2. identify target sites per application (the taint stage, timed as the
   paper's analysis phase);
3. group each application's sites still to analyze (after ``skip_known``)
   by relevant bytes and hand one :class:`~repro.sched.base.CampaignUnit`
   per seed-path group to the resolved backend, which schedules the
   groups over its workers; a group's sites run
   :func:`repro.core.engine.analyze_site` one after another, sharing one
   concolic run, one set of branch constraints and one witness run per
   distinct enforcement candidate (:mod:`repro.core.group`), then the
   unit triages its bug reports;
4. deduplicate the witness records, reassemble per-application
   :class:`ApplicationResult` records in registry order and aggregate the
   Table-1 / Table-2 report.

Determinism: units are pure (see :func:`~repro.core.engine.analyze_site`)
and results are slotted by (application, site) index, so the report is
identical for any backend and worker count; a group's shared work is
scoped to its task, so the unit-side run counts are too.  The shared
cache preserves this because a cached verdict is always derived from the
query's canonical representative — a pure function of the query, not of
scheduling order or of which run originally derived it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.apps.registry import application_names, build_applications
from repro.core.engine import DiodeConfig
from repro.core.group import seed_path_groups
from repro.core.report import (
    ApplicationResult,
    OverflowBugReport,
    SiteClassification,
    SiteResult,
)
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, JsonlSink, ensure_trace_dir
from repro.sched import (
    ApplicationContext,
    CampaignUnit,
    UnitAnalysisError,
    UnitRunRequest,
    build_application_context,
    get_backend,
)
from repro.smt.cache import SolverCache, SolverCacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at call time: repro.triage imports repro.core
    # submodules, so a module-scope import here would be circular; the
    # stores load only when a campaign has a directory to persist to.
    from repro.sched.base import Slot
    from repro.smt.cachestore import CacheStore
    from repro.triage.corpus import WitnessRecord
    from repro.triage.engine import TriageStats

__all__ = [
    "CampaignConfig",
    "CampaignEngine",
    "CampaignResult",
    "CampaignUnit",
    "UnitAnalysisError",
    "run_campaign",
]


@dataclass
class CampaignConfig:
    """Configuration for one campaign run."""

    diode: DiodeConfig = field(default_factory=DiodeConfig)
    #: Workers; ``None`` means one per CPU, ``1`` forces the deterministic
    #: serial schedule for the ``thread`` backend (no executor at all).
    jobs: Optional[int] = None
    #: Share a solver-result cache across units.  Simplification is always
    #: reused: each term keeps its own simplified form.
    use_cache: bool = True
    #: Application short names to analyze; ``None`` means the whole registry.
    applications: Optional[Sequence[str]] = None
    #: Execution backend name (see :func:`repro.sched.available_backends`).
    backend: str = "thread"
    #: Directory of the persistent cross-run solver-cache store; ``None``
    #: disables persistence.  Requires ``use_cache``.
    cache_dir: Optional[str] = None
    #: Write the (possibly warm-started) cache back to ``cache_dir`` after
    #: the run.  Ignored without a ``cache_dir``.
    save_cache: bool = True
    #: Run the witness-triage pass (:mod:`repro.triage`): re-validate,
    #: minimize and deduplicate every discovered overflow.  Required for a
    #: ``corpus_dir``.
    triage: bool = True
    #: Directory of the persistent witness corpus; ``None`` keeps triage
    #: in-memory for this run only.
    corpus_dir: Optional[str] = None
    #: Merge this run's witnesses back into ``corpus_dir`` after the run.
    save_corpus: bool = True
    #: Minimize witnesses (ddmin + shrink-toward-baseline) before signing.
    minimize_witnesses: bool = True
    #: Replay a fresh corpus witness per site instead of re-deriving it
    #: through enforcement; sites whose witness no longer replays fall back
    #: to full analysis.  Requires ``corpus_dir``.
    skip_known: bool = False
    #: Directory receiving this run's structured trace (``meta.json`` plus
    #: one ``spans-<pid>.jsonl`` per participating process; see
    #: :mod:`repro.obs.trace`).  ``None`` disables the trace sink — stage
    #: duration histograms in :data:`repro.obs.metrics.METRICS` are
    #: recorded either way.  Rendered afterwards by ``repro trace``.
    trace_dir: Optional[str] = None

    def resolved_jobs(self) -> int:
        if self.jobs is None:
            return max(1, os.cpu_count() or 1)
        return max(1, self.jobs)

    def resolved_backend(self) -> str:
        """The backend that will actually run, after the serial fallback.

        A single-worker ``thread`` pool is pure overhead, so ``jobs <= 1``
        degrades it to ``serial``.  An explicit ``process`` request is
        honoured even at one worker — the caller asked for process
        isolation (and its pickling path), not for speed.
        """
        get_backend(self.backend)  # one source of name validation
        if self.backend == "thread" and self.resolved_jobs() <= 1:
            return "serial"
        return self.backend

    def registry_names(self) -> List[str]:
        """Registry short names analyzed by this campaign, in order."""
        if self.applications is None:
            return application_names()
        return list(self.applications)


@dataclass
class CampaignResult:
    """Aggregate outcome of a campaign over many applications."""

    application_results: List[ApplicationResult]
    wall_seconds: float
    jobs: int
    cache_enabled: bool
    #: Sites analyzed by the backend (corpus-replayed sites excluded).
    unit_count: int
    cache_stats: Optional[SolverCacheStats] = None
    backend: str = "thread"
    #: Entries warm-started from the persistent store (0 on a cold run).
    cache_loaded: int = 0
    #: Entries written back to the persistent store (0 when not saving).
    cache_saved: int = 0
    #: Aggregate witness-triage outcome (``None`` when triage is disabled).
    triage_stats: Optional["TriageStats"] = None
    #: This run's deduplicated witnesses, in registry order.
    witness_records: List["WitnessRecord"] = field(default_factory=list)
    #: Witnesses warm-started from the persistent corpus (0 on a cold run).
    corpus_loaded: int = 0
    #: Total witnesses in the corpus after the post-run merge (0 when not
    #: persisting).
    corpus_saved: int = 0
    #: Sites answered by replaying a corpus witness instead of enforcement.
    skipped_known: int = 0
    #: Wire-form delta of the campaign-wide metrics registry
    #: (:data:`repro.obs.metrics.METRICS`) across the run — stage timers,
    #: store activity, the ``solver.*`` counters and the ``events.*``
    #: counts (unit lifecycle, store lock waits).  Process-backend
    #: workers are included: each unit ships its registry delta back beside
    #: its cache delta and the parent merges them, so counter totals are
    #: identical for any backend and worker count on schedule-independent
    #: workloads.
    metrics: Optional[dict] = None

    # ------------------------------------------------------------------
    def table1_rows(self) -> List[Dict[str, int]]:
        """Per-application Table-1 rows, in campaign order."""
        return [result.table1_row() for result in self.application_results]

    def table1_totals(self) -> Dict[str, int]:
        """The Table-1 totals row across every application."""
        totals = {
            "total_target_sites": 0,
            "diode_exposes_overflow": 0,
            "target_constraint_unsatisfiable": 0,
            "sanity_checks_prevent_overflow": 0,
        }
        for result in self.application_results:
            for key, value in result.table1_row().items():
                totals[key] += value
        return totals

    def bug_reports(self) -> List[OverflowBugReport]:
        """Every Table-2 row discovered by the campaign."""
        reports: List[OverflowBugReport] = []
        for result in self.application_results:
            reports.extend(result.bug_reports())
        return reports

    def classifications(self) -> Dict[str, Dict[str, str]]:
        """application name -> site name -> classification value.

        The comparison format the tests use to assert that campaign output
        matches the serial ``Diode.analyze`` path exactly.
        """
        return {
            result.application: {
                site.site.name: site.classification.value
                for site in result.site_results
            }
            for result in self.application_results
        }


class CampaignEngine:
    """Fan a DIODE analysis out over applications and sites concurrently."""

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        """Run the campaign and return the aggregate report.

        With a ``trace_dir`` the run attaches a JSONL trace sink for its
        duration (the process backend additionally configures one per
        worker).  Observability is passive: the report is byte-identical
        with tracing on or off.
        """
        sink: Optional[JsonlSink] = None
        if self.config.trace_dir:
            ensure_trace_dir(self.config.trace_dir)
            sink = JsonlSink(self.config.trace_dir)
            TRACER.add_sink(sink)
        try:
            with TRACER.span(
                "campaign", backend=self.config.backend
            ):
                return self._run()
        finally:
            if sink is not None:
                TRACER.remove_sink(sink)
                sink.close()

    def _run(self) -> CampaignResult:
        started = time.perf_counter()
        if self.config.skip_known and not self.config.corpus_dir:
            raise ValueError("CampaignConfig.skip_known requires a corpus_dir")
        if self.config.corpus_dir and not self.config.triage:
            raise ValueError("CampaignConfig.corpus_dir requires triage")
        if self.config.cache_dir and not self.config.use_cache:
            raise ValueError("CampaignConfig.cache_dir requires use_cache")
        backend_name = self.config.resolved_backend()
        # The serial backend runs one unit at a time, whatever ``jobs`` asks.
        jobs = 1 if backend_name == "serial" else self.config.resolved_jobs()
        cache = SolverCache() if self.config.use_cache else None
        # Before the store loads, so the run's metrics count them.
        metrics_mark = METRICS.snapshot()

        store: Optional["CacheStore"] = None
        fingerprint = self.config.diode.solver_fingerprint()
        loaded = saved = 0
        if self.config.cache_dir:
            from repro.smt.cachestore import CacheStore

            store = CacheStore(self.config.cache_dir)
            loaded = store.load(cache, fingerprint)

        corpus_store = None
        corpus_records: Dict[str, "WitnessRecord"] = {}
        if self.config.triage and self.config.corpus_dir:
            from repro.triage.corpus import CorpusStore

            corpus_store = CorpusStore(self.config.corpus_dir)
            corpus_records = corpus_store.load()

        contexts = self._build_contexts()
        skipped: Dict["Slot", SiteResult] = {}
        adopted: Dict["Slot", "WitnessRecord"] = {}
        if self.config.skip_known and corpus_records:
            skipped, adopted = self._skip_known_sites(contexts, corpus_records)
        # One unit per seed-path group of the sites still to analyze.
        units = [
            CampaignUnit.for_sites(context, indices)
            for context in contexts
            for indices in seed_path_groups(
                context.sites,
                [
                    index
                    for index in range(len(context.sites))
                    if (context.index, index) not in skipped
                ],
            )
        ]
        request = UnitRunRequest(
            contexts=contexts,
            units=units,
            cache=cache,
            jobs=jobs,
            diode=self.config.diode,
            application_names=self.config.registry_names(),
            triage=self.config.triage,
            minimize_witnesses=self.config.minimize_witnesses,
            trace_dir=self.config.trace_dir,
        )
        for unit in units:
            for site_name in unit.site_names:
                TRACER.event(
                    "unit.queued",
                    application=unit.application_name,
                    site=site_name,
                    backend=backend_name,
                )
        site_results = get_backend(backend_name).run_units(request)
        site_results.update(skipped)

        if store is not None and self.config.save_cache:
            saved = store.save(cache, fingerprint)

        triage_stats: Optional["TriageStats"] = None
        run_records: Dict[str, "WitnessRecord"] = {}
        corpus_saved = 0
        if self.config.triage:
            triage_stats, run_records = self._triage_results(
                contexts, site_results, adopted
            )
            if corpus_store is not None and self.config.save_corpus:
                corpus_saved = corpus_store.save(run_records)

        application_results = []
        for context in contexts:
            result = ApplicationResult(
                application=context.application.name,
                seed_input=context.application.seed_input,
                analysis_seconds=context.analysis_seconds,
            )
            result.site_results.extend(
                site_results[(context.index, site_index)]
                for site_index in range(len(context.sites))
            )
            application_results.append(result)

        return CampaignResult(
            application_results=application_results,
            wall_seconds=time.perf_counter() - started,
            jobs=jobs,
            cache_enabled=self.config.use_cache,
            unit_count=sum(len(unit.site_indices) for unit in units),
            cache_stats=cache.stats if cache is not None else None,
            backend=backend_name,
            cache_loaded=loaded,
            cache_saved=saved,
            triage_stats=triage_stats,
            witness_records=list(run_records.values()),
            corpus_loaded=len(corpus_records),
            corpus_saved=corpus_saved,
            skipped_known=len(skipped),
            metrics=METRICS.delta(metrics_mark),
        )

    # ------------------------------------------------------------------
    def _build_contexts(self) -> List[ApplicationContext]:
        with TRACER.span("parse"):
            applications = build_applications(self.config.applications)
        return [
            build_application_context(index, application)
            for index, application in enumerate(applications)
        ]

    # ------------------------------------------------------------------
    def _skip_known_sites(
        self,
        contexts: List[ApplicationContext],
        corpus_records: Dict[str, "WitnessRecord"],
    ) -> Tuple[Dict["Slot", SiteResult], Dict["Slot", "WitnessRecord"]]:
        """Answer sites from the corpus where a stored witness still replays.

        A skipped site costs one concrete witness run instead of the full
        extraction + enforcement unit.  Replay failure (stale witness,
        unrebuildable fields) silently falls back to scheduling the site
        normally, so ``skip_known`` can only ever change *when* a site's
        classification is derived, not what it is — the parity property
        ``bench_triage.py`` gates.

        Also returns the matched record per skipped slot, so the triage
        pass adopts the already-minimized witness instead of re-minimizing
        it from scratch (which would spend the very concrete runs the skip
        saved).
        """
        from dataclasses import replace

        from repro.core.inputs import InputGenerator
        from repro.formats.spec import FormatError
        from repro.triage.corpus import STATUS_FRESH
        from repro.triage.engine import rebuild_witness_input

        skipped: Dict["Slot", SiteResult] = {}
        adopted: Dict["Slot", "WitnessRecord"] = {}
        for context in contexts:
            application = context.application
            candidates = [
                record
                for record in corpus_records.values()
                if record.application == application.name
            ]
            if not candidates:
                continue
            generator = InputGenerator(
                application.seed_input, application.format_spec
            )
            for site_index, site in enumerate(context.sites):
                matching = sorted(
                    (
                        record
                        for record in candidates
                        if record.matches_site(site.site_label, site.site_tag)
                    ),
                    key=lambda record: record.signature,
                )
                for record in matching:
                    replay_started = time.perf_counter()
                    try:
                        data = rebuild_witness_input(record, generator)
                    except (FormatError, ValueError):
                        continue
                    evaluation = context.detector.evaluate(data, site.site_label)
                    if not evaluation.triggers_overflow:
                        continue
                    discovery_seconds = time.perf_counter() - replay_started
                    report = OverflowBugReport(
                        application=application.name,
                        target=site.name,
                        cve=application.known_cves.get(site.name, record.cve),
                        error_type=evaluation.error_type(),
                        enforced_branches=record.enforced_branches,
                        relevant_branches=record.relevant_branches,
                        analysis_seconds=0.0,
                        discovery_seconds=discovery_seconds,
                        triggering_field_values=dict(record.field_values),
                        triggering_input=data,
                    )
                    skipped[(context.index, site_index)] = SiteResult(
                        site=site,
                        classification=SiteClassification.OVERFLOW_EXPOSED,
                        bug_report=report,
                        discovery_seconds=discovery_seconds,
                    )
                    # One fresh observation of the stored witness: the
                    # corpus merge re-adds the stored times_seen itself.
                    adopted[(context.index, site_index)] = replace(
                        record, times_seen=1, status=STATUS_FRESH
                    )
                    break
        return skipped, adopted

    # ------------------------------------------------------------------
    def _triage_results(
        self,
        contexts: List[ApplicationContext],
        site_results: Dict["Slot", SiteResult],
        adopted: Dict["Slot", "WitnessRecord"],
    ) -> Tuple["TriageStats", Dict[str, "WitnessRecord"]]:
        """Deduplicate every discovered overflow's witness record.

        Slots answered by corpus replay adopt their matched (already
        minimized, just re-validated) record; the rest carry the record
        their unit triaged (:func:`~repro.sched.base.analyze_unit`), or
        ``None`` when the report failed re-validation.  Records fold in
        application × site order, whatever order the units ran in.
        """
        from repro.triage.corpus import merge_records
        from repro.triage.engine import TriageStats

        stats = TriageStats()
        records: Dict[str, "WitnessRecord"] = {}
        for context in contexts:
            for site_index in range(len(context.sites)):
                slot = (context.index, site_index)
                result = site_results[slot]
                if result.bug_report is None:
                    continue
                stats.raw_reports += 1
                record = adopted.get(slot, result.witness)
                if record is None:
                    stats.validation_failures += 1
                    continue
                is_new = record.signature not in records
                records[record.signature] = merge_records(
                    records.get(record.signature), record
                )
                stats.register(record, is_new)
        return stats, records


def run_campaign(config: Optional[CampaignConfig] = None) -> CampaignResult:
    """Convenience wrapper: run one campaign with ``config``."""
    return CampaignEngine(config).run()
