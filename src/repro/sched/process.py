"""The process backend: real CPU parallelism over one long-lived process pool.

Terms are hash-consed with identity equality, so nothing containing a
:class:`~repro.smt.terms.Term` may cross the process boundary — a pickled
term would rebuild as a distinct, non-interned object and silently break
``is``-based equality.  The backend therefore ships only:

* **out**: slim :class:`~repro.sched.base.CampaignUnit` descriptors
  (primitives only; one per seed-path group, so a group's sites and the
  work they share never split across workers), each paired with its
  campaign's :class:`_CampaignToken`; a worker rebuilds the application
  model and its per-application collaborators from the registry short
  name, lazily and at most once per ⟨worker, application⟩ pair;
* **back**: one :class:`SiteResultPayload` record per site
  (classification value, bug report, timing — all term-free) plus the
  worker cache's *new* whole-query verdicts in the
  :mod:`repro.smt.cachestore` wire format, which the parent merges into
  the campaign cache so a persistent store (or a later run) sees every
  worker's derivations.  When the campaign enables triage, each site's
  bug report also comes back as a wire-form
  :class:`~repro.triage.corpus.WitnessRecord` (validated, minimized,
  signed *in the worker*, which parallelizes minimization's concrete
  re-validation runs); the parent collects them into
  ``request.witness_results`` for the campaign's corpus merge.  Each
  unit's result also carries the worker's metrics delta since its previous
  unit — stage timers, ``solver.*`` and the ``events.*`` lifecycle
  counts among them; the parent merges it, so without a shared cache the
  campaign totals equal the serial schedule's.  Nothing else crosses
  back: workers persist their own span and event records to
  ``<trace_dir>/spans-<pid>.jsonl``.

**One pool per parent process.**  The pool outlives a single
:meth:`ProcessBackend.run_units` call, so its workers keep their
process-lifetime caches across campaigns — interned terms, simplified
forms, compiled programs and concolic tables, plus the per-application
contexts (keyed by registry name: ``app_index`` follows each campaign's
application order) and triagers — as the serial backend's process does.
The pool is reused while its key matches: (worker count, start method,
a digest of the code bindings in ``repro.*``).  A fork-started worker
runs the parent's code as it was at fork time, so once anything callable
in a ``repro`` module namespace or ``repro`` class ``__dict__`` has been
rebound (``monkeypatch``, ``mock.patch``, a profiler's wrappers) the pool
is replaced.  A campaign that raises — a unit exception or a dead worker
— shuts the pool down and the next campaign forks a fresh one;
:func:`shutdown_pool` runs at exit, and every worker exits on its own
once its parent is gone, so no worker outlives the parent.

A worker that sees a new campaign token resets its per-campaign state
before taking its metrics mark: a fresh
:class:`~repro.smt.cache.SolverCache` primed with the parent cache's
contents at campaign start (the warm-start path when a ``--cache-dir``
store was loaded), a fresh exported-key set and stats mark, and its own
trace sink for the campaign's ``trace_dir``.  Per-unit cache-stats
deltas keep the campaign's aggregate cache statistics covering
worker-side lookups.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sched.base import (
    Backend,
    CampaignUnit,
    Slot,
    UnitRunRequest,
    analyze_unit,
    drain_futures,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import DiodeConfig
    from repro.core.report import OverflowBugReport, SiteResult
    from repro.core.sites import TargetSite
    from repro.sched.context import ApplicationContext

#: How often an idle or busy worker checks that its parent is still alive.
_PARENT_POLL_SECONDS = 0.5


@dataclass
class SiteResultPayload:
    """Picklable, term-free projection of a :class:`SiteResult`.

    Carries exactly what the campaign report consumes — the classification,
    the (already picklable) bug report and the discovery timing.  The
    parent re-attaches its own :class:`TargetSite` object when rebuilding,
    so sites never cross the pipe either.
    """

    classification: str
    discovery_seconds: float
    bug_report: Optional["OverflowBugReport"]

    @classmethod
    def from_site_result(cls, result: "SiteResult") -> "SiteResultPayload":
        return cls(
            classification=result.classification.value,
            discovery_seconds=result.discovery_seconds,
            bug_report=result.bug_report,
        )

    def to_site_result(self, site: "TargetSite") -> "SiteResult":
        from repro.core.report import SiteClassification, SiteResult

        return SiteResult(
            site=site,
            classification=SiteClassification(self.classification),
            bug_report=self.bug_report,
            discovery_seconds=self.discovery_seconds,
        )


@dataclass(frozen=True)
class _CampaignToken:
    """The per-campaign state a worker needs, shipped with every unit."""

    #: Unique per ``run_units`` call; a worker resets when it changes.
    generation: int
    #: Registry short names indexed by ``app_index``.
    application_names: Tuple[str, ...]
    diode: "DiodeConfig"
    use_cache: bool
    #: The parent cache's wire entries at campaign start, pickled once.
    seed_entries: bytes
    triage: bool
    minimize_witnesses: bool
    trace_dir: Optional[str]


class _WorkerState:
    """One worker's process-lifetime collaborators and its current campaign."""

    def __init__(self) -> None:
        self.generation: Optional[int] = None
        #: Registry name -> context; kept across campaigns.
        self.contexts: Dict[str, "ApplicationContext"] = {}
        #: ``(registry name, minimize)`` -> triager; kept across campaigns.
        self.triagers: Dict[Tuple[str, bool], object] = {}
        self.cache = None
        #: Cache keys already shipped to the parent (or seeded from it).
        self.exported_keys: set = set()
        self.stats_mark: Dict[str, int] = {}
        #: Registry wire mark for per-unit metrics deltas.
        self.metrics_mark: dict = {}
        #: The trace sink this worker attached for its campaign.
        self.sink: Optional[object] = None

    def begin(self, token: _CampaignToken) -> None:
        """Reset the per-campaign state for ``token``'s campaign."""
        from repro.obs.metrics import METRICS
        from repro.obs.trace import TRACER, JsonlSink
        from repro.smt.cache import SolverCache

        self.generation = token.generation
        self.cache = SolverCache() if token.use_cache else None
        self.exported_keys = set()
        self.stats_mark = {}
        if self.cache is not None and token.seed_entries:
            from repro.smt.cachestore import merge_wire_entries

            seed = pickle.loads(token.seed_entries)
            self.exported_keys.update(merge_wire_entries(self.cache, seed))

        # A fork-started worker inherits the parent's sink list, whose
        # already-open JSONL handle points at the *parent's* file —
        # emitting through it would write every worker record into the
        # parent's file as well as the worker's own.  Drop whatever is
        # attached (the parent owns inherited handles; the worker closes
        # its own from the previous campaign) before attaching this
        # campaign's per-process sink.
        TRACER.clear_sinks()
        if self.sink is not None:
            self.sink.close()
        self.sink = JsonlSink(token.trace_dir) if token.trace_dir else None
        if self.sink is not None:
            TRACER.add_sink(self.sink)
        self.metrics_mark = METRICS.snapshot()

    def context_for(self, name: str, app_index: int) -> "ApplicationContext":
        """Lazy per-⟨worker, application⟩ context.

        Its ``index`` is the campaign's that built it; workers look
        contexts up by registry name and never read the index.
        """
        context = self.contexts.get(name)
        if context is None:
            from repro.apps.registry import get_application
            from repro.sched.context import build_application_context

            context = build_application_context(app_index, get_application(name))
            self.contexts[name] = context
        return context

    def triager_for(
        self, name: str, context: "ApplicationContext", minimize: bool
    ):
        """Lazy per-⟨worker, application, minimize⟩ witness triager."""
        triager = self.triagers.get((name, minimize))
        if triager is None:
            from repro.triage.engine import WitnessTriager

            triager = WitnessTriager(
                context.application,
                detector=context.detector,
                minimize=minimize,
            )
            self.triagers[(name, minimize)] = triager
        return triager


_STATE: Optional[_WorkerState] = None


def _worker_init(parent_pid: Optional[int]) -> None:
    """Pool initializer: fresh worker state and the parent-death watch."""
    global _STATE
    _STATE = _WorkerState()
    expected = os.getppid() if parent_pid is None else parent_pid
    threading.Thread(
        target=_watch_parent, args=(expected,), name="parent-watch", daemon=True
    ).start()


def _watch_parent(parent_pid: int) -> None:
    """Exit the worker once ``parent_pid`` is no longer its parent.

    An orphan is reparented, so its ``getppid()`` changes when the parent
    dies.  The first check also covers the fork race: a parent killed
    between the fork and this thread's start is already gone.
    """
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _worker_run(token: _CampaignToken, unit: CampaignUnit) -> dict:
    """Analyze one unit in the worker and return what crosses back.

    One dict: ``payloads`` (site index -> term-free result),
    ``witnesses`` (site index -> wire-form witness record or ``None``, for
    the sites with a bug report when the campaign triages),
    ``cache_entries`` (new wire-format cache artifacts), ``cache_stats``
    (the cache counters' delta by name) and ``metrics`` (the registry
    delta since the previous unit).
    """
    from repro.obs.metrics import METRICS, diff_snapshots

    state = _STATE
    if state is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("process backend worker used before initialization")
    if state.generation != token.generation:
        state.begin(token)
    name = token.application_names[unit.app_index]
    context = state.context_for(name, unit.app_index)
    results = analyze_unit(unit, context, token.diode, state.cache, "process")

    cache_entries: List[dict] = []
    cache_stats: Dict[str, int] = {}
    if state.cache is not None:
        from repro.smt.cachestore import export_wire_entries

        cache_entries, keys = export_wire_entries(
            state.cache, exclude=state.exported_keys
        )
        state.exported_keys.update(keys)
        mark = state.cache.stats_snapshot()
        cache_stats = {
            field: value - state.stats_mark.get(field, 0)
            for field, value in mark.items()
        }
        state.stats_mark = mark

    witnesses: Dict[int, Optional[dict]] = {}
    if token.triage:
        for (_, site_index), result in results.items():
            if result.bug_report is None:
                continue
            record = state.triager_for(
                name, context, token.minimize_witnesses
            ).triage(
                context.sites[site_index], result.bug_report, result.enforcement
            )
            witnesses[site_index] = None if record is None else record.to_wire()

    # Last, so the delta also covers triage/cache work done above.
    snapshot = METRICS.snapshot()
    metrics = diff_snapshots(state.metrics_mark, snapshot)
    state.metrics_mark = snapshot
    return {
        "payloads": {
            site_index: SiteResultPayload.from_site_result(result)
            for (_, site_index), result in results.items()
        },
        "witnesses": witnesses,
        "cache_entries": cache_entries,
        "cache_stats": cache_stats,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# The parent's pool
# ----------------------------------------------------------------------
class _Pool:
    """The parent's one live executor and the key it was forked under."""

    def __init__(self) -> None:
        self.executor: Optional[ProcessPoolExecutor] = None
        self.key: Optional[tuple] = None
        #: Held for a whole campaign: concurrent process campaigns in one
        #: parent take turns on the pool instead of resetting each
        #: other's workers.
        self.lock = threading.RLock()

    def executor_for(self, workers: int) -> ProcessPoolExecutor:
        """The live executor for ``workers``, replacing a stale or dead one."""
        method = multiprocessing.get_start_method()
        key = (os.getpid(), workers, method, _code_digest())
        if self.executor is not None and self.key[0] != key[0]:
            # Inherited through a fork: the pool belongs to our parent.
            self.executor = None
        if self.executor is not None and (
            self.key != key or not _all_workers_alive(self.executor)
        ):
            self.shutdown()
        if self.executor is None:
            # A forkserver-started worker's parent is the fork server,
            # which exits with this process; the worker watches that.
            parent_pid = None if method == "forkserver" else os.getpid()
            self.executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(method),
                initializer=_worker_init,
                initargs=(parent_pid,),
            )
            self.key = key
        return self.executor

    def shutdown(self) -> None:
        executor, self.executor, self.key = self.executor, None, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


_POOL = _Pool()

#: Campaign generations, unique for this parent's lifetime.
_GENERATIONS = itertools.count(1)


def shutdown_pool() -> None:
    """Stop the live worker pool, if any; the next campaign forks a new one."""
    with _POOL.lock:
        _POOL.shutdown()


atexit.register(shutdown_pool)


def _code_digest() -> int:
    """Digest of every callable bound in a ``repro`` module or class.

    Identity-based: rebinding any function, method or class (a patch, a
    wrapper) changes it; plain data such as counters and caches does not
    count.  Modules that load on first use are imported first — the ones
    the workers import, and the ones a serial campaign never loads (the
    CDCL stack, the thread backend, the baselines, the trace reader) — so
    neither a campaign's own first imports nor the parent's later first use
    of such a module changes the digest of the next campaign.
    """
    import repro.core.baselines  # noqa: F401
    import repro.core.engine  # noqa: F401
    import repro.obs.report  # noqa: F401
    import repro.sched.context  # noqa: F401
    import repro.sched.thread  # noqa: F401
    import repro.smt.bitblast  # noqa: F401  (with smt.sat and smt.cnf)
    import repro.smt.cachestore  # noqa: F401  (with repro.store)
    import repro.triage.engine  # noqa: F401

    bindings: list = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(module).items()):
            if not _is_code(value):
                continue
            bindings += (name, id(value))
            if isinstance(value, type) and value.__module__ == module_name:
                for attribute, member in list(vars(value).items()):
                    if _is_code(member):
                        bindings += (attribute, id(member))
    return hash(tuple(bindings))


def _is_code(value: object) -> bool:
    return callable(value) or isinstance(value, (staticmethod, classmethod, property))


def _all_workers_alive(executor: ProcessPoolExecutor) -> bool:
    # ``_broken`` and ``_processes`` are the executor's own bookkeeping; a
    # worker killed since the last campaign shows up in either.
    if getattr(executor, "_broken", False):
        return False
    processes = getattr(executor, "_processes", None) or {}
    return all(process.is_alive() for process in list(processes.values()))


class ProcessBackend(Backend):
    """Fan units out over ``request.jobs`` worker processes."""

    name = "process"

    def run_units(self, request: UnitRunRequest) -> Dict[Slot, object]:
        from repro.obs.metrics import METRICS

        if not request.units:
            return {}
        seed_entries = b""
        if request.cache is not None:
            from repro.smt.cachestore import export_wire_entries

            entries, _ = export_wire_entries(request.cache)
            if entries:
                seed_entries = pickle.dumps(entries, pickle.HIGHEST_PROTOCOL)
        token = _CampaignToken(
            generation=next(_GENERATIONS),
            application_names=tuple(request.application_names),
            diode=request.diode,
            use_cache=request.cache is not None,
            seed_entries=seed_entries,
            triage=request.triage,
            minimize_witnesses=request.minimize_witnesses,
            trace_dir=request.trace_dir,
        )

        with _POOL.lock:
            try:
                executor = _POOL.executor_for(request.worker_count())
                futures = [
                    executor.submit(_worker_run, token, unit)
                    for unit in request.units
                ]
                deltas = drain_futures(request.units, futures)
            except BaseException:
                _POOL.shutdown()
                raise

        results: Dict[Slot, object] = {}
        for unit, delta in zip(request.units, deltas):
            sites = request.contexts[unit.app_index].sites
            for site_index, payload in delta["payloads"].items():
                slot = (unit.app_index, site_index)
                results[slot] = payload.to_site_result(sites[site_index])
                if site_index in delta["witnesses"]:
                    request.witness_results[slot] = delta["witnesses"][site_index]
            if request.cache is not None:
                if delta["cache_entries"]:
                    from repro.smt.cachestore import merge_wire_entries

                    merge_wire_entries(request.cache, delta["cache_entries"])
                request.cache.add_external_stats(delta["cache_stats"])
            # Merge order cannot matter: counters/histogram buckets are
            # integers and add, gauges take max (see repro.obs.metrics).
            METRICS.merge(delta["metrics"])
        return results
