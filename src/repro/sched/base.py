"""The execution-backend interface and its shared scheduling helpers.

A :class:`Backend` receives one :class:`UnitRunRequest` — the immutable
per-application contexts, the flat unit list, the shared solver cache and
the resolved worker count — and returns a ``(app_index, site_index) ->
SiteResult`` mapping.  A unit is one *seed-path group*: the sites of one
application with the same relevant bytes, which share one concolic run,
one set of branch constraints and one witness run per distinct candidate
(:mod:`repro.core.group`).  How the units run (inline, worker threads,
worker processes) is entirely the backend's business; everything
observable about the *results* must be schedule-independent, and because a
group's shared work lives exactly as long as its task, so are the run
counts.

Every backend runs a unit through :func:`analyze_unit`, which wraps each
of its sites in a ``unit`` span and ``unit.started`` / ``unit.finished`` /
``unit.failed`` lifecycle events.

Error contract (shared by every backend through :func:`drain_futures`): the
first unit failure cancels all still-pending sibling units, and the failure
is re-raised as a :class:`UnitAnalysisError` carrying the failing site's
⟨application, site⟩ identity with the original exception chained as its
``__cause__``.

This module deliberately imports nothing from :mod:`repro.core` at module
scope: the core package's campaign engine imports :mod:`repro.sched`, and
deferring the reverse edge to call time keeps the import graph acyclic no
matter which side is imported first.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.core.engine import DiodeConfig
    from repro.core.report import SiteResult
    from repro.sched.context import ApplicationContext
    from repro.smt.cache import SolverCache

#: Result-slot key: ``(app_index, site_index)``.
Slot = Tuple[int, int]


@dataclass(frozen=True)
class CampaignUnit:
    """One schedulable seed-path group: sites of one app sharing relevant bytes.

    The group's sites run one after another in one task, so the work they
    share (:class:`~repro.core.group.SeedPathGroup`) is done once, and
    always by the one worker that runs them all.  Only primitives — the
    descriptor must survive pickling into a worker process, where the
    heavyweight collaborators are rebuilt from the registry short name
    rather than shipped over the pipe.
    """

    app_index: int
    application_name: str
    site_indices: Tuple[int, ...]
    site_names: Tuple[str, ...]

    @classmethod
    def for_sites(
        cls, context: "ApplicationContext", site_indices: Sequence[int]
    ) -> "CampaignUnit":
        """The unit running ``site_indices`` of ``context``'s sites."""
        return cls(
            app_index=context.index,
            application_name=context.application.name,
            site_indices=tuple(site_indices),
            site_names=tuple(context.sites[index].name for index in site_indices),
        )


class UnitAnalysisError(RuntimeError):
    """A campaign unit failed; names the ⟨application, site⟩ that raised.

    ``site_name`` is the unit's first site when the failure happened
    outside any one site's analysis.  Picklable, so a process worker can
    send the site identity back with the cause.
    """

    def __init__(
        self,
        unit: CampaignUnit,
        cause: BaseException,
        site_name: Optional[str] = None,
    ) -> None:
        self.unit = unit
        self.cause = cause
        self.application_name = unit.application_name
        self.site_name = site_name or unit.site_names[0]
        super().__init__(
            f"campaign unit ⟨{unit.application_name}, {self.site_name}⟩ "
            f"failed: {cause!r}"
        )

    def __reduce__(self):
        return (UnitAnalysisError, (self.unit, self.cause, self.site_name))


def unit_error(unit: CampaignUnit, exc: BaseException) -> UnitAnalysisError:
    """``exc`` as ``unit``'s failure, keeping a site :func:`analyze_unit` named.

    Raise the result ``from`` its ``cause``.
    """
    if isinstance(exc, UnitAnalysisError):
        return UnitAnalysisError(exc.unit, exc.cause, exc.site_name)
    return UnitAnalysisError(unit, exc)


@dataclass
class UnitRunRequest:
    """Everything a backend needs to execute one campaign's units."""

    contexts: List["ApplicationContext"]
    units: List[CampaignUnit]
    cache: Optional["SolverCache"]
    jobs: int
    diode: "DiodeConfig"
    #: Registry short names indexed by ``app_index`` — what a worker process
    #: needs to rebuild the application model on its side of the pipe, and
    #: the key its warm per-application contexts are kept under (an index
    #: only means something within one campaign's application order).
    application_names: List[str]
    #: Whether workers should triage bug reports (validate + minimize + sign
    #: witnesses; :mod:`repro.triage`).  Only the process backend acts on
    #: it — in-process backends leave triage to the campaign engine, which
    #: already holds the shared per-application collaborators.
    triage: bool = False
    #: Whether worker-side triage minimizes witnesses before signing.
    minimize_witnesses: bool = True
    #: Filled by backends that triage on the worker side: ``slot → wire-form
    #: WitnessRecord`` (``None`` = the report failed witness re-validation).
    #: Slots absent from this mapping are triaged by the campaign engine.
    witness_results: Dict[Slot, Optional[dict]] = field(default_factory=dict)
    #: Trace directory for this run (``campaign --trace-dir``).  In-process
    #: backends inherit the campaign's already-attached sink; the process
    #: backend ships this path in each unit's campaign token, and a worker
    #: starting on a new campaign re-attaches its own ``spans-<pid>.jsonl``
    #: sink for it.
    trace_dir: Optional[str] = None

    def run_unit(
        self, unit: CampaignUnit, backend: str = ""
    ) -> Dict[Slot, "SiteResult"]:
        """Execute one unit in-process against the shared contexts."""
        return analyze_unit(
            unit, self.contexts[unit.app_index], self.diode, self.cache, backend
        )

    def worker_count(self) -> int:
        """Workers actually worth spawning for this unit list."""
        return max(1, min(self.jobs, len(self.units) or 1))


def analyze_unit(
    unit: CampaignUnit,
    context: "ApplicationContext",
    diode: "DiodeConfig",
    cache: Optional["SolverCache"],
    backend: str,
) -> Dict[Slot, "SiteResult"]:
    """Analyze a unit's sites in order, sharing one seed-path group.

    Each site runs inside its own ``unit`` span and lifecycle events:
    ``unit.started``, then ``unit.finished`` with the site's seconds and
    classification, or ``unit.failed`` with its seconds and the exception
    type.  Every event carries the site's ``application``, ``site`` and
    ``backend``.  A site's exception stops the unit and is raised as a
    :class:`UnitAnalysisError` naming that site.
    """
    from repro.core.engine import analyze_site
    from repro.core.group import SeedPathGroup
    from repro.obs.trace import TRACER

    group = SeedPathGroup([context.sites[index] for index in unit.site_indices])
    results: Dict[Slot, "SiteResult"] = {}
    for site_index, site_name in zip(unit.site_indices, unit.site_names):
        identity = {
            "application": unit.application_name,
            "site": site_name,
            "backend": backend,
        }
        TRACER.event("unit.started", **identity)
        started = time.perf_counter()
        try:
            with TRACER.span("unit", **identity):
                result = analyze_site(
                    context.application,
                    context.sites[site_index],
                    diode,
                    solver_cache=cache,
                    detector=context.detector,
                    field_mapper=context.mapper,
                    group=group,
                )
        except BaseException as exc:
            TRACER.event(
                "unit.failed",
                seconds=round(time.perf_counter() - started, 6),
                error=type(exc).__name__,
                **identity,
            )
            if isinstance(exc, Exception):
                raise UnitAnalysisError(unit, exc, site_name) from exc
            raise
        TRACER.event(
            "unit.finished",
            seconds=round(time.perf_counter() - started, 6),
            classification=result.classification.value,
            **identity,
        )
        results[(unit.app_index, site_index)] = result
    return results


class Backend(ABC):
    """One strategy for executing a campaign's units."""

    #: Registry / CLI name of the backend.
    name: str = "abstract"

    @abstractmethod
    def run_units(self, request: UnitRunRequest) -> Dict[Slot, object]:
        """Run every unit and return its sites' results keyed by ``(app, site)``."""


def drain_futures(
    units: Sequence[CampaignUnit], futures: Sequence["Future"]
) -> List[object]:
    """Collect unit futures, with first-failure cancellation semantics.

    Waits until every future finishes or any future raises.  On a failure,
    all still-pending siblings are cancelled (already-running units cannot
    be interrupted, but no new ones start) and the earliest-submitted
    failure is re-raised as :class:`UnitAnalysisError` with the original
    exception as ``__cause__``.  Otherwise returns results in submission
    order.
    """
    # Only the pooled backends get here; a serial campaign never loads
    # concurrent.futures (and the logging it pulls in).
    from concurrent.futures import FIRST_EXCEPTION, wait

    wait(futures, return_when=FIRST_EXCEPTION)
    failed_index: Optional[int] = None
    for index, future in enumerate(futures):
        if future.done() and not future.cancelled():
            if future.exception() is not None:
                failed_index = index
                break
    if failed_index is None:
        return [future.result() for future in futures]

    for future in futures:
        future.cancel()
    error = unit_error(units[failed_index], futures[failed_index].exception())
    raise error from error.cause
