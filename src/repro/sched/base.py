"""The execution-backend interface and its shared scheduling helpers.

A :class:`Backend` receives one :class:`UnitRunRequest` — the immutable
per-application contexts, the flat unit list, the shared solver cache and
the resolved worker count — and returns a ``(app_index, site_index) ->
SiteResult`` mapping.  How the units run (inline, worker threads, worker
processes) is entirely the backend's business; everything observable about
the *results* must be schedule-independent.

Error contract (shared by every backend through :func:`drain_futures`): the
first unit failure cancels all still-pending sibling units, and the failure
is re-raised as a :class:`UnitAnalysisError` carrying the failing unit's
⟨application, site⟩ identity with the original exception chained as its
``__cause__``.

This module deliberately imports nothing from :mod:`repro.core` at module
scope: the core package's campaign engine imports :mod:`repro.sched`, and
deferring the reverse edge to call time keeps the import graph acyclic no
matter which side is imported first.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import FIRST_EXCEPTION, Future, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import DiodeConfig
    from repro.core.report import SiteResult
    from repro.sched.context import ApplicationContext
    from repro.smt.cache import SolverCache

#: Result-slot key: ``(app_index, site_index)``.
Slot = Tuple[int, int]


@dataclass(frozen=True)
class CampaignUnit:
    """One schedulable ⟨application, target site⟩ analysis.

    Only primitives — the descriptor must survive pickling into a worker
    process, where the heavyweight collaborators are rebuilt from the
    registry short name rather than shipped over the pipe.
    """

    app_index: int
    site_index: int
    application_name: str
    site_name: str


class UnitAnalysisError(RuntimeError):
    """A campaign unit failed; carries the ⟨application, site⟩ identity."""

    def __init__(self, unit: CampaignUnit, cause: BaseException) -> None:
        self.unit = unit
        self.application_name = unit.application_name
        self.site_name = unit.site_name
        super().__init__(
            f"campaign unit ⟨{unit.application_name}, {unit.site_name}⟩ "
            f"failed: {cause!r}"
        )


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
    #: Whether the event stream is enabled for this run (``campaign
    #: --no-events`` is the ablation).  In-process backends inherit the
    #: parent's already-toggled stream; the process backend ships the flag
    #: in each unit's campaign token.
    events: bool = True

    def run_unit(self, unit: CampaignUnit, backend: str = "") -> "SiteResult":
        """Execute one unit in-process against the shared contexts."""
        from repro.core.engine import analyze_site
        from repro.obs.events import unit_lifecycle
        from repro.obs.metrics import METRICS
        from repro.obs.trace import TRACER

        context = self.contexts[unit.app_index]
        with unit_lifecycle(
            unit.application_name, unit.site_name, backend
        ) as finish_attrs:
            with TRACER.span(
                "unit",
                application=unit.application_name,
                site=unit.site_name,
                backend=backend,
            ):
                result = analyze_site(
                    context.application,
                    context.sites[unit.site_index],
                    self.diode,
                    solver_cache=self.cache,
                    detector=context.detector,
                    field_mapper=context.mapper,
                )
            finish_attrs["classification"] = result.classification.value
        METRICS.counter("campaign.units_completed").inc()
        return result

    def worker_count(self) -> int:
        """Workers actually worth spawning for this unit list."""
        return max(1, min(self.jobs, len(self.units) or 1))


class Backend(ABC):
    """One strategy for executing a campaign's units."""

    #: Registry / CLI name of the backend.
    name: str = "abstract"

    @abstractmethod
    def run_units(self, request: UnitRunRequest) -> Dict[Slot, object]:
        """Run every unit and return results keyed by ``(app, site)`` index."""


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
    cause = futures[failed_index].exception()
    raise UnitAnalysisError(units[failed_index], cause) from cause
