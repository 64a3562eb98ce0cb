"""Pluggable execution backends for the campaign engine.

The campaign engine's unit of work is a seed-path group: the sites of one
application that share relevant input bytes, run one after another in one
task so they share one concolic run, one set of branch constraints and one
witness run per distinct enforcement candidate (:mod:`repro.core.group`).
This package owns *how* those units are executed; results come back per
⟨application, site⟩ slot.  Each strategy is a
:class:`~repro.sched.base.Backend`:

* ``serial`` (:mod:`repro.sched.serial`) — unit-list order, no executor;
  the deterministic reference schedule.
* ``thread`` (:mod:`repro.sched.thread`) — a ``ThreadPoolExecutor`` work
  queue sharing one in-process :class:`~repro.smt.cache.SolverCache`;
  under the GIL its win comes from the caches, not CPU parallelism.
* ``process`` (:mod:`repro.sched.process`) — a ``ProcessPoolExecutor``
  shipping slim picklable unit descriptors out and picklable
  :class:`~repro.sched.process.SiteResultPayload` records (plus wire-format
  solver-cache deltas) back, rebuilding per-application collaborators once
  per worker; the only backend with real CPU parallelism.  One pool serves
  every campaign of the parent process, so its workers stay warm across
  campaigns (:func:`~repro.sched.process.shutdown_pool` stops it early).

Classification parity is the contract: every backend must produce exactly
the classifications of the serial ``Diode.analyze`` path.  The unit is pure
and cached verdicts are derived from canonical representatives, so parity
holds by construction; the test suite enforces it on the full registry.
A group's shared work lives only as long as its task, so the unit-side
run counts are schedule-independent too.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.sched.base import (
    Backend,
    CampaignUnit,
    UnitAnalysisError,
    UnitRunRequest,
)
from repro.sched.context import ApplicationContext, build_application_context
from repro.sched.process import ProcessBackend, SiteResultPayload, shutdown_pool
from repro.sched.serial import SerialBackend
from repro.sched.thread import ThreadBackend

#: Registered backend classes, keyed by their CLI-visible names.
BACKENDS: Dict[str, Type[Backend]] = {
    backend.name: backend
    for backend in (SerialBackend, ThreadBackend, ProcessBackend)
}


def available_backends() -> List[str]:
    """Names of the registered execution backends."""
    return list(BACKENDS)


def get_backend(name: str) -> Backend:
    """Instantiate the backend registered under ``name``."""
    backend = BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(BACKENDS)}"
        )
    return backend()


__all__ = [
    "ApplicationContext",
    "BACKENDS",
    "Backend",
    "CampaignUnit",
    "ProcessBackend",
    "SerialBackend",
    "SiteResultPayload",
    "ThreadBackend",
    "UnitAnalysisError",
    "UnitRunRequest",
    "available_backends",
    "build_application_context",
    "get_backend",
    "shutdown_pool",
]
