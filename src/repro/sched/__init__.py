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
  shipping slim picklable unit descriptors out and term-free
  :class:`~repro.core.report.SiteResult` records (plus wire-format
  solver-cache deltas) back, rebuilding per-application collaborators once
  per worker; the only backend with real CPU parallelism.  One pool serves
  every campaign of the parent process, so its workers stay warm across
  campaigns (:func:`~repro.sched.process.shutdown_pool` stops it early).

Every backend runs a unit through :func:`~repro.sched.base.analyze_unit`,
which also triages the unit's bug reports when the campaign triages, so
each backend returns finished results, witness records included.

Classification parity is the contract: every backend must produce exactly
the classifications of the serial ``Diode.analyze`` path.  The unit is pure
and cached verdicts are derived from canonical representatives, so parity
holds by construction; the test suite enforces it on the full registry.
A group's shared work lives only as long as its task, so the unit-side
run counts are schedule-independent too.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple, Type

from repro.sched.base import (
    Backend,
    CampaignUnit,
    UnitAnalysisError,
    UnitRunRequest,
)
from repro.sched.context import ApplicationContext, build_application_context
from repro.sched.serial import SerialBackend

#: Backend classes by CLI-visible name, as ``(module, class)``.  A backend's
#: module loads when a campaign first asks for it, so a serial run never
#: imports the thread and process pools (nor ``concurrent.futures`` and
#: ``multiprocessing`` behind them).
_BACKEND_CLASSES: Dict[str, Tuple[str, str]] = {
    "serial": ("repro.sched.serial", "SerialBackend"),
    "thread": ("repro.sched.thread", "ThreadBackend"),
    "process": ("repro.sched.process", "ProcessBackend"),
}

#: Re-exports loaded on first use (PEP 562), by the module defining them.
_LAZY = {
    "ProcessBackend": "repro.sched.process",
    "shutdown_pool": "repro.sched.process",
    "ThreadBackend": "repro.sched.thread",
}


def available_backends() -> List[str]:
    """Names of the registered execution backends."""
    return list(_BACKEND_CLASSES)


def _backend_class(name: str) -> Type[Backend]:
    entry = _BACKEND_CLASSES.get(name)
    if entry is None:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(_BACKEND_CLASSES)}"
        )
    module, attribute = entry
    return getattr(importlib.import_module(module), attribute)


def get_backend(name: str) -> Backend:
    """Instantiate the backend registered under ``name``."""
    return _backend_class(name)()


def __getattr__(name: str):
    # Nothing is cached in this namespace: the process backend's pool key
    # digests every ``repro`` module's bindings, so a first lookup here
    # after the pool forked must not add one.
    if name == "BACKENDS":  # every backend class, keyed by its name
        return {backend: _backend_class(backend) for backend in _BACKEND_CLASSES}
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ApplicationContext",
    "BACKENDS",
    "Backend",
    "CampaignUnit",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "UnitAnalysisError",
    "UnitRunRequest",
    "available_backends",
    "build_application_context",
    "get_backend",
    "shutdown_pool",
]
