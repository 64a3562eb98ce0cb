"""The thread backend: a work queue over ``ThreadPoolExecutor``.

Each seed-path group is one queued task.  Every worker shares the
campaign's :class:`~repro.smt.cache.SolverCache` and the simplified forms
stored on interned terms directly, so a verdict derived by one unit is
visible to every sibling the moment it is stored.
Under the GIL the threads add no CPU parallelism for the pure-Python
solver — the measured win comes from that sharing — which is exactly why
the process backend exists.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict

from repro.obs.metrics import METRICS
from repro.sched.base import (
    Backend,
    CampaignUnit,
    Slot,
    UnitRunRequest,
    drain_futures,
)


class ThreadBackend(Backend):
    """Fan units out over ``request.jobs`` worker threads."""

    name = "thread"

    def _run_queued(
        self, request: UnitRunRequest, unit: CampaignUnit, submitted: float
    ):
        # Time between submission and a worker thread picking the unit up:
        # the queue-depth signal a fleet scheduler sizes its pool by.
        METRICS.histogram("sched.queue_wait_seconds").observe(
            time.perf_counter() - submitted
        )
        return request.run_unit(unit, backend=self.name)

    def run_units(self, request: UnitRunRequest) -> Dict[Slot, object]:
        with ThreadPoolExecutor(max_workers=request.worker_count()) as executor:
            futures = [
                executor.submit(self._run_queued, request, unit, time.perf_counter())
                for unit in request.units
            ]
            payloads = drain_futures(request.units, futures)
        results: Dict[Slot, object] = {}
        for payload in payloads:
            results.update(payload)
        return results
