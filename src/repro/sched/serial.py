"""The serial backend: unit-list order, no executor, no shared-state races.

This is the deterministic reference schedule every other backend is
measured against, and the automatic fallback when the campaign resolves to
a single worker (spawning an executor for one lane only adds overhead).
Units run in the campaign's order — seed-path groups by their first site,
registry order otherwise — and each group's sites in site order.
"""

from __future__ import annotations

from typing import Dict

from repro.sched.base import Backend, Slot, UnitRunRequest, unit_error


class SerialBackend(Backend):
    """Run every unit inline, in unit-list order."""

    name = "serial"

    def run_units(self, request: UnitRunRequest) -> Dict[Slot, object]:
        results: Dict[Slot, object] = {}
        for unit in request.units:
            try:
                results.update(request.run_unit(unit, backend=self.name))
            except Exception as exc:
                # Serial semantics match drain_futures: later units are
                # "pending" and simply never start.
                error = unit_error(unit, exc)
                raise error from error.cause
        return results
