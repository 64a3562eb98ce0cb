"""Outside-in per-layer timing for the traced benchmark run.

:class:`LayerTrace` wraps the public entry points of each layer of the
program — module functions and class methods — for the duration of one
campaign, and restores the originals afterwards.  Nothing inside the
program is edited: a function is patched in every ``repro.*`` module that
holds it by name (``from x import f`` copies the binding), so the wrapper
sees the call wherever it is looked up.

Every wrapper records into the program's own metrics registry
(:data:`repro.obs.metrics.METRICS`) as ``perfbench.*`` counters:

* ``perfbench.<layer>.ns`` — the layer's *self* time: its wall time minus
  the time of wrapped layers it called, so the layer times of one campaign
  add up to the time covered by any layer;
* ``perfbench.<layer>.calls`` — outermost entries (a layer re-entering
  itself counts once), plus the per-kind ``exec.runs.*`` and per-caller
  ``core.detection.calls.*`` counts.

Process-backend workers are forked with the wrappers already installed and
ship their registry delta back with each unit, so worker-side numbers land
in the parent's registry too.  The parent additionally sums self time per
layer in :attr:`LayerTrace.local_self` — only calls made in the process
that installed the trace — which is what attribution of the parent's wall
clock uses.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

PREFIX = "perfbench."

#: ``(module, function, layer)`` — module functions patched wherever imported.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.apps.registry", "get_application", "apps.build"),
    ("repro.apps.registry", "build_applications", "apps.build"),
    ("repro.sched.context", "build_application_context", "sched.context"),
    ("repro.core.sites", "identify_target_sites", "core.sites"),
    ("repro.core.target", "extract_target_observations", "core.target"),
    ("repro.smt.simplify", "simplify", "smt.simplify"),
    ("repro.core.engine", "analyze_site", "core.engine"),
)

#: ``(module, class, method, layer)`` — methods patched on their class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.enforcement", "GoalDirectedEnforcer", "run", "core.enforcement"),
    ("repro.smt.solver", "PortfolioSolver", "check", "smt.solver"),
    ("repro.smt.solver", "SolverSession", "check", "smt.solver"),
    ("repro.core.detection", "ErrorDetector", "evaluate", "core.detection"),
    ("repro.core.inputs", "InputGenerator", "generate", "core.inputs"),
    ("repro.core.inputs", "InputGenerator", "generate_from_fields", "core.inputs"),
    ("repro.core.inputs", "InputGenerator", "assignment_for", "core.inputs"),
    ("repro.triage.engine", "WitnessTriager", "triage", "triage"),
    ("repro.triage.minimize", "WitnessMinimizer", "minimize", "triage.minimize"),
    ("repro.smt.cachestore", "CacheStore", "load", "store.load"),
    ("repro.smt.cachestore", "CacheStore", "save", "store.save"),
    ("repro.triage.corpus", "CorpusStore", "load", "store.load"),
    ("repro.triage.corpus", "CorpusStore", "save", "store.save"),
    ("repro.sched.serial", "SerialBackend", "run_units", "sched.run_units"),
    ("repro.sched.thread", "ThreadBackend", "run_units", "sched.run_units"),
    ("repro.sched.process", "ProcessBackend", "run_units", "sched.run_units"),
    ("repro.exec.concrete", "ConcreteInterpreter", "run", "exec.run"),
)

#: Interpreter subclass name -> run kind (``exec.runs.<kind>``).
RUN_KINDS = {
    "ConcolicInterpreter": "concolic",
    "OverflowWitnessInterpreter": "witness",
    "TaintInterpreter": "taint",
}

class LayerTrace:
    """Install, record and remove the per-layer wrappers."""

    def __init__(self) -> None:
        from repro.obs.metrics import METRICS

        self._metrics = METRICS
        #: One ``[child_seconds]`` frame per wrapped call in flight.
        self._stack: List[List[float]] = []
        #: Layer -> how many of its calls are in flight.
        self._active: Dict[str, int] = defaultdict(int)
        #: Self seconds and outermost calls per name, not yet in ``METRICS``.
        self._pending_seconds: Dict[str, float] = defaultdict(float)
        self._pending_calls: Dict[str, int] = defaultdict(int)
        #: ``(owner, attribute, original)`` for every binding replaced.
        self._patches: List[Tuple[object, str, object]] = []
        #: id -> wrapper; holding the wrapper keeps its id from being reused.
        self._wrappers: Dict[int, Callable] = {}
        #: Self seconds per layer, for calls made in this process only.
        self.local_self: Dict[str, float] = defaultdict(float)
        #: Inclusive wall of the ``run_units`` calls and their worker count.
        self.run_units_wall = 0.0
        self.workers = 1
        # A forked worker starts with a copy of the parent's in-flight
        # frames; they are not its own, so it drops them.
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        self._stack.clear()
        self._active.clear()
        self._pending_seconds.clear()
        self._pending_calls.clear()
        self.local_self.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point and start a fresh campaign's tallies."""
        if self._patches:
            raise RuntimeError("LayerTrace is already installed")
        self._wrappers.clear()
        self.local_self.clear()
        self.run_units_wall = 0.0
        self.workers = 1
        # Import every target first, so no module imported mid-install can
        # copy a wrapper into its namespace.
        for module_name in {entry[0] for entry in FUNCTIONS + METHODS}:
            importlib.import_module(module_name)
        modules = _repro_modules()
        for module_name, name, layer in FUNCTIONS:
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(original, layer)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapper)
        for module_name, class_name, name, layer in METHODS:
            owner = getattr(sys.modules[module_name], class_name)
            self._patch(owner, name, self._wrap(owner.__dict__[name], layer))

    def uninstall(self) -> None:
        """Restore every original binding and prove no wrapper is left."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        leftovers = [
            f"{module.__name__}.{name}"
            for module in _repro_modules()
            for name, value in list(vars(module).items())
            if id(value) in self._wrappers
        ] + [
            f"{class_name}.{name}"
            for module_name, class_name, name, _ in METHODS
            if id(getattr(sys.modules[module_name], class_name).__dict__[name])
            in self._wrappers
        ]
        if leftovers:
            raise RuntimeError(f"layer wrappers left installed: {leftovers}")

    # ------------------------------------------------------------------
    def _patch(self, owner: object, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)
        self._wrappers[id(wrapper)] = wrapper

    def _flush(self) -> None:
        """Move the pending sums into ``METRICS`` (outermost call exits).

        Per-call registry updates would cost more than many of the calls
        they time; flushing whenever the outermost wrapped call returns
        still lands every number before a process-backend worker takes its
        per-unit metrics delta.
        """
        counter = self._metrics.counter
        for name, seconds in self._pending_seconds.items():
            counter(f"{PREFIX}{name}.ns").inc(round(seconds * 1e9))
        for name, calls in self._pending_calls.items():
            counter(f"{PREFIX}{name}").inc(calls)
        self._pending_seconds.clear()
        self._pending_calls.clear()

    def _wrap(self, original: Callable, layer: str) -> Callable:
        stack = self._stack
        active = self._active
        pending_seconds = self._pending_seconds
        pending_calls = self._pending_calls
        local_self = self.local_self
        perf_counter = time.perf_counter
        calls_name = f"{layer}.calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = layer
            if layer == "exec.run":
                kind = RUN_KINDS.get(type(args[0]).__name__, "concrete")
                name = f"exec.run.{kind}"
                pending_calls[f"exec.runs.{kind}"] += 1
                if active["sched.context"]:
                    pending_calls[f"exec.runs.{kind}.context"] += 1
            elif layer == "core.detection":
                if active["core.enforcement"]:
                    caller = "enforcement"
                elif active["triage"]:
                    caller = "triage"
                else:
                    caller = "replay"
                pending_calls[f"core.detection.calls.{caller}"] += 1
            elif not active[layer]:
                pending_calls[calls_name] += 1
            active[layer] += 1
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                active[layer] -= 1
                own = elapsed - frame[0]
                pending_seconds[name] += own
                local_self[name] += own
                if layer == "core.engine":
                    pending_seconds["sched.busy"] += elapsed
                elif layer == "sched.run_units":
                    self.run_units_wall += elapsed
                    backend, request = args[0], args[1]
                    self.workers = (
                        1 if backend.name == "serial" else request.worker_count()
                    )
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self._flush()

        return wrapper


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def read_layers(delta: dict) -> Dict[str, float]:
    """``{name: value}`` of the ``perfbench.*`` counters in a metrics delta.

    ``<name>.ns`` counters come back as ``<name>.s`` in seconds.
    """
    out: Dict[str, float] = {}
    for name, entry in (delta.get("metrics") or {}).items():
        if name.startswith(PREFIX) and entry.get("k") == "c":
            short = name[len(PREFIX):]
            value = int(entry.get("value", 0))
            if short.endswith(".ns"):
                out[short[:-3] + ".s"] = value / 1e9
            else:
                out[short] = value
    return out
