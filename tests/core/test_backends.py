"""Tests for the pluggable execution-backend subsystem (:mod:`repro.sched`).

Two contracts:

1. **Parity** — every backend (serial, thread, process) produces exactly
   the classifications of the plain serial ``Diode.analyze`` path; the
   process backend's pickle boundary and per-worker caches must be
   invisible in the results.
2. **Failure semantics** — the first failing unit cancels its pending
   siblings and surfaces as a :class:`UnitAnalysisError` carrying the
   ⟨application, site⟩ identity with the original exception chained.

The process backend keeps one pool per parent process, so its tests also
cover the pool's life: workers reused across campaigns, replaced when the
parent's code is rebound or a worker died, and gone with their parent.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro.core.engine as engine_module
from repro.apps import get_application
from repro.cli import main
from repro.core import Diode
from repro.core.campaign import CampaignConfig, run_campaign
from repro.sched import (
    BACKENDS,
    CampaignUnit,
    UnitAnalysisError,
    UnitRunRequest,
    available_backends,
    build_application_context,
    get_backend,
)
from repro.sched.serial import SerialBackend
from repro.sched.thread import ThreadBackend

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: Registry subset used by the parity tests — big enough to exercise both
#: a multi-site application and cross-application scheduling, small enough
#: to keep the process-pool tests cheap on single-CPU hosts.
SUBSET = ["vlc", "cwebp"]


@pytest.fixture(scope="module")
def serial_diode_reference():
    """Site classifications from the plain serial Diode path, for SUBSET."""
    engine = Diode()
    reference = {}
    for name in SUBSET:
        result = engine.analyze(get_application(name))
        reference[result.application] = {
            site.site.name: site.classification.value
            for site in result.site_results
        }
    return reference


class TestBackendRegistry:
    def test_all_three_backends_are_registered(self):
        assert set(available_backends()) == {"serial", "thread", "process"}

    def test_get_backend_returns_named_instances(self):
        for name in available_backends():
            assert get_backend(name).name == name

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")
        with pytest.raises(ValueError, match="unknown backend"):
            CampaignConfig(backend="gpu").resolved_backend()

    def test_single_worker_thread_campaign_degrades_to_serial(self):
        assert CampaignConfig(jobs=1, backend="thread").resolved_backend() == "serial"
        assert CampaignConfig(jobs=4, backend="thread").resolved_backend() == "thread"
        # An explicit process request is honoured even at one worker.
        assert CampaignConfig(jobs=1, backend="process").resolved_backend() == "process"


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backend_matches_serial_diode_path(
        self, backend, serial_diode_reference
    ):
        result = run_campaign(
            CampaignConfig(jobs=2, backend=backend, applications=SUBSET)
        )
        assert result.backend == backend
        assert result.classifications() == serial_diode_reference

    def test_process_backend_without_cache(self, serial_diode_reference):
        result = run_campaign(
            CampaignConfig(
                jobs=2, backend="process", use_cache=False, applications=SUBSET
            )
        )
        assert result.cache_stats is None
        assert result.classifications() == serial_diode_reference

    def test_process_backend_aggregates_worker_cache_stats(self):
        result = run_campaign(
            CampaignConfig(jobs=2, backend="process", applications=SUBSET)
        )
        stats = result.cache_stats
        assert stats is not None
        # Workers did the lookups; the parent must still see them.
        assert stats.lookups > 0
        # Worker verdicts were merged back into the parent cache.
        assert stats.merged > 0

    def test_worker_unit_delta_is_one_dict_with_named_fields(self, monkeypatch):
        """What a process unit sends home, run in this process.

        One dict with named fields; ``cache_stats`` names exactly the
        counters the parent cache folds in, and ``metrics`` is this unit's
        delta only.
        """
        from repro.obs.metrics import counter_value
        from repro.obs.trace import TRACER
        from repro.sched import process
        from repro.smt.cache import SolverCache

        # ``begin`` detaches inherited sinks; keep this process's own.
        monkeypatch.setattr(TRACER, "_sinks", list(TRACER._sinks))
        monkeypatch.setattr(process, "_STATE", process._WorkerState())
        token = process._CampaignToken(
            generation=-1,
            application_names=("vlc",),
            diode=CampaignConfig().diode,
            use_cache=True,
            seed_entries=b"",
            triage=False,
            minimize_witnesses=False,
            trace_dir=None,
        )
        context = build_application_context(0, get_application("vlc"))
        for index, site in enumerate(context.sites[:2]):
            unit = CampaignUnit(
                app_index=0,
                site_index=index,
                application_name="vlc",
                site_name=site.name,
            )
            delta = process._worker_run(token, unit)
            assert set(delta) == {
                "payload", "cache_entries", "cache_stats", "witness", "metrics",
            }
            assert set(delta["cache_stats"]) == set(
                SolverCache().stats_snapshot()
            )
            assert delta["witness"] is None
            assert isinstance(delta["payload"], process.SiteResultPayload)
            assert counter_value(delta["metrics"], "events.unit.started") == 1
            assert counter_value(delta["metrics"], "events.unit.finished") == 1

    def test_process_backend_bug_reports_survive_the_pickle_boundary(
        self, serial_diode_reference
    ):
        process = run_campaign(
            CampaignConfig(jobs=2, backend="process", applications=SUBSET)
        )
        serial = run_campaign(
            CampaignConfig(jobs=1, backend="serial", applications=SUBSET)
        )
        key = lambda r: (r.application, r.target, r.cve, r.error_type)
        assert sorted(map(key, process.bug_reports())) == sorted(
            map(key, serial.bug_reports())
        )


def _make_request(monkeypatch_analyze=None, jobs=1):
    """A small real request over vlc's sites, optionally with a failing unit."""
    application = get_application("vlc")
    context = build_application_context(0, application)
    units = [
        CampaignUnit(
            app_index=0,
            site_index=index,
            application_name=application.name,
            site_name=site.name,
        )
        for index, site in enumerate(context.sites)
    ]
    return UnitRunRequest(
        contexts=[context],
        units=units,
        cache=None,
        jobs=jobs,
        diode=None,  # replaced by stubs below; real runs build a DiodeConfig
        application_names=["vlc"],
    )


class TestFailureSemantics:
    def test_serial_backend_wraps_failure_with_unit_identity(self, monkeypatch):
        request = _make_request()
        executed = []

        def exploding(unit, backend=""):
            executed.append(unit.site_name)
            if len(executed) == 2:
                raise RuntimeError("solver meltdown")
            return object()

        monkeypatch.setattr(request, "run_unit", exploding)
        with pytest.raises(UnitAnalysisError) as info:
            SerialBackend().run_units(request)
        error = info.value
        assert error.application_name == "VLC 0.8.6h"
        assert error.site_name == request.units[1].site_name
        assert isinstance(error.__cause__, RuntimeError)
        assert "solver meltdown" in repr(error.__cause__)
        # Serial semantics: units after the failure never start.
        assert executed == [request.units[0].site_name, request.units[1].site_name]

    def test_thread_backend_cancels_pending_units_on_failure(self, monkeypatch):
        # One worker makes the schedule deterministic: unit 0 raises while
        # units 1..n are still queued, so they must be cancelled, not run.
        request = _make_request(jobs=1)
        executed = []

        def exploding(unit, backend=""):
            executed.append(unit.site_name)
            raise RuntimeError("first unit fails")

        monkeypatch.setattr(request, "run_unit", exploding)
        with pytest.raises(UnitAnalysisError) as info:
            ThreadBackend().run_units(request)
        assert info.value.site_name == request.units[0].site_name
        assert info.value.application_name == request.units[0].application_name
        assert isinstance(info.value.__cause__, RuntimeError)
        assert executed == [request.units[0].site_name]

    def test_thread_backend_reports_earliest_submitted_failure(self, monkeypatch):
        request = _make_request(jobs=2)

        def exploding(unit):
            raise ValueError(f"boom {unit.site_index}")

        monkeypatch.setattr(request, "run_unit", exploding)
        with pytest.raises(UnitAnalysisError) as info:
            ThreadBackend().run_units(request)
        # Every unit fails; the surfaced one must be the earliest submitted
        # among the completed, with its identity in the message.
        assert info.value.site_name in {u.site_name for u in request.units}
        assert info.value.application_name == "VLC 0.8.6h"
        assert info.value.site_name in str(info.value)

    def test_process_backend_surfaces_worker_failures(self):
        # A real failure on the far side of the pickle boundary: an unknown
        # registry name makes every worker's context rebuild explode.
        request = _make_request(jobs=2)
        request.application_names = ["no-such-app"]
        from repro.core.engine import DiodeConfig
        from repro.sched.process import ProcessBackend

        request.diode = DiodeConfig()
        with pytest.raises(UnitAnalysisError) as info:
            ProcessBackend().run_units(request)
        assert info.value.application_name == "VLC 0.8.6h"
        assert info.value.__cause__ is not None


class TestCampaignBackendSurface:
    def test_campaign_result_records_resolved_backend(self):
        result = run_campaign(
            CampaignConfig(jobs=1, backend="thread", applications=["vlc"])
        )
        assert result.backend == "serial"

    def test_backends_registry_is_consistent(self):
        for name, backend in BACKENDS.items():
            assert backend.name == name


# ----------------------------------------------------------------------
# The process pool's life across campaigns
# ----------------------------------------------------------------------
#: Patching the parent's code can only reach fork-started workers.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="rebinding reaches workers only under the fork start method",
)
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs /proc to see process states"
)


def _unit_pids(trace_dir):
    """Pids of the processes that ran units, from their ``spans-<pid>.jsonl``."""
    pids = set()
    for path in glob.glob(os.path.join(str(trace_dir), "spans-*.jsonl")):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record["name"] == "unit.started":
                    pids.add(record["pid"])
    return pids


def _gone(pid):
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        # ProcessLookupError: reaped between the open and the read.
        return True


def _wait_gone(pids, timeout=5.0):
    """The subset of ``pids`` still running after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        alive = {pid for pid in alive if not _gone(pid)}
        if alive:
            time.sleep(0.05)
    return alive


def _counters(result):
    return {
        name: entry["value"]
        for name, entry in result.metrics["metrics"].items()
        if entry["k"] == "c"
    }


class TestPoolLifecycle:
    def test_consecutive_campaigns_reuse_the_same_workers(
        self, tmp_path, serial_diode_reference
    ):
        pids = set()
        for run in range(3):
            trace_dir = tmp_path / f"run-{run}"
            result = run_campaign(
                CampaignConfig(
                    jobs=2,
                    backend="process",
                    applications=SUBSET,
                    trace_dir=str(trace_dir),
                )
            )
            assert result.classifications() == serial_diode_reference
            ran = _unit_pids(trace_dir)
            assert ran and os.getpid() not in ran
            pids |= ran
        # A pool forked per campaign would show at least one new pid per run.
        assert len(pids) <= 2

    @needs_fork
    def test_rebinding_between_campaigns_reaches_the_workers(self, monkeypatch):
        config = lambda: CampaignConfig(
            jobs=2, backend="process", applications=["dillo"]
        )
        before = run_campaign(config()).classifications()

        def exploding(*args, **kwargs):
            raise RuntimeError("patched analyze_site")

        monkeypatch.setattr(engine_module, "analyze_site", exploding)
        with pytest.raises(UnitAnalysisError) as info:
            run_campaign(config())
        assert "patched analyze_site" in repr(info.value.__cause__)
        monkeypatch.undo()
        assert run_campaign(config()).classifications() == before

    @needs_proc
    def test_a_worker_killed_between_campaigns_is_replaced(
        self, tmp_path, serial_diode_reference
    ):
        config = lambda trace_dir: CampaignConfig(
            jobs=2, backend="process", applications=SUBSET, trace_dir=trace_dir
        )
        run_campaign(config(str(tmp_path / "first")))
        victim = min(_unit_pids(tmp_path / "first"))
        os.kill(victim, signal.SIGKILL)
        assert not _wait_gone([victim])
        result = run_campaign(config(str(tmp_path / "second")))
        assert result.classifications() == serial_diode_reference
        assert victim not in _unit_pids(tmp_path / "second")

    @pytest.mark.parametrize("store", ["no-store", "warm-cache-dir"])
    def test_second_process_campaign_counters_equal_serial(self, tmp_path, store):
        apps = ["dillo", "swfplay"]
        if store == "no-store":
            options = dict(use_cache=False)
        else:
            options = dict(cache_dir=str(tmp_path / "cache"))
            warm = run_campaign(
                CampaignConfig(backend="serial", jobs=1, applications=apps, **options)
            )
            assert warm.cache_saved > 0
        serial = run_campaign(
            CampaignConfig(backend="serial", jobs=1, applications=apps, **options)
        )
        process = [
            run_campaign(
                CampaignConfig(backend="process", jobs=2, applications=apps, **options)
            )
            for _ in range(2)
        ]
        second = process[1]
        assert second.classifications() == serial.classifications()
        # The events.* lifecycle and lock counts are among the counters.
        assert _counters(second) == _counters(serial)
        if store != "no-store":
            assert second.cache_loaded == serial.cache_loaded > 0


_DIES_WITH_PARENT = textwrap.dedent(
    """
    import json, multiprocessing, sys, time
    from repro.core.campaign import CampaignConfig, run_campaign

    run_campaign(CampaignConfig(backend="process", jobs=2, applications=["dillo"]))
    print(json.dumps([p.pid for p in multiprocessing.active_children()]), flush=True)
    if sys.argv[1] == "idle":
        time.sleep(120)  # between campaigns, until the test kills us
    """
)


def _start_campaign_process(mode):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.Popen(
        [sys.executable, "-c", _DIES_WITH_PARENT, mode],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )


@needs_proc
class TestWorkersDieWithTheirParent:
    def test_sigkilled_parent_leaves_no_worker_behind(self):
        parent = _start_campaign_process("idle")
        try:
            workers = json.loads(parent.stdout.readline())
            assert len(workers) == 2
            assert not any(_gone(pid) for pid in workers)
        finally:
            parent.kill()
            parent.wait(timeout=30)
            parent.stdout.close()
        assert not _wait_gone(workers, timeout=5.0)

    def test_normal_exit_is_prompt_and_leaves_no_child(self):
        parent = _start_campaign_process("exit")
        try:
            workers = json.loads(parent.stdout.readline())
            assert len(workers) == 2
            finished = time.monotonic()
            assert parent.wait(timeout=30) == 0
            assert time.monotonic() - finished < 10.0
        finally:
            if parent.poll() is None:
                parent.kill()
            parent.stdout.close()
        assert not _wait_gone(workers, timeout=5.0)


class TestProcessBackendCli:
    """The process backend through the CLI on dillo+cwebp, ``--jobs 2``.

    A cold-store campaign, its warm rerun and the incremental-session
    ablation run as consecutive campaigns in one process, so they share
    one worker pool — as separate CLI runs never could.
    """

    def test_cold_store_warm_rerun_and_incremental_parity(self, tmp_path, capsys):
        base = ["campaign", "--backend", "process", "--jobs", "2",
                "--apps", "dillo", "cwebp"]
        store = ["--cache-dir", str(tmp_path / "cache")]

        assert main(base + store) == 0
        out = capsys.readouterr().out
        assert "on the process backend" in out
        assert "warm-started 0 entries" in out

        def run_json(*extra):
            assert main(base + list(extra) + ["--json"]) == 0
            return json.loads(capsys.readouterr().out)

        warm = run_json(*store)
        incremental = run_json()
        fresh = run_json("--no-incremental")

        assert warm["backend"] == "process"
        assert warm["cache_store"]["loaded"] > 0
        assert incremental["incremental"] and not fresh["incremental"]
        assert (
            warm["classifications"]
            == incremental["classifications"]
            == fresh["classifications"]
        )
