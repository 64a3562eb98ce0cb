"""A run imports only what it calls.

Without cached bytecode every imported module is compiled from source, so
a module a run never calls still costs its full compile.  The process and
thread backends, the persistent stores, the CDCL stack, the baselines and
the trace reader therefore load on first use; these tests hold a serial
campaign and the CLI to that, each in a fresh interpreter (the test
process itself has imported everything).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Modules a serial campaign never calls, so never imports.
NEVER_LOADED = (
    "repro.sched.process",
    "repro.sched.thread",
    "repro.smt.cachestore",
    "repro.store.base",
    "repro.store.locking",
    "repro.smt.sat",
    "repro.smt.bitblast",
    "repro.smt.cnf",
    "repro.smt.sampler",
    "repro.core.baselines",
    "repro.obs.report",
    "multiprocessing",
    "concurrent.futures",
)

#: ``CampaignConfig`` keywords of perfbench's serial workloads.
CONFIGS = {
    "registry-warm": "backend='serial', jobs=1",
    "registry-cold": "backend='serial', jobs=1, use_cache=False, triage=False",
}

#: ``repro`` modules the campaign itself imports, after ``repro.core.campaign``.
FIRST_IMPORTED_DURING = {
    "registry-warm": [
        "repro.triage",
        "repro.triage.corpus",
        "repro.triage.engine",
        "repro.triage.minimize",
        "repro.triage.signature",
    ],
    "registry-cold": [],
}

#: Tells the caller which of ``NEVER_LOADED`` are in ``sys.modules``.
_REPORT = (
    "import json, sys\n"
    "loaded = [name for name in {never!r} if name in sys.modules]\n"
    "print(json.dumps({{'loaded': loaded, 'result': result}}))\n"
)


def _run(body: str) -> dict:
    """Run ``body`` (which sets ``result``) in a fresh interpreter."""
    script = body + _REPORT.format(never=NEVER_LOADED)
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(CONFIGS))
def test_a_serial_campaign_imports_only_what_it_calls(workload):
    report = _run(
        "import sys\n"
        "from repro.core.campaign import CampaignConfig, CampaignEngine\n"
        "from repro.apps.registry import application_names\n"
        "before = set(sys.modules)\n"
        "run = CampaignEngine(CampaignConfig(\n"
        f"    applications=application_names(), {CONFIGS[workload]})).run()\n"
        "result = {\n"
        "    'new': sorted(name for name in set(sys.modules) - before\n"
        "                  if name.startswith('repro')),\n"
        "    'totals': run.table1_totals(),\n"
        "}\n"
    )
    assert report["loaded"] == []
    assert report["result"]["new"] == FIRST_IMPORTED_DURING[workload]
    totals = report["result"]["totals"]
    assert totals["diode_exposes_overflow"] == 14


def test_importing_the_cli_loads_no_deferred_module():
    report = _run(
        "import sys\n"
        "import repro.cli\n"
        "result = sorted(name for name in sys.modules if name.startswith('repro.'))\n"
    )
    assert report["loaded"] == []
    # The parser names the applications, yet loads no application model.
    assert not [name for name in report["result"] if name.startswith("repro.apps")]


def test_the_trace_subcommand_reads_a_trace_without_the_analysis_stack(tmp_path):
    from repro.core.campaign import CampaignConfig, run_campaign

    run_campaign(
        CampaignConfig(
            backend="serial", jobs=1, applications=["vlc"], trace_dir=str(tmp_path)
        )
    )
    report = _run(
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main(['trace', '--trace-dir', {str(tmp_path)!r}])\n"
        "result = {\n"
        "    'code': code,\n"
        "    'vlc': 'dec.c@277' in out.getvalue(),\n"
        "    'stack': sorted(name for name in sys.modules if name.startswith(\n"
        "        ('repro.core', 'repro.smt', 'repro.exec', 'repro.lang', 'repro.apps'))),\n"
        "}\n"
    )
    assert report["result"] == {"code": 0, "vlc": True, "stack": []}


def test_the_sampler_loads_on_first_sample_not_on_a_check():
    """``repro.smt.ModelSampler`` is a lazy export: importing the package
    and checking a query leave the sampler unloaded; ``sample_models`` and
    the attribute load it, and an unknown attribute still raises."""
    report = _run(
        "import sys\n"
        "import repro.smt as smt\n"
        "from repro.smt import builder as b\n"
        "x = b.bv_var('x', 32)\n"
        "solver = smt.PortfolioSolver()\n"
        "checked = solver.check([b.ugt(x, 100)]).is_sat\n"
        "after_check = 'repro.smt.sampler' in sys.modules\n"
        "sampled = len(solver.sample_models([b.ugt(x, 100)], 2, seed=1))\n"
        "after_sample = 'repro.smt.sampler' in sys.modules\n"
        "try:\n"
        "    smt.NoSuchName\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "from repro.smt.sampler import ModelSampler\n"
        "result = {\n"
        "    'checked': checked, 'after_check': after_check,\n"
        "    'sampled': sampled, 'after_sample': after_sample,\n"
        "    'export': smt.ModelSampler is ModelSampler,\n"
        "    'listed': 'ModelSampler' in smt.__all__,\n"
        "    'unknown': unknown,\n"
        "}\n"
    )
    assert report["result"] == {
        "checked": True,
        "after_check": False,
        "sampled": 2,
        "after_sample": True,
        "export": True,
        "listed": True,
        "unknown": "AttributeError",
    }


def test_first_use_of_a_deferred_module_keeps_the_process_pool(tmp_path):
    """The pool key digests the bindings of every loaded ``repro`` module.

    A module first imported by the parent after its pool forked would
    change that digest and fork a new pool; the digest pre-imports every
    deferred module so first use between campaigns keeps the pool.
    """
    report = _run(
        "import sys\n"
        "from repro.core.campaign import CampaignConfig, run_campaign\n"
        "from repro.sched import process\n"
        "lazy_before = [name for name in ('repro.smt.sat', 'repro.obs.report')\n"
        "               if name in sys.modules]\n"
        "config = lambda trace_dir=None: CampaignConfig(\n"
        "    backend='process', jobs=2, applications=['vlc'], trace_dir=trace_dir)\n"
        f"run_campaign(config({str(tmp_path)!r}))\n"
        "executor = process._POOL.executor\n"
        "from repro.obs import load_trace_dir\n"
        "from repro.smt import builder as b\n"
        "from repro.smt.solver import PortfolioSolver\n"
        f"spans = len(load_trace_dir({str(tmp_path)!r}).spans)\n"
        "# 30174 = 143 * 211 + 1: only the CDCL search finds the factors.\n"
        "x = b.bv_var('x', 8); y = b.bv_var('y', 8); z = b.bv_var('z', 8)\n"
        "product = b.mul(b.zext(x, 16), b.zext(y, 16))\n"
        "check = PortfolioSolver().check([\n"
        "    b.eq(b.add(product, b.zext(z, 16)), 30174),\n"
        "    b.ugt(x, 1), b.ugt(y, 1), b.ult(x, y), b.ult(z, 3)])\n"
        "run_campaign(config())\n"
        "result = {\n"
        "    'lazy_before': lazy_before,\n"
        "    'spans': spans > 0,\n"
        "    'stage': check.stages_tried[-1],\n"
        "    'same_pool': process._POOL.executor is executor,\n"
        "}\n"
        "process.shutdown_pool()\n"
    )
    assert report["result"] == {
        "lazy_before": [],
        "spans": True,
        "stage": "bitblast",
        "same_pool": True,
    }
