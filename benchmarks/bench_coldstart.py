"""Cold-start benchmark: what a fresh interpreter imports, and how long it takes.

Without cached bytecode (``PYTHONDONTWRITEBYTECODE=1``) every import
compiles its module from source, so a module a run never calls still costs
its full compile.  For three commands, each in fresh subprocesses, this
prints the best-of-5 wall, the ``repro`` modules loaded and their source
lines:

* ``import repro.core.campaign`` — what a campaign pays before it starts;
* ``import repro.cli``;
* ``python -m repro.cli --help``.

The walls include interpreter start-up and are host-dependent, so they are
reported, not gated.  The gate is on the module sets: none of the modules
a serial campaign never calls (:data:`NEVER_LOADED`) is loaded by any of
the three commands, and the CLI ones load no analysis stack
(:data:`ANALYSIS_STACK`).  ``tests/integration/test_import_discipline.py``
holds a serial campaign itself to the same list.

Standalone::

    PYTHONPATH=src python benchmarks/bench_coldstart.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Fresh-subprocess runs per command; the wall reported is the best.
REPEATS = 5

#: Modules a serial campaign never calls: each loads on first use.
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

#: Package prefixes of the analysis stack, which the CLI loads per subcommand.
ANALYSIS_STACK = (
    "repro.apps",
    "repro.core",
    "repro.exec",
    "repro.formats",
    "repro.lang",
    "repro.smt",
    "repro.triage",
)

#: ``(label, argv after the interpreter, Python that does the same
#: in-process, whether it may load the analysis stack)``.
COMMANDS: Tuple[Tuple[str, List[str], str, bool], ...] = (
    (
        "import repro.core.campaign",
        ["-c", "import repro.core.campaign"],
        "import repro.core.campaign\n",
        True,
    ),
    ("import repro.cli", ["-c", "import repro.cli"], "import repro.cli\n", False),
    (
        "python -m repro.cli --help",
        ["-m", "repro.cli", "--help"],
        "import contextlib, io, runpy\n"
        "sys.argv = ['repro.cli', '--help']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro.cli', run_name='__main__')\n"
        "    except SystemExit:\n"
        "        pass\n",
        False,
    ),
)

#: Appended to a command's in-process form: report what it loaded.
_PROBE = (
    "modules = sorted(n for n in sys.modules if n == 'repro' or n.startswith('repro.'))\n"
    "lines = 0\n"
    "for name in modules:\n"
    "    with open(sys.modules[name].__file__, encoding='utf-8') as handle:\n"
    "        lines += sum(1 for _ in handle)\n"
    "print(json.dumps({'modules': modules, 'lines': lines,\n"
    "                  'never': [n for n in NEVER if n in sys.modules]}))\n"
)


def _env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def best_wall(argv: List[str]) -> float:
    """Best-of-:data:`REPEATS` wall of ``python <argv>`` in fresh processes."""
    walls = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, *argv],
            env=_env(),
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=120,
        )
        walls.append(time.perf_counter() - started)
    return min(walls)


def loaded(code: str) -> dict:
    """``{modules, lines, never}`` after ``code`` runs in a fresh interpreter."""
    script = f"import json, sys\nNEVER = {NEVER_LOADED!r}\n" + code + _PROBE
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def gate_failures(label: str, report: dict, stack_allowed: bool) -> List[str]:
    failures = [f"{label} loads {name}" for name in report["never"]]
    if not stack_allowed:
        stack = [m for m in report["modules"] if m.startswith(ANALYSIS_STACK)]
        if stack:
            failures.append(f"{label} loads the analysis stack: {stack}")
    return failures


def main() -> int:
    bytecode = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"cold start, best of {REPEATS} fresh processes (bytecode cache {bytecode})")
    print(f"  {'command':30s} {'wall':>9s} {'modules':>8s} {'lines':>7s}")
    failures: List[str] = []
    for label, argv, code, stack_allowed in COMMANDS:
        wall = best_wall(argv)
        report = loaded(code)
        print(
            f"  {label:30s} {wall * 1000:7.1f}ms "
            f"{len(report['modules']):>8d} {report['lines']:>7d}"
        )
        failures += gate_failures(label, report, stack_allowed)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
