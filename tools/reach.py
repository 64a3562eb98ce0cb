"""List the ``src/`` functions that no committed workload ever calls.

Runs every workload below in a fresh interpreter with a ``sys.setprofile``
and ``threading.setprofile`` hook (no coverage package needed) and records
which ``src/repro`` function code objects were entered.  The hook is
installed through a generated ``sitecustomize`` module, so interpreters the
workloads start themselves are recorded too.  A process forked from a
recorded interpreter (a process-backend pool worker) records its own calls
apart from its parent's and writes them when it exits.

Each ``def`` under ``src/repro`` then falls into one of three classes:

* **live** — called in some workload's own (non-forked) process;
* **worker-side** — called only inside forked pool workers, never in the
  process that forked them (the process backend's child side);
* **never called** — reached by no workload at all.

The never-called and worker-side functions are printed with their line
counts, grouped by file.  A never-called function nested in another
never-called function is folded into it.  The list is a prompt for review,
not a gate — error paths, test fakes and reference oracles belong in it —
so the exit status is 0 whatever it lists, and 1 only when a workload
failed (the tail of its stderr is printed).  Takes no options, like
``tools/check_links.py``; run from anywhere::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "repro"

#: The recording hook, written to ``<tmp>/sitecustomize.py`` for each run.
#: It records entered code objects by id (each one is kept alive, so an id
#: is never reused) and writes ``main-<pid>.txt`` at interpreter exit, or
#: ``worker-<pid>.txt`` when a forked multiprocessing child finalizes.
BOOTSTRAP = r'''
import atexit
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_PREFIX = os.environ.get("REACH_PREFIX", "")
if _OUT:
    _seen = {}
    _role = ["main"]

    def _hook(frame, event, arg):
        if event == "call":
            _seen[id(frame.f_code)] = frame.f_code

    def _dump(*_):
        path = os.path.join(_OUT, "%s-%d.txt" % (_role[0], os.getpid()))
        with open(path, "w") as handle:
            for code in list(_seen.values()):
                if code.co_filename.startswith(_PREFIX):
                    handle.write("%s\t%d\n" % (code.co_filename, code.co_firstlineno))

    class _Anchor:
        pass

    _anchor = _Anchor()

    def _after_fork_in_child():
        _seen.clear()
        _role[0] = "worker"
        util = sys.modules.get("multiprocessing.util")
        if util is not None:
            # Runs after the child clears the inherited finalizers.
            util.register_after_fork(
                _anchor, lambda _: util.Finalize(None, _dump, exitpriority=-100)
            )

    os.register_at_fork(after_in_child=_after_fork_in_child)
    atexit.register(_dump)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''

#: pytest over bench files.  Left enabled, pytest-benchmark clears
#: ``sys.setprofile`` around every ``benchmark(...)``/``benchmark.pedantic``
#: body, so the hook would record nothing those bodies run;
#: ``--benchmark-disable`` makes both call their target directly.
PYTEST_BENCH = [
    sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
    "--benchmark-disable",
]

#: ``(label, argv)``; ``{tmp}`` is one scratch directory shared by every
#: workload, in order, so ``replay``/``trace``/``events`` read what the
#: campaigns before them wrote.
CLI = [sys.executable, "-m", "repro.cli"]
WORKLOADS: List[Tuple[str, List[str]]] = [
    ("campaign serial", CLI + ["campaign", "--backend", "serial"]),
    ("campaign --no-cache", CLI + ["campaign", "--backend", "serial", "--no-cache"]),
    (
        "campaign stores",
        CLI + ["campaign", "--backend", "serial",
               "--cache-dir", "{tmp}/cache", "--corpus-dir", "{tmp}/corpus"],
    ),
    (
        "campaign stores --skip-known traced",
        CLI + ["campaign", "--backend", "serial", "--cache-dir", "{tmp}/cache",
               "--corpus-dir", "{tmp}/corpus", "--skip-known",
               "--trace-dir", "{tmp}/trace", "--json"],
    ),
    ("campaign thread", CLI + ["campaign", "--backend", "thread", "--jobs", "2"]),
    (
        "campaign process stores",
        CLI + ["campaign", "--backend", "process", "--jobs", "2",
               "--cache-dir", "{tmp}/pcache", "--corpus-dir", "{tmp}/pcorpus",
               "--trace-dir", "{tmp}/ptrace"],
    ),
    (
        "campaign process --skip-known",
        CLI + ["campaign", "--backend", "process", "--jobs", "2",
               "--cache-dir", "{tmp}/pcache", "--corpus-dir", "{tmp}/pcorpus",
               "--skip-known"],
    ),
    ("analyze", CLI + ["analyze", "dillo", "--json"]),
    ("table1", CLI + ["table1"]),
    ("site", CLI + ["site", "vlc", "dec.c@277"]),
    ("replay", CLI + ["replay", "--corpus-dir", "{tmp}/corpus", "--strict"]),
    ("trace", CLI + ["trace", "--trace-dir", "{tmp}/trace",
                     "--chrome", "{tmp}/chrome.json"]),
    ("trace --json", CLI + ["trace", "--trace-dir", "{tmp}/ptrace", "--json"]),
    ("events", CLI + ["events", "--trace-dir", "{tmp}/trace"]),
    ("events --json", CLI + ["events", "--trace-dir", "{tmp}/trace", "--json"]),
    ("events --tail", CLI + ["events", "--trace-dir", "{tmp}/trace", "--tail", "3"]),
    ("events --follow", CLI + ["events", "--trace-dir", "{tmp}/trace",
                               "--follow", "--duration", "0"]),
    ("bench_solver", [sys.executable, "benchmarks/bench_solver.py"]),
    ("bench_triage", [sys.executable, "benchmarks/bench_triage.py"]),
    ("bench_enforcement", [sys.executable, "benchmarks/bench_enforcement.py"]),
    ("bench_coldstart", [sys.executable, "benchmarks/bench_coldstart.py"]),
] + [
    (
        f"perfbench {workload}",
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
    )
    for workload in ("registry-warm", "registry-cold", "registry-resume")
] + [
    ("perfbench --check-oracle", [sys.executable, "perfbench/run.py", "--check-oracle"]),
    (
        "paper-table benches",
        PYTEST_BENCH + [
            "benchmarks/bench_table1_site_classification.py",
            "benchmarks/bench_table2_overflows.py",
            "benchmarks/bench_table2_success_rates.py",
            "benchmarks/bench_table2_timing.py",
            "benchmarks/bench_sec54_blocking_checks.py",
            "benchmarks/bench_fig2_dillo_walkthrough.py",
            "benchmarks/bench_ablations.py",
            "benchmarks/bench_substrate_solver.py",
        ],
    ),
] + [
    (f"example {path.stem}", [sys.executable, str(path.relative_to(ROOT))])
    for path in sorted((ROOT / "examples").glob("*.py"))
]

#: ``(path relative to src/, first line)`` — a code object's
#: ``co_firstlineno`` is its first decorator's line, or the ``def`` line.
Key = Tuple[str, int]


def defined_functions() -> Dict[Key, Tuple[str, int, Key]]:
    """Every ``def`` under ``src/repro``: key -> (qualname, lines, parent).

    ``parent`` is the enclosing function's key, or ``None``.
    """
    functions: Dict[Key, Tuple[str, int, Key]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(SOURCE))
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node: ast.AST, prefix: str, parent) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    key = (relative, first)
                    functions[key] = (
                        prefix + child.name,
                        child.end_lineno - first + 1,
                        parent,
                    )
                    visit(child, f"{prefix}{child.name}.<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return functions


def run_workloads(record_dir: Path, scratch: Path) -> List[str]:
    """Run every workload recorded; return the labels of those that failed."""
    (record_dir / "boot").mkdir()
    (record_dir / "boot" / "sitecustomize.py").write_text(BOOTSTRAP, encoding="utf-8")
    calls = record_dir / "calls"
    calls.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(record_dir / "boot"), str(SOURCE)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REACH_OUT"] = str(calls)
    env["REACH_PREFIX"] = str(PACKAGE)
    failed = []
    for label, argv in WORKLOADS:
        argv = [arg.replace("{tmp}", str(scratch)) for arg in argv]
        print(f"running {label} ...", file=sys.stderr, flush=True)
        completed = subprocess.run(
            argv, cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if completed.returncode != 0:
            failed.append(label)
            print(completed.stderr[-2000:], file=sys.stderr)
    return failed


def read_calls(calls: Path) -> Tuple[Set[Key], Set[Key]]:
    """``(keys called in a main process, keys called in a forked worker)``."""
    called = {"main": set(), "worker": set()}
    for path in calls.glob("*.txt"):
        role = path.name.split("-", 1)[0]
        for line in path.read_text(encoding="utf-8").splitlines():
            filename, first = line.rsplit("\t", 1)
            relative = str(Path(filename).resolve().relative_to(SOURCE))
            called[role].add((relative, int(first)))
    return called["main"], called["worker"]


def main() -> int:
    functions = defined_functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        record_dir = Path(tmp) / "record"
        scratch = Path(tmp) / "scratch"
        record_dir.mkdir()
        scratch.mkdir()
        failed = run_workloads(record_dir, scratch)
        main_calls, worker_calls = read_calls(record_dir / "calls")

    never: Dict[str, List[Tuple[int, str, int]]] = defaultdict(list)
    worker: Dict[str, List[Tuple[int, str, int]]] = defaultdict(list)
    for key, (name, lines, parent) in sorted(functions.items()):
        if key in main_calls:
            continue
        if key in worker_calls:
            worker[key[0]].append((key[1], name, lines))
        elif parent is None or parent in main_calls or parent in worker_calls:
            never[key[0]].append((key[1], name, lines))

    def report(title: str, groups: Dict[str, List[Tuple[int, str, int]]]) -> None:
        count = sum(len(entries) for entries in groups.values())
        total = sum(lines for entries in groups.values() for _, _, lines in entries)
        print(f"{title}: {count} functions, {total} lines")
        for relative in sorted(groups):
            for first, name, lines in groups[relative]:
                print(f"  {relative}:{first} {name} ({lines} lines)")

    source_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in PACKAGE.rglob("*.py")
    )
    print(
        f"{len(functions)} functions in src/repro ({source_lines} lines), "
        f"{len(WORKLOADS)} workloads"
    )
    report("worker-side (called only in forked pool workers)", worker)
    report("never called", never)
    if failed:
        print(f"{len(failed)} workload(s) failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
