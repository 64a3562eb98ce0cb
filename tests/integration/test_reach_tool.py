"""``tools/reach.py``: its function keys match code objects, and calls made
in a forked worker are recorded apart from its parent's."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.smt.interval import Interval, interval_of

ROOT = Path(__file__).resolve().parents[2]


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _key(reach, code):
    relative = Path(code.co_filename).resolve().relative_to(reach.SOURCE)
    return (str(relative), code.co_firstlineno)


def test_keys_match_code_objects_including_decorated_ones():
    reach = _reach()
    functions = reach.defined_functions()
    for code in (
        Interval.point.__code__,  # @staticmethod
        Interval.is_point.fget.__code__,  # @property
        MetricsRegistry.merge.__code__,
        interval_of.__code__,
    ):
        assert _key(reach, code) in functions, code.co_name


def test_forked_worker_calls_are_recorded_apart(tmp_path, monkeypatch):
    reach = _reach()
    script = tmp_path / "fork_once.py"
    script.write_text(
        "import multiprocessing\n"
        "from repro.smt import builder as b\n"
        "from repro.smt.interval import Interval, interval_of\n"
        "def child():\n"
        "    Interval.point(3)\n"
        "if __name__ == '__main__':\n"
        "    interval_of(b.bv_const(1, 8))\n"
        "    process = multiprocessing.get_context('fork').Process(target=child)\n"
        "    process.start()\n"
        "    process.join()\n"
        "    assert process.exitcode == 0\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(reach, "WORKLOADS", [("fork", [sys.executable, str(script)])])
    record_dir = tmp_path / "record"
    record_dir.mkdir()
    assert reach.run_workloads(record_dir, tmp_path) == []
    main_calls, worker_calls = reach.read_calls(record_dir / "calls")
    point = _key(reach, Interval.point.__code__)
    assert point in worker_calls and point not in main_calls
    assert _key(reach, interval_of.__code__) in main_calls


def test_nested_functions_name_their_enclosing_function():
    reach = _reach()
    functions = reach.defined_functions()
    (outer,) = [k for k, v in functions.items() if v[0] == "_lower_term"]
    nested = [v for v in functions.values() if v[0].startswith("_lower_term.<locals>.")]
    assert nested and all(parent == outer for _, _, parent in nested)
    assert functions[outer][2] is None


def test_failed_workload_is_reported(tmp_path, monkeypatch):
    reach = _reach()
    monkeypatch.setattr(
        reach,
        "WORKLOADS",
        [
            ("ok", [sys.executable, "-c", "pass"]),
            ("bad", [sys.executable, "-c", "raise SystemExit(3)"]),
        ],
    )
    record_dir = tmp_path / "record"
    record_dir.mkdir()
    assert reach.run_workloads(record_dir, tmp_path) == ["bad"]
