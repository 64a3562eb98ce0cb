"""The concolic annotators' computed tables.

Each :class:`~repro.exec.concolic.ConcolicDomain` annotator maps its
interned operands to the finished term, so a repeated operation builds
nothing.  The tables must never show in results: every term and every
term's creation order must match a memo-free domain's.  The oracle below
is that domain — the annotator bodies without the tables.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

import repro
from repro.apps.registry import application_names, get_application
from repro.core.fieldmap import FieldMapper
from repro.core.sites import identify_target_sites
from repro.exec.concolic import (
    ConcolicDomain,
    ConcolicInterpreter,
    SymbolicBranch,
    _symbolic_binary,
    _symbolic_unary,
    input_byte_variable,
)
from repro.lang.program import Program
from repro.smt import builder as smt
from repro.smt.terms import Term

concolic_module = importlib.import_module("repro.exec.concolic")

#: Dillo's IHDR width field: the bytes most of its sites read.
DILLO_WIDTH_BYTES = range(16, 20)


class MemoFreeDomain(ConcolicDomain):
    """The concolic annotators with no computed tables (the oracle)."""

    key = "concolic-memo-free"

    def input_byte(self, width: int) -> Callable[[Any, int, Any], Optional[Term]]:
        def annotate(rt: Any, offset: int, offset_term: Any) -> Optional[Term]:
            relevant = rt.relevant_bytes
            if relevant is not None and offset not in relevant:
                return None
            mapping = rt.field_map.get(offset)
            if mapping is not None:
                field_name, field_width, low_bit = mapping
                field_var = smt.bv_var(field_name, field_width)
                if field_width <= 8 and low_bit == 0:
                    byte_term = field_var
                else:
                    byte_term = smt.extract(field_var, low_bit + 7, low_bit)
                return smt.zext(byte_term, width)
            return smt.zext(input_byte_variable(offset), width)

        return annotate

    def unary(self, op, width: int) -> Callable[[Any], Optional[Term]]:
        build, finish = _symbolic_unary(op, width), self._finish()

        def annotate(term: Any) -> Optional[Term]:
            return None if term is None else finish(build(term))

        return annotate

    def binary(self, op, width: int) -> Callable[[int, Any, int, Any], Optional[Term]]:
        build, finish = _symbolic_binary(op, width), self._finish()

        def annotate(left: int, left_term: Any, right: int, right_term: Any) -> Optional[Term]:
            if left_term is None:
                if right_term is None:
                    return None
                left_term = smt.bv_const(left, width)
            elif right_term is None:
                right_term = smt.bv_const(right, width)
            return finish(build(left_term, right_term))

        return annotate

    def branch(self, label: int, width: int) -> Callable[..., Optional[Term]]:
        zero, finish = smt.bv_const(0, width), self._finish()

        def observe(rt: Any, term: Any, taken: bool, seq: int) -> Optional[Term]:
            if term is None:
                return None
            truth = smt.ne(term, zero)
            oriented = finish(truth if taken else smt.bnot(truth))
            rt.concolic_report.branches.append(SymbolicBranch(label, taken, oriented, seq))
            return oriented

        return observe


MEMO_FREE = MemoFreeDomain()


class MemoFreeInterpreter(ConcolicInterpreter):
    """A concolic interpreter running the memo-free oracle domain."""

    def __init__(self, program: Program, **kwargs: Any) -> None:
        super().__init__(program, **kwargs)
        self.domain = MEMO_FREE


#: ``(application, relevant bytes, field map, seed)`` of one target site.
Site = Tuple[str, frozenset, Dict[int, Tuple[str, int, int]], bytes]


def registry_sites() -> List[Site]:
    """Every registry target site, with what its concolic stage is given."""
    sites = []
    for name in application_names():
        application = get_application(name)
        field_map = FieldMapper(application.format_spec).field_map()
        for site in identify_target_sites(application.program, application.seed_input):
            sites.append((name, site.relevant_bytes, field_map, application.seed_input))
    return sites


def fresh_program(name: str) -> Program:
    """The application's program with an empty compile cache (so empty tables)."""
    shared = get_application(name).program
    return Program(name=shared.name, body=shared.body)


def terms_of(interpreter: type, program: Program, site: Site) -> Tuple[tuple, tuple]:
    """Every branch condition and allocation size term of one concolic run."""
    _, relevant, field_map, seed = site
    report = interpreter(
        program, relevant_bytes=relevant, field_map=field_map
    ).run_concolic(seed)
    return (
        tuple(branch.condition for branch in report.branches),
        tuple(allocation.size_expression for allocation in report.allocations),
    )


def assert_identical(left: Tuple[tuple, tuple], right: Tuple[tuple, tuple]) -> None:
    for mine, theirs in zip(left, right):
        assert len(mine) == len(theirs)
        assert all(a is b for a, b in zip(mine, theirs))


def creation_dump(interpreter_name: str) -> str:
    """Run every registry site's concolic stage; the intern table in creation order."""
    interpreter = {"memo": ConcolicInterpreter, "memo-free": MemoFreeInterpreter}[
        interpreter_name
    ]
    for site in registry_sites():
        terms_of(interpreter, get_application(site[0]).program, site)
    dump = [
        (term.kind.value, term.width, term.value, term.name, term.params,
         [arg._id for arg in term.args])
        for term in sorted(Term._intern.values(), key=lambda term: term._id)
    ]
    return json.dumps(dump)


@pytest.fixture(scope="module")
def sites() -> List[Site]:
    return registry_sites()


@pytest.fixture(scope="module")
def dillo_width_site(sites) -> Site:
    return next(
        site for site in sites
        if site[0] == "dillo" and set(DILLO_WIDTH_BYTES) <= site[1]
    )


@pytest.mark.parametrize("memo_free_first", [True, False], ids=["oracle-first", "memo-first"])
def test_every_registry_site_matches_the_memo_free_oracle(sites, memo_free_first):
    programs: Dict[str, Program] = {}
    for site in sites:
        program = programs.setdefault(site[0], fresh_program(site[0]))
        order = [MemoFreeInterpreter, ConcolicInterpreter]
        if not memo_free_first:
            order.reverse()
        first, second = (terms_of(interpreter, program, site) for interpreter in order)
        assert_identical(first, second)


def test_terms_are_created_in_the_memo_free_order():
    tests_dir = str(Path(__file__).resolve().parent)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED="0")

    def dump(interpreter_name: str) -> list:
        script = (
            f"import sys; sys.path[:0] = [{src_dir!r}, {tests_dir!r}]; "
            "import test_concolic_memo as t; "
            f"sys.stdout.write(t.creation_dump({interpreter_name!r}))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        return json.loads(completed.stdout)

    memoised, memo_free = dump("memo"), dump("memo-free")
    assert len(memoised) > 1000
    # Report the first divergent term id, not a diff of thousands of rows.
    first_difference = next(
        (index for index, (a, b) in enumerate(zip(memoised, memo_free)) if a != b),
        None,
    )
    assert first_difference is None
    assert len(memoised) == len(memo_free)


def test_a_repeated_run_builds_and_simplifies_nothing(monkeypatch, dillo_width_site):
    program = get_application("dillo").program
    first = terms_of(ConcolicInterpreter, program, dillo_width_site)
    calls: Dict[str, int] = {"make": 0, "simplify": 0}
    make, simplify = Term.make.__func__, concolic_module.simplify

    def counting_make(cls, *args, **kwargs):
        calls["make"] += 1
        return make(cls, *args, **kwargs)

    def counting_simplify(term):
        calls["simplify"] += 1
        return simplify(term)

    monkeypatch.setattr(Term, "make", classmethod(counting_make))
    monkeypatch.setattr(concolic_module, "simplify", counting_simplify)
    second = terms_of(ConcolicInterpreter, program, dillo_width_site)
    assert calls == {"make": 0, "simplify": 0}
    assert_identical(first, second)
    # The gate measures the tables: without them the same run rebuilds.
    terms_of(MemoFreeInterpreter, program, dillo_width_site)
    assert calls["make"] > 0 and calls["simplify"] > 0


def test_racing_threads_share_one_table_and_get_the_oracle_terms(dillo_width_site):
    expected = terms_of(MemoFreeInterpreter, fresh_program("dillo"), dillo_width_site)
    program = fresh_program("dillo")
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    results: List[Tuple[tuple, tuple]] = []
    errors: List[Exception] = []

    def worker() -> None:
        try:
            barrier.wait(timeout=60)
            results.append(terms_of(ConcolicInterpreter, program, dillo_width_site))
        except Exception as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(threads_count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-lookup and mid-build
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == threads_count
    for result in results:
        assert_identical(result, expected)
