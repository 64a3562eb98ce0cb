"""The per-site term-fact memos and the restricted candidate assignment.

Three process-lifetime tables derive a site's term facts once per process:
the solver cache's canonical systems (``repro.smt.cache._CANONICAL``), the
target constraints β (``repro.core.overflow._TARGET_CONSTRAINTS``) and the
compressed branch conjunctions (``repro.core.branches._CONJUNCTIONS``).
They must never show in results: every term, every term's creation order,
every classification and every witness must match a run whose tables
never store.  A repeated campaign must build no term in the memoized
functions.

The enforcement loop describes each candidate over only the offsets the
relevant branch conditions read; the flipped branch it picks must be the
one the whole-input description picks.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List

import pytest

import repro
from repro.core.branches import BranchConstraint
from repro.core.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.core.enforcement import EnforcementConfig, GoalDirectedEnforcer
from repro.core.engine import DiodeConfig
from repro.core.inputs import InputGenerator
from repro.smt import builder as smt
from repro.smt.cache import SolverCache
from repro.smt.terms import Term

cache_module = importlib.import_module("repro.smt.cache")
overflow_module = importlib.import_module("repro.core.overflow")
branches_module = importlib.import_module("repro.core.branches")
enforcement_module = importlib.import_module("repro.core.enforcement")
group_module = importlib.import_module("repro.core.group")

#: ``(module, memo attribute)`` of every term-fact memo.
MEMOS = (
    (cache_module, "_CANONICAL"),
    (overflow_module, "_TARGET_CONSTRAINTS"),
    (branches_module, "_CONJUNCTIONS"),
)


class NeverStores(dict):
    """A memo table that forgets every entry: each lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


def disable_memos(setattr_=setattr) -> None:
    """Swap every term-fact memo for a table that never stores."""
    for module, name in MEMOS:
        setattr_(module, name, NeverStores())


def serial_campaign(**overrides) -> CampaignResult:
    return run_campaign(CampaignConfig(backend="serial", jobs=1, **overrides))


def campaign_record(result: CampaignResult) -> dict:
    return {
        "classifications": result.classifications(),
        "witnesses": [dataclasses.asdict(r) for r in result.witness_records],
        "cache_stats": result.cache_stats.as_dict() if result.cache_stats else None,
    }


def creation_dump(memos: str) -> str:
    """Two warm serial registry campaigns, then a cold one, in this process.

    Returns their records and the intern table in creation order.
    """
    if memos == "never-store":
        disable_memos()
    runs = [campaign_record(serial_campaign()) for _ in range(2)]
    runs.append(campaign_record(serial_campaign(use_cache=False, triage=False)))
    table = [
        (term.kind.value, term.width, term.value, term.name, term.params,
         [arg._id for arg in term.args])
        for term in sorted(Term._intern.values(), key=lambda term: term._id)
    ]
    return json.dumps({"runs": runs, "terms": table})


def test_terms_and_results_match_a_run_whose_memos_never_store():
    tests_dir = str(Path(__file__).resolve().parent)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED="0")

    def dump(memos: str) -> dict:
        script = (
            f"import sys; sys.path[:0] = [{src_dir!r}, {tests_dir!r}]; "
            "import test_term_fact_memos as t; "
            f"sys.stdout.write(t.creation_dump({memos!r}))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        return json.loads(completed.stdout)

    memoised, oracle = dump("memo"), dump("never-store")
    assert memoised["runs"] == oracle["runs"]
    assert len(memoised["runs"][0]["witnesses"]) == 14
    terms, expected = memoised["terms"], oracle["terms"]
    assert len(terms) > 1000
    # Report the first divergent term id, not a diff of thousands of rows.
    first_difference = next(
        (index for index, (a, b) in enumerate(zip(terms, expected)) if a != b),
        None,
    )
    assert first_difference is None
    assert len(terms) == len(expected)


def test_racing_threads_store_and_return_the_same_terms():
    """Eight threads (more than cores) derive the same unseen facts at once:
    each gets the same interned terms, and each memo holds them."""
    names = [f"memo_race_{index}" for index in range(4)]
    w, x, y, z = (smt.bv_var(name, 32) for name in names)
    size = smt.add(smt.mul(w, x), smt.shl(y, smt.bv_const(2, 32)))
    occurrences = [
        BranchConstraint(7, smt.ult(v, smt.bv_const(1000 + i, 32)), i, 1)
        for i, v in enumerate((x, z, w))
    ]
    system = [smt.ugt(smt.bvor(z, w), smt.bv_const(40, 32)), smt.ne(x, y)]
    results, errors = [], []
    barrier = threading.Barrier(8)

    def worker():
        try:
            barrier.wait(timeout=30)
            results.append(
                (
                    overflow_module.overflow_constraint(size),
                    branches_module.compress_branches(occurrences)[0].condition,
                    SolverCache().canonicalize(system, fingerprint=()).conjuncts,
                )
            )
        except Exception as error:  # reported by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8
    beta, conjunction, canonical = results[0]
    for result in results[1:]:
        assert result[0] is beta and result[1] is conjunction
        assert all(a is b for a, b in zip(result[2], canonical))
    key = (size, overflow_module.OverflowSpec())
    assert overflow_module._TARGET_CONSTRAINTS[key] is beta
    conditions = tuple(o.condition for o in occurrences)
    assert branches_module._CONJUNCTIONS[conditions] is conjunction
    normalized = tuple(cache_module._normalize(c) for c in system)
    assert cache_module._CANONICAL[normalized][0] == canonical


def count_builds(monkeypatch) -> Dict[str, List[int]]:
    """Count ``Term.make`` calls made inside each memoized function.

    Returns name -> ``[calls, terms built]``.
    """
    counts: Dict[str, List[int]] = {}
    inside: List[str] = []
    make = Term.make.__func__

    def counting_make(cls, *args, **kwargs):
        if inside:
            counts[inside[-1]][1] += 1
        return make(cls, *args, **kwargs)

    def counted(name, function):
        counts[name] = [0, 0]

        def wrapper(*args, **kwargs):
            counts[name][0] += 1
            inside.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    monkeypatch.setattr(Term, "make", classmethod(counting_make))
    monkeypatch.setattr(
        SolverCache, "canonicalize", counted("canonicalize", SolverCache.canonicalize)
    )
    monkeypatch.setattr(
        enforcement_module,
        "overflow_constraint",
        counted("overflow_constraint", enforcement_module.overflow_constraint),
    )
    monkeypatch.setattr(
        group_module,
        "compress_branches",
        counted("compress_branches", group_module.compress_branches),
    )
    return counts


def test_a_repeated_warm_campaign_builds_no_term_in_the_memoized_functions(
    monkeypatch,
):
    serial_campaign()
    counts = count_builds(monkeypatch)
    serial_campaign()
    assert {name: built for name, (_, built) in counts.items()} == {
        "canonicalize": 0,
        "overflow_constraint": 0,
        "compress_branches": 0,
    }
    assert all(calls > 0 for calls, _ in counts.values())
    # The gate measures the memos: without them the same campaign rebuilds.
    disable_memos(monkeypatch.setattr)
    for tally in counts.values():
        tally[:] = [0, 0]
    serial_campaign()
    assert all(built > 0 for _, built in counts.values())


#: Flip selections the restricted assignment is checked under.
SELECTIONS = ("first", "last", "random")


@pytest.mark.parametrize("filter_relevant", [True, False], ids=["relevant", "all"])
@pytest.mark.parametrize(
    "flip_selection, applications",
    [
        ("first", None),
        ("random", None),
        # Enforcing the last flipped branch costs Dillo and VLC about 27 s
        # of CDCL solving per campaign; their iterations are still checked
        # under "last" by the two arms above.
        ("last", ["swfplay", "cwebp", "imagemagick"]),
    ],
    ids=["first", "random", "last"],
)
def test_the_restricted_assignment_picks_the_whole_input_branch(
    monkeypatch, flip_selection, applications, filter_relevant
):
    """At every enforcement iteration, every flip selection picks the same
    branch from the restricted assignment as from the whole-input one."""
    select = GoalDirectedEnforcer._select_flipped
    assignment_for = InputGenerator.assignment_for
    described: List[bytes] = []
    sizes = {"restricted": 0, "whole": 0}

    def recording_assignment_for(self, data, offsets):
        described.append(data)
        return assignment_for(self, data, offsets)

    def checked_select(self, relevant, enforced, assignment):
        data = described[-1]
        whole = assignment_for(self.input_generator, data, range(len(data)))
        restricted, complete = assignment.as_dict(), whole.as_dict()
        for branch in relevant:
            for variable in branch.condition.variables():
                name = str(variable.name)
                assert restricted[name] == complete[name]
        sizes["restricted"] += len(restricted)
        sizes["whole"] += len(complete)
        for mode in SELECTIONS:
            probe = copy.copy(self)
            probe.config = dataclasses.replace(self.config, flip_selection=mode)
            assert select(probe, relevant, enforced, assignment) is select(
                probe, relevant, enforced, whole
            )
        return select(self, relevant, enforced, assignment)

    monkeypatch.setattr(InputGenerator, "assignment_for", recording_assignment_for)
    monkeypatch.setattr(GoalDirectedEnforcer, "_select_flipped", checked_select)
    enforcement = EnforcementConfig(
        flip_selection=flip_selection, filter_relevant=filter_relevant
    )
    serial_campaign(
        diode=DiodeConfig(enforcement=enforcement),
        applications=applications,
        triage=False,
    )
    assert 0 < sizes["restricted"] < sizes["whole"]
