"""Golden seed-run fingerprints of the five application models.

The fingerprints were captured with the tree-walking interpreter the
compiled executor replaced.  Every annotation domain must reproduce them
exactly on each application's seed input: the outcome, the step count, a
hash of the branch path (label, direction and sequence index of every
branch) and the allocation list (site label, requested size, sequence
index).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.registry import get_application
from repro.exec.concolic import ConcolicInterpreter
from repro.exec.concrete import ConcreteInterpreter
from repro.exec.overflow_witness import OverflowWitnessInterpreter
from repro.exec.taint import TaintInterpreter

GOLDEN = {
    "dillo": {
        "outcome": "completed",
        "steps": 920,
        "branch_path": "01ff1bd367640bab",
        "allocations": [(47, 400, 30), (48, 1121, 31), (49, 1128, 32), (50, 2240, 33), (51, 800, 34), (52, 774, 35), (53, 560, 36), (54, 200, 37), (55, 536, 38), (62, 112000, 41), (63, 112000, 42), (64, 84000, 43), (65, 8192, 44)],
    },
    "vlc": {
        "outcome": "completed",
        "steps": 97,
        "branch_path": "86c738facc4c9da2",
        "allocations": [(46, 10, 46), (49, 272, 49), (59, 108, 53), (87, 256, 63)],
    },
    "swfplay": {
        "outcome": "completed",
        "steps": 70,
        "branch_path": "990ff45417aa3f9e",
        "allocations": [(22, 220000, 22), (23, 640, 23), (24, 1920, 24), (25, 320, 25), (26, 3072, 26), (27, 230400, 27), (28, 307200, 28), (29, 230400, 29)],
    },
    "cwebp": {
        "outcome": "completed",
        "steps": 55,
        "branch_path": "0a1d43d3bcc55f88",
        "allocations": [(18, 320, 18), (19, 240, 19), (20, 280, 20), (21, 768, 21), (22, 19200, 22), (23, 88, 23), (24, 76800, 24)],
    },
    "imagemagick": {
        "outcome": "completed",
        "steps": 98,
        "branch_path": "9a80f5311102b163",
        "allocations": [(56, 32, 56), (57, 256, 57), (58, 32, 58), (59, 1344, 59), (60, 768, 60), (65, 48, 62), (66, 12288, 63), (67, 12288, 64), (68, 9472, 65)],
    },
}

RUNS = {
    "concrete": lambda program, data: ConcreteInterpreter(program).run(data),
    "taint": lambda program, data: TaintInterpreter(program).run_taint(data).execution,
    "witness": lambda program, data: OverflowWitnessInterpreter(program)
    .run_witness(data)
    .execution,
    "concolic": lambda program, data: ConcolicInterpreter(program)
    .run_concolic(data)
    .execution,
}


def fingerprint(report) -> dict:
    path = [(b.label, b.taken, b.sequence_index) for b in report.branches]
    return {
        "outcome": report.outcome.value,
        "steps": report.steps,
        "branch_path": hashlib.sha256(repr(path).encode()).hexdigest()[:16],
        "allocations": [
            (a.site_label, a.requested_size, a.sequence_index) for a in report.allocations
        ],
    }


@pytest.mark.parametrize("domain", sorted(RUNS))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_run_matches_golden_fingerprint(name, domain):
    app = get_application(name)
    report = RUNS[domain](app.program, app.seed_input)
    assert fingerprint(report) == GOLDEN[name]
    assert not report.memory_errors
