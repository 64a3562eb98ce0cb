"""Online simplification does linear work on a chain of dependent operations.

Each concolic machine operation simplifies the term it builds.  The
operands are already simplified and keep that form on the term itself, so
the rewrite at each step stops at the new node instead of re-walking the
whole chain below it.  The count of ``_rewrite`` calls is
machine-independent, so the bound needs no timing.
"""

from __future__ import annotations

import importlib

from repro.exec.concolic import ConcolicInterpreter
from repro.lang.program import Program

simplify_module = importlib.import_module("repro.smt.simplify")

#: Machine operations in the chain; each folds one input byte into ``x``.
CHAIN = 200
#: Distinct input bytes the chain reads.
BYTES = 8


def _chain_program() -> Program:
    operators = ["^", "*", "+"]
    steps = " ".join(
        f"x = x {operators[i % 3]} input({i % BYTES});" for i in range(CHAIN)
    )
    return Program.from_source(f"proc main() {{ x = 0; {steps} buf = alloc(x); }}")


def test_rewrites_grow_linearly_and_repeat_runs_reuse_them(monkeypatch):
    calls = []
    rewrite = simplify_module._rewrite

    def counting_rewrite(term, args):
        calls.append(term)
        return rewrite(term, args)

    monkeypatch.setattr(simplify_module, "_rewrite", counting_rewrite)
    program = _chain_program()
    # Field names no other test uses, so every chain term is new here.
    field_map = {offset: (f"linear_work.b{offset}", 8, 0) for offset in range(BYTES)}
    seed = bytes(range(1, BYTES + 1))

    first = ConcolicInterpreter(program, field_map=field_map).run_concolic(seed)
    first_rewrites = len(calls)
    assert first.allocations[0].size_expression is not None
    # One rewrite per operation plus one per distinct zero-extended byte;
    # re-walking the chain at every step would cost ~CHAIN**2 / 2.
    assert CHAIN <= first_rewrites <= CHAIN + 2 * BYTES

    calls.clear()
    second = ConcolicInterpreter(program, field_map=field_map).run_concolic(seed)
    assert len(calls) == 0
    assert second.allocations[0].size_expression is first.allocations[0].size_expression
