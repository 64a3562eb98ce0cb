"""The host-speed calibration kernel.

A fixed, deterministic, pure-Python workload timed right before and after
every timed campaign.  Its only job is to read how fast this host runs
interpreter-bound Python *right now*; the benchmark scales every timing by
``K_REF_MS / kernel_ms`` so that a host running 20% slow for a few seconds
slows the kernel and the campaign alike and the normalised figure stays put.

The kernel imitates what dominates a registry campaign: a tree-walking
interpreter over small node objects, dict-backed environments, ``isinstance``
dispatch and 32-bit wrap-around arithmetic.  It imports nothing from the
program under test, so no change to the program can change its cost.

Do not edit this file: ``K_REF_MS`` in ``run.py`` was measured against this
exact code, and every recorded benchmark figure is scaled by it.
"""

from __future__ import annotations

import time

MASK = 0xFFFFFFFF


class Const:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class Var:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class BinOp:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right) -> None:
        self.op = op
        self.left = left
        self.right = right


class Assign:
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr) -> None:
        self.name = name
        self.expr = expr


class If:
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond, then, other) -> None:
        self.cond = cond
        self.then = then
        self.other = other


def _evaluate(node, env: dict) -> int:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    left = _evaluate(node.left, env)
    right = _evaluate(node.right, env)
    op = node.op
    if op == "+":
        return (left + right) & MASK
    if op == "*":
        return (left * right) & MASK
    if op == "^":
        return left ^ right
    if op == "<":
        return 1 if left < right else 0
    return (left >> (right & 31)) & MASK


def _execute(body, env: dict, trace: list) -> None:
    for statement in body:
        if isinstance(statement, Assign):
            env[statement.name] = _evaluate(statement.expr, env)
        else:
            taken = _evaluate(statement.cond, env) != 0
            trace.append(taken)
            _execute(statement.then if taken else statement.other, env, trace)


def _program() -> list:
    a, b, c = Var("a"), Var("b"), Var("c")
    return [
        Assign("a", BinOp("+", BinOp("*", a, Const(1103515245)), Const(12345))),
        Assign("b", BinOp("^", b, BinOp(">", a, Const(7)))),
        If(
            BinOp("<", BinOp(">", a, Const(16)), Const(0x8000)),
            [Assign("c", BinOp("+", c, b))],
            [Assign("c", BinOp("^", c, BinOp("*", b, Const(3))))],
        ),
        Assign("b", BinOp("+", b, BinOp(">", c, Const(5)))),
    ]


#: Interpreter iterations per kernel call (50-100 ms on a current server core).
ITERATIONS = 9000


def run_kernel() -> int:
    """Run the fixed workload once and return its checksum."""
    program = _program()
    env = {"a": 1, "b": 2, "c": 3}
    trace: list = []
    for _ in range(ITERATIONS):
        _execute(program, env, trace)
    return (env["a"] ^ env["b"] ^ env["c"] ^ sum(trace)) & MASK


#: The checksum ``run_kernel`` must return; a mismatch means the kernel
#: itself was changed and the calibration no longer holds.
CHECKSUM = 3226537051


def time_kernel() -> float:
    """Run the kernel once; return its wall time in milliseconds."""
    started = time.perf_counter()
    checksum = run_kernel()
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if CHECKSUM is not None and checksum != CHECKSUM:
        raise RuntimeError(
            f"calibration kernel checksum {checksum} != {CHECKSUM}: "
            "the kernel was edited, so K_REF_MS no longer applies"
        )
    return elapsed_ms
