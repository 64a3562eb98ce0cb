"""Compile term DAGs to straight-line Python evaluators.

Term evaluation is hot: the heuristics check up to hundreds of candidates
per query, and the baselines' model sampler, when its random draws miss,
evaluates the same conjuncts tens of thousands of times for one sample, so
per-node dispatch and Python call overhead would dominate wall clock.

This module removes that per-evaluation overhead by compiling a term once
into a generated Python function: a topological walk emits one assignment
statement per *distinct* subterm (so DAG sharing is preserved), with all
masks and width constants folded into integer literals.  Evaluating a term
then costs one function call and a handful of arithmetic bytecodes.

The generated code uses the same wrap-around machine semantics as the
interpreter code :mod:`repro.exec.compiler` generates, including its
division and shift edge cases.  Brute-force oracles in
``tests/smt/test_solver_oracles.py`` pin it to the simplifier's independent
constant folder; classification parity across the campaign depends on the
two never diverging.

Compiled functions are cached by the term's intern id (ids are allocated
monotonically and never reused, so entries can never alias a different
term).  A term whose kind the compiler does not know raises
:class:`~repro.smt.evalmodel.EvaluationError`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

from repro.smt.terms import Term, TermKind, mask

#: Compiled evaluators by term id.
_COMPILED: Dict[int, Callable[[Mapping[str, int]], int]] = {}


def compiled_evaluator(term: Term) -> Callable[[Mapping[str, int]], int]:
    """Return the compiled evaluator for ``term``, compiling it on first use."""
    fn = _COMPILED.get(term._id)
    if fn is None:
        fn = _COMPILED[term._id] = _compile(term)
    return fn


def _signed(expr: str, width: int) -> str:
    """Emit the two's-complement reinterpretation of an unsigned value."""
    half = 1 << (width - 1)
    top = 1 << width
    return f"(({expr} - {top}) if {expr} >= {half} else {expr})"


def _compile(term: Term) -> Callable[[Mapping[str, int]], int]:
    from repro.smt.evalmodel import EvaluationError

    # Iterative topological order over the DAG, children before parents.
    order: List[Term] = []
    state: Dict[int, int] = {}  # id -> 0 visiting, 1 done
    stack: List[Term] = [term]
    while stack:
        node = stack[-1]
        node_state = state.get(node._id)
        if node_state is None:
            state[node._id] = 0
            for arg in reversed(node.args):
                if state.get(arg._id) != 1:
                    stack.append(arg)
        else:
            stack.pop()
            if node_state == 0:
                state[node._id] = 1
                order.append(node)

    names: Dict[int, str] = {}
    lines: List[str] = ["def _compiled(_m):"]

    def ref(node: Term) -> str:
        return names[node._id]

    for index, node in enumerate(order):
        out = f"_t{index}"
        kind = node.kind
        width = node.width
        args = node.args

        if kind is TermKind.BV_CONST or kind is TermKind.BOOL_CONST:
            names[node._id] = repr(int(node.value))
            continue
        if kind is TermKind.BV_VAR:
            key = repr(node.name)
            message = repr(f"unassigned bitvector variable {node.name!r}")
            lines.append(f"    if {key} not in _m:")
            lines.append(f"        raise _EvaluationError({message})")
            lines.append(f"    {out} = int(_m[{key}]) & {mask(width)}")
            names[node._id] = out
            continue
        if kind is TermKind.BOOL_VAR:
            key = repr(node.name)
            message = repr(f"unassigned boolean variable {node.name!r}")
            lines.append(f"    if {key} not in _m:")
            lines.append(f"        raise _EvaluationError({message})")
            lines.append(f"    {out} = 1 if _m[{key}] else 0")
            names[node._id] = out
            continue

        a = ref(args[0]) if args else ""
        b = ref(args[1]) if len(args) > 1 else ""
        c = ref(args[2]) if len(args) > 2 else ""

        # Bitvector arithmetic.
        if kind is TermKind.ADD:
            expr = f"({a} + {b}) & {mask(width)}"
        elif kind is TermKind.SUB:
            expr = f"({a} - {b}) & {mask(width)}"
        elif kind is TermKind.MUL:
            expr = f"({a} * {b}) & {mask(width)}"
        elif kind is TermKind.UDIV:
            expr = f"{mask(width)} if {b} == 0 else ({a} // {b}) & {mask(width)}"
        elif kind is TermKind.UREM:
            expr = f"{a} if {b} == 0 else ({a} % {b}) & {mask(width)}"
        elif kind is TermKind.NEG:
            expr = f"(-{a}) & {mask(width)}"
        # Bitwise.
        elif kind is TermKind.AND:
            expr = f"{a} & {b}"
        elif kind is TermKind.OR:
            expr = f"{a} | {b}"
        elif kind is TermKind.XOR:
            expr = f"{a} ^ {b}"
        elif kind is TermKind.NOT:
            expr = f"(~{a}) & {mask(width)}"
        elif kind is TermKind.SHL:
            expr = f"0 if {b} >= {width} else ({a} << {b}) & {mask(width)}"
        elif kind is TermKind.LSHR:
            expr = f"0 if {b} >= {width} else {a} >> {b}"
        elif kind is TermKind.ASHR:
            shift = f"({b} if {b} < {width} else {width - 1})"
            expr = f"({_signed(a, args[0].width)} >> {shift}) & {mask(width)}"
        # Structural.
        elif kind is TermKind.ZEXT:
            names[node._id] = a  # zero-extension of an unsigned value is a no-op
            continue
        elif kind is TermKind.SEXT:
            expr = f"{_signed(a, args[0].width)} & {mask(width)}"
        elif kind is TermKind.EXTRACT:
            high, low = node.params
            expr = f"({a} >> {low}) & {mask(high - low + 1)}"
        elif kind is TermKind.CONCAT:
            expr = f"({a} << {args[1].width}) | {b}"
        elif kind is TermKind.ITE or kind is TermKind.BITE:
            expr = f"{b} if {a} else {c}"
        # Comparisons.
        elif kind is TermKind.EQ:
            expr = f"1 if {a} == {b} else 0"
        elif kind is TermKind.NE:
            expr = f"1 if {a} != {b} else 0"
        elif kind is TermKind.ULT:
            expr = f"1 if {a} < {b} else 0"
        elif kind is TermKind.ULE:
            expr = f"1 if {a} <= {b} else 0"
        elif kind is TermKind.UGT:
            expr = f"1 if {a} > {b} else 0"
        elif kind is TermKind.UGE:
            expr = f"1 if {a} >= {b} else 0"
        elif kind in (TermKind.SLT, TermKind.SLE, TermKind.SGT, TermKind.SGE):
            opw = args[0].width
            op = {
                TermKind.SLT: "<",
                TermKind.SLE: "<=",
                TermKind.SGT: ">",
                TermKind.SGE: ">=",
            }[kind]
            expr = f"1 if {_signed(a, opw)} {op} {_signed(b, opw)} else 0"
        # Boolean connectives.
        elif kind is TermKind.BAND:
            expr = f"{a} & {b}"
        elif kind is TermKind.BOR:
            expr = f"{a} | {b}"
        elif kind is TermKind.BNOT:
            expr = f"1 - {a}"
        elif kind is TermKind.BXOR:
            expr = f"{a} ^ {b}"
        elif kind is TermKind.IMPLIES:
            expr = f"1 if (not {a}) or {b} else 0"
        else:
            raise EvaluationError(f"cannot evaluate term kind {kind}")

        lines.append(f"    {out} = {expr}")
        names[node._id] = out

    lines.append(f"    return {ref(term)}")
    source = "\n".join(lines)
    namespace: Dict[str, object] = {"_EvaluationError": EvaluationError}
    exec(compile(source, "<term-eval>", "exec"), namespace)
    return namespace["_compiled"]  # type: ignore[return-value]
