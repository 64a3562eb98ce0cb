"""Bitvector SMT substrate used by DIODE in place of the Z3 solver.

The paper uses Z3 to decide quantifier-free bitvector constraints built from
the symbolic target expressions and branch conditions.  This package provides
the same capability from scratch:

* :mod:`repro.smt.terms` — a hash-consed bitvector/boolean term language.
* :mod:`repro.smt.builder` — ergonomic constructors (``bv``, ``add``, ``ult``
  ...).
* :mod:`repro.smt.simplify` — a rewriting simplifier and constant folder.
* :mod:`repro.smt.interval` — unsigned interval analysis with backward
  propagation, used both to prove unsatisfiability cheaply and to bound the
  candidates of the heuristics and the sampler.
* :mod:`repro.smt.bitblast`, :mod:`repro.smt.cnf`, :mod:`repro.smt.sat` — a
  complete decision procedure: Tseitin bit-blasting into CNF and a CDCL SAT
  solver.
* :mod:`repro.smt.solver` — the portfolio front end exposed to the rest of
  the system: simplify → intervals → heuristics → CDCL.
* :mod:`repro.smt.sampler` — constraint-guided random model sampling (used to
  reproduce the paper's 200-input success-rate experiments).  It is no
  solver layer, and loads on first use.
"""

import importlib

from repro.smt.terms import Term, TermKind, BV, BOOL
from repro.smt.builder import (
    bv_const,
    bv_var,
    bool_const,
    bool_var,
    add,
    sub,
    mul,
    udiv,
    urem,
    neg,
    bvand,
    bvor,
    bvxor,
    bvnot,
    shl,
    lshr,
    ashr,
    zext,
    sext,
    extract,
    concat,
    ite,
    eq,
    ne,
    ult,
    ule,
    ugt,
    uge,
    slt,
    sle,
    sgt,
    sge,
    band,
    bor,
    bnot,
    implies,
)
from repro.smt.cache import SolverCache, SolverCacheStats
from repro.smt.evalmodel import Model, evaluate
from repro.smt.simplify import simplify
from repro.smt.interval import Interval, interval_of, propagate_intervals
from repro.smt.solver import (
    PortfolioSolver,
    SolverResult,
    SolverSession,
    SolverStatus,
)


def __getattr__(name: str):
    # PEP 562: only the Section 5.5/5.6 baselines sample models, and the
    # campaign never runs them.
    if name == "ModelSampler":
        return importlib.import_module("repro.smt.sampler").ModelSampler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Term",
    "TermKind",
    "BV",
    "BOOL",
    "bv_const",
    "bv_var",
    "bool_const",
    "bool_var",
    "add",
    "sub",
    "mul",
    "udiv",
    "urem",
    "neg",
    "bvand",
    "bvor",
    "bvxor",
    "bvnot",
    "shl",
    "lshr",
    "ashr",
    "zext",
    "sext",
    "extract",
    "concat",
    "ite",
    "eq",
    "ne",
    "ult",
    "ule",
    "ugt",
    "uge",
    "slt",
    "sle",
    "sgt",
    "sge",
    "band",
    "bor",
    "bnot",
    "implies",
    "Model",
    "evaluate",
    "simplify",
    "Interval",
    "interval_of",
    "propagate_intervals",
    "PortfolioSolver",
    "SolverResult",
    "SolverSession",
    "SolverStatus",
    "ModelSampler",
    "SolverCache",
    "SolverCacheStats",
]
