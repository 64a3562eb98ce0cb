"""Operational semantics and dynamic analyses for the core language.

This package implements the paper's Figures 4–6 (concrete and symbolic
small-step semantics) as executable interpreters, plus the dynamic
analyses DIODE layers on top of them.  All of them run one execution path:

* :mod:`repro.exec.compiler` — the compile-once executor: each program is
  translated into nested closures once per annotation domain and word
  width, and the closures are cached on the shared program.
* :mod:`repro.exec.concrete` — plain concrete execution (used to run
  candidate test inputs and observe whether the overflow fires).
* :mod:`repro.exec.taint` — byte-granular dynamic taint tracking (the
  Valgrind-based stage of the paper), used for target-site identification
  and relevant-input-byte discovery.
* :mod:`repro.exec.concolic` — paired concrete/symbolic execution restricted
  to the relevant input bytes (the paper's staged symbolic recording), used
  for target-expression and branch-condition extraction.
* :mod:`repro.exec.overflow_witness` — did an allocation size wrap, and
  through which operators (detection and triage).
* :mod:`repro.exec.memcheck` — allocation-aware invalid read/write detection
  (the paper's Valgrind memcheck stage).
"""

from repro.exec.values import MachineInt, WORD_WIDTH
from repro.exec.state import (
    AllocationRecord,
    BranchObservation,
    Memory,
    MemoryBlock,
)
from repro.exec.trace import (
    ExecutionOutcome,
    ExecutionReport,
    MemoryError as MemoryAccessError,
    MemoryErrorKind,
)
from repro.exec.concrete import ConcreteInterpreter, ExecutionLimits
from repro.exec.taint import TaintInterpreter, TaintReport
from repro.exec.concolic import ConcolicInterpreter, ConcolicReport
from repro.exec.memcheck import MemcheckMonitor

__all__ = [
    "MachineInt",
    "WORD_WIDTH",
    "AllocationRecord",
    "BranchObservation",
    "Memory",
    "MemoryBlock",
    "ExecutionOutcome",
    "ExecutionReport",
    "MemoryAccessError",
    "MemoryErrorKind",
    "ConcreteInterpreter",
    "ExecutionLimits",
    "TaintInterpreter",
    "TaintReport",
    "ConcolicInterpreter",
    "ConcolicReport",
    "MemcheckMonitor",
]
