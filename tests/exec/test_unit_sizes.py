"""Count gates on the generated code: bounded compile units, compact source.

``compile()`` needs memory in proportion to its input, so no input may
exceed :data:`repro.exec.compiler.UNIT_CHARS`; and compile time is about
proportional to the source, so the registry's total is capped too.  Both
are character counts the generator records on the compiled artifact, the
same on every machine.
"""

from __future__ import annotations

from repro.apps.registry import application_names, get_application
from repro.exec.compiler import UNIT_CHARS, compiled
from repro.exec.concolic import ConcolicInterpreter
from repro.exec.overflow_witness import OverflowWitnessInterpreter
from repro.exec.taint import TaintInterpreter

#: The registry's ⟨program, domain⟩ pairs generate at most this much source.
REGISTRY_SOURCE_CEILING = 240_000


def registry_unit_sizes():
    """Unit sizes of every registry program in every domain a campaign runs."""
    sizes = {}
    for name in application_names():
        program = get_application(name).program
        for interpreter in (TaintInterpreter, OverflowWitnessInterpreter, ConcolicInterpreter):
            domain = interpreter(program).domain
            sizes[name, domain.key] = compiled(program, domain, 32).unit_sizes
    return sizes


def test_no_compile_unit_exceeds_the_budget():
    sizes = registry_unit_sizes()
    assert len(sizes) == 15
    assert UNIT_CHARS == 8000
    assert max(max(units) for units in sizes.values()) <= UNIT_CHARS


def test_registry_source_stays_compact():
    total = sum(sum(units) for units in registry_unit_sizes().values())
    assert total <= REGISTRY_SOURCE_CEILING
