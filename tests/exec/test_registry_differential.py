"""Differential oracle on the registry: the five application models' generated
code against the reference walker.

The registry programs are the only ones large enough to span several
compile units, so these runs cross unit boundaries — variables handed on
through ``rt.env``, step counters written back between units, and halts,
crashes and step limits raised inside a later unit.  Each program runs in
all four annotation domains on its seed input, on inputs whose relevant
bytes (the taint stage's, as the concolic stage gets them) hypothesis
mutates, and at small step limits.  Reports must be equal field for field;
concolic terms are interned, so equality is identity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_walker import (
    ReferenceConcolic,
    ReferenceInterpreter,
    ReferenceTaint,
    ReferenceWitness,
)
from repro.apps.registry import application_names, get_application
from repro.core.fieldmap import FieldMapper
from repro.core.sites import identify_target_sites
from repro.exec.compiler import compiled
from repro.exec.concolic import ConcolicInterpreter
from repro.exec.concrete import ConcreteInterpreter, ExecutionLimits
from repro.exec.overflow_witness import OverflowWitnessInterpreter
from repro.exec.taint import TaintInterpreter

APPLICATIONS = application_names()

PAIRS = [
    (ConcreteInterpreter, "run", ReferenceInterpreter),
    (TaintInterpreter, "run_taint", ReferenceTaint),
    (OverflowWitnessInterpreter, "run_witness", ReferenceWitness),
]


@lru_cache(maxsize=None)
def relevant_context(name: str) -> Tuple[List[int], Dict[int, Tuple[str, int, int]]]:
    """The application's relevant bytes (over all its sites) and field map."""
    application = get_application(name)
    relevant = set()
    for site in identify_target_sites(application.program, application.seed_input):
        relevant |= site.relevant_bytes
    return sorted(relevant), FieldMapper(application.format_spec).field_map()


def assert_domains_match(name: str, data: bytes, limits: ExecutionLimits) -> None:
    program = get_application(name).program
    for compiled_class, method, reference_class in PAIRS:
        mine = getattr(compiled_class(program, limits=limits), method)(data)
        reference = getattr(reference_class(program, limits=limits), method)(data)
        assert mine == reference, (name, compiled_class.__name__)
    relevant, field_map = relevant_context(name)
    options = dict(relevant_bytes=set(relevant), field_map=field_map, limits=limits)
    mine = ConcolicInterpreter(program, **options).run_concolic(data)
    assert mine == ReferenceConcolic(program, **options).run_concolic(data), name


@pytest.mark.parametrize("name", APPLICATIONS)
def test_seed_run_matches_reference(name):
    assert_domains_match(name, get_application(name).seed_input, ExecutionLimits())


@pytest.mark.parametrize("name", APPLICATIONS)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_mutated_relevant_bytes_match_reference(name, data):
    relevant, _ = relevant_context(name)
    mutated = bytearray(get_application(name).seed_input)
    for offset in data.draw(st.lists(st.sampled_from(relevant), min_size=1, max_size=6)):
        mutated[offset] = data.draw(
            st.one_of(st.sampled_from([0, 1, 0x7F, 0x80, 0xFF]), st.integers(0, 255))
        )
    # Mutated sizes can make loops long; the step limit keeps runs short
    # and is itself part of what must agree.
    assert_domains_match(name, bytes(mutated), ExecutionLimits(max_steps=20_000))


@pytest.mark.parametrize("name", APPLICATIONS)
@pytest.mark.parametrize("max_steps", [1, 5, 30, 60, 96, 200, 919])
def test_small_step_limits_match_reference(name, max_steps):
    assert_domains_match(
        name, get_application(name).seed_input, ExecutionLimits(max_steps=max_steps)
    )


def test_registry_programs_span_several_units():
    """The runs above cross unit boundaries in every annotated domain."""
    program = get_application("dillo").program
    for interpreter in (TaintInterpreter, OverflowWitnessInterpreter, ConcolicInterpreter):
        domain = interpreter(program).domain
        assert len(compiled(program, domain, 32).unit_sizes) > 1
