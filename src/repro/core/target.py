"""Target expression extraction (paper Section 4.2).

Rerun the application model under the concolic interpreter, restricted to
the relevant input bytes of one target site, and collect for every dynamic
execution of that site the symbolic *target expression* — how the program
computes the allocation size from the input fields — together with the
branch condition φ observed along the seed path (the paper's
``target(⟨S,σ⟩, ℓ)`` function of Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.fieldmap import FieldMapper
from repro.core.sites import TargetSite
from repro.exec.concolic import ConcolicInterpreter, ConcolicReport, SymbolicBranch
from repro.lang.program import Program
from repro.smt.terms import Term


@dataclass
class TargetObservation:
    """One ⟨target expression, branch condition φ⟩ pair for a target site.

    Attributes:
        site: the target site this observation belongs to.
        size_expression: symbolic expression of the allocation size (``B`` in
            the paper's algorithm); ``None`` when the size turned out not to
            be symbolic on this execution (possible when the taint stage was
            conservative).
        seed_size: the concrete size allocated by the seed input.
        seed_path: the branch observations of the whole seed run, in
            execution order (only branches influenced by relevant bytes carry
            a symbolic condition).
        occurrence: index of this dynamic execution of the site (0-based).
    """

    site: TargetSite
    size_expression: Optional[Term]
    seed_size: int
    seed_path: Sequence[SymbolicBranch]
    occurrence: int


def extract_target_observations(
    program: Program,
    seed_input: bytes,
    site: Union[TargetSite, Sequence[TargetSite]],
    field_mapper: Optional[FieldMapper] = None,
    max_observations: int = 4,
) -> Union[List[TargetObservation], List[List[TargetObservation]]]:
    """Run the concolic stage for one target site.

    Returns one observation per dynamic execution of the site on the seed
    input (capped at ``max_observations`` — repeated executions of the same
    site almost always yield the same expression).

    ``site`` may also be a sequence of sites with the same relevant bytes
    (a seed-path group): the one concolic run then serves them all, and
    the result is one observation list per site, in order.
    """
    sites = [site] if isinstance(site, TargetSite) else list(site)
    relevant = set(sites[0].relevant_bytes)
    if any(set(other.relevant_bytes) != relevant for other in sites[1:]):
        raise ValueError("sites of one concolic run must share relevant bytes")
    mapper = field_mapper or FieldMapper(None)
    interpreter = ConcolicInterpreter(
        program,
        relevant_bytes=relevant,
        field_map=mapper.field_map(),
    )
    report = interpreter.run_concolic(seed_input)
    # One seed-path tuple for every observation of the run, so consumers
    # can key shared per-path work by its identity.
    seed_path = tuple(report.branches)
    per_site = [
        observations_from_report(report, member, max_observations, seed_path)
        for member in sites
    ]
    return per_site[0] if isinstance(site, TargetSite) else per_site


def observations_from_report(
    report: ConcolicReport,
    site: TargetSite,
    max_observations: int = 4,
    seed_path: Optional[Sequence[SymbolicBranch]] = None,
) -> List[TargetObservation]:
    """Build target observations from an existing concolic report.

    ``seed_path`` is the report's branch list as a tuple, when the caller
    already built one.
    """
    observations: List[TargetObservation] = []
    seen_expressions: Dict[int, int] = {}
    if seed_path is None:
        seed_path = tuple(report.branches)
    for occurrence, allocation in enumerate(report.allocations_at(site.site_label)):
        if allocation.size_expression is not None:
            key = id(allocation.size_expression)
            if key in seen_expressions:
                continue
            seen_expressions[key] = occurrence
        observations.append(
            TargetObservation(
                site=site,
                size_expression=allocation.size_expression,
                seed_size=allocation.requested_size,
                seed_path=seed_path,
                occurrence=occurrence,
            )
        )
        if len(observations) >= max_observations:
            break
    return observations
