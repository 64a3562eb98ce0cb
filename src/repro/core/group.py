"""Seed-path groups: the sites of one application that share relevant bytes.

The concolic stage (paper Section 4.2) reruns the application restricted to
the relevant input bytes of one target site, so its report is a pure
function of ⟨application, relevant-byte set⟩.  Sites with the same set
therefore share one seed path, one list of compressed branch constraints
and — since a candidate's witness run does not depend on the site it is
checked at — one witness run per distinct enforcement candidate.

A :class:`SeedPathGroup` holds that shared work for one group task and does
each piece at most once, on first use.  It is scoped to the task on
purpose: a memo kept longer (on a per-application context, say) would make
the run counts of a process-pool worker depend on which groups it happened
to run before.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.branches import (
    BranchConstraint,
    compress_branches,
    extract_branch_constraints,
)
from repro.core.sites import TargetSite
from repro.core.target import TargetObservation, extract_target_observations

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fieldmap import FieldMapper
    from repro.exec.overflow_witness import OverflowWitnessReport
    from repro.lang.program import Program


def seed_path_groups(
    sites: Sequence[TargetSite], indices: Optional[Iterable[int]] = None
) -> List[Tuple[int, ...]]:
    """Indices into ``sites`` (all, or only ``indices``) grouped by relevant bytes.

    Groups are ordered by their first site and list their sites in order.
    """
    groups: Dict[frozenset, List[int]] = {}
    for index in range(len(sites)) if indices is None else indices:
        groups.setdefault(frozenset(sites[index].relevant_bytes), []).append(index)
    return [tuple(members) for members in groups.values()]


class SeedPathGroup:
    """The work the sites of one seed-path group share, done once."""

    def __init__(self, sites: Sequence[TargetSite]) -> None:
        self.sites = tuple(sites)
        self._observations: Optional[Dict[int, List[TargetObservation]]] = None
        #: ``id(seed path)`` -> (seed path, its compressed constraints); the
        #: path is kept so its id cannot be reused while the entry lives.
        self._branches: Dict[int, Tuple[Sequence, Tuple[BranchConstraint, ...]]] = {}
        #: Candidate bytes -> witness report, for enforcement screening
        #: (see :meth:`~repro.core.detection.ErrorDetector.evaluate`).
        self.witness_reports: Dict[bytes, "OverflowWitnessReport"] = {}

    def observations(
        self,
        site: TargetSite,
        program: "Program",
        seed_input: bytes,
        field_mapper: "FieldMapper",
        max_observations: int,
    ) -> List[TargetObservation]:
        """``site``'s target observations; the first call runs the concolic stage."""
        if self._observations is None:
            per_site = extract_target_observations(
                program,
                seed_input,
                self.sites,
                field_mapper=field_mapper,
                max_observations=max_observations,
            )
            self._observations = {
                member.site_label: observations
                for member, observations in zip(self.sites, per_site)
            }
        return self._observations[site.site_label]

    def branch_constraints(self, seed_path: Sequence) -> Tuple[BranchConstraint, ...]:
        """The compressed branch constraints of ``seed_path``, built once."""
        entry = self._branches.get(id(seed_path))
        if entry is None:
            branches = tuple(compress_branches(extract_branch_constraints(seed_path)))
            entry = self._branches[id(seed_path)] = (seed_path, branches)
        return entry[1]
