"""Result records: per-site classifications, bug reports, per-application summaries.

These structures carry the data behind the paper's Table 1 (target site
classification) and Table 2 (per-overflow evaluation summary), and are what
the benchmark harnesses print.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.enforcement import EnforcementOutcome, EnforcementResult
from repro.core.sites import TargetSite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.triage.corpus import WitnessRecord


class SiteClassification(enum.Enum):
    """Table 1's three-way classification of a target site."""

    OVERFLOW_EXPOSED = "diode_exposes_overflow"
    TARGET_UNSATISFIABLE = "target_constraint_unsatisfiable"
    SANITY_PREVENTED = "sanity_checks_prevent_overflow"
    UNRESOLVED = "unresolved"


@dataclass
class OverflowBugReport:
    """One discovered overflow (a Table 2 row)."""

    application: str
    target: str
    cve: str
    error_type: str
    enforced_branches: int
    relevant_branches: int
    analysis_seconds: float
    discovery_seconds: float
    triggering_field_values: Dict[str, int] = field(default_factory=dict)
    triggering_input: Optional[bytes] = None

    def enforced_ratio(self) -> str:
        """Format the X/Y column of Table 2."""
        return f"{self.enforced_branches}/{self.relevant_branches}"


@dataclass
class SiteResult:
    """Everything DIODE learned about one target site."""

    site: TargetSite
    classification: SiteClassification
    enforcement: Optional[EnforcementResult] = None
    bug_report: Optional[OverflowBugReport] = None
    discovery_seconds: float = 0.0
    #: The bug report's triaged witness when the campaign triages (``None``
    #: also when the report failed re-validation; :mod:`repro.triage`).
    witness: Optional["WitnessRecord"] = None

    @property
    def exposed(self) -> bool:
        """Whether DIODE generated an overflow-triggering input for this site."""
        return self.classification is SiteClassification.OVERFLOW_EXPOSED


@dataclass
class ApplicationResult:
    """All site results for one benchmark application (a Table 1 row)."""

    application: str
    seed_input: bytes
    analysis_seconds: float
    site_results: List[SiteResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total_target_sites(self) -> int:
        return len(self.site_results)

    @property
    def exposed_count(self) -> int:
        return sum(1 for r in self.site_results if r.exposed)

    @property
    def unsatisfiable_count(self) -> int:
        return sum(
            1
            for r in self.site_results
            if r.classification is SiteClassification.TARGET_UNSATISFIABLE
        )

    @property
    def sanity_prevented_count(self) -> int:
        return sum(
            1
            for r in self.site_results
            if r.classification is SiteClassification.SANITY_PREVENTED
        )

    def bug_reports(self) -> List[OverflowBugReport]:
        """Table 2 rows contributed by this application."""
        return [r.bug_report for r in self.site_results if r.bug_report is not None]

    def table1_row(self) -> Dict[str, int]:
        """The Table 1 row for this application."""
        return {
            "total_target_sites": self.total_target_sites,
            "diode_exposes_overflow": self.exposed_count,
            "target_constraint_unsatisfiable": self.unsatisfiable_count,
            "sanity_checks_prevent_overflow": self.sanity_prevented_count,
        }


def classification_from_enforcement(result: EnforcementResult) -> SiteClassification:
    """Map an enforcement outcome to the Table 1 classification."""
    if result.outcome is EnforcementOutcome.OVERFLOW_TRIGGERED:
        return SiteClassification.OVERFLOW_EXPOSED
    if result.outcome is EnforcementOutcome.TARGET_UNSATISFIABLE:
        return SiteClassification.TARGET_UNSATISFIABLE
    if result.outcome in (
        EnforcementOutcome.CONSTRAINTS_UNSATISFIABLE,
        EnforcementOutcome.SEED_PATH_EXHAUSTED,
    ):
        return SiteClassification.SANITY_PREVENTED
    return SiteClassification.UNRESOLVED
