"""Triage orchestration: bug report → verified, minimized, signed witness.

:class:`WitnessTriager` is the per-application worker behind the campaign's
triage pass (and, through the process backend, behind worker-side triage):
given one :class:`~repro.core.report.OverflowBugReport` it

1. re-validates the witness with a concrete overflow-witness run —
   preferring a rebuild from the triggering *field values* (the minimizable
   representation), falling back to the raw triggering input bytes when the
   field vocabulary cannot express the witness; when minimizing, a rebuild
   byte-identical to the input enforcement already ran reuses that run;
2. minimizes the field values (:mod:`repro.triage.minimize`), goal-directed
   by the site's enforcement result when the caller passes it;
3. extracts the wrapped-op provenance of the final witness run and mints
   the canonical signature (:mod:`repro.triage.signature`);
4. emits a corpus-ready :class:`~repro.triage.corpus.WitnessRecord`.

A report whose witness does not re-trigger under either representation is
*rejected* (returns ``None``) — the corpus only ever contains witnesses a
concrete run has verified.

:func:`replay_corpus` is the regression-replay engine behind the
``repro replay`` CLI subcommand: every corpus record is re-validated
against the current application registry and stamped
``still-triggers`` / ``no-longer-triggers`` / ``unknown-site`` /
``unknown-application``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.appbase import Application
from repro.core.detection import CandidateEvaluation, ErrorDetector
from repro.core.enforcement import EnforcementResult
from repro.core.inputs import InputGenerator
from repro.core.report import OverflowBugReport
from repro.core.sites import TargetSite, identify_target_sites
from repro.formats.spec import FormatError
from repro.obs.trace import TRACER
from repro.triage.corpus import (
    STATUS_FRESH,
    STATUS_NO_LONGER_TRIGGERS,
    STATUS_STILL_TRIGGERS,
    STATUS_UNKNOWN_APPLICATION,
    STATUS_UNKNOWN_SITE,
    WitnessRecord,
)
from repro.triage.minimize import WitnessMinimizer
from repro.triage.signature import witness_signature

__all__ = [
    "ReplayEntry",
    "ReplayReport",
    "TriageStats",
    "WitnessTriager",
    "rebuild_witness_input",
    "replay_corpus",
]


@dataclass
class TriageStats:
    """Aggregate outcome of one campaign's triage pass."""

    #: Bug reports the campaign handed to triage.
    raw_reports: int = 0
    #: Reports whose witness re-triggered under a concrete run.
    validated: int = 0
    #: Reports rejected because no representation re-triggered.
    validation_failures: int = 0
    #: Distinct canonical signatures among the validated witnesses.
    distinct: int = 0
    #: Validated witnesses that collapsed onto an existing signature.
    duplicates: int = 0
    #: Witnesses the minimizer validated in reduced form.
    minimized: int = 0
    #: Triggering-field counts before and after minimization.
    fields_before: int = 0
    fields_after: int = 0

    # ------------------------------------------------------------------
    def register(self, record: WitnessRecord, is_new: bool) -> None:
        """Fold one triaged witness into the totals."""
        self.validated += 1
        if is_new:
            self.distinct += 1
        else:
            self.duplicates += 1
        if record.minimized:
            self.minimized += 1
        self.fields_before += record.original_fields
        self.fields_after += record.changed_field_count()

    def dedup_ratio(self) -> float:
        """Raw reports per distinct witness (1.0 = no duplicates)."""
        return self.raw_reports / self.distinct if self.distinct else 0.0

    def shrink_ratio(self) -> float:
        """Fraction of triggering fields minimization removed."""
        if not self.fields_before:
            return 0.0
        return 1.0 - (self.fields_after / self.fields_before)

    def as_dict(self) -> dict:
        return {
            "raw_reports": self.raw_reports,
            "validated": self.validated,
            "validation_failures": self.validation_failures,
            "distinct": self.distinct,
            "duplicates": self.duplicates,
            "dedup_ratio": round(self.dedup_ratio(), 4),
            "minimized": self.minimized,
            "fields_before": self.fields_before,
            "fields_after": self.fields_after,
            "shrink_ratio": round(self.shrink_ratio(), 4),
        }


def rebuild_witness_input(
    record: WitnessRecord, generator: InputGenerator
) -> bytes:
    """Reconstruct a corpus witness's input bytes against the current seed.

    Field-rebuildable records go through the generator (so checksums and
    derived fields track the *current* seed); raw-input fallback records
    replay their stored bytes verbatim.
    """
    if record.input_hex is not None:
        return bytes.fromhex(record.input_hex)
    return generator.generate_from_fields(record.field_values).data


class WitnessTriager:
    """Turn one application's bug reports into corpus-ready witness records."""

    def __init__(
        self,
        application: Application,
        detector: Optional[ErrorDetector] = None,
        minimize: bool = True,
        max_attempts: Optional[int] = None,
    ) -> None:
        self.application = application
        self.detector = detector or ErrorDetector(
            application.program, application.seed_input
        )
        self.minimize = minimize
        kwargs = {} if max_attempts is None else {"max_attempts": max_attempts}
        self.minimizer = WitnessMinimizer(
            application, detector=self.detector, **kwargs
        )
        self.generator = self.minimizer.generator

    # ------------------------------------------------------------------
    def triage(
        self,
        site: TargetSite,
        report: OverflowBugReport,
        enforcement: Optional[EnforcementResult] = None,
    ) -> Optional[WitnessRecord]:
        """Validate, minimize and sign one bug report; ``None`` if bogus.

        ``enforcement`` is the site's in-process enforcement result; when
        given, minimization is goal-directed (:mod:`repro.triage.minimize`).
        """
        with TRACER.span(
            "triage", application=self.application.name, site=site.name
        ):
            return self._triage(site, report, enforcement)

    def _triage(
        self,
        site: TargetSite,
        report: OverflowBugReport,
        enforcement: Optional[EnforcementResult],
    ) -> Optional[WitnessRecord]:
        field_values = dict(report.triggering_field_values)

        if self.minimize:
            outcome = self.minimizer.minimize(
                site.site_label, field_values, enforcement
            )
            if outcome.validated:
                return self._record(
                    site,
                    report,
                    field_values=outcome.field_values,
                    input_hex=None,
                    evaluation=outcome.evaluation,
                    minimized=True,
                    removed_fields=outcome.removed_fields,
                    shrunk_fields=outcome.shrunk_fields,
                    original_fields=outcome.original_fields,
                )
            # The minimizer's first validation already rebuilt these field
            # values and saw no overflow — go straight to the raw input.
        else:
            candidate = self.generator.generate_from_fields(field_values).data
            evaluation = self.detector.evaluate(candidate, site.site_label)
            if evaluation.triggers_overflow:
                return self._record(
                    site,
                    report,
                    field_values=field_values,
                    input_hex=None,
                    evaluation=evaluation,
                    minimized=False,
                    original_fields=len(field_values),
                )

        # The field vocabulary cannot rebuild the witness: fall back to the
        # raw triggering input bytes.
        if report.triggering_input is not None:
            raw = bytes(report.triggering_input)
            evaluation = self.detector.evaluate(raw, site.site_label)
            if evaluation.triggers_overflow:
                return self._record(
                    site,
                    report,
                    field_values=field_values,
                    input_hex=raw.hex(),
                    evaluation=evaluation,
                    minimized=False,
                    original_fields=len(field_values),
                )
        return None

    # ------------------------------------------------------------------
    def _record(
        self,
        site: TargetSite,
        report: OverflowBugReport,
        *,
        field_values: Dict[str, int],
        input_hex: Optional[str],
        evaluation: Optional[CandidateEvaluation],
        minimized: bool,
        removed_fields: int = 0,
        shrunk_fields: int = 0,
        original_fields: int = 0,
    ) -> WitnessRecord:
        provenance: Tuple[str, ...] = (
            evaluation.wrap_provenance if evaluation is not None else ()
        )
        return WitnessRecord(
            signature=witness_signature(
                self.application.name, site.site_label, site.site_tag, provenance
            ),
            application=self.application.name,
            site_label=site.site_label,
            site_tag=site.site_tag,
            provenance=provenance,
            field_values=dict(field_values),
            input_hex=input_hex,
            requested_size=(
                evaluation.requested_size if evaluation is not None else None
            ),
            error_type=(
                evaluation.error_type() if evaluation is not None else "None"
            ),
            cve=report.cve,
            enforced_branches=report.enforced_branches,
            relevant_branches=report.relevant_branches,
            minimized=minimized,
            removed_fields=removed_fields,
            shrunk_fields=shrunk_fields,
            original_fields=original_fields,
            status=STATUS_FRESH,
        )


# ----------------------------------------------------------------------
# Regression replay
# ----------------------------------------------------------------------
@dataclass
class ReplayEntry:
    """Replay outcome for one corpus record."""

    signature: str
    application: str
    site_name: str
    status: str
    requested_size: Optional[int] = None
    error_type: str = "None"


@dataclass
class ReplayReport:
    """Aggregate outcome of replaying a corpus against the registry."""

    entries: List[ReplayEntry] = field(default_factory=list)
    wall_seconds: float = 0.0

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for entry in self.entries:
            totals[entry.status] = totals.get(entry.status, 0) + 1
        return totals

    @property
    def regressions(self) -> List[ReplayEntry]:
        """Witnesses the current registry no longer reproduces."""
        return [
            e for e in self.entries if e.status == STATUS_NO_LONGER_TRIGGERS
        ]


def replay_corpus(
    records: Dict[str, WitnessRecord],
    applications: Sequence[Application],
    mark_missing: bool = True,
) -> ReplayReport:
    """Re-validate every corpus record against the given application models.

    Records are stamped in place (``record.status``) and summarized in the
    returned report.  ``mark_missing`` controls whether records naming an
    application outside ``applications`` are stamped ``unknown-application``
    (replaying the full registry) or left untouched (replaying a filtered
    subset).
    """
    started = time.perf_counter()
    by_name = {application.name: application for application in applications}
    report = ReplayReport()

    validators: Dict[str, Tuple[ErrorDetector, InputGenerator, List[TargetSite]]] = {}

    def validator_for(application: Application):
        bundle = validators.get(application.name)
        if bundle is None:
            bundle = (
                ErrorDetector(application.program, application.seed_input),
                InputGenerator(application.seed_input, application.format_spec),
                identify_target_sites(application.program, application.seed_input),
            )
            validators[application.name] = bundle
        return bundle

    for signature in sorted(records):
        record = records[signature]
        application = by_name.get(record.application)
        if application is None:
            if mark_missing:
                record.status = STATUS_UNKNOWN_APPLICATION
                report.entries.append(
                    ReplayEntry(
                        signature=signature,
                        application=record.application,
                        site_name=record.site_name,
                        status=STATUS_UNKNOWN_APPLICATION,
                    )
                )
            continue

        detector, generator, sites = validator_for(application)
        site = next(
            (
                s
                for s in sites
                if record.matches_site(s.site_label, s.site_tag)
            ),
            None,
        )
        entry = ReplayEntry(
            signature=signature,
            application=record.application,
            site_name=record.site_name,
            status=STATUS_UNKNOWN_SITE,
        )
        if site is not None:
            try:
                data = rebuild_witness_input(record, generator)
            except (FormatError, ValueError):
                data = None
            if data is not None:
                evaluation = detector.evaluate(data, site.site_label)
                if evaluation.triggers_overflow:
                    entry.status = STATUS_STILL_TRIGGERS
                    entry.requested_size = evaluation.requested_size
                    entry.error_type = evaluation.error_type()
                else:
                    entry.status = STATUS_NO_LONGER_TRIGGERS
        record.status = entry.status
        report.entries.append(entry)

    report.wall_seconds = time.perf_counter() - started
    return report
