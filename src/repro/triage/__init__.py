"""Witness triage: dedup, minimization, persistent corpus, regression replay.

DIODE's end product is a set of *distinct, verified* integer overflows (the
paper's Table 2); a discovery campaign, left alone, emits ephemeral
per-run bug reports that rediscover and re-verify the same overflows on
every invocation.  This package owns the lifecycle of a discovered
overflow after the campaign finds it:

* :mod:`repro.triage.signature` — canonical witness signatures hashing
  ⟨application, site identity, wrapped-op provenance⟩, so the same bug
  found via different field values, schedules or backends dedupes to one
  record;
* :mod:`repro.triage.minimize` — ddmin-style reduction of the triggering
  field values plus per-field shrink-toward-baseline, steered by the
  site's symbolic target constraint, every accepted candidate re-validated
  by a concrete overflow-witness run;
* :mod:`repro.triage.corpus` — the persistent witness corpus: versioned,
  fingerprint-stamped, sharded JSON with merge-on-save semantics, so
  parallel campaigns and process-backend workers converge on one deduped
  store;
* :mod:`repro.triage.engine` — the :class:`WitnessTriager` pipeline the
  campaign (and the process backend's workers) run per bug report, and the
  regression-replay engine behind ``repro replay``.
"""

from repro.triage.corpus import (
    CORPUS_FORMAT_VERSION,
    CorpusStore,
    WitnessRecord,
    corpus_fingerprint,
    merge_records,
)
from repro.triage.engine import (
    ReplayEntry,
    ReplayReport,
    TriageStats,
    WitnessTriager,
    rebuild_witness_input,
    replay_corpus,
)
from repro.triage.minimize import MinimizationOutcome, WitnessMinimizer
from repro.triage.signature import SIGNATURE_VERSION, site_identity, witness_signature

__all__ = [
    "CORPUS_FORMAT_VERSION",
    "CorpusStore",
    "MinimizationOutcome",
    "ReplayEntry",
    "ReplayReport",
    "SIGNATURE_VERSION",
    "TriageStats",
    "WitnessMinimizer",
    "WitnessRecord",
    "WitnessTriager",
    "corpus_fingerprint",
    "merge_records",
    "rebuild_witness_input",
    "replay_corpus",
    "site_identity",
    "witness_signature",
]
