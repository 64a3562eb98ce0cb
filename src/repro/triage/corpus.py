"""The persistent witness corpus: a codec over :mod:`repro.store`.

The corpus is the triage subsystem's memory across runs: one
:class:`WitnessRecord` per canonical witness signature, stored under a
``--corpus-dir``.  Persistence — the versioned + fingerprinted
``meta.json``, sharded files with atomic replaces, and the
exclusive-lock **merge-on-save** that lets parallel campaigns,
process-backend workers and sequential runs converge on one deduplicated
corpus instead of clobbering each other — is supplied by
:class:`repro.store.ArtifactStore`, shared with the solver-cache store
(:mod:`repro.smt.cachestore`).  This module contributes the witness
semantics: records are content-addressed by signature (itself a content
hash), the fingerprint is the machine word width + signature version,
and a signature collision resolves by :func:`merge_records` — the
smaller witness wins (fewest changed fields, then the smaller
perturbation) and the ``times_seen`` counters accumulate.

Wire-format versioning rules (see ``docs/solver.md`` for the shared
store-layer rules, mirrored in the README):

* adding an optional record field is backward compatible — readers default
  it (see :meth:`WitnessRecord.from_wire`) and must not bump the version;
* removing, renaming or re-interpreting a field bumps
  :data:`CORPUS_FORMAT_VERSION`;
* changes to what a signature *means* bump
  :data:`~repro.triage.signature.SIGNATURE_VERSION`, which flows into the
  fingerprint and likewise invalidates old stores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exec.values import WORD_WIDTH
from repro.triage.signature import SIGNATURE_VERSION, site_identity

__all__ = [
    "CORPUS_FORMAT_VERSION",
    "CorpusStore",
    "WitnessRecord",
    "corpus_fingerprint",
    "merge_records",
]

#: Bump when the record wire format changes incompatibly.
#: v2: unified content-addressed ``repro.store`` envelope.
CORPUS_FORMAT_VERSION = 2

#: Default number of shard files a corpus spreads its records over.
DEFAULT_SHARD_COUNT = 8

#: The corpus's single artifact kind in the unified store envelope.
KIND_WITNESS = "witness"

#: Errors that mean "this record/file is unusable", not "crash the run".
_WIRE_ERRORS = (KeyError, ValueError, TypeError, AttributeError)

#: Replay / lifecycle statuses a record can carry.
STATUS_FRESH = "fresh"
STATUS_STILL_TRIGGERS = "still-triggers"
STATUS_NO_LONGER_TRIGGERS = "no-longer-triggers"
STATUS_UNKNOWN_SITE = "unknown-site"
STATUS_UNKNOWN_APPLICATION = "unknown-application"


def corpus_fingerprint() -> Tuple:
    """Fingerprint of the semantics stored witnesses depend on.

    A witness is "field values that wrap a size computation on a given
    machine word width, under a given signature definition"; either
    changing invalidates the corpus.
    """
    return ("word-width", WORD_WIDTH, "signature-version", SIGNATURE_VERSION)


@dataclass
class WitnessRecord:
    """One deduplicated, minimized, verified overflow witness."""

    signature: str
    application: str
    site_label: int
    site_tag: Optional[str]
    #: Sorted wrapped-operator names from the witness run.
    provenance: Tuple[str, ...]
    #: Minimized triggering field values (path → integer value).
    field_values: Dict[str, int]
    #: Raw triggering input (hex) for witnesses the field vocabulary cannot
    #: rebuild; ``None`` when ``field_values`` alone re-triggers.
    input_hex: Optional[str] = None
    requested_size: Optional[int] = None
    error_type: str = "None"
    cve: str = "New"
    enforced_branches: int = 0
    relevant_branches: int = 0
    #: Whether the minimization pass validated a reduced witness (False for
    #: raw-input fallback records stored as-found).
    minimized: bool = False
    removed_fields: int = 0
    shrunk_fields: int = 0
    original_fields: int = 0
    times_seen: int = 1
    status: str = STATUS_FRESH

    # ------------------------------------------------------------------
    @property
    def site_name(self) -> str:
        """Human-readable site name (tag when present, else the label)."""
        return site_identity(self.site_label, self.site_tag)

    def matches_site(self, site_label: int, site_tag: Optional[str]) -> bool:
        """Whether this record describes the given allocation site."""
        if self.site_tag is not None and site_tag is not None:
            return self.site_tag == site_tag
        return self.site_label == site_label

    def changed_field_count(self) -> int:
        return len(self.field_values)

    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """JSON-able form of this record."""
        return {
            "signature": self.signature,
            "application": self.application,
            "site_label": self.site_label,
            "site_tag": self.site_tag,
            "provenance": list(self.provenance),
            "field_values": dict(self.field_values),
            "input_hex": self.input_hex,
            "requested_size": self.requested_size,
            "error_type": self.error_type,
            "cve": self.cve,
            "enforced_branches": self.enforced_branches,
            "relevant_branches": self.relevant_branches,
            "minimized": self.minimized,
            "removed_fields": self.removed_fields,
            "shrunk_fields": self.shrunk_fields,
            "original_fields": self.original_fields,
            "times_seen": self.times_seen,
            "status": self.status,
        }

    @classmethod
    def from_wire(cls, obj: Mapping) -> "WitnessRecord":
        """Inverse of :meth:`to_wire`; raises on malformed records."""
        return cls(
            signature=str(obj["signature"]),
            application=str(obj["application"]),
            site_label=int(obj["site_label"]),
            site_tag=None if obj.get("site_tag") is None else str(obj["site_tag"]),
            provenance=tuple(str(op) for op in obj.get("provenance", ())),
            field_values={
                str(path): int(value)
                for path, value in dict(obj.get("field_values", {})).items()
            },
            input_hex=(
                None if obj.get("input_hex") is None else str(obj["input_hex"])
            ),
            requested_size=(
                None
                if obj.get("requested_size") is None
                else int(obj["requested_size"])
            ),
            error_type=str(obj.get("error_type", "None")),
            cve=str(obj.get("cve", "New")),
            enforced_branches=int(obj.get("enforced_branches", 0)),
            relevant_branches=int(obj.get("relevant_branches", 0)),
            minimized=bool(obj.get("minimized", False)),
            removed_fields=int(obj.get("removed_fields", 0)),
            shrunk_fields=int(obj.get("shrunk_fields", 0)),
            original_fields=int(obj.get("original_fields", 0)),
            times_seen=max(1, int(obj.get("times_seen", 1))),
            status=str(obj.get("status", STATUS_FRESH)),
        )


def merge_records(
    existing: Optional[WitnessRecord], incoming: WitnessRecord
) -> WitnessRecord:
    """Fold two records with the same signature into one.

    The smaller witness wins — fewest changed fields, then the smaller
    total perturbation — so repeated campaigns monotonically improve the
    corpus.  ``times_seen`` accumulates across both.
    """
    if existing is None:
        return replace(incoming)
    if existing.signature != incoming.signature:
        raise ValueError(
            f"cannot merge records with different signatures "
            f"({existing.signature} vs {incoming.signature})"
        )
    winner = min(existing, incoming, key=_witness_size)
    return replace(
        winner, times_seen=existing.times_seen + incoming.times_seen
    )


def _witness_size(record: WitnessRecord) -> Tuple[int, int, int]:
    """Ordering key for merge conflicts: smaller witnesses sort first."""
    return (
        0 if record.input_hex is None else 1,  # field-rebuildable beats raw
        record.changed_field_count(),
        sum(abs(value) for value in record.field_values.values()),
    )


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
def _merge_wire_records(kind: str, existing: object, incoming: object):
    """Store-level collision resolution: decode, fold, re-encode.

    Raising on a malformed payload is deliberate — the store layer then
    keeps the incoming payload, so one bad on-disk record cannot veto a
    fresh save.
    """
    return merge_records(
        WitnessRecord.from_wire(existing), WitnessRecord.from_wire(incoming)
    ).to_wire()


class CorpusStore:
    """Witness-corpus persistence: a thin codec over :class:`ArtifactStore`."""

    def __init__(
        self, corpus_dir: str, shard_count: int = DEFAULT_SHARD_COUNT
    ) -> None:
        self.corpus_dir = str(corpus_dir)
        self.shard_count = max(1, int(shard_count))
        # The store layer loads only once a campaign has a corpus directory.
        from repro.store import ArtifactStore

        self._store = ArtifactStore(
            self.corpus_dir,
            version=CORPUS_FORMAT_VERSION,
            shard_count=self.shard_count,
        )

    # ------------------------------------------------------------------
    def load(self) -> Dict[str, WitnessRecord]:
        """Read the corpus; empty on absence, version or fingerprint mismatch."""
        records: Dict[str, WitnessRecord] = {}
        for stored in self._store.load(list(corpus_fingerprint())):
            if stored.kind != KIND_WITNESS:
                continue
            try:
                record = WitnessRecord.from_wire(stored.payload)
            except _WIRE_ERRORS:
                continue
            records[record.signature] = merge_records(
                records.get(record.signature), record
            )
        return records

    # ------------------------------------------------------------------
    def save(
        self, records: Mapping[str, WitnessRecord], merge: bool = True
    ) -> int:
        """Write ``records``; returns the total records now stored.

        With ``merge`` (the default) the on-disk corpus is re-read and the
        new records folded in by signature under the store's exclusive
        lock, so concurrent or sequential campaigns converge instead of
        overwriting each other.  ``merge=False`` replaces the store
        outright (the replay subcommand uses it after rewriting statuses).
        """
        from repro.store import StoreRecord

        wire: List[StoreRecord] = []
        for signature in sorted(records):
            wire.append(
                StoreRecord(
                    KIND_WITNESS, str(signature), records[signature].to_wire()
                )
            )
        return self._store.save(
            list(corpus_fingerprint()),
            wire,
            merge_record=_merge_wire_records,
            replace=not merge,
        )
