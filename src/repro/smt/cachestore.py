"""Solver-cache codec over the unified :mod:`repro.store` layer.

A campaign's :class:`~repro.smt.cache.SolverCache` holds verdicts keyed by
canonical constraint systems.  Intern ids — the in-memory key material —
are process-creation history and mean nothing outside the process, so the
store serializes the *structure*: each entry is the canonical conjuncts
in a small wire format plus its verdict.  Loading re-interns every term
against the current process's table and recomputes the key, so a warm
start is exact regardless of how either process built its DAG.

One record kind travels through this codec, ``query``: (canonical
conjuncts, verdict) pairs, one per whole query.  UNSAT cores are
per-derivation and never persisted.

Persistence itself — versioned + fingerprint-stamped ``meta.json``,
sharded files with atomic replaces, and crucially the exclusive-lock
**merge-on-save** that makes two campaigns sharing one ``--cache-dir``
additive instead of last-writer-wins — lives in
:class:`repro.store.ArtifactStore`; this module only encodes and decodes.

The same wire format doubles as the process backend's delta encoding:
:func:`export_wire_entries` / :func:`merge_wire_entries` move entries
between a worker's local cache and the parent campaign cache through a
pickle-friendly list of plain dicts.

Each interned term is encoded once per process (``_WIRE``), so the
parent's pool seed, a worker's delta exports and a save are lookups
after the first; the wire forms are nested tuples, so no caller can
change a shared one.  A save writes only the entries its load did not
supply, and skips the store entirely when that is nothing and the load
found the directory clean.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import METRICS
from repro.smt.cache import CachedVerdict, SolverCache
from repro.smt.evalmodel import Model
from repro.smt.terms import Term, TermKind
from repro.store import ArtifactStore, StoreRecord, content_key

#: Bump when the wire format changes; mismatched stores are discarded.
#: v2: entries carry a kind tag (whole-query vs connected-component) and
#: the portfolio-stage provenance of the verdict.
#: v3: unified content-addressed ``repro.store`` envelope; canonical
#: UNSAT cores and blasted CNFs ride along.
#: v4: the structurally-hashed bit-blaster changed CNF variable numbering,
#: so blasted CNFs persisted by older encoders must cold-start.
#: v5: blasted CNFs are no longer persisted; stores holding them
#: cold-start.
#: v6: connected-component verdicts (tag ``"c"``) are gone; stores
#: holding them cold-start.
#: v7: canonical UNSAT cores are no longer persisted; stores holding them
#: cold-start.
FORMAT_VERSION = 7

#: Default number of shard files a store spreads its entries over.
DEFAULT_SHARD_COUNT = 16

#: Verdicts with this status are budget artifacts, never persisted.
_UNKNOWN_STATUS = "unknown"

_KIND_BY_VALUE = {kind.value: kind for kind in TermKind}

#: Errors that mean "this file/entry is unusable", not "crash the run".
_WIRE_ERRORS = (KeyError, ValueError, TypeError, IndexError, AttributeError)


# ----------------------------------------------------------------------
# Term wire format
# ----------------------------------------------------------------------
#: Interned term -> its wire form, for the life of the process.  The wire
#: form is a pure function of the (immutable, interned) term, so a term is
#: encoded once whichever export or save asks first; racing threads store
#: equal tuples.  Tuples, not lists: the forms are shared by every caller.
_WIRE: Dict[Term, tuple] = {}


def term_to_wire(term: Term) -> tuple:
    """Serialize a term DAG into nested JSON-able tuples (memoised)."""
    wire = _WIRE.get(term)
    if wire is not None:
        return wire
    if term.kind is TermKind.BV_CONST:
        wire = ("c", term.width, term.value)
    elif term.kind is TermKind.BOOL_CONST:
        wire = ("C", 1 if term.value else 0)
    elif term.kind is TermKind.BV_VAR:
        wire = ("v", term.width, str(term.name))
    elif term.kind is TermKind.BOOL_VAR:
        wire = ("V", str(term.name))
    else:
        wire = (
            term.kind.value,
            term.width,
            tuple(term.params),
            tuple(term_to_wire(a) for a in term.args),
        )
    _WIRE[term] = wire
    return wire


def term_from_wire(obj: Sequence) -> Term:
    """Rebuild (and re-intern) a term from its wire form."""
    tag = obj[0]
    if tag == "c":
        return Term.make(TermKind.BV_CONST, width=int(obj[1]), value=int(obj[2]))
    if tag == "C":
        return Term.make(TermKind.BOOL_CONST, value=bool(obj[1]))
    if tag == "v":
        return Term.make(TermKind.BV_VAR, width=int(obj[1]), name=str(obj[2]))
    if tag == "V":
        return Term.make(TermKind.BOOL_VAR, name=str(obj[1]))
    kind = _KIND_BY_VALUE[tag]
    width = None if obj[1] is None else int(obj[1])
    params = tuple(int(p) for p in obj[2])
    args = tuple(term_from_wire(a) for a in obj[3])
    return Term.make(kind, args, width=width, params=params)


# ----------------------------------------------------------------------
# Fingerprint + entry wire format
# ----------------------------------------------------------------------
def fingerprint_to_wire(fingerprint: Tuple) -> list:
    """JSON-able form of a solver-configuration fingerprint."""
    return [
        fingerprint_to_wire(part) if isinstance(part, tuple) else part
        for part in fingerprint
    ]


def fingerprint_from_wire(obj) -> Tuple:
    """Inverse of :func:`fingerprint_to_wire` (lists become tuples)."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"malformed fingerprint wire object: {obj!r}")
    return tuple(
        fingerprint_from_wire(part) if isinstance(part, (list, tuple)) else part
        for part in obj
    )


def entry_to_wire(conjuncts: Sequence[Term], verdict: CachedVerdict) -> dict:
    """Serialize one (canonical conjuncts, verdict) pair."""
    return {
        "c": [term_to_wire(c) for c in conjuncts],
        "s": verdict.status,
        "m": (
            None
            if verdict.canonical_model is None
            else verdict.canonical_model.as_dict()
        ),
        "r": verdict.reason,
        "t": list(verdict.stages),
    }


def entry_from_wire(obj: dict) -> Tuple[Tuple[Term, ...], CachedVerdict]:
    """Inverse of :func:`entry_to_wire`."""
    conjuncts = tuple(term_from_wire(c) for c in obj["c"])
    model = None if obj.get("m") is None else Model(obj["m"])
    return conjuncts, CachedVerdict(
        status=str(obj["s"]),
        canonical_model=model,
        reason=str(obj.get("r", "")),
        stages=tuple(str(stage) for stage in obj.get("t", ())),
    )


# ----------------------------------------------------------------------
# Cache <-> wire-entry lists (shared with the process backend)
# ----------------------------------------------------------------------
def export_wire_entries(
    cache: SolverCache, exclude: Optional[set] = None
) -> Tuple[List[dict], List[Tuple]]:
    """Serialize ``cache``'s entries (minus the keys in ``exclude``).

    Returns ``(wire_entries, keys)`` in matching order, so callers can
    record which entries have been shipped already.
    """
    exclude = exclude or set()
    wire: List[dict] = []
    keys: List[Tuple] = []
    for key, conjuncts, verdict in cache.entries_snapshot():
        if key in exclude:
            continue
        item = entry_to_wire(conjuncts, verdict)
        item["f"] = fingerprint_to_wire(key[0])
        wire.append(item)
        keys.append(key)
    return wire, keys


def merge_wire_entries(cache: SolverCache, wire_entries: List[dict]) -> List[Tuple]:
    """Adopt exported entries into ``cache``; returns their keys in it.

    Malformed entries are skipped — a bad delta or file costs coverage,
    never correctness.
    """
    merged: List[Tuple] = []
    for item in wire_entries:
        try:
            fingerprint = fingerprint_from_wire(item["f"])
            conjuncts, verdict = entry_from_wire(item)
        except _WIRE_ERRORS:
            continue
        merged.append(cache.merge_canonical(fingerprint, conjuncts, verdict))
    return merged


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
class CacheStore:
    """Solver-cache persistence: a thin codec over :class:`ArtifactStore`.

    The store layer supplies the durability contract (atomic replaces,
    version + fingerprint stamps, exclusive-lock merge-on-save); this
    class maps cache tables to store records and back.
    """

    def __init__(self, cache_dir: str, shard_count: int = DEFAULT_SHARD_COUNT) -> None:
        self.cache_dir = str(cache_dir)
        self.shard_count = max(1, int(shard_count))
        self._store = ArtifactStore(
            self.cache_dir,
            version=FORMAT_VERSION,
            shard_count=self.shard_count,
        )
        #: Cache key -> the verdict object the last load merged: entries
        #: the store already holds while the cache still has that object.
        self._loaded: Dict[Tuple, CachedVerdict] = {}
        #: The fingerprint whose load found the store clean (every record
        #: decoded, see :meth:`ArtifactStore.load_checked`), else ``None``.
        self._clean_fingerprint: Optional[Tuple] = None

    # ------------------------------------------------------------------
    def load(self, cache: SolverCache, fingerprint: Tuple) -> int:
        """Merge the store into ``cache``; returns entries merged.

        Returns 0 — a cold start — when the store is absent, was written
        by a different format version, or was derived under a different
        solver-configuration fingerprint.
        """
        records, clean = self._store.load_checked(fingerprint_to_wire(fingerprint))
        loaded: Dict[Tuple, CachedVerdict] = {}
        for record in records:
            payload = record.payload
            try:
                conjuncts, verdict = entry_from_wire(payload)
            except _WIRE_ERRORS:
                clean = False
                continue
            loaded[cache.merge_canonical(fingerprint, conjuncts, verdict)] = verdict
        self._loaded = loaded
        self._clean_fingerprint = fingerprint if clean else None
        return len(loaded)

    # ------------------------------------------------------------------
    def save(self, cache: SolverCache, fingerprint: Tuple) -> int:
        """Merge ``cache``'s new verdicts into the store; returns the total stored.

        UNKNOWN verdicts are *not* written: an
        UNKNOWN only records that this run's budget was exhausted, and
        persisting it would pin the failure across runs whose budgets (or
        solver improvements) could decide the query.

        An entry whose verdict is still the very object the last
        :meth:`load` merged is already stored and is not written again; a
        re-solved or worker-derived entry is.  With nothing new after a
        clean load the save is skipped — no lock, no re-read, no write —
        and counted as ``store.saves_skipped``; it returns the loaded
        count.  Otherwise the save is **merge-on-save** under the store's
        exclusive lock: entries already on disk (written by another
        campaign sharing this directory) survive — the union is what the
        next load sees — and a load that dropped a corrupt shard heals it.
        """
        records: List[StoreRecord] = []
        kind = SolverCache.KIND_QUERY
        loaded = self._loaded
        for key, conjuncts, verdict in cache.entries_snapshot():
            if key[0] != fingerprint or verdict.status == _UNKNOWN_STATUS:
                continue
            if loaded.get(key) is verdict:
                continue
            payload = entry_to_wire(conjuncts, verdict)
            records.append(StoreRecord(kind, content_key(kind, payload["c"]), payload))
        if not records and fingerprint == self._clean_fingerprint:
            METRICS.counter("store.saves_skipped").inc()
            return len(loaded)
        return self._store.save(fingerprint_to_wire(fingerprint), records)
