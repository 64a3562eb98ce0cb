"""Content-addressed, append-only artifact store with merge-on-save.

One :class:`ArtifactStore` owns one directory::

    meta.json       {"version": ..., "fingerprint": [...], "shards": N,
                     "entries": N, "kinds": {"query": N, "witness": N, ...}}
    shard-00.json   [{"k": kind, "h": key, "d": payload}, ...]
    ...
    .lock           (exists only while a save is in flight)

Records are **content-addressed**: each carries a ``kind`` (the codec's
namespace — solver-cache query, witness) and a
``key``, the canonical content hash of its payload within that kind
(:func:`content_key`, or a codec-supplied identity such as a witness
signature, which is itself a content hash).  Identity lives in
the key, so merging is set union and records are immutable — the store
is *logically* append-only even though compaction rewrites the files.

Durability contract, shared by every store in the system:

* ``meta.json`` stamps the **format version** and a semantic
  **fingerprint**; a mismatch on either means the records may be
  meaningless under current code or configuration, so loads are a cold
  start and the next save overwrites the store;
* records are **sharded** by key over ``shard-NN.json`` files, so files
  stay small and a corrupt shard loses its records, never the store;
* every file is written with an **atomic replace** through a temp file
  private to its writer (pid plus a counter, removed if the write
  fails), so readers racing a writer see complete files (readers take
  no lock) and two writers never share a half-written temp file; a file
  is written only when its content changes — a save that adds nothing
  new rewrites no file;
* saving is **merge-on-save under an exclusive lock**
  (:class:`~repro.store.locking.DirectoryLock`): the on-disk records are
  re-read, the incoming ones folded in by ``(kind, key)``, and the union
  written back.  Per-file atomic replaces alone would let two racing
  writers each miss the other's records — the lost-update bug this layer
  exists to fix;
* shard files the new layout no longer uses (a shrunk ``shard_count``,
  a store that lost records) are removed, whatever count an earlier
  layout used — no orphans.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.store.locking import (
    DEFAULT_POLL_SECONDS,
    DEFAULT_TIMEOUT_SECONDS,
    DirectoryLock,
)

__all__ = ["ArtifactStore", "StoreRecord", "content_key"]

#: Default number of shard files a store spreads its records over.
DEFAULT_SHARD_COUNT = 16

_META_NAME = "meta.json"

_LOCK_NAME = ".lock"

_SHARD_PATTERN = re.compile(r"^shard-(\d+)\.json$")

#: Errors that mean "this file/record is unusable", not "crash the run".
_WIRE_ERRORS = (KeyError, ValueError, TypeError, IndexError, AttributeError)

#: Per-process temp-file sequence (``itertools.count`` is atomic under
#: the GIL), so no two writers — threads or processes — share a temp name.
_TMP_SEQUENCE = itertools.count()


def content_key(kind: str, payload) -> str:
    """Canonical content hash of a JSON-able payload, namespaced by kind.

    The canonical form is sorted-key, separator-free JSON, so the key is
    identical across processes, runs and platforms for structurally equal
    payloads; the kind is hashed in so records of two kinds with equal
    payloads stay distinct.
    """
    canonical = json.dumps(
        [kind, payload], separators=(",", ":"), sort_keys=True
    )
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreRecord:
    """One immutable artifact: a kind, its content key, a JSON-able payload."""

    kind: str
    key: str
    payload: object


#: Resolves a ``(kind, key)`` collision between an on-disk payload and an
#: incoming one; returns the payload to keep.  ``None`` keeps the existing
#: payload (records are idempotent content, so first-writer-wins is the
#: correct default); the witness codec supplies real merge semantics
#: (smaller witness wins, ``times_seen`` accumulates).
MergeFn = Callable[[str, object, object], object]


class ArtifactStore:
    """Versioned, fingerprinted, sharded record persistence (see module doc)."""

    def __init__(
        self,
        root: str,
        *,
        version: int,
        shard_count: int = DEFAULT_SHARD_COUNT,
        lock_timeout: float = DEFAULT_TIMEOUT_SECONDS,
        lock_poll: float = DEFAULT_POLL_SECONDS,
    ) -> None:
        self.root = str(root)
        self.version = int(version)
        self.shard_count = max(1, int(shard_count))
        self.lock_timeout = lock_timeout
        self.lock_poll = lock_poll

    # ------------------------------------------------------------------
    def meta_path(self) -> str:
        return os.path.join(self.root, _META_NAME)

    def _shard_path(self, index: int) -> str:
        return os.path.join(self.root, f"shard-{index:02d}.json")

    def _lock(self) -> DirectoryLock:
        return DirectoryLock(
            os.path.join(self.root, _LOCK_NAME),
            timeout=self.lock_timeout,
            poll=self.lock_poll,
        )

    def _shard_of(self, key: str) -> int:
        digest = hashlib.sha1(str(key).encode("utf-8")).hexdigest()
        return int(digest, 16) % self.shard_count

    # ------------------------------------------------------------------
    def read_meta(self) -> Optional[dict]:
        """The raw ``meta.json`` dict, or ``None`` when absent/corrupt."""
        return _parse_meta(_read_text(self.meta_path()))

    def _meta_matches(self, meta: Optional[dict], fingerprint_wire) -> bool:
        if meta is None or meta.get("version") != self.version:
            return False
        return meta.get("fingerprint") == _json_normalized(fingerprint_wire)

    # ------------------------------------------------------------------
    def load(self, fingerprint_wire) -> List[StoreRecord]:
        """Read every record; empty on absence, version or fingerprint mismatch.

        ``fingerprint_wire`` is the codec's JSON-able semantic fingerprint
        (compared against the stamp in ``meta.json`` after JSON
        normalization, so tuples and lists compare equal).  A corrupt
        shard loses its records, never the store; malformed envelopes are
        skipped individually.
        """
        return self.load_checked(fingerprint_wire)[0]

    def load_checked(self, fingerprint_wire) -> Tuple[List[StoreRecord], bool]:
        """:meth:`load`, plus whether the directory is *clean*.

        Clean means a save adding nothing would rewrite no file: the stamp
        matches, the layout is this store's (its shard count, no orphan
        shard), every shard found parsed with no empty shard and no
        malformed envelope, and ``meta.json`` counts exactly the records
        read.  A codec may skip such a save; one that is not clean still
        saves, which heals what the load had to drop.
        """
        records, _, clean = self._load_texts(fingerprint_wire)
        return records, clean

    def _load_texts(
        self, fingerprint_wire
    ) -> Tuple[List[StoreRecord], Dict[str, str], bool]:
        """:meth:`load_checked`, plus the text of every file it read, by path."""
        with TRACER.span("store.load", root=self.root):
            records, texts, clean = self._load(fingerprint_wire)
        METRICS.counter("store.loads").inc()
        METRICS.counter("store.records_loaded").inc(len(records))
        return records, texts, clean

    def _load(
        self, fingerprint_wire
    ) -> Tuple[List[StoreRecord], Dict[str, str], bool]:
        texts: Dict[str, str] = {}
        meta_text = _read_text(self.meta_path())
        meta = _parse_meta(meta_text)
        if not self._meta_matches(meta, fingerprint_wire):
            return [], texts, False
        texts[self.meta_path()] = meta_text
        try:
            shard_count = max(1, min(int(meta.get("shards", 1)), 4096))
        except (TypeError, ValueError):
            return [], texts, False

        clean = shard_count == self.shard_count and all(
            index < shard_count for index, _ in self._existing_shards()
        )
        records: List[StoreRecord] = []
        for index in range(shard_count):
            path = self._shard_path(index)
            text = _read_text(path)
            if text is None:
                continue
            try:
                envelopes = json.loads(text)
            except json.JSONDecodeError:
                # One corrupt shard loses its records, not the store.
                clean = False
                continue
            if not isinstance(envelopes, list):
                clean = False
                continue
            texts[path] = text
            # A save would remove an empty shard.
            clean = clean and bool(envelopes)
            for envelope in envelopes:
                record = _record_from_envelope(envelope)
                if record is None:
                    clean = False
                else:
                    records.append(record)
        clean = clean and meta.get("entries") == len(records)
        return records, texts, clean

    # ------------------------------------------------------------------
    def save(
        self,
        fingerprint_wire,
        records: Iterable[StoreRecord],
        merge_record: Optional[MergeFn] = None,
        replace: bool = False,
    ) -> int:
        """Merge ``records`` into the store; returns the total now stored.

        The whole load → merge → write sequence runs under the exclusive
        directory lock.  On-disk records written under a different format
        version or fingerprint are *not* merged (they may be meaningless
        under current semantics) — the save becomes a cold overwrite, and
        the new ``meta.json`` stamp marks the store reborn.  With
        ``replace`` the on-disk records are discarded even when they
        match (the replay subcommand rewrites witness statuses wholesale).

        ``merge_record(kind, existing_payload, incoming_payload)``
        resolves ``(kind, key)`` collisions; the default keeps the
        existing payload (records are content-addressed, so colliding
        payloads are equal for every codec without bespoke merge
        semantics).
        """
        incoming = list(records)
        with TRACER.span("store.save", root=self.root):
            total = self._save(fingerprint_wire, incoming, merge_record, replace)
        METRICS.counter("store.saves").inc()
        METRICS.counter("store.records_saved").inc(len(incoming))
        METRICS.gauge("store.entries").set(total)
        return total

    def _save(
        self,
        fingerprint_wire,
        records: List[StoreRecord],
        merge_record: Optional[MergeFn],
        replace: bool,
    ) -> int:
        os.makedirs(self.root, exist_ok=True)
        with self._lock():
            combined: Dict[Tuple[str, str], object] = {}
            #: Path -> text on disk, for files read under a matching stamp;
            #: a file whose new text equals it is left alone.
            on_disk: Dict[str, str] = {}
            if not replace:
                loaded, on_disk, _ = self._load_texts(fingerprint_wire)
                for record in loaded:
                    combined[(record.kind, record.key)] = record.payload
            for record in records:
                slot = (record.kind, record.key)
                existing = combined.get(slot)
                if existing is None or merge_record is None:
                    combined[slot] = record.payload
                else:
                    try:
                        combined[slot] = merge_record(
                            record.kind, existing, record.payload
                        )
                    except _WIRE_ERRORS:
                        combined[slot] = record.payload

            shards: Dict[int, List[dict]] = {}
            kinds: Dict[str, int] = {}
            for (kind, key) in sorted(combined):
                kinds[kind] = kinds.get(kind, 0) + 1
                shards.setdefault(self._shard_of(key), []).append(
                    {"k": kind, "h": key, "d": combined[(kind, key)]}
                )

            for index, path in self._existing_shards():
                if index >= self.shard_count or not shards.get(index):
                    # Orphaned by a shrunk shard_count (or simply empty
                    # under the new layout): stale records must not
                    # resurrect on the next load.
                    try:
                        os.remove(path)
                    except FileNotFoundError:  # pragma: no cover - raced
                        pass
            for index, envelopes in shards.items():
                _write_if_changed(self._shard_path(index), envelopes, on_disk)
            _write_if_changed(
                self.meta_path(),
                {
                    "version": self.version,
                    "fingerprint": _json_normalized(fingerprint_wire),
                    "shards": self.shard_count,
                    "entries": len(combined),
                    "kinds": kinds,
                },
                on_disk,
            )
            return len(combined)

    # ------------------------------------------------------------------
    def _existing_shards(self) -> List[Tuple[int, str]]:
        """Every ``shard-NN.json`` currently on disk, whatever layout wrote it."""
        try:
            names = os.listdir(self.root)
        except OSError:  # pragma: no cover - root vanished mid-save
            return []
        found: List[Tuple[int, str]] = []
        for name in names:
            match = _SHARD_PATTERN.match(name)
            if match is not None:
                found.append((int(match.group(1)), os.path.join(self.root, name)))
        return sorted(found)


def _record_from_envelope(envelope) -> Optional[StoreRecord]:
    if not isinstance(envelope, dict):
        return None
    kind = envelope.get("k")
    key = envelope.get("h")
    if not isinstance(kind, str) or not isinstance(key, str):
        return None
    if "d" not in envelope:
        return None
    return StoreRecord(kind=kind, key=key, payload=envelope["d"])


def _json_normalized(value):
    """``value`` after a JSON round trip (tuples become lists, etc.)."""
    return json.loads(json.dumps(value))


def _read_text(path: str) -> Optional[str]:
    """A file's text, or ``None`` when it is absent or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError):
        return None


def _parse_meta(text: Optional[str]) -> Optional[dict]:
    if text is None:
        return None
    try:
        meta = json.loads(text)
    except json.JSONDecodeError:
        return None
    return meta if isinstance(meta, dict) else None


def _write_if_changed(path: str, payload, on_disk: Dict[str, str]) -> None:
    """Atomically replace ``path`` with ``payload`` unless it already holds it.

    The temp file is this writer's own: a lock broken as stale may still
    have a live holder, and two writers sharing one temp name could
    publish a torn file.  A failed write or replace removes it.
    """
    text = json.dumps(payload, separators=(",", ":"))
    if on_disk.get(path) == text:
        return
    tmp_path = f"{path}.tmp-{os.getpid()}-{next(_TMP_SEQUENCE)}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
