"""The unified content-addressed artifact store.

Every persistent artifact the reproduction writes — whole-query
solver-cache verdicts and witness-corpus records — goes through one
on-disk layer:
:class:`ArtifactStore`, a content-addressed, append-only record store with
a versioned + fingerprint-stamped ``meta.json``, sharded record files
written with atomic replaces, and an exclusive-lock merge-on-save as the
*only* save path.  The concrete stores (:mod:`repro.smt.cachestore`,
:mod:`repro.triage.corpus`) are thin codecs on top: they translate their
domain objects to JSON-able payloads and back, and delegate every
durability decision here.

See :mod:`repro.store.base` for the layout and concurrency contract and
:mod:`repro.store.locking` for the lock protocol.
"""

from repro.store.base import ArtifactStore, StoreRecord, content_key
from repro.store.locking import DirectoryLock

__all__ = ["ArtifactStore", "DirectoryLock", "StoreRecord", "content_key"]
