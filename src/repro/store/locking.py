"""Exclusive lock files guarding a store directory's save path.

The lock is a plain file created with ``O_CREAT | O_EXCL`` — portable,
dependency-free, and visible to every process sharing the directory
(which is the whole point: campaign processes, process-backend parents
and replay runs all converge on one store).

Liveness needs stale-lock breaking: a writer that dies between acquire
and release would otherwise deadlock every later save.  Breaking a lock
safely is the subtle part.  The naive protocol — "on timeout, unlink the
lock and loop back to ``O_EXCL``" — has a thundering-herd race: two
waiters can both hit their deadline, both unlink (the second unlink
removing the *new* holder's lock, not the stale one), and both enter the
critical section.  The protocol here closes that race:

* each waiter tracks the lock file's **identity** (inode + mtime); when
  the identity changes, the lock turned over to a live writer, and the
  waiter's patience deadline resets — a fresh holder's lock is never
  broken;
* at the deadline, the breaker ``os.rename``\\ s the lock aside to a
  unique per-breaker name.  Rename is atomic: exactly one breaker wins
  (losers get ``FileNotFoundError`` and simply re-poll), and the rename
  can never destroy a *new* holder's lock the way a second unlink can —
  if the holder changed, the waiter's identity check already reset its
  deadline before it reached the break;
* acquisition itself stays ``O_CREAT | O_EXCL``, so even if several
  waiters reach the post-break poll together, the filesystem picks a
  single winner.
"""

from __future__ import annotations

import itertools
import os
import time

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER

__all__ = ["DirectoryLock"]

#: How long a waiter tolerates a lock whose identity never changes before
#: declaring its holder dead (saves take milliseconds).
DEFAULT_TIMEOUT_SECONDS = 10.0

DEFAULT_POLL_SECONDS = 0.02

_BREAK_SEQUENCE = itertools.count()


class DirectoryLock:
    """An exclusive advisory lock file with atomic stale-lock breaking.

    Usable as a context manager::

        with DirectoryLock(os.path.join(store_dir, ".lock")):
            ...  # load -> merge -> write

    Not reentrant, and deliberately advisory: only writers take it (the
    read path relies on per-file atomic replaces instead, so readers
    never block writers or each other).
    """

    def __init__(
        self,
        path: str,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        poll: float = DEFAULT_POLL_SECONDS,
    ) -> None:
        self.path = str(path)
        self.timeout = float(timeout)
        self.poll = float(poll)
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Block until this process holds the lock."""
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path!r} is already held")
        waited_from = time.perf_counter()
        deadline = time.monotonic() + self.timeout
        watched = None
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.write(fd, str(os.getpid()).encode("ascii"))
                self._fd = fd
                waited = time.perf_counter() - waited_from
                METRICS.histogram("store.lock_wait_seconds").observe(waited)
                TRACER.event(
                    "store.lock_wait", seconds=round(waited, 6), path=self.path
                )
                return
            try:
                stat = os.stat(self.path)
                identity = (stat.st_ino, stat.st_mtime_ns)
            except OSError:
                # Released (or broken) between the open and the stat;
                # race straight back to O_EXCL.
                continue
            if identity != watched:
                if watched is not None:
                    # The lock turned over to a live writer; never break a
                    # fresh holder's lock.
                    deadline = time.monotonic() + self.timeout
                watched = identity
            elif time.monotonic() >= deadline:
                self._break_stale()
                deadline = time.monotonic() + self.timeout
                watched = None
                continue
            time.sleep(self.poll)

    def release(self) -> None:
        """Release the lock (idempotent)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        os.close(fd)
        try:
            os.remove(self.path)
        except FileNotFoundError:  # pragma: no cover - freed by a breaker
            pass

    # ------------------------------------------------------------------
    def _break_stale(self) -> None:
        """Atomically retire a lock whose holder is presumed dead.

        The rename-to-unique-name is the single-winner step: losers see
        ``FileNotFoundError`` and go back to polling, and the stale file
        is removed under a name nobody else races on.
        """
        aside = f"{self.path}.stale-{os.getpid()}-{next(_BREAK_SEQUENCE)}"
        try:
            os.rename(self.path, aside)
        except OSError:
            return
        TRACER.event("store.lock_break", path=self.path)
        try:
            os.remove(aside)
        except FileNotFoundError:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    def __enter__(self) -> "DirectoryLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
