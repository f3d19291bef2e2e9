"""A reentrant reader--writer lock for the concurrent database layer.

The paper's structures are single-threaded; serving them to many clients
needs the classical discipline: any number of readers may traverse the
index together, while a writer (insert, delete, commit, a whole
transaction scope) holds the structure exclusively.

Semantics
---------

* **Writer preference.**  Once a writer is waiting, *new* reader threads
  queue behind it; readers already inside may finish (and may re-enter --
  see below), so writers cannot starve behind a stream of fresh readers.
* **Reentrancy.**  A thread may nest read sections inside read sections
  and write sections inside write sections.  A thread holding the write
  lock may also enter read sections (a writer is trivially a reader) --
  :class:`~repro.core.database.EncipheredDatabase` relies on this, since
  ``insert`` (write-locked) ends in ``commit`` (write-locked) and a
  transaction scope calls read-locked queries.
* **No upgrades.**  Acquiring the write lock while holding only the read
  lock raises :class:`~repro.exceptions.StorageError`: two readers
  upgrading simultaneously would deadlock, so the attempt is rejected
  outright.
"""

from __future__ import annotations

import threading

from repro.exceptions import StorageError


class _ReadScope:
    """``with lock.read_locked():`` -- the shared side for one block.

    Stateless (the lock keeps every thread's depth), so each lock builds
    one scope per side and every ``with`` reuses it, nested or not.  The
    acquire and release are looked up on each entry, so a wrapper set on
    the lock instance (a tracer) sees every scope.
    """

    __slots__ = ("_lock",)

    def __init__(self, lock: "ReadWriteLock") -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_read()

    def __exit__(self, *exc_info) -> None:
        self._lock.release_read()


class _WriteScope(_ReadScope):
    """``with lock.write_locked():`` -- the exclusive side for one block."""

    __slots__ = ()

    def __enter__(self) -> None:
        self._lock.acquire_write()

    def __exit__(self, *exc_info) -> None:
        self._lock.release_write()


class ReadWriteLock:
    """Reentrant many-readers / one-writer lock with writer preference."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._read_depth: dict[int, int] = {}  # reader thread id -> nesting
        self._writer: int | None = None  # owning thread id, if any
        self._writer_depth = 0
        self._writers_waiting = 0
        self._read_scope = _ReadScope(self)
        self._write_scope = _WriteScope(self)

    # -- read side -------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # the writer is trivially a reader; count it as nesting
                self._writer_depth += 1
                return
            depth = self._read_depth.get(me, 0)
            if depth == 0:
                # a thread already reading may re-enter even while a
                # writer waits (blocking it would deadlock); fresh
                # readers queue behind waiting writers
                while self._writer is not None or self._writers_waiting:
                    self._cond.wait()
            self._read_depth[me] = depth + 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth -= 1
                return
            depth = self._read_depth.get(me, 0)
            if depth == 0:
                raise StorageError("release_read without a matching acquire_read")
            if depth > 1:
                self._read_depth[me] = depth - 1
            else:
                del self._read_depth[me]
                self._cond.notify_all()

    # -- write side ------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if self._read_depth.get(me, 0):
                raise StorageError(
                    "cannot upgrade a read lock to a write lock "
                    "(two upgrading readers would deadlock)"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._read_depth:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise StorageError("release_write by a thread not holding the lock")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers ------------------------------------------------

    def read_locked(self) -> _ReadScope:
        """Scope held under the shared (reader) side."""
        return self._read_scope

    def write_locked(self) -> _WriteScope:
        """Scope held under the exclusive (writer) side."""
        return self._write_scope

    # -- introspection (tests and diagnostics) ---------------------------

    @property
    def active_readers(self) -> int:
        """Number of distinct threads currently holding the read side."""
        with self._cond:
            return len(self._read_depth)

    @property
    def write_held(self) -> bool:
        """True iff some thread currently holds the write side."""
        with self._cond:
            return self._writer is not None

    def held_by_current_thread(self) -> bool:
        """True iff the calling thread holds either side."""
        me = threading.get_ident()
        with self._cond:
            return self._writer == me or bool(self._read_depth.get(me, 0))
