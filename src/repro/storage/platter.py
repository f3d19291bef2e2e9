"""A durable single-file block device with WAL crash recovery.

:class:`FilePlatter` gives the enciphered-database-at-rest story an
actual at-rest form: one self-describing file per device, in the spirit
of the ubik ``.DB0`` layout (magic, a version counter, length-prefixed
values), holding exactly the bytes
:class:`~repro.storage.disk.SimulatedDisk` would hold in memory --
the :class:`~repro.storage.device.BlockTransform` still runs at the
read/write boundary, so what rests in the file is ciphertext.

Of the :class:`~repro.storage.device.BlockDevice` contract this module
supplies only the at-rest primitives: reading one id's bytes (the
pending overlay of unsynced writes, then the file, then WAL repair of a
record whose CRC fails) and staging one id's bytes in that overlay.  A
read is charged its measured fetch time by the base class, a write the
measured time of the :meth:`~FilePlatter.sync` that lands it.
Allocation, bounds, statistics, the no-op dedup, at-rest
state access and the attacker's view are the base class's,
shared with :class:`~repro.storage.disk.SimulatedDisk`.  What this
module owns is the file format and the durability protocol below.  I/O
on a closed platter raises :class:`~repro.exceptions.StorageError`.

On-disk layout (all integers little-endian)::

    main file (``<name>.platter``)
    +-----------------------------+ 0
    | header slot A (64 bytes)    |   magic "HSPL1990", version u16,
    +-----------------------------+ 64  flags u16, block_size u32,
    | header slot B (64 bytes)    |   counter u64, reserved u64,
    +-----------------------------+ 128 block_count u64, pad, crc32
    | block record 0              |
    |   len  u32  (= payload+1;   |   record i lives at the fixed
    |             0 = unwritten)  |   offset 128 + i*(8+block_size),
    |   crc  u32  (id64 || bytes) |   so a record never moves and a
    |   payload (<= block_size)   |   torn rewrite clobbers only its
    +-----------------------------+   own slot
    | block record 1 ...          |

    sidecar WAL (``<name>.platter.wal``)
    +-----------------------------+ 0
    | magic "HSWL1990", ver, pad  |   16-byte header
    +-----------------------------+ 16
    | frame: body_len u32, crc u32|   body = counter u64, reserved u64,
    |        body                 |   block_count u64, nentries u32,
    +-----------------------------+   then per entry: id u64,
    | frame ...                   |   len u32 (payload+1), payload

The ``reserved`` words (header and frame) are written as 0 and ignored
on read; older writers stored a replica-sync epoch there, so their
platters open and replay unchanged.

Durability protocol (one :meth:`sync` = one *flush generation*, the
``counter``):

1. every pending at-rest write is packed into **one WAL frame**,
   appended and fsynced -- the frame *is* the commit record;
2. the writes land in the main file at their fixed record offsets,
   then the main file is fsynced;
3. the 64-byte header -- the only sub-sector-sized write in the
   protocol -- is rewritten **in the alternate slot** (``counter & 1``)
   and fsynced; readers pick the valid slot with the higher counter,
   so a torn header write simply loses the flip, not the file.

A crash between 1 and 3 is healed on :meth:`open <FilePlatter>`: WAL
frames with ``counter`` above the header's are replayed (idempotent --
records live at fixed offsets), then the header is flipped.  A torn
*tail* frame (the crash hit the WAL append itself) fails its CRC and is
truncated away -- that generation never committed.  A block record
whose CRC fails on read is repaired from the newest WAL frame that
wrote it; with the WAL checkpointed, corruption is unrepairable and
surfaces as :class:`~repro.exceptions.PlatterFormatError`.

Concurrent :meth:`sync` callers coalesce without any extra machinery:
``_lock`` is held for the whole protocol and ``_pending`` is cleared
only at its end, so a caller that waited behind another's round finds
its writes already in that frame (or packs everything staged since into
the next one) -- several committers' writes travel behind one WAL
fsync, one apply fsync and one header flip, and a sync with nothing
left pending returns without I/O.

The platter syncs only when its owner asks (a database commit or
:meth:`~FilePlatter.close`): the database superblock is the commit
point, so pages staged after the last commit must not reach the file
without it.

``fault_hook`` is a per-instance probe into the sync protocol: when
set, it is called with a named point (``"sync:start"``,
``"wal:appended"``, ``"apply:block"``, ``"apply:done"``,
``"header:flipped"``).  It may raise to simulate the process dying right
there -- :meth:`abandon` then drops the file handles without any
tidy-up, exactly like a kill -- or run code at that point, as the
group-commit tests do to start a reader mid-sync.
"""

from __future__ import annotations

import fcntl
import os
import struct
import zlib
from time import perf_counter

from repro.exceptions import PlatterFormatError, StorageError
from repro.storage.device import DURABILITY_FIELDS, BlockDevice, BlockTransform

__all__ = ["FilePlatter", "MAGIC", "WAL_MAGIC", "FORMAT_VERSION"]

MAGIC = b"HSPL1990"
WAL_MAGIC = b"HSWL1990"
FORMAT_VERSION = 1

#: Header slot: magic, version, flags, block_size, counter, a reserved
#: word (0), block_count, padding, crc32 over the first 60 bytes.
_HEADER = struct.Struct("<8sHHIQQQ20sI")
_HEADER_SIZE = 64
_DATA_OFFSET = 2 * _HEADER_SIZE
assert _HEADER.size == _HEADER_SIZE

_WAL_HEADER = struct.Struct("<8sH6s")
_WAL_DATA_OFFSET = 16
assert _WAL_HEADER.size == _WAL_DATA_OFFSET

#: WAL frame prefix (body length, body crc32) and body header
#: (counter, a reserved word (0), block_count, nentries); entries are
#: id u64 + len-field u32 + payload.
_FRAME_PREFIX = struct.Struct("<II")
_FRAME_BODY = struct.Struct("<QQQI")
_FRAME_ENTRY = struct.Struct("<QI")

#: Main-file block record prefix: len-field u32 (payload length + 1,
#: so 0 unambiguously means "never written"), crc32 u32.
_RECORD_PREFIX = struct.Struct("<II")
_RECORD_HEADER = _RECORD_PREFIX.size

#: Sentinel for "the at-rest bytes are unreadable" in the write-path
#: dedup compare -- unequal to any bytes and to None, so a write over a
#: corrupt record always lands.
_TORN = object()


def _block_crc(block_id: int, payload: bytes) -> int:
    return zlib.crc32(block_id.to_bytes(8, "little") + payload)


class _Frame:
    """One parsed WAL frame (transient: scan/replay bookkeeping)."""

    __slots__ = ("counter", "block_count", "entries")

    def __init__(self, counter, block_count, entries):
        self.counter = counter
        self.block_count = block_count
        #: list of (block_id, payload | None, abs_payload_offset)
        self.entries = entries


class FilePlatter(BlockDevice):
    """A self-describing single-file block device with a sidecar WAL.

    Parameters
    ----------
    path:
        The main platter file.  The WAL lives beside it at
        ``<path>.wal``.
    block_size:
        Block capacity in bytes of a new platter (default 4096).  An
        existing platter opens at the size its header records; a size
        given for it must match.
    transform:
        Optional on-the-fly encipherment module; what reaches the file
        is its output.
    create:
        ``True`` -- create a fresh platter, failing if ``path`` exists;
        ``False`` -- open an existing one, failing if it does not;
        ``None`` (default) -- open if present, else create.
    fsync:
        When ``False``, skip the ``fsync`` calls (OS buffering only).
        Crash *recovery* still works against the bytes that made it to
        the file; the tests run mostly with ``fsync=False`` for speed
        and the benchmarks measure both.
    wal_limit_bytes:
        Auto-checkpoint threshold: after a sync that leaves the WAL
        larger than this, the WAL is truncated (the main file is
        already fully applied and header-flipped, so nothing is lost
        but the repair history).

    Write path: at-rest bytes stage in ``_pending`` (read-modify-write
    against the file for the no-op dedup) and reach the file
    only at :meth:`sync` -- the device-level analogue of a write-back
    cache, and what makes "one commit = one WAL frame = one header
    flip" possible.  Reads prefer ``_pending`` (a handle must see its
    own writes) and otherwise hit the file; there is deliberately *no*
    device-level read cache -- the caches above (pager, record store)
    already serve hot reads, so a cold open here is honestly cold.
    The open holds an exclusive ``flock`` on the file until the handle
    closes (or is abandoned), so a file has one live handle.
    """

    def __init__(
        self,
        path,
        block_size: int | None = None,
        transform: BlockTransform | None = None,
        *,
        create: bool | None = None,
        fsync: bool = True,
        wal_limit_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        self.path = os.fspath(path)
        self.wal_path = self.path + ".wal"
        self.fsync = fsync
        self.wal_limit_bytes = wal_limit_bytes
        #: Crash point and mid-sync probe; see the module docstring.
        self.fault_hook = None

        exists = os.path.exists(self.path)
        if create is True and exists:
            raise StorageError(f"platter already exists: {self.path}")
        if create is False and not exists:
            raise StorageError(f"platter not found: {self.path}")

        self._closed = False
        self._pending: dict[int, bytes | None] = {}
        #: block id -> (absolute WAL payload offset, payload length):
        #: the newest WAL copy of the block, for CRC-failure repair.
        self._repair: dict[int, tuple[int, int]] = {}
        self._durability = {field: 0 for field in DURABILITY_FIELDS}

        if not exists:
            super().__init__(block_size or 4096, transform)  # validates the size
        self._fh = open(self.path, "r+b" if exists else "x+b", buffering=0)
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            if exists:
                counter, count, disk_block_size = self._read_header()
                if block_size not in (None, disk_block_size):
                    raise StorageError(
                        f"platter {self.path} holds {disk_block_size}-byte blocks, "
                        f"not {block_size}"
                    )
                super().__init__(disk_block_size, transform)
                self._durable_counter = counter
                self._durable_count = count
                self._count = count
                self._open_wal(create=not os.path.exists(self.wal_path))
                self._recover()
            else:
                self._durable_counter = 0
                self._durable_count = 0
                self._write_header_slot(0, 0)
                self._fsync_main()
                self._open_wal(create=True)
        except BaseException as exc:
            self._fh.close()  # releases the lock
            if isinstance(exc, BlockingIOError):  # the lock is held
                raise StorageError(f"platter {self.path} is open in another handle") from None
            raise

    # -- header ----------------------------------------------------------

    def _pack_header(self, counter: int, block_count: int) -> bytes:
        body = _HEADER.pack(
            MAGIC, FORMAT_VERSION, 0, self.block_size, counter, 0,
            block_count, b"\x00" * 20, 0,
        )
        return body[:-4] + struct.pack("<I", zlib.crc32(body[:-4]))

    def _write_header_slot(self, counter: int, block_count: int) -> None:
        slot = counter & 1
        self._fh.seek(slot * _HEADER_SIZE)
        self._fh.write(self._pack_header(counter, block_count))

    @staticmethod
    def _parse_header_slot(raw: bytes):
        """Return (counter, block_count, block_size) or None."""
        if len(raw) != _HEADER_SIZE:
            return None
        magic, version, _flags, block_size, counter, _reserved, count, _pad, crc = (
            _HEADER.unpack(raw)
        )
        if magic != MAGIC or crc != zlib.crc32(raw[:-4]):
            return None
        if version != FORMAT_VERSION:
            raise PlatterFormatError(
                f"platter format version {version} not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        return counter, count, block_size

    def _read_header(self):
        """Pick the valid header slot with the higher counter."""
        self._fh.seek(0)
        raw = self._fh.read(_DATA_OFFSET)
        best = None
        for slot in (0, 1):
            parsed = self._parse_header_slot(raw[slot * 64 : slot * 64 + 64])
            if parsed is not None and (best is None or parsed[0] > best[0]):
                best = parsed
        if best is None:
            raise PlatterFormatError(
                f"{self.path}: no valid platter header (bad magic or checksum "
                "in both slots)"
            )
        return best

    # -- WAL -------------------------------------------------------------

    def _open_wal(self, create: bool) -> None:
        if create:
            self._wal = open(self.wal_path, "w+b", buffering=0)
            self._wal.write(_WAL_HEADER.pack(WAL_MAGIC, FORMAT_VERSION, b"\x00" * 6))
            self._fsync_wal()
        else:
            self._wal = open(self.wal_path, "r+b", buffering=0)
            self._wal.seek(0)
            raw = self._wal.read(_WAL_DATA_OFFSET)
            if len(raw) != _WAL_DATA_OFFSET or raw[:8] != WAL_MAGIC:
                raise PlatterFormatError(f"{self.wal_path}: not a platter WAL")

    def _scan_wal(self) -> tuple[list[_Frame], int]:
        """Parse every intact frame; return (frames, end-of-good-bytes).

        Stops at the first torn frame -- a short or checksum-failed
        tail is the signature of a crash mid-append, and nothing after
        it can be trusted (appends are strictly ordered).
        """
        self._wal.seek(0, os.SEEK_END)
        size = self._wal.tell()
        self._wal.seek(_WAL_DATA_OFFSET)
        frames: list[_Frame] = []
        good_end = _WAL_DATA_OFFSET
        offset = _WAL_DATA_OFFSET
        while offset + _FRAME_PREFIX.size <= size:
            self._wal.seek(offset)
            body_len, crc = _FRAME_PREFIX.unpack(self._wal.read(_FRAME_PREFIX.size))
            body_start = offset + _FRAME_PREFIX.size
            if body_start + body_len > size:
                break  # torn tail: the append never finished
            body = self._wal.read(body_len)
            if len(body) != body_len or zlib.crc32(body) != crc:
                break
            counter, _reserved, block_count, nentries = _FRAME_BODY.unpack_from(
                body, 0
            )
            pos = _FRAME_BODY.size
            entries = []
            try:
                for _ in range(nentries):
                    block_id, len_field = _FRAME_ENTRY.unpack_from(body, pos)
                    pos += _FRAME_ENTRY.size
                    if len_field == 0:
                        entries.append((block_id, None, 0))
                    else:
                        payload = body[pos : pos + len_field - 1]
                        if len(payload) != len_field - 1:
                            raise PlatterFormatError("frame body underrun")
                        entries.append((block_id, payload, body_start + pos))
                        pos += len_field - 1
            except (struct.error, PlatterFormatError):
                break  # CRC collided with garbage; treat as torn
            if frames and counter <= frames[-1].counter:
                raise PlatterFormatError(
                    f"{self.wal_path}: frame counters not increasing "
                    f"({frames[-1].counter} then {counter})"
                )
            frames.append(_Frame(counter, block_count, entries))
            good_end = body_start + body_len
            offset = good_end
        return frames, good_end

    def _index_frames(self, frames: list[_Frame]) -> None:
        for frame in frames:
            for block_id, payload, payload_off in frame.entries:
                if payload is not None:
                    self._repair[block_id] = (payload_off, len(payload))
                else:
                    self._repair.pop(block_id, None)

    # -- recovery --------------------------------------------------------

    def _recover(self) -> None:
        """Replay sealed-but-not-applied WAL frames; truncate torn tail."""
        frames, good_end = self._scan_wal()
        self._wal.seek(0, os.SEEK_END)
        if self._wal.tell() > good_end:
            self._wal.truncate(good_end)
            self._fsync_wal()
        replay = [f for f in frames if f.counter > self._durable_counter]
        expected = self._durable_counter + 1
        for frame in replay:
            if frame.counter != expected:
                raise PlatterFormatError(
                    f"{self.wal_path}: generation {expected} missing "
                    f"(found {frame.counter}); the log cannot complete the "
                    "interrupted flush"
                )
            for block_id, payload, _off in frame.entries:
                self._write_record(block_id, payload)
            expected += 1
            self._durability["frames_replayed"] += 1
        if replay:
            self._fsync_main()
            last = replay[-1]
            self._write_header_slot(last.counter, last.block_count)
            self._fsync_main()
            self._durability["header_flips"] += 1
            self.stats.header_flips += 1
            self._durable_counter = last.counter
            self._durable_count = last.block_count
            self._count = last.block_count
        self._index_frames(frames)

    # -- main-file records -----------------------------------------------

    def _record_offset(self, block_id: int) -> int:
        return _DATA_OFFSET + block_id * (_RECORD_HEADER + self.block_size)

    def _write_record(self, block_id: int, payload: bytes | None) -> None:
        self._fh.seek(self._record_offset(block_id))
        if payload is None:
            self._fh.write(_RECORD_PREFIX.pack(0, 0))
        else:
            self._fh.write(
                _RECORD_PREFIX.pack(len(payload) + 1, _block_crc(block_id, payload))
                + payload
            )

    def _read_record(self, block_id: int) -> bytes | None:
        """At-rest bytes straight from the file; ``None`` if never written.

        One ``os.pread`` of the whole record slot (prefix and the
        largest payload), so a read moves no file offset.  Raises
        :class:`PlatterFormatError` on an overflowing length field, a
        CRC mismatch or a short read -- the caller routes that through
        WAL repair.
        """
        raw = os.pread(
            self._fh.fileno(),
            _RECORD_HEADER + self.block_size,
            self._record_offset(block_id),
        )
        if len(raw) < _RECORD_HEADER:
            return None  # beyond EOF: allocated, never synced
        len_field, crc = _RECORD_PREFIX.unpack_from(raw)
        if len_field == 0:
            return None
        if len_field - 1 > self.block_size:
            raise PlatterFormatError(
                f"block {block_id}: length field {len_field - 1} overflows "
                f"{self.block_size}-byte records"
            )
        payload = raw[_RECORD_HEADER : _RECORD_HEADER + len_field - 1]
        if len(payload) != len_field - 1 or _block_crc(block_id, payload) != crc:
            raise PlatterFormatError(f"block {block_id}: record checksum mismatch")
        return payload

    def _repair_record(self, block_id: int) -> bytes:
        """Rewrite a checksum-failed record from its newest WAL copy."""
        entry = self._repair.get(block_id)
        if entry is None:
            raise PlatterFormatError(
                f"block {block_id}: record checksum mismatch and no WAL copy "
                "to repair from (log was checkpointed)"
            )
        payload_off, payload_len = entry
        self._wal.seek(payload_off)
        payload = self._wal.read(payload_len)
        if len(payload) != payload_len:
            raise PlatterFormatError(
                f"block {block_id}: WAL repair copy truncated"
            )
        self._write_record(block_id, payload)
        if self.fsync:
            self._fsync_main()
        self._durability["blocks_repaired"] += 1
        return payload

    # -- the at-rest primitives (see BlockDevice) ------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self.path}: I/O on a closed platter")

    def _at_rest(self, block_id: int) -> bytes | None:
        """Current at-rest bytes: pending overlay first, then the file."""
        self._check_open()
        if block_id in self._pending:
            return self._pending[block_id]
        try:
            return self._read_record(block_id)
        except PlatterFormatError:
            return self._repair_record(block_id)

    def _overwritten(self, block_id: int):
        try:
            return self._at_rest(block_id)
        except PlatterFormatError:
            return _TORN  # unrepairable; this write heals it

    def _stage(self, block_id: int, stored: bytes | None) -> None:
        self._check_open()
        self._pending[block_id] = stored

    def _fsync_main(self) -> None:
        if self.fsync:
            with self.tracer.trace("platter.fsync"):
                os.fsync(self._fh.fileno())
            self.stats.fsyncs += 1

    def _fsync_wal(self) -> None:
        if self.fsync:
            with self.tracer.trace("platter.fsync"):
                os.fsync(self._wal.fileno())
            self.stats.fsyncs += 1

    def _fault(self, point: str) -> None:
        # the shared injector's crash rules first (REPRO_FAULTS /
        # attach_faults), then this instance's hook: a crash point or a
        # mid-sync probe such as the group-commit reader test's
        if self.faults is not None:
            self.faults.crash_point(point)
        hook = self.fault_hook
        if hook is not None:
            hook(point)

    # -- durability ------------------------------------------------------

    def sync(self) -> int:
        """Flush every pending write: WAL frame, apply, header flip.

        Returns the number of block records made durable.  A sync with
        nothing pending and no allocation movement is free -- no frame,
        no flip.

        Concurrent callers serialise on ``_lock``; one that waited
        behind another's round usually finds its writes already flushed
        and returns 0 without I/O.

        Injected "sync" faults fire here, at the entry point, *before*
        any WAL work starts -- the one place a failed sync is trivially
        retryable (a mid-protocol failure is what the crash points
        model, and those recover via ``abandon()`` + reopen, not retry).
        """
        if self.faults is not None or self.retry_policy is not None:
            return self._guarded("sync", self._sync_entry)
        return self._sync_entry()

    def _sync_entry(self) -> int:
        with self._lock:
            return self._sync_locked()

    def _sync_locked(self) -> int:
        """The flush protocol; caller holds ``_lock``."""
        if not self._pending and self._count == self._durable_count:
            return 0
        self._check_open()
        counter = self._durable_counter + 1
        entries = sorted(self._pending.items())
        sync_start = perf_counter()
        self._fault("sync:start")

        with self.tracer.trace("platter.wal_append"):
            parts = [
                _FRAME_BODY.pack(counter, 0, self._count, len(entries))
            ]
            for block_id, payload in entries:
                if payload is None:
                    parts.append(_FRAME_ENTRY.pack(block_id, 0))
                else:
                    parts.append(_FRAME_ENTRY.pack(block_id, len(payload) + 1))
                    parts.append(payload)
            body = b"".join(parts)
            self._wal.seek(0, os.SEEK_END)
            frame_start = self._wal.tell()
            self._wal.write(
                _FRAME_PREFIX.pack(len(body), zlib.crc32(body)) + body
            )
            self._fsync_wal()
        self._durability["wal_frames"] += 1
        self._durability["wal_bytes"] += _FRAME_PREFIX.size + len(body)
        self._fault("wal:appended")

        # index the frame for CRC repair while we know the offsets
        pos = frame_start + _FRAME_PREFIX.size + _FRAME_BODY.size
        for block_id, payload in entries:
            pos += _FRAME_ENTRY.size
            if payload is None:
                self._repair.pop(block_id, None)
            else:
                self._repair[block_id] = (pos, len(payload))
                pos += len(payload)

        for block_id, payload in entries:
            self._write_record(block_id, payload)
            self._fault("apply:block")
        self._fsync_main()
        self._fault("apply:done")

        with self.tracer.trace("platter.header_flip"):
            self._write_header_slot(counter, self._count)
            self._fsync_main()
        self._durability["header_flips"] += 1
        self.stats.header_flips += 1
        self._fault("header:flipped")

        self._durable_counter = counter
        self._durable_count = self._count
        self._pending.clear()
        self._durability["syncs"] += 1

        self._wal.seek(0, os.SEEK_END)
        if self._wal.tell() > self.wal_limit_bytes:
            self._checkpoint_locked()
        self.stats.write_time_s += perf_counter() - sync_start
        return len(entries)

    def checkpoint(self) -> None:
        """Sync, then truncate the WAL (the main file subsumes it).

        Repair history is dropped with it -- the trade the
        ``wal_limit_bytes`` auto-checkpoint makes to bound the sidecar.
        """
        self.sync()
        with self._lock:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        self._wal.truncate(_WAL_DATA_OFFSET)
        self._fsync_wal()
        self._repair.clear()
        self._durability["checkpoints"] += 1

    def close(self) -> None:
        """Sync pending writes, then release the file handles.

        The handles are released even when the final sync fails (an
        injected permanent fault, a full disk): the sync error still
        propagates, but a second ``close()`` is a no-op either way and
        no descriptor leaks into the crash-recovery path.
        """
        with self._lock:
            if self._closed:
                return
        try:
            # outside _lock: a second close racing in simply finds nothing
            # pending
            self.sync()
        finally:
            with self._lock:
                if not self._closed:
                    self._closed = True
                    self._fh.close()
                    self._wal.close()

    def abandon(self) -> None:
        """Drop the handles with *no* sync -- the crash-test kill switch."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.close()
            self._wal.close()

    def durability_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._durability)
