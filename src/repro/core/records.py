"""Encrypted data blocks: where the actual records live.

§5: *"The encryption algorithm used for the encryption of data blocks can
be different and independent to that used for the tree and data pointers
in the node blocks."*  The record store therefore owns its own simulated
disk with its own cipher at the I/O boundary, entirely independent of the
node-block machinery.  Compromise of the node blocks yields only the
*locations* of data blocks, never their contents.

Records are stored in fixed-size slots (several per block); the *data
pointer* ``a`` stored in node triplets is the slot's global index.

Slot-window reads
-----------------

Benchmark C8 measured per-match record-block DES decryption at ~70-80%
of range-query time: every :meth:`RecordStore.get` deciphered a whole
block to extract one slot.  CBC decryption is random-access (plaintext
block *i* is ``D(C_i) xor C_(i-1)``), so an uncached ``get`` now asks
the device for just its slot's byte window and the record cipher
deciphers only the DES blocks under it, plus the final block for the
padding check (see :func:`repro.crypto.modes.cbc_decrypt_window`).  It
still counts as one record-block decipher; platter bytes and every
check are unchanged.  Metadata scans and cache fills decipher whole
blocks.

A range search reads all its matches with :meth:`RecordStore.get_many`:
one device batch with one window per match, whose windows the record
cipher gathers into a single bulk DES call
(:func:`repro.crypto.modes.cbc_decrypt_windows`).  A range's ~20
windows of ~17 DES blocks each thus reach the DES kernel as one buffer
and pay its fixed per-call cost once.  Each
match still counts as one record-block decipher and one device read,
duplicate blocks included, so the counts are exactly those of looping
:meth:`RecordStore.get`.

Suffix-only slot writes
-----------------------

CBC encryption is prefix-preserving too: ciphertext block *i* depends
only on plaintext blocks ``<= i`` and the IV.  So every slot write --
a ``put`` into a free slot, a ``delete``, an append to the open block,
each block :meth:`RecordStore.put_many` touches -- re-enciphers only
from the DES block *i* holding its first changed plain byte.  It
deciphers the plain bytes from ``8 i`` to the block's end (the read
window above, padding check included), edits them, and writes them back
with the device's ``base=``: the stored ``C[:i]`` stays and the record
cipher enciphers the rest in one CBC call chained on ``C[i-1]`` (on the
IV only when *i* is 0; see :func:`repro.crypto.modes.cbc_encrypt_suffix`).
The result is the whole-block cryptogram byte for byte, so a write into
slot 3 of a 512-byte block enciphers 17 DES blocks instead of 62 and
leaks nothing new: the IV is fixed per block id, so a whole-block
rewrite already kept that prefix.  Reads, writes and the one record-block
encipher per write are counted as before.

A write that raises may have left torn bytes at rest, so the block's
next write re-enciphers it from byte 0 out of the plaintext the store
holds (the open block's slots, or the cache) and heals it.

Plaintext block cache
---------------------

``cache_blocks > 0`` puts an :class:`~repro.storage.cache.LRUCache` of
*deciphered slot tuples* above the disk, so each block is deciphered
whole once per residency instead of once per matching record
(benchmark C9).

The cache is write-through on the plaintext side: every slot write
re-enciphers and writes the block as before, taking the plain bytes
from the cache instead of a window read (ciphertext traffic is
byte-identical with the cache on or off) and refreshes the cached
tuple, so reads after ``put``/``delete`` -- including the deletes a
transaction rollback issues -- can never see stale plaintext.  The
default is ``0`` (off): the store behaves bit-for-bit as it always has,
which is the control arm of C9's security-envelope check.
"""

from __future__ import annotations

from repro.crypto.base import CryptoOpCounts
from repro.crypto.des import DES
from repro.crypto.modes import (
    CBCCipher,
    cbc_decrypt_window,
    cbc_decrypt_windows,
    cbc_encrypt_suffix,
)
from repro.exceptions import BlockBoundsError, StorageError
from repro.obs.tracing import NULL_TRACER
from repro.storage.backend import StorageBackend
from repro.storage.cache import LRUCache
from repro.storage.disk import SimulatedDisk
from repro.storage.journal import DiskDelta, RecordStoreDelta


class _RecordBlockTransform:
    """DES-CBC at the data-block boundary, IV derived from the block id.

    ``counts`` meters block cipher operations: one per block enciphered
    or deciphered, whether a read deciphers the whole block or only a
    slot's window of it.  It is thread-safe because concurrent readers
    decipher outside every lock.
    """

    def __init__(self, key: bytes) -> None:
        self.key = key
        self._des = DES(key)
        self.counts = CryptoOpCounts()
        #: Span tracer timing whole-block cipher work; defaults to the
        #: shared disabled tracer (see :meth:`RecordStore.attach_tracer`).
        self.tracer = NULL_TRACER

    def _iv(self, block_id: int) -> bytes:
        return self._des.encrypt_block((block_id ^ 0xA5A5A5A5).to_bytes(8, "big"))

    def on_write(self, block_id: int, data: bytes, prefix: bytes = b"") -> bytes:
        """Encipher a block, keeping the stored cipher blocks ``prefix``.

        ``data`` is the plain bytes from ``len(prefix)`` on; only they
        are enciphered, chained on the last kept block (on the IV, which
        is derived only then, for an empty prefix).  Either way it is
        one block encipher in :attr:`counts`.
        """
        with self.tracer.trace("cipher.record_encrypt"):
            self.counts.bump("encryptions")
            return cbc_encrypt_suffix(
                self._des, prefix, data, lambda: self._iv(block_id)
            )

    def on_read(
        self, block_id: int, data: bytes, window: tuple[int, int] | None = None
    ) -> bytes:
        """Decipher a block, or only the plain bytes ``window=(lo, hi)``.

        A window deciphers the final DES block (padding check, plain
        length), the DES blocks covering ``[lo, hi)`` and -- only when
        those start at block 0 -- the IV; either way it is one block
        decipher in :attr:`counts`.
        """
        with self.tracer.trace("cipher.record_decrypt"):
            self.counts.bump("decryptions")
            if window is None:
                return CBCCipher(self._des, self._iv(block_id)).decrypt(data)
            lo, hi = window
            return cbc_decrypt_window(
                self._des, data, lo, hi, lambda: self._iv(block_id)
            )

    def on_read_many(
        self, block_ids: list[int], data: list[bytes], windows: list[tuple[int, int]]
    ) -> list[bytes]:
        """Decipher one window per block in a single bulk DES call.

        Equal to a windowed :meth:`on_read` per item -- same bytes, same
        errors, one block decipher counted per item -- but the windows
        share one ``decrypt_blocks`` call.
        """
        with self.tracer.trace("cipher.record_decrypt"):
            self.counts.bump("decryptions", len(block_ids))
            return cbc_decrypt_windows(
                self._des,
                [
                    (stored, lo, hi, block_id)
                    for block_id, stored, (lo, hi) in zip(block_ids, data, windows)
                ],
                self._iv,
            )


class RecordStore:
    """Slotted, enciphered record storage.

    Parameters
    ----------
    data_key:
        8-byte key for the data-block cipher (independent of node keys).
    record_size:
        Slot payload capacity; records longer than this are rejected.
    block_size:
        Data-block size; determines slots per block.
    cache_blocks:
        Capacity (in blocks) of the plaintext slot cache; ``0`` (the
        default) disables it, preserving the decipher-per-read cost
        model exactly.
    backend:
        Optional :class:`~repro.storage.backend.StorageBackend` the
        store's device comes from (``None`` keeps the historical
        private in-memory disk).  ``device_name``/``create`` select and
        qualify the backend device; opening an *existing* device gives
        back the at-rest bytes but not the slot metadata, which lives
        only in memory -- use :meth:`reopen` (or call
        :meth:`recover_metadata`) to rebuild it by scanning.
    """

    def __init__(
        self,
        data_key: bytes,
        record_size: int = 120,
        block_size: int = 4096,
        cache_blocks: int = 0,
        *,
        backend: StorageBackend | None = None,
        device_name: str = "records",
        create: bool | None = None,
    ) -> None:
        slot = record_size + 2  # 2-byte length prefix
        # CBC pads up to a full cipher block; leave room for it.
        usable = block_size - 8
        self.slots_per_block = usable // slot
        if self.slots_per_block < 1:
            raise StorageError(
                f"record size {record_size} too large for {block_size}-byte blocks"
            )
        self.record_size = record_size
        self.slot_size = slot
        #: A freed slot's bytes: the ``0xFFFF`` length prefix marks it free.
        self._free_slot = b"\xff\xff" + bytes(record_size)
        self._transform = _RecordBlockTransform(data_key)
        if backend is not None:
            self.disk = backend.open_device(
                device_name,
                block_size=block_size,
                transform=self._transform,
                create=create,
            )
        else:
            self.disk = SimulatedDisk(block_size=block_size, transform=self._transform)
        self.cache = LRUCache(cache_blocks, name="record-plaintext")
        self._open_block: int | None = None
        self._open_slots: list[bytes] = []
        self._free: list[int] = []
        #: Blocks whose last write raised: their at-rest bytes may be
        #: torn, so the next write re-enciphers them from byte 0.
        self._unsettled: set[int] = set()
        self.count = 0

    @classmethod
    def reopen(
        cls,
        data_key: bytes,
        backend: StorageBackend,
        *,
        record_size: int = 120,
        block_size: int = 4096,
        cache_blocks: int = 0,
        device_name: str = "records",
    ) -> "RecordStore":
        """Rebuild a store from a backend's existing device by scanning.

        The platter holds only enciphered slot blocks -- no metadata
        records -- so the free list, record count and open block are
        recovered by deciphering every block once and reading the slot
        length prefixes (a free slot's prefix is the ``0xFFFF`` marker).
        That full-scan decipher *is* the honest cold-open cost of the
        metadata-less format; benchmark C12 measures it.
        """
        store = cls(
            data_key,
            record_size=record_size,
            block_size=block_size,
            cache_blocks=cache_blocks,
            backend=backend,
            device_name=device_name,
            create=False,
        )
        store.recover_metadata()
        return store

    @property
    def cipher_counts(self) -> CryptoOpCounts:
        """Whole-block record-cipher operation counters."""
        return self._transform.counts

    def attach_tracer(self, tracer) -> None:
        """Route cipher and device spans into the owning database's tracer."""
        self._transform.tracer = tracer
        self.disk.tracer = tracer

    @property
    def data_key(self) -> bytes:
        """The data-block cipher key (secret; in-memory material only)."""
        return self._transform.key

    def release_cipher_tables(self) -> None:
        """Drop the record cipher's round tables (see ``DES.release_tables``)."""
        self._transform._des.release_tables()

    # -- whole-store state (process-executor support) --------------------

    def export_state(self) -> dict[str, object]:
        """Everything a process-pool worker needs to rebuild this store.

        Platter bytes stay *enciphered* (they are exported at rest,
        below the transform) alongside the slot-allocation metadata that
        lives only in memory.  Pair with :meth:`from_state`.
        """
        return {
            "data_key": self.data_key,
            "record_size": self.record_size,
            "block_size": self.disk.block_size,
            "cache_blocks": self.cache.capacity,
            "blocks": self.disk.export_state(),
            "free": list(self._free),
            "count": self.count,
            "open_block": self._open_block,
            "open_slots": list(self._open_slots),
        }

    @classmethod
    def from_state(cls, state: dict[str, object]) -> "RecordStore":
        """Rebuild a store from :meth:`export_state` output (cold caches)."""
        store = cls(
            state["data_key"],
            record_size=state["record_size"],
            block_size=state["block_size"],
            cache_blocks=state["cache_blocks"],
        )
        store.import_state(state)
        return store

    def import_state(self, state: dict[str, object]) -> None:
        """Adopt another store's platter and slot metadata in place.

        Used when a worker's post-``bulk_load`` state is shipped back:
        the receiving store must already share the exported store's
        geometry and data key.  The plaintext cache is dropped -- it may
        describe blocks the imported platter replaced.
        """
        if (
            state["record_size"] != self.record_size
            or state["block_size"] != self.disk.block_size
            or state["data_key"] != self.data_key
        ):
            raise StorageError(
                "record-store state import requires identical geometry and key"
            )
        self.disk.import_state(state["blocks"])  # taints the block journal
        self._free = list(state["free"])
        self.count = state["count"]
        self._open_block = state["open_block"]
        self._open_slots = list(state["open_slots"])
        self._adopted_open_block()
        self.cache.clear()

    # -- metadata recovery (durable-backend support) ---------------------

    def _scan_block(self, block_id: int):
        """Decipher one block and classify its slots.

        Returns ``(slots, free_ids, live_count)``, or ``None`` for an
        allocated-but-never-written block (an empty open block a crash
        left behind).
        """
        try:
            data = self.disk.read_block(block_id)
        except BlockBoundsError:
            return None
        slots = [
            data[i : i + self.slot_size] for i in range(0, len(data), self.slot_size)
        ]
        free_ids: list[int] = []
        live = 0
        for slot, raw in enumerate(slots):
            if int.from_bytes(raw[:2], "big") > self.record_size:
                free_ids.append(block_id * self.slots_per_block + slot)
            else:
                live += 1
        return slots, free_ids, live

    def recover_metadata(self) -> None:
        """Rebuild free list / count / open block by scanning every block.

        The wholesale path: one decipher per allocated block.  The only
        partially-filled block a correct writer can leave is the open
        one, so the (last) block with fewer than ``slots_per_block``
        slots -- or a never-written trailing allocation -- is adopted as
        the open block.
        """
        free: list[int] = []
        count = 0
        open_block: int | None = None
        open_slots: list[bytes] = []
        for block_id in range(self.disk.num_blocks):
            scanned = self._scan_block(block_id)
            if scanned is None:
                open_block, open_slots = block_id, []
                continue
            slots, free_ids, live = scanned
            free.extend(free_ids)
            count += live
            if len(slots) < self.slots_per_block:
                open_block, open_slots = block_id, slots
        self._free = free
        self.count = count
        self._open_block = open_block
        self._open_slots = open_slots
        self._unsettled = set()  # the slots just came off the platter
        self.cache.clear()

    def _adopted_open_block(self) -> None:
        """Settle adopted metadata: its open slots may not be at rest.

        A shipped open block may have lost its last write at the
        exporter, so its next write here re-enciphers it whole.
        """
        self._unsettled = set() if self._open_block is None else {self._open_block}

    # -- incremental replica sync ----------------------------------------

    def collect_delta(self, since_epoch: int) -> RecordStoreDelta | None:
        """Changed enciphered blocks + full slot metadata since an epoch.

        ``None`` when the device's journal cannot prove completeness
        back to ``since_epoch`` (the consumer needs a full snapshot).
        Bytes are read at rest -- below the record cipher -- at collect
        time, so a slot rewritten many times ships its final block image
        once.
        """
        changed_blocks = self.disk.journal.collect_since(since_epoch)
        if changed_blocks is None:
            return None
        return RecordStoreDelta(
            disk=DiskDelta(
                num_blocks=self.disk.num_blocks,
                block_writes=self.disk.snapshot_blocks(sorted(changed_blocks)),
            ),
            free=list(self._free),
            count=self.count,
            open_block=self._open_block,
            open_slots=list(self._open_slots),
        )

    def apply_delta(self, delta: RecordStoreDelta) -> None:
        """Adopt a delta in place (the replica-side half of collect).

        Patches the enciphered platter, replaces the slot metadata
        wholesale (it is small and ships complete), and invalidates the
        plaintext cache for exactly the patched blocks -- cached
        plaintext must never outlive the bytes it was deciphered from.
        """
        self.disk.patch_state(delta.disk.num_blocks, delta.disk.block_writes)
        self._free = list(delta.free)
        self.count = delta.count
        self._open_block = delta.open_block
        self._open_slots = list(delta.open_slots)
        self._adopted_open_block()
        for block_id in delta.disk.block_writes:
            self.cache.invalidate(block_id)

    # -- helpers ---------------------------------------------------------

    def _base(self, block_index: int, slot: int) -> int:
        """Plain offset a write changing ``slot`` first re-enciphers from.

        The start of the DES block holding the slot's first byte, or 0
        for an unsettled block, whose stored prefix cannot be kept.
        """
        if block_index in self._unsettled:
            return 0
        offset = slot * self.slot_size
        return offset - offset % DES.block_size

    def _read_from(self, block_index: int, base: int) -> bytearray:
        """The block's plain bytes, deciphered from offset ``base`` on.

        With the cache on they come whole from the cached slots (a miss
        deciphers and caches the whole block).  Off, a window read
        deciphers only the DES blocks from ``base`` on, plus the padding
        check; the bytes before ``base`` then read as zeros, and
        :meth:`_write_from` never sends them.
        """
        if self.cache.enabled:
            return bytearray(b"".join(self._load_slots(block_index)))
        tail = self.disk.read_block(block_index, window=(base, self.disk.block_size))
        return bytearray(base) + tail

    def _write_from(self, block_index: int, base: int, plain) -> None:
        """Write a block whose plain bytes are ``plain``, changed from ``base`` on.

        The one record-block write: the device keeps the stored cipher
        blocks before ``base`` and the record cipher enciphers
        ``plain[base:]`` chained on them, which is the whole-block
        cryptogram of ``plain``.  Keeps the plaintext cache current; a
        write that raises leaves the block unsettled.
        """
        try:
            self.disk.write_block(block_index, bytes(plain[base:]), base=base)
        except BaseException:
            self._unsettled.add(block_index)
            raise
        self._unsettled.discard(block_index)
        if self.cache.enabled:
            size = self.slot_size
            self.cache.put(
                block_index,
                tuple(bytes(plain[i : i + size]) for i in range(0, len(plain), size)),
            )

    def _flush_open(self, first: int) -> None:
        """Write the open block; its slots before ``first`` are at rest."""
        assert self._open_block is not None
        self._write_from(
            self._open_block,
            self._base(self._open_block, first),
            b"".join(self._open_slots),
        )

    def _rewrite_slot(self, record_id: int, raw: bytes) -> None:
        """Set one stored slot's plain bytes to ``raw``.

        Reads the block from the slot's DES block on and writes it back
        from there.  A slot past the block's fill raises, and so does
        freeing a slot that is already free, before anything is written.
        """
        block_index, slot = self._locate(record_id)
        base = self._base(block_index, slot)
        plain = self._read_from(block_index, base)
        at = slot * self.slot_size
        if at >= len(plain):
            raise StorageError(f"record id {record_id} names an empty slot")
        if raw == self._free_slot and (
            int.from_bytes(plain[at : at + 2], "big") > self.record_size
        ):
            raise StorageError(f"record id {record_id} slot is already free")
        plain[at : at + self.slot_size] = raw
        self._write_from(block_index, base, plain)
        if block_index == self._open_block:
            self._open_slots[slot] = raw

    def _locate(self, record_id: int) -> tuple[int, int]:
        block_index, slot = divmod(record_id, self.slots_per_block)
        if block_index >= self.disk.num_blocks:
            raise StorageError(f"record id {record_id} beyond store")
        return block_index, slot

    def _encode_slot(self, record: bytes) -> bytes:
        if len(record) > self.record_size:
            raise StorageError(
                f"record of {len(record)} bytes exceeds slot of {self.record_size}"
            )
        return len(record).to_bytes(2, "big") + record.ljust(self.record_size, b"\x00")

    def _load_slots(self, block_index: int) -> tuple[bytes, ...]:
        """The block's slots in plaintext, deciphering at most once.

        Cache misses read (and decipher) the platter and fill the cache;
        racing readers may both decipher, either fill wins (the values
        are identical).
        """
        if self.cache.enabled:
            cached = self.cache.get(block_index)
            if cached is not None:
                return cached
        data = self.disk.read_block(block_index)
        slots = tuple(
            data[i : i + self.slot_size]
            for i in range(0, len(data), self.slot_size)
        )
        if self.cache.enabled:
            self.cache.put(block_index, slots)
        return slots

    def clear_cache(self) -> int:
        """Drop every cached plaintext block (cold-start support)."""
        return self.cache.clear()

    # -- public API ------------------------------------------------------

    def put(self, record: bytes) -> int:
        """Store a record, returning its data pointer (slot index).

        A failed put stores nothing: a free slot it took goes back on
        the free list, and a slot it appended leaves the open block.
        """
        raw = self._encode_slot(record)
        if self._free:
            record_id = self._free.pop()
            try:
                self._rewrite_slot(record_id, raw)
            except BaseException:
                self._free.append(record_id)
                raise
            self.count += 1
            return record_id
        if self._open_block is None or len(self._open_slots) == self.slots_per_block:
            self._open_block = self.disk.allocate()
            self._open_slots = []
        self._open_slots.append(raw)
        try:
            self._flush_open(len(self._open_slots) - 1)
        except BaseException:
            self._open_slots.pop()
            raise
        self.count += 1
        return self._open_block * self.slots_per_block + len(self._open_slots) - 1

    def put_many(self, records) -> list[int]:
        """Store a batch of records, enciphering each touched block once.

        Returns the data pointers in order.  Ids and final platter bytes
        are exactly those of calling :meth:`put` per record -- free slots
        are reused first (last freed first), then the open block and
        fresh blocks fill in order -- but where ``put`` re-enciphers and
        rewrites the open block for every record, this writes each
        touched block once, from the first slot the batch changes in it.
        Every record is size-checked before any is stored.  If the
        device fails part-way, the records already written are freed
        again and the rest are never stored.
        """
        encoded = [self._encode_slot(record) for record in records]
        spb, size = self.slots_per_block, self.slot_size
        reused = self._free[::-1][: len(encoded)]  # the ids put would pop
        # per touched block, in first-touch order: [first changed slot,
        # plain bytes -- None for an open block, whose slots are in memory]
        touched: dict[int, list] = {}
        for record_id in reused:
            block_index, slot = self._locate(record_id)
            edit = touched.setdefault(block_index, [slot, None])
            edit[0] = min(edit[0], slot)
        for block_index, edit in touched.items():
            if block_index != self._open_block:
                edit[1] = self._read_from(block_index, self._base(block_index, edit[0]))
        # (record id, the slot's bytes before -- None for an append)
        placed: list[tuple[int, bytes | None]] = []
        written: dict[int, bytearray] = {}

        def store(block_index: int) -> None:
            first, plain = touched[block_index]
            if plain is None:
                plain = bytearray(b"".join(self._open_slots))
            self._write_from(block_index, self._base(block_index, first), plain)
            written[block_index] = plain
            del touched[block_index]

        try:
            for record_id, raw in zip(reused, encoded):
                block_index, slot = divmod(record_id, spb)
                plain = touched[block_index][1]
                if plain is None:
                    previous = self._open_slots[slot]
                    self._open_slots[slot] = raw
                else:
                    at = slot * size
                    previous = bytes(plain[at : at + size])
                    plain[at : at + size] = raw
                self._free.pop()
                placed.append((record_id, previous))
            for raw in encoded[len(reused) :]:
                if self._open_block is None or len(self._open_slots) == spb:
                    if self._open_block in touched:
                        store(self._open_block)
                    self._open_block = self.disk.allocate()
                    self._open_slots = []
                touched.setdefault(self._open_block, [len(self._open_slots), None])
                placed.append((self._open_block * spb + len(self._open_slots), None))
                self._open_slots.append(raw)
            for block_index in list(touched):
                store(block_index)
        except BaseException:
            self._unplace(placed, written)
            raise
        self.count += len(placed)
        return [record_id for record_id, _ in placed]

    def _unplace(self, placed, written) -> None:
        """Undo a failed :meth:`put_many`, newest placement first.

        A record whose block reached the device is freed as
        :meth:`delete` frees it, each such block rewritten once from its
        first freed slot; one that never left memory is taken back out
        of the open block's slots (other blocks' plain bytes are simply
        dropped).
        """
        spb, size = self.slots_per_block, self.slot_size
        freed: dict[int, int] = {}  # written block -> first freed slot
        for record_id, previous in reversed(placed):
            block_index, slot = divmod(record_id, spb)
            if block_index in written:
                at = slot * size
                written[block_index][at : at + size] = self._free_slot
                if block_index == self._open_block:
                    self._open_slots[slot] = self._free_slot
                freed[block_index] = min(slot, freed.get(block_index, slot))
            elif previous is None:
                self._open_slots.pop()  # appended; newer appends are gone
                continue
            elif block_index == self._open_block:
                self._open_slots[slot] = previous
            self._free.append(record_id)
        for block_index, slot in freed.items():
            self._write_from(
                block_index, self._base(block_index, slot), written[block_index]
            )

    def get(self, record_id: int) -> bytes:
        """Fetch and decipher the record at ``record_id``.

        With the plaintext cache off, only the slot's window of the block
        is deciphered (see :class:`_RecordBlockTransform`); a cached
        store deciphers whole blocks, since the cache keeps every slot.
        """
        block_index, slot = self._locate(record_id)
        if self.cache.enabled:
            slots = self._load_slots(block_index)
            raw = slots[slot] if slot < len(slots) else b""
        else:
            lo = slot * self.slot_size
            raw = self.disk.read_block(block_index, window=(lo, lo + self.slot_size))
        return self._decode_slot(record_id, raw)

    def _decode_slot(self, record_id: int, raw: bytes) -> bytes:
        """The record in a slot's plain bytes; an empty or free slot raises."""
        if not raw:
            raise StorageError(f"record id {record_id} names an empty slot")
        length = int.from_bytes(raw[:2], "big")
        if length > self.record_size:
            raise StorageError(f"record id {record_id} slot is free or corrupt")
        return raw[2 : 2 + length]

    def get_many(self, record_ids) -> list[bytes]:
        """Fetch and decipher several records; ``[get(r) for r in record_ids]``.

        With the plaintext cache off, every record's slot window is read
        in one device batch and deciphered in one bulk DES call (see
        :meth:`_RecordBlockTransform.on_read_many`); cipher and
        :class:`~repro.storage.device.DiskStats` counts are those of the
        loop, a repeated block counting once per record.  Errors are the
        loop's too: the first failing id in order raises what its
        :meth:`get` would.  A batch read that raises (a damaged block
        anywhere in the batch) is therefore replayed through :meth:`get`,
        so a free slot before the damaged block still wins.  With the
        cache on this is the loop itself.
        """
        ids = list(record_ids)
        if self.cache.enabled:
            return [self.get(record_id) for record_id in ids]
        blocks: list[int] = []
        windows: list[tuple[int, int]] = []
        failure: StorageError | None = None
        for record_id in ids:
            try:
                block_index, slot = self._locate(record_id)
            except StorageError as exc:
                failure = exc  # raised once the ids before it are read
                break
            blocks.append(block_index)
            lo = slot * self.slot_size
            windows.append((lo, lo + self.slot_size))
        try:
            raws = self.disk.read_many(blocks, windows) if blocks else []
        except Exception:
            return [self.get(record_id) for record_id in ids]
        out = [self._decode_slot(record_id, raw) for record_id, raw in zip(ids, raws)]
        if failure is not None:
            raise failure
        return out

    def delete(self, record_id: int) -> None:
        """Free a slot (its bytes are overwritten with an empty marker).

        The cached plaintext block is refreshed in the same step, so a
        deleted record's bytes are evicted from memory along with the
        platter: a later ``get`` fails on the free marker, never on
        stale cache contents.  Deleting a slot that is already free
        raises and changes nothing.
        """
        self._rewrite_slot(record_id, self._free_slot)
        self._free.append(record_id)
        self.count -= 1
