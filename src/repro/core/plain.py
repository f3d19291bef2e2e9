"""An unprotected B-Tree system -- the "commercial off-the-shelf DBMS".

Two roles:

* the plaintext baseline in experiments (Figure 1 "before", C1's
  zero-decryption floor);
* the *unmodifiable DBMS* the §4.3 security filter is retrofitted onto:
  the filter hands it already-substituted keys and already-encrypted
  record payloads, and it organises them with ordinary B-Tree mechanics,
  oblivious to any cryptography (it has no low-level hooks at all).
"""

from __future__ import annotations

from repro.btree.codec import PlainNodeCodec, fit_min_degree
from repro.btree.tree import BTree
from repro.exceptions import BTreeError
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Pager


class PlainBTreeSystem:
    """Plaintext keys, plaintext pointers, records as opaque bytes.

    Records are stored in cleartext slots; whatever confidentiality the
    payload has must be provided by the caller (which is precisely what
    the security filter does).
    """

    def __init__(
        self,
        *,
        block_size: int = 4096,
        min_degree: int | None = None,
        cache_blocks: int = 0,
        key_bytes: int = 8,
        record_size: int = 120,
    ) -> None:
        self.codec = PlainNodeCodec(key_bytes=key_bytes)
        self.disk = SimulatedDisk(block_size=block_size)
        self.pager = Pager(self.disk, cache_blocks=cache_blocks)
        if min_degree is None:
            min_degree = fit_min_degree(self.codec, block_size)
        self.tree = BTree(pager=self.pager, codec=self.codec, min_degree=min_degree)
        self.record_size = record_size
        self._record_disk = SimulatedDisk(block_size=block_size)
        self._slots_per_block = (block_size - 2) // (record_size + 2)
        self._records: list[int] = []  # block ids, for slot arithmetic
        self._slot_count = 0

    # -- record storage (cleartext slots) ------------------------------------

    def _store_record(self, payload: bytes) -> int:
        if len(payload) > self.record_size:
            raise BTreeError(
                f"record of {len(payload)} bytes exceeds slot of {self.record_size}"
            )
        slot_index = self._slot_count
        block_index, slot = divmod(slot_index, self._slots_per_block)
        encoded = len(payload).to_bytes(2, "big") + payload.ljust(self.record_size, b"\x00")
        if block_index >= len(self._records):
            self._records.append(self._record_disk.allocate())
            self._record_disk.write_block(self._records[block_index], encoded)
        else:
            existing = self._record_disk.read_block(self._records[block_index])
            self._record_disk.write_block(self._records[block_index], existing + encoded)
        self._slot_count += 1
        return slot_index

    def _fetch_record(self, slot_index: int) -> bytes:
        block_index, slot = divmod(slot_index, self._slots_per_block)
        data = self._record_disk.read_block(self._records[block_index])
        width = self.record_size + 2
        raw = data[slot * width : (slot + 1) * width]
        length = int.from_bytes(raw[:2], "big")
        return raw[2 : 2 + length]

    # -- DBMS API --------------------------------------------------------

    def insert(self, key: int, record: bytes) -> None:
        self.tree.insert(key, self._store_record(record))

    def search(self, key: int) -> bytes:
        return self._fetch_record(self.tree.search(key))

    def delete(self, key: int) -> None:
        self.tree.delete(key)

    def range_search(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        return [
            (key, self._fetch_record(record_id))
            for key, record_id in self.tree.range_search(lo, hi)
        ]

    def __len__(self) -> int:
        return self.tree.size
