"""§5's multilevel extension: security levels on stored records.

*"A multilevel organization of encryption keys based on the RSA
cryptosystem ... may also allow each triplet in a node block to be
assigned a security level, restricting access to data by users of lower
security clearances."*

This module applies the :class:`~repro.crypto.multilevel.MultilevelKeyScheme`
to the data-block layer: each record carries a security level, level-``l``
records live in data blocks enciphered under the DES key folded from the
level-``l`` chain element, and a user cleared at level ``c`` holds the
single chain element ``K_c`` -- enough to derive the keys of every level
``>= c`` and nothing above.

``MultilevelEncipheredBTree`` combines this store with the paper's node
layer: the index is shared (everyone can traverse), but record payloads
open only for sufficient clearance.
"""

from __future__ import annotations

import random

from repro.btree.codec import fit_min_degree
from repro.btree.tree import BTree
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.records import RecordStore
from repro.crypto.base import IntegerCipher
from repro.crypto.multilevel import MultilevelKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.exceptions import ClearanceError, CryptoError, StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Pager
from repro.substitution.base import KeySubstitution


class MultilevelRecordStore:
    """Per-level enciphered record stores behind one record-id space.

    Record ids interleave the level (``rid = inner_rid * levels + level``)
    so a single integer still fits the node triplets' data-pointer field.
    """

    def __init__(
        self,
        scheme: MultilevelKeyScheme,
        record_size: int = 120,
        block_size: int = 4096,
    ) -> None:
        self.scheme = scheme
        self.levels = scheme.levels
        self._stores = [
            RecordStore(
                scheme.des_key(level), record_size=record_size, block_size=block_size
            )
            for level in range(scheme.levels)
        ]

    # -- id arithmetic ---------------------------------------------------

    def _split(self, record_id: int) -> tuple[int, int]:
        if record_id < 0:
            raise StorageError(f"record id {record_id} is negative")
        return record_id // self.levels, record_id % self.levels

    def level_of(self, record_id: int) -> int:
        """The security level a record id is tagged with (public)."""
        return self._split(record_id)[1]

    # -- officer-side API --------------------------------------------------

    def put(self, record: bytes, level: int) -> int:
        """Store a record at ``level``; returns the tagged record id."""
        if not 0 <= level < self.levels:
            raise CryptoError(f"level {level} outside [0, {self.levels})")
        inner = self._stores[level].put(record)
        return inner * self.levels + level

    def delete(self, record_id: int) -> None:
        inner, level = self._split(record_id)
        self._stores[level].delete(inner)

    @property
    def count(self) -> int:
        return sum(store.count for store in self._stores)

    # -- clearance-checked reads -----------------------------------------

    def get(self, record_id: int, clearance: int = 0) -> bytes:
        """Fetch a record, enforcing the clearance lattice.

        A user cleared at ``clearance`` can read levels ``>= clearance``
        (0 is the most privileged).  The check is not merely procedural:
        the per-level DES key is *derived through the one-way chain from
        the clearance's element*, so an insufficient clearance has no key
        material to decrypt with.
        """
        inner, level = self._split(record_id)
        if level < clearance:
            raise ClearanceError(clearance, level)
        # derive downward from the clearance element, as a real user would
        clearance_key = self.scheme.key_at(clearance)
        derived = self.scheme.des_key(level, from_level=clearance, from_key=clearance_key)
        if derived != self.scheme.des_key(level):
            raise CryptoError("key chain derivation mismatch")
        return self._stores[level].get(inner)


class MultilevelEncipheredBTree:
    """The paper's enciphered B-Tree with §5's per-record levels.

    The index layer is the paper's node layout (disguised keys, encrypted
    pointers) over an in-memory B-Tree; the record layer is the
    multilevel store.  ``insert`` takes a security level; ``search``
    takes the caller's clearance and raises :class:`ClearanceError`
    below it.  A deterministic 128-bit RSA pointer cipher is generated
    when ``pointer_cipher`` is omitted, and nodes are as wide as
    ``block_size`` holds.
    """

    def __init__(
        self,
        substitution: KeySubstitution,
        levels: int = 4,
        pointer_cipher: IntegerCipher | None = None,
        key_scheme: MultilevelKeyScheme | None = None,
        *,
        block_size: int = 4096,
    ) -> None:
        if pointer_cipher is None:
            pointer_cipher = RSA(
                generate_rsa_keypair(bits=128, rng=random.Random(0x48533930))
            )
        codec = SubstitutedNodeCodec(substitution, pointer_cipher)
        self.tree = BTree(
            pager=Pager(SimulatedDisk(block_size=block_size), cache_blocks=0),
            codec=codec,
            min_degree=fit_min_degree(codec, block_size),
        )
        self.key_scheme = key_scheme or MultilevelKeyScheme(
            levels, rng=random.Random(0x4D4C)
        )
        self.records = MultilevelRecordStore(self.key_scheme, block_size=block_size)

    # -- level-aware operations ----------------------------------------------

    def insert(self, key: int, record: bytes, level: int = 0) -> None:
        record_id = self.records.put(record, level)
        try:
            self.tree.insert(key, record_id)
        except Exception:
            self.records.delete(record_id)
            raise

    def search(self, key: int, clearance: int = 0) -> bytes:
        return self.records.get(self.tree.search(key), clearance)

    def level_of(self, key: int) -> int:
        """The security level of the record under ``key`` (index metadata)."""
        return self.records.level_of(self.tree.search(key))

    def range_search(
        self, lo: int, hi: int, clearance: int = 0, skip_denied: bool = False
    ) -> list[tuple[int, bytes]]:
        """Range query under a clearance.

        With ``skip_denied`` the result silently omits records above the
        caller's clearance (the filtering behaviour of a multilevel DBMS);
        without it, the first over-classified record raises.
        """
        out = []
        for key, record_id in self.tree.range_search(lo, hi):
            try:
                out.append((key, self.records.get(record_id, clearance)))
            except ClearanceError:
                if not skip_denied:
                    raise
        return out

    def delete(self, key: int) -> None:
        self.records.delete(self.tree.delete(key))

    def __len__(self) -> int:
        return self.tree.size
