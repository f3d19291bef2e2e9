"""The Hardjono--Seberry enciphered B-Tree (the paper's system).

Node blocks store ``[f(k_i)] [E(b || a_i || p_i)]`` triplets: search keys
disguised by a block-design substitution, pointer pairs encrypted (RSA in
private-parameter mode by default) and bound to their block number.
Records live in a separate :class:`~repro.core.records.RecordStore` under
an independent cipher, per §5.

Traversal cost profile (the paper's improvement):

* routing through a node inverts disguises -- arithmetic, not decryption;
* exactly **one** pointer cryptogram is decrypted per internal node (the
  chosen child), and one more at the leaf for the data pointer.

Every cost is metered: :meth:`cost_snapshot` captures substitutions,
pointer-cipher operations, comparisons, node visits and disk traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.btree.tree import BTree
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.packing import PointerPacking
from repro.core.records import RecordStore
from repro.crypto.base import CountingCipher, IntegerCipher
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.exceptions import BTreeError, SubstitutionError
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Pager
from repro.substitution.base import KeySubstitution
from repro.substitution.exponentiation import ExponentiationSubstitution


@dataclass(frozen=True)
class TraversalCost:
    """A snapshot of every cost dimension the paper reasons about."""

    substitutions: int
    inversions: int
    pointer_encryptions: int
    pointer_decryptions: int
    comparisons: int
    nodes_visited: int
    disk_reads: int
    disk_writes: int

    def minus(self, earlier: "TraversalCost") -> "TraversalCost":
        """Per-operation cost: difference of two snapshots."""
        return TraversalCost(
            substitutions=self.substitutions - earlier.substitutions,
            inversions=self.inversions - earlier.inversions,
            pointer_encryptions=self.pointer_encryptions - earlier.pointer_encryptions,
            pointer_decryptions=self.pointer_decryptions - earlier.pointer_decryptions,
            comparisons=self.comparisons - earlier.comparisons,
            nodes_visited=self.nodes_visited - earlier.nodes_visited,
            disk_reads=self.disk_reads - earlier.disk_reads,
            disk_writes=self.disk_writes - earlier.disk_writes,
        )

    @property
    def decryptions(self) -> int:
        """Total decryptions (the paper's headline unit)."""
        return self.pointer_decryptions


class EncipheredBTree:
    """Facade wiring disk, pager, codec, B-Tree and record store together.

    Parameters
    ----------
    substitution:
        The key disguise (oval, exponentiation, sum, identity, ...).
        Exponentiation disguises are refused unless injective.
    pointer_cipher:
        Integer cipher for pointer pairs; a deterministic 128-bit RSA key
        is generated when omitted.
    block_size / min_degree / cache_blocks:
        Node-block geometry.  ``min_degree`` defaults to the largest value
        that fits ``block_size`` under the codec's layout.
    write_back:
        ``False`` (default) keeps the pager write-through, which the
        paper's experiments require (every node rewrite is a disk
        write); ``True`` defers node writes to eviction or
        :meth:`flush`, coalescing hot-block rewrites.  Cipher counts are
        identical either way -- deferral happens below the codec.
    data_key:
        8-byte key for the independent data-block cipher.
    """

    def __init__(
        self,
        substitution: KeySubstitution,
        pointer_cipher: IntegerCipher | None = None,
        *,
        block_size: int = 4096,
        min_degree: int | None = None,
        cache_blocks: int = 0,
        write_back: bool = False,
        data_key: bytes = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1",
        record_size: int = 120,
        extra_pointer_mode: str = "encrypt",
        packing: PointerPacking | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if isinstance(substitution, ExponentiationSubstitution) and not substitution.is_injective():
            raise SubstitutionError(
                "exponentiation disguise is not injective for these parameters "
                "(two keys share a substitute); choose N > v or different t/g"
            )
        if pointer_cipher is None:
            keypair = generate_rsa_keypair(
                bits=128, rng=rng or random.Random(0x48533930)
            )
            pointer_cipher = RSA(keypair)
        self.pointer_cipher = CountingCipher(pointer_cipher)
        self.substitution = substitution
        self.codec = SubstitutedNodeCodec(
            substitution,
            self.pointer_cipher,
            packing or PointerPacking(),
            extra_pointer_mode=extra_pointer_mode,
        )
        self.disk = SimulatedDisk(block_size=block_size)
        self.pager = Pager(self.disk, cache_blocks=cache_blocks, write_back=write_back)
        if min_degree is None:
            min_degree = self._fit_min_degree(block_size)
        self.tree = BTree(pager=self.pager, codec=self.codec, min_degree=min_degree)
        self.records = RecordStore(
            data_key, record_size=record_size, block_size=block_size
        )

    def _fit_min_degree(self, block_size: int) -> int:
        """Largest minimum degree whose full node fits one block."""
        t = 2
        while self.codec.node_overhead_bytes(2 * (t + 1) - 1, is_leaf=False) <= block_size:
            t += 1
        if self.codec.node_overhead_bytes(2 * t - 1, is_leaf=False) > block_size:
            raise BTreeError(
                f"block size {block_size} cannot hold even a degree-2 node "
                f"under this codec"
            )
        return t

    # -- record operations -----------------------------------------------

    def insert(self, key: int, record: bytes) -> None:
        """Store ``record`` and index it under ``key``."""
        record_id = self.records.put(record)
        try:
            self.tree.insert(key, record_id)
        except Exception:
            self.records.delete(record_id)
            raise

    def search(self, key: int) -> bytes:
        """Fetch the record stored under ``key`` (deciphered)."""
        return self.records.get(self.tree.search(key))

    def delete(self, key: int) -> None:
        """Remove the key and free its record slot."""
        self.records.delete(self.tree.delete(key))

    def bulk_load(self, items) -> None:
        """Ingest ``(key, record)`` pairs via the bottom-up tree build.

        Each node block is enciphered and written exactly once; requires
        an empty tree.  On failure the stored records are freed again.
        """
        pairs = []
        try:
            for key, record in items:
                pairs.append((key, self.records.put(record)))
            self.tree.bulk_load(pairs)
        except Exception:
            for _, record_id in pairs:
                self.records.delete(record_id)
            raise

    def flush(self) -> int:
        """Push dirty node pages to disk (no-op under write-through)."""
        return self.pager.flush()

    def range_search(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """All ``(key, record)`` pairs with ``lo <= key <= hi``.

        Works for *every* disguise because triplet placement follows the
        plaintext keys (§4.1: substitution happens after the shape of the
        B-Tree has been determined).
        """
        return [
            (key, self.records.get(record_id))
            for key, record_id in self.tree.range_search(lo, hi)
        ]

    def __len__(self) -> int:
        return self.tree.size

    # -- accounting ----------------------------------------------------------

    def cost_snapshot(self) -> TraversalCost:
        """Current cumulative cost counters."""
        return TraversalCost(
            substitutions=self.substitution.counters.substitutions,
            inversions=self.substitution.counters.inversions,
            pointer_encryptions=self.pointer_cipher.counts.encryptions,
            pointer_decryptions=self.pointer_cipher.counts.decryptions,
            comparisons=self.tree.counters.comparisons,
            nodes_visited=self.tree.counters.nodes_visited,
            disk_reads=self.disk.stats.reads,
            disk_writes=self.disk.stats.writes,
        )

    def reset_costs(self) -> None:
        """Zero every counter (between benchmark phases)."""
        self.substitution.reset_counters()
        self.pointer_cipher.reset_counts()
        self.tree.counters.reset()
        self.disk.stats.reset()
        self.pager.stats.reset()
