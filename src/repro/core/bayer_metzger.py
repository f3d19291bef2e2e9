"""The Bayer--Metzger baseline: per-page-key encipherment of node blocks.

Every triplet -- search key included -- is enciphered under the page key
``K_Pi = PK(K_E, P_id)``, so node navigation is a *binary
search-and-decrypt*: each key probe is a triplet decryption, costing
about ``log2(n)`` decryptions per node of ``n`` triplets (§3), and every
split/merge re-enciphers every migrated triplet under the destination
page's key.

The facade mirrors :class:`~repro.core.enciphered_btree.EncipheredBTree`
so experiments can drive both through one interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.tree import BTree
from repro.core.codecs import PageKeyNodeCodec, WholePageNodeCodec
from repro.core.records import RecordStore
from repro.crypto.pagekey import PageKeyScheme
from repro.exceptions import BTreeError
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Pager


@dataclass(frozen=True)
class BaselineCost:
    """Cost snapshot in the baseline's own units."""

    triplet_encryptions: int
    triplet_decryptions: int
    des_block_encryptions: int
    des_block_decryptions: int
    comparisons: int
    nodes_visited: int
    disk_reads: int
    disk_writes: int

    def minus(self, earlier: "BaselineCost") -> "BaselineCost":
        return BaselineCost(
            triplet_encryptions=self.triplet_encryptions - earlier.triplet_encryptions,
            triplet_decryptions=self.triplet_decryptions - earlier.triplet_decryptions,
            des_block_encryptions=self.des_block_encryptions - earlier.des_block_encryptions,
            des_block_decryptions=self.des_block_decryptions - earlier.des_block_decryptions,
            comparisons=self.comparisons - earlier.comparisons,
            nodes_visited=self.nodes_visited - earlier.nodes_visited,
            disk_reads=self.disk_reads - earlier.disk_reads,
            disk_writes=self.disk_writes - earlier.disk_writes,
        )

    @property
    def decryptions(self) -> int:
        """Triplet decryptions -- comparable with the paper scheme's
        pointer decryptions (both are 'one cryptogram opened')."""
        return self.triplet_decryptions


class BayerMetzgerBTree:
    """B-Tree whose node blocks are enciphered with per-page keys.

    Two layouts, both described by Bayer & Metzger:

    * ``layout="triplet"`` (default) -- each triplet is its own cipher
      unit, enabling the lazy *binary search-and-decrypt* the paper
      analyses: decryptions scale with probes, not node size;
    * ``layout="page"`` -- the whole page is one ciphertext (the simplest
      reading of ``C = T(M, K_Pi)``): any access decrypts the entire
      node, so the per-visit cost is the node's full block count
      regardless of what is read.  ``page_mode`` selects the text cipher
      ``T`` (``"ecb"``, ``"cbc"`` or ``"progressive"``).
    """

    _LAYOUTS = ("triplet", "page")

    def __init__(
        self,
        file_key: bytes = b"\x01\x23\x45\x67\x89\xab\xcd\xef",
        *,
        block_size: int = 4096,
        min_degree: int | None = None,
        cache_blocks: int = 0,
        key_bytes: int = 8,
        data_key: bytes = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1",
        record_size: int = 120,
        layout: str = "triplet",
        page_mode: str = "ecb",
    ) -> None:
        if layout not in self._LAYOUTS:
            raise BTreeError(f"layout must be one of {self._LAYOUTS}, got {layout!r}")
        self.layout = layout
        if layout == "triplet":
            self.scheme = PageKeyScheme(file_key, mode="ecb")
            self.codec = PageKeyNodeCodec(self.scheme, key_bytes=key_bytes)
        else:
            self.scheme = PageKeyScheme(file_key, mode=page_mode)
            self.codec = WholePageNodeCodec(self.scheme, key_bytes=key_bytes)
        self.disk = SimulatedDisk(block_size=block_size)
        self.pager = Pager(self.disk, cache_blocks=cache_blocks)
        if min_degree is None:
            min_degree = self._fit_min_degree(block_size)
        self.tree = BTree(pager=self.pager, codec=self.codec, min_degree=min_degree)
        self.records = RecordStore(
            data_key, record_size=record_size, block_size=block_size
        )

    def _fit_min_degree(self, block_size: int) -> int:
        t = 2
        while self.codec.node_overhead_bytes(2 * (t + 1) - 1, is_leaf=False) <= block_size:
            t += 1
        if self.codec.node_overhead_bytes(2 * t - 1, is_leaf=False) > block_size:
            raise BTreeError(
                f"block size {block_size} cannot hold a degree-2 node"
            )
        return t

    # -- record operations -----------------------------------------------

    def insert(self, key: int, record: bytes) -> None:
        record_id = self.records.put(record)
        try:
            self.tree.insert(key, record_id)
        except Exception:
            self.records.delete(record_id)
            raise

    def search(self, key: int) -> bytes:
        return self.records.get(self.tree.search(key))

    def delete(self, key: int) -> None:
        self.records.delete(self.tree.delete(key))

    def range_search(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        return [
            (key, self.records.get(record_id))
            for key, record_id in self.tree.range_search(lo, hi)
        ]

    def __len__(self) -> int:
        return self.tree.size

    # -- accounting ----------------------------------------------------------

    def cost_snapshot(self) -> BaselineCost:
        return BaselineCost(
            triplet_encryptions=self.codec.triplet_counts.encryptions,
            triplet_decryptions=self.codec.triplet_counts.decryptions,
            des_block_encryptions=self.codec.block_counts.encryptions,
            des_block_decryptions=self.codec.block_counts.decryptions,
            comparisons=self.tree.counters.comparisons,
            nodes_visited=self.tree.counters.nodes_visited,
            disk_reads=self.disk.stats.reads,
            disk_writes=self.disk.stats.writes,
        )

    def reset_costs(self) -> None:
        self.codec.triplet_counts.reset()
        self.codec.block_counts.reset()
        self.tree.counters.reset()
        self.disk.stats.reset()
        self.pager.stats.reset()
