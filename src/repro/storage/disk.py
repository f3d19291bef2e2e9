"""The in-memory block device with an encipherment hook at the I/O boundary.

Bayer and Metzger *"suggest the use of [a] hardware encryption module to
perform this 'on-the-fly' encryption and decryption"* as blocks cross the
memory/disk boundary.  :class:`SimulatedDisk` reproduces that architecture:
an optional :class:`~repro.storage.device.BlockTransform` is applied to
every block on write and inverted on every read, and the device keeps
complete I/O statistics so experiments can report exact counts.

This module supplies only the at-rest primitives of the
:class:`~repro.storage.device.BlockDevice` contract: a Python list of
at-rest bytes (``None`` for a never-written block), read and set by id
and extended on allocation.  Everything else -- allocation, bounds,
statistics with their measured read time, the no-op dedup, at-rest
state access, the attacker's view
(:meth:`~repro.storage.device.BlockDevice.raw_block`, which feeds the
shape-reconstruction analysis of experiment C5) and fault injection --
is the base class's, shared with the durable
:class:`~repro.storage.platter.FilePlatter`.  It stays the default
backend because the paper's experiments count operations, not seconds.
"""

from __future__ import annotations

from repro.storage.device import (
    BlockDevice,
    BlockTransform,
    DiskStats,
    transform_from_page_key_scheme,
)

__all__ = [
    "BlockTransform",
    "DiskStats",
    "SimulatedDisk",
    "transform_from_page_key_scheme",
]


class SimulatedDisk(BlockDevice):
    """A growable in-memory array of fixed-size blocks with I/O accounting.

    Parameters
    ----------
    block_size:
        Capacity of each block in bytes.  Writes longer than this raise
        :class:`BlockBoundsError` -- a real disk block cannot stretch, and
        the enciphered layouts must prove they fit.
    transform:
        Optional encipherment module applied at the I/O boundary.  When a
        transform expands data (padding), the *expanded* form must fit the
        block, exactly as it would on hardware.
    blocks:
        At-rest bytes to start from: a :class:`~repro.storage.backend.
        MemoryBackend` reopens a device from its closed handle's blocks.
    """

    def __init__(
        self,
        block_size: int = 4096,
        transform: BlockTransform | None = None,
        blocks: list[bytes | None] | None = None,
    ) -> None:
        super().__init__(block_size, transform)
        self._blocks = [] if blocks is None else blocks
        self._count = len(self._blocks)

    def _at_rest(self, block_id: int) -> bytes | None:
        self._check_open()
        return self._blocks[block_id]

    def _stage(self, block_id: int, stored: bytes | None) -> None:
        self._check_open()
        self._blocks[block_id] = stored

    def _grow(self, num_blocks: int) -> None:
        self._blocks.extend([None] * (num_blocks - len(self._blocks)))
