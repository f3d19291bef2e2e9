"""Packing of ``b || a || p`` into one cipher integer.

§3 fixes the enciphered triplet format as ``f(k), E(b || a || p)``: the
block number ``b``, data pointer ``a`` and tree pointer ``p`` are
concatenated and encrypted together.  Binding ``b`` into the cryptogram
means a cryptogram lifted from one block fails validation in another --
the codec raises :class:`~repro.exceptions.IntegrityError` on mismatch.

Pointers are stored shifted by one so that id ``0`` is representable and
``0`` itself can serve as the null pointer (leaves have no tree pointer;
the unaccompanied pointer has no data pointer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import CodecError

#: Stored value meaning "no pointer".
NULL_POINTER: int | None = None


@dataclass(frozen=True)
class PointerPacking:
    """Field widths for the packed ``b || a || p`` integer."""

    block_bits: int = 32
    pointer_bits: int = 32

    @property
    def total_bits(self) -> int:
        return self.block_bits + 2 * self.pointer_bits

    def required_modulus(self) -> int:
        """Smallest exclusive cipher modulus able to carry a packed value."""
        return 1 << self.total_bits

    def _check_field(self, value: int | None, bits: int, label: str) -> int:
        stored = 0 if value is None else value + 1
        if not 0 <= stored < (1 << bits):
            raise CodecError(f"{label} {value} does not fit {bits} bits")
        return stored

    def pack(self, block_id: int, data_pointer: int | None, tree_pointer: int | None) -> int:
        """``b || a || p`` with null-aware one-shifted pointers."""
        if not 0 <= block_id < (1 << self.block_bits):
            raise CodecError(f"block id {block_id} does not fit {self.block_bits} bits")
        a = self._check_field(data_pointer, self.pointer_bits, "data pointer")
        p = self._check_field(tree_pointer, self.pointer_bits, "tree pointer")
        return (
            (block_id << (2 * self.pointer_bits))
            | (a << self.pointer_bits)
            | p
        )

    def unpack(self, packed: int) -> tuple[int, int | None, int | None]:
        """Invert :meth:`pack`; returns ``(block_id, data_ptr, tree_ptr)``."""
        bits = self.pointer_bits
        if not 0 <= packed < 1 << (self.block_bits + 2 * bits):
            raise CodecError(f"packed value {packed} out of range")
        mask = (1 << bits) - 1
        p = packed & mask
        a = (packed >> bits) & mask
        block_id = packed >> (2 * bits)
        return (
            block_id,
            None if a == 0 else a - 1,
            None if p == 0 else p - 1,
        )
