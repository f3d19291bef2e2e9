"""Cipher abstractions and operation accounting.

The paper's argument is fundamentally a *counting* argument: how many
decryptions does a traversal cost, how many re-encryptions does a node
split cost, how large is the cryptogram that replaces a search key.  Two
small abstractions make those counts first-class:

* :class:`BlockCipher` / :class:`IntegerCipher` -- the minimal interfaces a
  cipher must offer to encrypt node blocks (bytes) or pointer integers.
* :class:`CountingCipher` -- a transparent wrapper that counts encrypt and
  decrypt calls, so every experiment can report exactly the quantities the
  paper reasons about.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.counters import ThreadSafeCounters
from repro.exceptions import MessageRangeError


class BlockCipher(ABC):
    """A cipher over fixed-size byte blocks (e.g. DES's 8-byte blocks)."""

    #: Size in bytes of a single cipher block.
    block_size: int

    @abstractmethod
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one ``block_size``-byte block."""

    @abstractmethod
    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one ``block_size``-byte block."""

    # -- bulk entry points -------------------------------------------------
    #
    # A node or record block is many cipher blocks; pushing the whole
    # buffer through one call lets a cipher amortise Python call overhead
    # (DES overrides all three with kernel-level loops; under the
    # "openssl" kernel an ECB buffer is a single OpenSSL update).
    # The defaults keep every BlockCipher bulk-capable by looping the
    # single-block methods, and counting wrappers pass the buffer through
    # *unsplit* so the inner cipher always sees the contiguous whole.

    def _as_buffer(self, blocks) -> bytes:
        """Normalise a bytes-like buffer or a sequence of whole blocks."""
        if isinstance(blocks, (bytes, bytearray, memoryview)):
            data = bytes(blocks)
        else:
            data = b"".join(blocks)
        if len(data) % self.block_size:
            raise MessageRangeError(
                f"bulk data of {len(data)} bytes is not a multiple of "
                f"{self.block_size}-byte blocks"
            )
        return data

    def encrypt_blocks(self, blocks) -> bytes:
        """Encrypt a buffer (or sequence) of whole blocks, concatenated."""
        data, size = self._as_buffer(blocks), self.block_size
        return b"".join(
            self.encrypt_block(data[off : off + size])
            for off in range(0, len(data), size)
        )

    def decrypt_blocks(self, blocks) -> bytes:
        """Decrypt a buffer (or sequence) of whole blocks, concatenated."""
        data, size = self._as_buffer(blocks), self.block_size
        return b"".join(
            self.decrypt_block(data[off : off + size])
            for off in range(0, len(data), size)
        )

    def cbc_encrypt_blocks(self, blocks, iv: bytes) -> bytes:
        """CBC-encrypt whole blocks chained from ``iv`` (no padding).

        Block i enciphers plaintext block i XOR ciphertext block i-1
        (``iv`` for the first), so the chain is sequential; DES runs it
        as one kernel loop.
        """
        data, size = self._as_buffer(blocks), self.block_size
        out = bytearray()
        previous = iv
        for off in range(0, len(data), size):
            block = int.from_bytes(data[off : off + size], "big") ^ int.from_bytes(
                previous, "big"
            )
            previous = self.encrypt_block(block.to_bytes(size, "big"))
            out.extend(previous)
        return bytes(out)


class IntegerCipher(ABC):
    """A cipher over integers in ``[0, modulus)`` (e.g. RSA).

    The paper encrypts *pointers* -- small integers naming disk blocks --
    with RSA used in private-parameter mode; an integer interface matches
    that usage directly.
    """

    #: Exclusive upper bound on plaintext/ciphertext integers.
    modulus: int

    @abstractmethod
    def encrypt_int(self, m: int) -> int:
        """Encrypt the integer ``m`` (``0 <= m < modulus``)."""

    @abstractmethod
    def decrypt_int(self, c: int) -> int:
        """Decrypt the integer ``c`` (``0 <= c < modulus``)."""


class CryptoOpCounts(ThreadSafeCounters):
    """Tally of cryptographic operations performed through a wrapper.

    Thread-safe (per-thread accumulation, merged reads): counting
    wrappers sit on the concurrent read path, where lost increments
    would under-report cryptographic work.
    """

    _FIELDS = ("encryptions", "decryptions")

    @property
    def total(self) -> int:
        snap = self.snapshot()
        return snap["encryptions"] + snap["decryptions"]


@dataclass
class CountingCipher(IntegerCipher):
    """Wrap an :class:`IntegerCipher` and count every operation.

    The counts drive experiments C1 (decryptions per search) and C3
    (re-encryption overhead of tree reorganisation).
    """

    inner: IntegerCipher
    counts: CryptoOpCounts = field(default_factory=CryptoOpCounts)

    def __post_init__(self) -> None:
        self.modulus = self.inner.modulus

    def encrypt_int(self, m: int) -> int:
        self.counts.bump("encryptions")
        return self.inner.encrypt_int(m)

    def decrypt_int(self, c: int) -> int:
        self.counts.bump("decryptions")
        return self.inner.decrypt_int(c)

    def reset_counts(self) -> None:
        self.counts.reset()


class CountingBlockCipher(BlockCipher):
    """Wrap a :class:`BlockCipher` and count every block operation."""

    def __init__(self, inner: BlockCipher) -> None:
        self.inner = inner
        self.block_size = inner.block_size
        self.counts = CryptoOpCounts()

    def encrypt_block(self, block: bytes) -> bytes:
        self.counts.bump("encryptions")
        return self.inner.encrypt_block(block)

    def decrypt_block(self, block: bytes) -> bytes:
        self.counts.bump("decryptions")
        return self.inner.decrypt_block(block)

    def encrypt_blocks(self, blocks) -> bytes:
        """Bulk encrypt; counts one encryption per cipher block, exactly
        as the per-block path would."""
        data = self.inner._as_buffer(blocks)
        self.counts.bump("encryptions", len(data) // self.block_size)
        return self.inner.encrypt_blocks(data)

    def decrypt_blocks(self, blocks) -> bytes:
        """Bulk decrypt; counts one decryption per cipher block."""
        data = self.inner._as_buffer(blocks)
        self.counts.bump("decryptions", len(data) // self.block_size)
        return self.inner.decrypt_blocks(data)

    def cbc_encrypt_blocks(self, blocks, iv: bytes) -> bytes:
        """Bulk CBC encrypt; counts one encryption per cipher block."""
        data = self.inner._as_buffer(blocks)
        self.counts.bump("encryptions", len(data) // self.block_size)
        return self.inner.cbc_encrypt_blocks(data, iv)

    def reset_counts(self) -> None:
        self.counts.reset()
