"""Progressive (stream) cipher, the second cipher family of Bayer--Metzger.

Bayer and Metzger proposed *"two kinds of encryption systems ... namely
block ciphers and progressive (stream) ciphers"*.  The Hardjono--Seberry
paper restricts itself to block ciphers, but the baseline system is part
of our inventory, so the progressive option is implemented too: a
keystream generator seeded from the page key, XORed over the page bytes.

The keystream is produced by running DES in counter-like OFB fashion over
an incrementing 64-bit counter -- a construction available with 1990-era
parts.  It is deterministic per (key, nonce) pair, which mirrors the page
key scheme's requirement that a page can be re-read without stored state.
"""

from __future__ import annotations

from repro.crypto.des import DES
from repro.exceptions import KeyError_


class ProgressiveCipher:
    """A DES-based keystream cipher over arbitrary-length byte strings.

    Parameters
    ----------
    key:
        8-byte DES key that seeds the keystream generator.
    nonce:
        Per-message diversifier (the page id, in the page-key scheme).
        Messages enciphered under the same (key, nonce) pair reuse the
        keystream, so callers must keep nonces unique per page version.
    """

    def __init__(self, key: bytes, nonce: int = 0) -> None:
        if len(key) != 8:
            raise KeyError_(f"progressive cipher key must be 8 bytes, got {len(key)}")
        self._des = DES(key)
        self.nonce = nonce

    def _keystream(self, length: int) -> bytes:
        """The first ``length`` keystream bytes, via one bulk encryption.

        The counter blocks are assembled first and pushed through the
        cipher's bulk path in a single call, so generating a page-sized
        keystream costs one Python call rather than one per block.
        """
        buf = bytearray()
        counter = self.nonce
        for _ in range((length + 7) // 8):
            buf.extend(counter.to_bytes(8, "big", signed=False))
            counter = (counter + 1) % (1 << 64)
        return self._des.encrypt_blocks(bytes(buf))[:length]

    def encrypt(self, plaintext: bytes) -> bytes:
        """XOR the plaintext with the keystream (length-preserving)."""
        if not plaintext:
            return b""
        stream = self._keystream(len(plaintext))
        return (
            int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(plaintext), "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Stream ciphers are an involution: decrypt == encrypt."""
        return self.encrypt(ciphertext)
