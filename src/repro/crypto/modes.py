"""Block-cipher modes of operation and padding.

Bayer and Metzger's text-encryption function ``T`` operates over whole
pages; a page is longer than one cipher block, so a mode of operation is
needed.  We provide ECB (the straightforward reading of a 1976/1990-era
block-cipher deployment) and CBC with a page-id-derived IV (a stronger
choice that still requires no stored per-page state), plus PKCS#7 padding.

Every chain-free direction -- ECB both ways and CBC decryption -- hands
the cipher one contiguous buffer per call, so the whole page reaches the
kernel's bulk path intact (and, under the numpy ``"vector"`` kernel, runs
all 16 DES rounds as array operations over the entire page at once).
Only CBC *encryption* walks block by block, because each block's input
chains on the previous block's output.

CBC decryption is also random-access -- plaintext block *i* is
``D(C_i) xor C_(i-1)`` -- so :func:`cbc_decrypt_window` recovers a byte
range of a page by deciphering only the cipher blocks that cover it, plus
the final block whose PKCS#7 padding fixes the plaintext length.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.base import BlockCipher
from repro.exceptions import CryptoError


def pad_pkcs7(data: bytes, block_size: int) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` (PKCS#7).

    Always appends at least one byte so the padding is unambiguous.
    """
    if not 1 <= block_size <= 255:
        raise CryptoError(f"block size {block_size} unsupported by PKCS#7")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def _pad_length(last_block: bytes, block_size: int) -> int:
    """Validate the PKCS#7 padding ending ``last_block``; return its length."""
    pad_len = last_block[-1]
    if not 1 <= pad_len <= block_size:
        raise CryptoError("invalid PKCS#7 padding length")
    if last_block[-pad_len:] != bytes([pad_len]) * pad_len:
        raise CryptoError("corrupt PKCS#7 padding")
    return pad_len


def unpad_pkcs7(data: bytes, block_size: int) -> bytes:
    """Strip PKCS#7 padding, validating every padding byte."""
    if not data or len(data) % block_size != 0:
        raise CryptoError("padded data length is not a block multiple")
    return data[: len(data) - _pad_length(data[-block_size:], block_size)]


def decrypt_run(
    cipher: BlockCipher, ciphertext: bytes, previous: bytes | None = None
) -> bytes:
    """Decipher a run of whole cipher blocks in one bulk call (no unpadding).

    The cipher applications are chain-free in both modes: ``previous=None``
    is ECB, otherwise each output block is XORed with the ciphertext block
    before it -- ``previous`` for the first block of the run (the IV when
    the run starts the page, else ciphertext block ``first - 1``).
    """
    size = cipher.block_size
    if len(ciphertext) % size != 0:
        raise CryptoError("ciphertext length is not a block multiple")
    decrypted = cipher.decrypt_blocks(ciphertext)
    if previous is None or not decrypted:
        return decrypted
    # one big-integer XOR over the shifted stream chains every block
    chain = previous + ciphertext[:-size]
    return (
        int.from_bytes(decrypted, "big") ^ int.from_bytes(chain, "big")
    ).to_bytes(len(decrypted), "big")


class ECBCipher:
    """Electronic-codebook mode over a :class:`BlockCipher`.

    Blocks are independent, so both directions push the whole padded
    buffer through the cipher's bulk entry point in one Python call.
    """

    def __init__(self, cipher: BlockCipher) -> None:
        self.cipher = cipher
        self.block_size = cipher.block_size

    def encrypt(self, plaintext: bytes) -> bytes:
        return self.cipher.encrypt_blocks(pad_pkcs7(plaintext, self.block_size))

    def decrypt(self, ciphertext: bytes) -> bytes:
        return unpad_pkcs7(decrypt_run(self.cipher, ciphertext), self.block_size)


class CBCCipher:
    """Cipher-block-chaining mode with an explicit IV.

    The page-key scheme derives the IV from the page id, so identical
    plaintext pages still produce distinct cryptograms without any stored
    per-page nonce.

    The cipher object's cached key schedule is reused across the entire
    block stream (deriving it per block is the overhead benchmark C10
    retired), and decryption -- whose cipher applications are chain-free,
    the XOR chaining happens on the outputs -- runs through the bulk
    decrypt path with a single whole-buffer XOR.
    """

    def __init__(self, cipher: BlockCipher, iv: bytes) -> None:
        if len(iv) != cipher.block_size:
            raise CryptoError(
                f"IV must be {cipher.block_size} bytes, got {len(iv)}"
            )
        self.cipher = cipher
        self.block_size = cipher.block_size
        self.iv = iv

    def encrypt(self, plaintext: bytes) -> bytes:
        data = pad_pkcs7(plaintext, self.block_size)
        size = self.block_size
        encrypt_block = self.cipher.encrypt_block
        out = bytearray()
        previous = int.from_bytes(self.iv, "big")
        for start in range(0, len(data), size):
            block = int.from_bytes(data[start : start + size], "big") ^ previous
            cipher_block = encrypt_block(block.to_bytes(size, "big"))
            previous = int.from_bytes(cipher_block, "big")
            out.extend(cipher_block)
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        return unpad_pkcs7(
            decrypt_run(self.cipher, ciphertext, self.iv), self.block_size
        )


def cbc_decrypt_window(
    cipher: BlockCipher,
    ciphertext: bytes,
    lo: int,
    hi: int,
    iv: Callable[[], bytes],
) -> bytes:
    """Plaintext bytes ``[lo, hi)`` of a padded CBC cryptogram.

    Equal to ``CBCCipher(cipher, iv()).decrypt(ciphertext)[lo:hi]`` --
    same length and padding checks, same :class:`CryptoError` -- but it
    deciphers only the final block (its padding fixes the plaintext
    length) and the blocks covering the window clamped to that length.
    ``iv`` is called only when a deciphered run starts at block 0, so a
    page-id-derived IV costs nothing for windows further in.
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"invalid plaintext window [{lo}, {hi})")
    size = cipher.block_size
    if len(ciphertext) % size != 0:
        raise CryptoError("ciphertext length is not a block multiple")
    if not ciphertext:
        return unpad_pkcs7(ciphertext, size)  # raises, as the whole path does

    def run(first: int, end: int) -> bytes:
        previous = ciphertext[(first - 1) * size : first * size] if first else iv()
        return decrypt_run(cipher, ciphertext[first * size : end * size], previous)

    blocks = len(ciphertext) // size
    hi = min(hi, len(ciphertext) - _pad_length(run(blocks - 1, blocks), size))
    if lo >= hi:
        return b""
    first = lo // size
    return run(first, -(-hi // size))[lo - first * size : hi - first * size]
