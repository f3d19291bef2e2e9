"""Block-cipher modes of operation and padding.

Bayer and Metzger's text-encryption function ``T`` operates over whole
pages; a page is longer than one cipher block, so a mode of operation is
needed.  We provide ECB (the straightforward reading of a 1976/1990-era
block-cipher deployment) and CBC with a page-id-derived IV (a stronger
choice that still requires no stored per-page state), plus PKCS#7 padding.

Every direction hands the cipher one contiguous buffer per call, so the
whole page reaches the kernel's bulk path intact.  The chain-free ones --
ECB both ways and CBC decryption -- are one ECB call over the entire
page, with CBC decryption's chaining done as one XOR on the outputs.
CBC *encryption* chains each block's input on the previous block's
output, so :meth:`~repro.crypto.base.BlockCipher.cbc_encrypt_blocks`
runs it as one sequential chain inside the kernel.

CBC decryption is also random-access -- plaintext block *i* is
``D(C_i) xor C_(i-1)`` -- so :func:`cbc_decrypt_window` recovers a byte
range of a page by deciphering only the cipher blocks that cover it, plus
the final block whose PKCS#7 padding fixes the plaintext length.  The
same property lets :func:`cbc_decrypt_windows` gather the windows of many
pages -- one per match of a range search -- into a single bulk call, so
a range pays the kernel's fixed per-call cost once instead of once per
match.

CBC *encryption* is prefix-preserving: ciphertext block *i* depends only
on plaintext blocks ``<= i`` and the IV.  So a page rewrite whose first
changed byte lies in block *i* keeps the stored blocks before *i* and
re-enciphers only the rest, chained on the last kept block
(:func:`cbc_encrypt_suffix`).  The result is the whole-page cryptogram,
byte for byte, so the rewrite leaks nothing a whole-page one does not.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.crypto.base import BlockCipher
from repro.exceptions import CryptoError

_Tag = TypeVar("_Tag")


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
    block stream.  Encryption is one
    :meth:`~repro.crypto.base.BlockCipher.cbc_encrypt_blocks` call;
    decryption -- whose cipher applications are chain-free, the XOR
    chaining happens on the outputs -- runs through the bulk decrypt path
    with a single whole-buffer XOR.
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
        return self.cipher.cbc_encrypt_blocks(
            pad_pkcs7(plaintext, self.block_size), self.iv
        )

    def decrypt(self, ciphertext: bytes) -> bytes:
        return unpad_pkcs7(
            decrypt_run(self.cipher, ciphertext, self.iv), self.block_size
        )


def cbc_encrypt_suffix(
    cipher: BlockCipher,
    prefix: bytes,
    plaintext: bytes,
    iv: Callable[[], bytes],
) -> bytes:
    """A padded CBC cryptogram that keeps ``prefix`` and enciphers the rest.

    ``prefix`` is the stored cryptogram's first whole blocks and
    ``plaintext`` the page's plain bytes from ``len(prefix)`` on.  When
    ``prefix`` is the first ``len(prefix)`` bytes of ``CBCCipher(cipher,
    iv()).encrypt(page)`` for a page whose bytes from there on are
    ``plaintext``, the result equals that whole-page encryption: padding
    a suffix that starts on a block boundary pads the page, and the
    chain picks up at the last kept block.  ``iv`` is called only for an
    empty prefix, so keeping any block spares the IV derivation too.
    """
    size = cipher.block_size
    if len(prefix) % size != 0:
        raise CryptoError("kept ciphertext prefix is not a block multiple")
    chain = prefix[-size:] if prefix else iv()
    return prefix + cipher.cbc_encrypt_blocks(pad_pkcs7(plaintext, size), chain)


def _window_runs(
    ciphertext: bytes, lo: int, hi: int, size: int
) -> list[tuple[int, int]]:
    """The block runs ``[start, stop)`` a window decipher needs, in order.

    The run under the window ``[lo, hi)`` clamped to the cryptogram,
    then the final block (its padding fixes the plaintext length),
    which a window ending next to it absorbs.  The runs are in block
    order, so the final block always ends the last one.  Raises what an
    invalid window or cryptogram raises in :func:`cbc_decrypt_window`.
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"invalid plaintext window [{lo}, {hi})")
    if len(ciphertext) % size != 0:
        raise CryptoError("ciphertext length is not a block multiple")
    if not ciphertext:  # the whole-block path's unpad message
        raise CryptoError("padded data length is not a block multiple")
    blocks = len(ciphertext) // size
    first = lo // size
    # the plain length is at least len - size, so a window clamped to
    # the cryptogram already covers every block the plaintext clamp can
    # keep; one that ends next to the final block absorbs it
    end = -(-min(hi, len(ciphertext)) // size) if lo < hi else first
    if end <= first:
        return [(blocks - 1, blocks)]
    if end >= blocks - 1:
        return [(first, blocks)]
    return [(first, end), (blocks - 1, blocks)]


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
    length) and the blocks covering the window clamped to that length:
    one ``decrypt_blocks`` call over those blocks, one XOR chaining
    them, one padding check.  ``iv`` is called only when the window's
    run starts at block 0, so a page-id-derived IV costs nothing for
    windows further in.  :func:`cbc_decrypt_windows` does the same for
    many windows at once, with the same block runs.
    """
    size = cipher.block_size
    runs = _window_runs(ciphertext, lo, hi, size)
    parts: list[bytes] = []
    chains: list[bytes] = []
    for start, stop in runs:
        parts.append(ciphertext[start * size : stop * size])
        # the ciphertext block before a run chains its first block
        chains.append(ciphertext[(start - 1) * size : start * size] if start else iv())
        chains.append(ciphertext[start * size : (stop - 1) * size])
    gathered = b"".join(parts)
    plain = (
        int.from_bytes(cipher.decrypt_blocks(gathered), "big")
        ^ int.from_bytes(b"".join(chains), "big")
    ).to_bytes(len(gathered), "big")
    hi = min(hi, len(ciphertext) - _pad_length(plain[-size:], size))
    base = runs[0][0] * size  # the plaintext byte at ``plain[0]``
    return plain[lo - base : hi - base] if lo < hi else b""


def cbc_decrypt_windows(
    cipher: BlockCipher,
    items: Iterable[tuple[bytes, int, int, _Tag]],
    iv: Callable[[_Tag], bytes],
) -> list[bytes]:
    """Plaintext windows of many padded CBC cryptograms in one bulk call.

    Each item is ``(ciphertext, lo, hi, tag)``; the result lists the
    items' :func:`cbc_decrypt_window` values in order.  Every item's
    final block and the blocks under its window (clamped to the
    cryptogram) are gathered into one buffer for a single
    ``decrypt_blocks`` call, chained with one XOR, then each window is
    clamped to its plaintext length and sliced out.  ``iv(tag)`` is
    called at most once per item, only when one of its runs starts at
    block 0.

    Errors are those of calling :func:`cbc_decrypt_window` per item: the
    first item in order that fails raises its :class:`ValueError` or
    :class:`CryptoError`.
    """
    size = cipher.block_size
    # per item: (lo, hi, cryptogram length, gathered-buffer offset of
    # the item's plaintext byte 0, offset of its final block)
    plans: list[tuple[int, int, int, int, int]] = []
    runs: list[bytes] = []
    chains: list[bytes] = []
    gathered = 0
    failure: Exception | None = None

    for ciphertext, lo, hi, tag in items:
        try:
            item_runs = _window_runs(ciphertext, lo, hi, size)
        except (ValueError, CryptoError) as exc:
            failure = exc
            break
        base = gathered - (lo // size) * size
        for start, stop in item_runs:
            previous = (
                ciphertext[(start - 1) * size : start * size] if start else iv(tag)
            )
            runs.append(ciphertext[start * size : stop * size])
            chains.append(previous)
            chains.append(ciphertext[start * size : (stop - 1) * size])
            gathered += (stop - start) * size
        plans.append((lo, hi, len(ciphertext), base, gathered - size))

    plain = b""
    if runs:
        # one bulk decipher; one big-integer XOR chains every block
        plain = (
            int.from_bytes(cipher.decrypt_blocks(b"".join(runs)), "big")
            ^ int.from_bytes(b"".join(chains), "big")
        ).to_bytes(gathered, "big")
    out: list[bytes] = []
    for lo, hi, length, base, final_at in plans:
        hi = min(hi, length - _pad_length(plain[final_at : final_at + size], size))
        out.append(plain[base + lo : base + hi] if lo < hi else b"")
    if failure is not None:
        raise failure
    return out
