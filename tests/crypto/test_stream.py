"""The progressive (stream) cipher."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.des import DES
from repro.crypto.stream import ProgressiveCipher
from repro.exceptions import KeyError_

KEY = bytes.fromhex("0123456789ABCDEF")


class TestProgressiveCipher:
    def test_roundtrip(self):
        cipher = ProgressiveCipher(KEY, nonce=5)
        for payload in (b"", b"x", b"stream me", bytes(1000)):
            assert cipher.decrypt(cipher.encrypt(payload)) == payload

    def test_length_preserving(self):
        cipher = ProgressiveCipher(KEY)
        for n in (0, 1, 7, 8, 9, 100):
            assert len(cipher.encrypt(b"z" * n)) == n

    def test_involution(self):
        cipher = ProgressiveCipher(KEY, nonce=9)
        payload = b"progressive ciphers are XOR"
        assert cipher.encrypt(cipher.encrypt(payload)) == payload

    def test_nonce_separates_streams(self):
        payload = b"same plaintext, different page"
        c1 = ProgressiveCipher(KEY, nonce=1).encrypt(payload)
        c2 = ProgressiveCipher(KEY, nonce=2).encrypt(payload)
        assert c1 != c2

    def test_key_separates_streams(self):
        payload = b"same plaintext, different key"
        c1 = ProgressiveCipher(KEY, nonce=1).encrypt(payload)
        c2 = ProgressiveCipher(bytes(8), nonce=1).encrypt(payload)
        assert c1 != c2

    def test_keystream_reuse_is_visible(self):
        """Documenting the stream-cipher caveat: same (key, nonce) XORs
        two messages against the same keystream."""
        a = ProgressiveCipher(KEY, nonce=3).encrypt(b"messageA")
        b = ProgressiveCipher(KEY, nonce=3).encrypt(b"messageB")
        xored = bytes(x ^ y for x, y in zip(a, b))
        expected = bytes(x ^ y for x, y in zip(b"messageA", b"messageB"))
        assert xored == expected

    def test_bad_key_rejected(self):
        with pytest.raises(KeyError_):
            ProgressiveCipher(b"short")

    @given(st.binary(max_size=300), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_roundtrip_property(self, payload, nonce):
        cipher = ProgressiveCipher(KEY, nonce=nonce)
        assert cipher.decrypt(cipher.encrypt(payload)) == payload


class TestKeystreamPinned:
    """The keystream is DES-ECB over the counters ``nonce + i mod 2**64``.

    The digests were recorded from the engine while it still built long
    counter runs with numpy: the one remaining loop must reproduce them
    on both sides of that path's old 16-block boundary and where the
    counter wraps at ``2**64 - 1``.
    """

    PINNED = {
        (0, 15): "0de3f6a4e23cb2f9c84e9c153b6530fa",
        (0, 16): "ae69b65b0dcaee0c30726ae14ec919e5",
        (0, 17): "f92e5c26be753805ceae4a928e85c0b7",
        (7, 129): "2f525d0e8a705aea5b5131c1bd17ef46",
        (2**64 - 1, 1): "45865720acd930b5a7beb70663832164",
        (2**64 - 1, 16): "2e4d3d515e0ebe41fde469a9ca7f6111",
        (2**64 - 10, 24): "d2e8bae1c344ea22ce66dec96bf01d5f",
    }

    @pytest.mark.parametrize("nonce, nblocks", sorted(PINNED))
    def test_keystream_bytes_are_pinned(self, nonce, nblocks):
        keystream = ProgressiveCipher(KEY, nonce=nonce).encrypt(bytes(8 * nblocks))
        digest = hashlib.sha256(keystream).hexdigest()[:32]
        assert digest == self.PINNED[(nonce, nblocks)]
        counters = b"".join(
            ((nonce + i) % 2**64).to_bytes(8, "big") for i in range(nblocks)
        )
        assert keystream == DES(KEY, kernel="fast").encrypt_blocks(counters)
        # a ragged tail is a prefix of the next whole block's keystream
        ragged = ProgressiveCipher(KEY, nonce=nonce).encrypt(bytes(8 * nblocks + 3))
        assert ragged[: 8 * nblocks] == keystream
