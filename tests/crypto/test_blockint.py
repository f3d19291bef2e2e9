"""DES as a pointer (integer) cipher."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.codec import fit_min_degree
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.database import EncipheredDatabase
from repro.core.packing import PointerPacking
from repro.crypto.base import CountingCipher
from repro.crypto.blockint import BlockIntegerCipher, des_pointer_cipher
from repro.crypto.des import DES
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import MessageRangeError
from repro.substitution.oval import OvalSubstitution

KEY = bytes.fromhex("0123456789ABCDEF")


class TestBlockIntegerCipher:
    def test_modulus(self):
        cipher = BlockIntegerCipher(DES(KEY))
        assert cipher.modulus == 1 << 64

    def test_roundtrip(self):
        cipher = des_pointer_cipher(KEY)
        for m in (0, 1, 2**63, 2**64 - 1):
            assert cipher.decrypt_int(cipher.encrypt_int(m)) == m

    def test_range_checked(self):
        cipher = des_pointer_cipher(KEY)
        with pytest.raises(MessageRangeError):
            cipher.encrypt_int(1 << 64)
        with pytest.raises(MessageRangeError):
            cipher.decrypt_int(-1)

    def test_is_a_permutation_sample(self):
        cipher = des_pointer_cipher(KEY)
        images = {cipher.encrypt_int(m) for m in range(200)}
        assert len(images) == 200

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=60)
    def test_roundtrip_property(self, m):
        cipher = des_pointer_cipher(KEY)
        assert cipher.decrypt_int(cipher.encrypt_int(m)) == m


def des_codec(sub: OvalSubstitution) -> SubstitutedNodeCodec:
    """§5's block-cipher option: pointers in one DES block, 16/24/24 bits."""
    return SubstitutedNodeCodec(
        sub,
        CountingCipher(des_pointer_cipher(KEY)),
        PointerPacking(block_bits=16, pointer_bits=24),
    )


class TestDesBackedTree:
    def test_tree_with_des_pointers(self):
        """§5's block-cipher option end to end."""
        design = planar_difference_set(13)
        sub = OvalSubstitution(design, t=5)
        codec = des_codec(sub)
        db = EncipheredDatabase.create(sub, codec.cipher, codec=codec)
        keys = random.Random(0).sample(range(design.v), 80)
        for k in keys:
            db.insert(k, f"des-{k}".encode())
        db.tree.check_invariants()
        for k in keys:
            assert db.search(k) == f"des-{k}".encode()
        result = db.range_search(30, 120)
        assert [k for k, _ in result] == sorted(k for k in keys if 30 <= k <= 120)
        assert db.stats()["pointer_cipher"]["decryptions"] > 0

    def test_des_cryptograms_are_8_bytes(self):
        codec = des_codec(OvalSubstitution(planar_difference_set(13), t=5))
        assert codec.cryptogram_bytes == 8  # vs 16 for RSA-128

    def test_fanout_beats_rsa_variant(self):
        """Smaller cryptograms -> more triplets per block: the DES option
        trades modulus size for fanout."""
        sub = OvalSubstitution(planar_difference_set(13), t=5)
        rsa = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))
        rsa_codec = SubstitutedNodeCodec(sub, rsa)
        assert fit_min_degree(des_codec(sub), 512) > fit_min_degree(rsa_codec, 512)
