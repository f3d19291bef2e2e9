"""Operation-counting wrappers (the experiments' measurement layer)."""

from __future__ import annotations

import random

from repro.crypto.base import (
    CountingBlockCipher,
    CountingCipher,
    CryptoOpCounts,
)
from repro.crypto.des import DES
from repro.crypto.rsa import RSA, generate_rsa_keypair


class TestCryptoOpCounts:
    def test_totals_and_reset(self):
        counts = CryptoOpCounts(encryptions=3, decryptions=4)
        assert counts.total == 7
        counts.reset()
        assert counts.total == 0


class TestCountingCipher:
    def test_counts_and_transparency(self):
        inner = RSA(generate_rsa_keypair(bits=96, rng=random.Random(1)))
        counting = CountingCipher(inner)
        assert counting.modulus == inner.modulus
        c = counting.encrypt_int(1234)
        assert c == inner.encrypt_int(1234)
        assert counting.decrypt_int(c) == 1234
        assert counting.counts.encryptions == 1
        assert counting.counts.decryptions == 1
        counting.reset_counts()
        assert counting.counts.total == 0


class TestCountingBlockCipher:
    def test_counts_and_transparency(self):
        inner = DES(b"\x01" * 8)
        counting = CountingBlockCipher(inner)
        assert counting.block_size == 8
        c = counting.encrypt_block(b"8 bytes!")
        assert c == inner.encrypt_block(b"8 bytes!")
        assert counting.decrypt_block(c) == b"8 bytes!"
        assert counting.counts.encryptions == 1
        assert counting.counts.decryptions == 1
        counting.reset_counts()
        assert counting.counts.total == 0


class TestCountingUnderCaching:
    def test_pager_cache_saves_io_not_crypto(self):
        """The measurement model of DESIGN.md: caching raw blocks reduces
        disk reads but never hides decryption cost, because decoding
        happens above the pager."""
        from repro.core.database import EncipheredDatabase
        from repro.designs.difference_sets import planar_difference_set
        from repro.substitution.oval import OvalSubstitution

        design = planar_difference_set(13)
        inner = RSA(generate_rsa_keypair(bits=128, rng=random.Random(2)))
        cold = EncipheredDatabase.create(
            OvalSubstitution(design, t=5), inner, cache_blocks=0
        )
        warm = EncipheredDatabase.create(
            OvalSubstitution(design, t=5), inner, cache_blocks=64
        )
        keys = random.Random(2).sample(range(design.v), 80)
        for k in keys:
            cold.insert(k, b"x")
            warm.insert(k, b"x")
        before = {db: db.stats() for db in (cold, warm)}
        for k in keys[:20]:
            cold.tree.search(k)
            warm.tree.search(k)

        def spent(db, section, field):
            return db.stats()[section][field] - before[db][section][field]

        assert spent(warm, "node_disk", "reads") < spent(cold, "node_disk", "reads")
        for section, field in (("pointer_cipher", "decryptions"),
                               ("substitution", "inversions")):
            assert spent(warm, section, field) == spent(cold, section, field)
