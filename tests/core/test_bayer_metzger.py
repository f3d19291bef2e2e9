"""The Bayer--Metzger baseline: the engine with the page-key triplet codec."""

from __future__ import annotations

import random
import sys
from math import ceil, log2
from pathlib import Path

import pytest

from repro.core.codecs import PageKeyNodeCodec
from repro.core.database import EncipheredDatabase
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.exceptions import KeyNotFoundError
from repro.storage.backend import FileBackend
from repro.substitution.identity import IdentitySubstitution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "obs"))
from test_stats_schema import STATS_KEYS, key_tree  # noqa: E402  (the pinned stats() keys)

CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))
FILE_KEY = b"\x01\x23\x45\x67\x89\xab\xcd\xef"


def page_key_codec() -> PageKeyNodeCodec:
    return PageKeyNodeCodec(PageKeyScheme(FILE_KEY, mode="ecb"))


@pytest.fixture
def db():
    return EncipheredDatabase.create(IdentitySubstitution(), CIPHER, codec=page_key_codec())


def triplet_cost(db: EncipheredDatabase, operation) -> dict[str, int]:
    """Triplet encryptions and decryptions ``operation()`` costs."""
    counts = db.tree.codec.triplet_counts
    before = counts.snapshot()
    operation()
    return {field: n - before[field] for field, n in counts.snapshot().items()}


class TestCrud:
    def test_insert_search_delete(self, db):
        keys = random.Random(0).sample(range(10000), 60)
        for k in keys:
            db.insert(k, f"bm-{k}".encode())
        for k in keys:
            assert db.search(k) == f"bm-{k}".encode()
        for k in keys[:30]:
            db.delete(k)
        db.tree.check_invariants()
        with pytest.raises(KeyNotFoundError):
            db.search(keys[0])

    def test_range_search(self, db):
        for k in range(0, 300, 5):
            db.insert(k, str(k).encode())
        result = db.range_search(50, 150)
        assert [k for k, _ in result] == list(range(50, 151, 5))


class TestDurable:
    """The engine's superblock, WAL and reopen carry the baseline's layout
    with no codec-specific code."""

    def test_file_backend_reopen_keeps_keys_and_costs(self, tmp_path):
        db = EncipheredDatabase.create(
            IdentitySubstitution(), CIPHER,
            backend=FileBackend(tmp_path / "bm", fsync=False), codec=page_key_codec(),
        )
        keys = random.Random(3).sample(range(10000), 80)
        for k in keys:
            db.insert(k, f"bm-{k}".encode())

        def search_costs(handle):
            return {
                k: triplet_cost(handle, lambda: handle.tree.search(k))["decryptions"]
                for k in keys
            }

        costs = search_costs(db)
        db.close()
        reopened = EncipheredDatabase.reopen_from_backend(
            IdentitySubstitution(), CIPHER,
            FileBackend(tmp_path / "bm", fsync=False), codec=page_key_codec(),
        )
        for k in keys:
            assert reopened.search(k) == f"bm-{k}".encode()
        assert search_costs(reopened) == costs
        reopened.tree.check_invariants()
        reopened.close()

    def test_stats_keep_the_pinned_key_tree(self, db):
        db.insert(7, b"seven")
        db.search(7)
        stats = db.stats()
        assert key_tree(stats) == STATS_KEYS
        # the baseline never touches the disguise or the pointer cipher
        assert set(stats["substitution"].values()) == {0}
        assert set(stats["pointer_cipher"].values()) == {0}
        assert stats["tree"]["nodes_visited"] > 0


class TestAtRest:
    def test_blocks_fully_enciphered(self, db):
        for k in range(40):
            db.insert(k, b"x")
        # node blocks should look like noise: no byte position can be a
        # valid plaintext header across the whole file
        from repro.analysis.attacker import parse_substituted_blocks

        surface = parse_substituted_blocks(db.disk, 8, 16)
        assert len(surface.blocks) == 0  # nothing parses as a plain layout


class TestCostProfile:
    def test_binary_search_and_decrypt(self, db):
        """§3: 'In the worst case this may take log2 n decryptions' per
        node -- measured, per level."""
        keys = list(range(400))
        for k in keys:
            db.insert(k, b"x")
        height = db.tree.height()
        max_triplets = db.tree.max_keys
        bound_per_node = ceil(log2(max_triplets)) + 2
        for k in random.Random(1).sample(keys, 25):
            cost = triplet_cost(db, lambda: db.tree.search(k))
            assert cost["decryptions"] >= height  # at least 1/node
            assert cost["decryptions"] <= height * bound_per_node

    def test_more_decryptions_than_substitution_scheme(self, db):
        """The headline comparison: per-search triplet decryptions exceed
        the paper scheme's one-per-level."""
        keys = list(range(400))
        for k in keys:
            db.insert(k, b"x")
        height = db.tree.height()
        cost = triplet_cost(db, lambda: db.tree.search(200))
        assert cost["decryptions"] > height

    def test_reorganisation_reencrypts_triplets(self, db):
        """§3: splits decrypt and re-encrypt every migrated triplet."""
        def load():
            for k in range(200):
                db.insert(k, b"x")

        cost = triplet_cost(db, load)
        # every insert re-encrypts its leaf; splits re-encrypt in bulk
        assert cost["encryptions"] > 200
