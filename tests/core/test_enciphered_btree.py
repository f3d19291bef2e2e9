"""The Hardjono--Seberry layout on the engine, end to end."""

from __future__ import annotations

import random

import pytest

from repro.btree.codec import fit_min_degree
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set, singer_difference_set
from repro.exceptions import (
    BTreeError,
    DuplicateKeyError,
    KeyNotFoundError,
    SubstitutionError,
)
from repro.substitution.exponentiation import ExponentiationSubstitution
from repro.substitution.oval import OvalSubstitution
from repro.substitution.sums import SumSubstitution

CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))


@pytest.fixture(scope="module")
def design():
    return planar_difference_set(13)  # v = 183


@pytest.fixture
def db(design):
    return EncipheredDatabase.create(OvalSubstitution(design, t=5), CIPHER)


def search_cost(db: EncipheredDatabase, key: int) -> dict[str, int]:
    """Pointer-cipher, substitution and tree counts of one index descent."""
    fields = (("pointer_cipher", "encryptions"), ("pointer_cipher", "decryptions"),
              ("substitution", "inversions"), ("tree", "nodes_visited"))
    before = db.stats()
    db.tree.search(key)
    after = db.stats()
    return {field: after[section][field] - before[section][field]
            for section, field in fields}


class TestCrud:
    def test_insert_search(self, db, design):
        keys = random.Random(0).sample(range(design.v), 60)
        for k in keys:
            db.insert(k, f"payload-{k}".encode())
        for k in keys:
            assert db.search(k) == f"payload-{k}".encode()
        db.tree.check_invariants()

    def test_duplicate_rejected_and_record_not_leaked(self, db):
        db.insert(10, b"first")
        count_before = db.records.count
        with pytest.raises(DuplicateKeyError):
            db.insert(10, b"second")
        assert db.records.count == count_before
        assert db.search(10) == b"first"

    def test_delete(self, db, design):
        keys = random.Random(1).sample(range(design.v), 40)
        for k in keys:
            db.insert(k, b"x")
        for k in keys[:20]:
            db.delete(k)
        db.tree.check_invariants()
        assert len(db) == 20
        with pytest.raises(KeyNotFoundError):
            db.search(keys[0])

    def test_deleted_record_slot_freed(self, db):
        db.insert(5, b"victim")
        count = db.records.count
        db.delete(5)
        assert db.records.count == count - 1

    def test_range_search(self, db, design):
        keys = random.Random(2).sample(range(design.v), 80)
        for k in keys:
            db.insert(k, str(k).encode())
        result = db.range_search(40, 120)
        assert [k for k, _ in result] == sorted(k for k in keys if 40 <= k <= 120)
        assert all(payload == str(k).encode() for k, payload in result)


class TestAtRestSecurity:
    def test_node_blocks_contain_no_plaintext_keys_in_order(self, db, design):
        keys = sorted(random.Random(3).sample(range(design.v), 50))
        for k in keys:
            db.insert(k, b"x")
        # at-rest keys are the disguises, not the keys
        from repro.analysis.attacker import parse_substituted_blocks

        surface = parse_substituted_blocks(
            db.disk, db.tree.codec.key_bytes, db.tree.codec.cryptogram_bytes
        )
        stored = sorted(surface.all_disguised_keys)
        assert stored != keys

    def test_record_payloads_encrypted(self, db):
        db.insert(7, b"HIGHLY CONFIDENTIAL")
        dumps = b"".join(data for _, data in db.records.disk.raw_blocks())
        assert b"CONFIDENTIAL" not in dumps


class TestCostProfile:
    def test_search_decrypts_once_per_level(self, db, design):
        """The paper's headline: one pointer decryption per node visited
        (plus one for the record's data pointer at the leaf)."""
        keys = random.Random(4).sample(range(design.v), 100)
        for k in keys:
            db.insert(k, b"x")
        height = db.tree.height()
        for k in keys[:20]:
            cost = search_cost(db, k)
            assert cost["decryptions"] <= height
            assert cost["nodes_visited"] <= height

    def test_key_routing_uses_inversions_not_decryptions(self, db, design):
        keys = random.Random(5).sample(range(design.v), 100)
        for k in keys:
            db.insert(k, b"x")
        cost = search_cost(db, keys[0])
        assert cost["inversions"] > 0
        assert cost["decryptions"] <= cost["inversions"]

    def test_search_encrypts_nothing(self, db):
        db.insert(1, b"x")
        cost = search_cost(db, 1)
        assert cost["encryptions"] == 0
        assert cost["decryptions"] >= 1


class TestConfiguration:
    def test_fit_min_degree(self, design):
        codec = SubstitutedNodeCodec(OvalSubstitution(design, t=5), CIPHER)
        t = fit_min_degree(codec, 4096)
        n = 2 * t - 1
        assert codec.node_overhead_bytes(n, is_leaf=False) <= 4096
        assert codec.node_overhead_bytes(n + 2, is_leaf=False) > 4096
        with pytest.raises(BTreeError):
            fit_min_degree(codec, 64)

    def test_sum_substitution_supported(self, design):
        db = EncipheredDatabase.create(SumSubstitution(design), CIPHER)
        for k in range(0, 100, 7):
            db.insert(k, b"v")
        assert db.search(49) == b"v"

    def test_noninjective_exponentiation_refused_by_the_engine(self, paper_design):
        # N = v = 13 gives keys 1 and 2 one substitute: a database that
        # took this disguise would lose one of them
        bad = ExponentiationSubstitution(paper_design, t=7, g=7, n_modulus=13)
        with pytest.raises(SubstitutionError):
            EncipheredDatabase.create(bad, CIPHER)

    def test_noninjective_exponentiation_refused_by_the_cluster(self, paper_design):
        bad = ExponentiationSubstitution(paper_design, t=7, g=7, n_modulus=13)
        with pytest.raises(SubstitutionError):
            ShardedEncipheredDatabase.create(lambda i: bad, lambda i: CIPHER, num_shards=2)

    def test_injective_exponentiation_accepted(self):
        sub = ExponentiationSubstitution(
            singer_difference_set(4), t=2, g=5, n_modulus=23
        )
        db = EncipheredDatabase.create(sub, CIPHER, min_degree=2)
        for key in sub.representable_keys():
            db.insert(key, str(key).encode())
        for key in sub.representable_keys():
            assert db.search(key) == str(key).encode()
        db.tree.check_invariants()
