"""C1/C2/C3 as assertions: the paper's quantitative claims must hold.

The benchmark harness prints the full tables; these tests pin the
*directions and factors* so a regression cannot silently flip a result.
"""

from __future__ import annotations

import random
from math import ceil, log2

import pytest

from repro.btree.codec import fit_min_degree
from repro.core.codecs import PageKeyNodeCodec, SubstitutedNodeCodec
from repro.core.database import EncipheredDatabase
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set, singer_difference_set
from repro.storage.layout import (
    NodeLayout,
    encrypted_key_triplet,
    plaintext_triplet,
    substituted_triplet,
)
from repro.substitution.identity import IdentitySubstitution
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))
PAGE_KEYS = PageKeyScheme(b"\x01\x23\x45\x67\x89\xab\xcd\xef", mode="ecb")


def hardjono_seberry(min_degree: int = 4) -> EncipheredDatabase:
    return EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5), CIPHER, min_degree=min_degree
    )


def bayer_metzger(min_degree: int = 4) -> EncipheredDatabase:
    return EncipheredDatabase.create(
        IdentitySubstitution(), CIPHER, min_degree=min_degree,
        codec=PageKeyNodeCodec(PAGE_KEYS),
    )


def loaded_pair(num_keys: int = 150):
    """Both systems, each with the widest node its codec fits in 512 bytes."""
    hs = hardjono_seberry(
        fit_min_degree(SubstitutedNodeCodec(OvalSubstitution(DESIGN, t=5), CIPHER), 512)
    )
    bm = bayer_metzger(fit_min_degree(PageKeyNodeCodec(PAGE_KEYS), 512))
    keys = random.Random(5).sample(range(DESIGN.v), num_keys)
    for k in keys:
        hs.insert(k, b"x")
        bm.insert(k, b"x")
    return hs, bm, keys


def hs_cost(db: EncipheredDatabase, operation) -> dict[str, int]:
    """Pointer-cipher and substitution counts ``operation()`` costs."""
    before = db.stats()
    operation()
    after = db.stats()
    return {
        field: after[section][field] - before[section][field]
        for section in ("pointer_cipher", "substitution")
        for field in after[section]
    }


def bm_cost(db: EncipheredDatabase, operation) -> dict[str, int]:
    """Triplet encryptions and decryptions ``operation()`` costs."""
    counts = db.tree.codec.triplet_counts
    before = counts.snapshot()
    operation()
    return {field: n - before[field] for field, n in counts.snapshot().items()}


class TestC1DecryptionsPerSearch:
    def test_substitution_beats_binary_search_and_decrypt(self):
        hs, bm, keys = loaded_pair()
        probes = random.Random(6).sample(keys, 30)

        def run(db):
            return lambda: [db.tree.search(k) for k in probes]

        assert hs_cost(hs, run(hs))["decryptions"] < bm_cost(bm, run(bm))["decryptions"]

    def test_hs_cost_equals_path_length(self):
        hs, _, keys = loaded_pair()
        height = hs.tree.height()
        for k in random.Random(7).sample(keys, 10):
            cost = hs_cost(hs, lambda: hs.tree.search(k))
            # one pointer decryption per internal node on the path,
            # plus one for the data pointer at the hit
            assert cost["decryptions"] <= height

    def test_bm_cost_scales_with_log_fanout(self):
        _, bm, keys = loaded_pair()
        height = bm.tree.height()
        n = bm.tree.max_keys
        for k in random.Random(8).sample(keys, 10):
            cost = bm_cost(bm, lambda: bm.tree.search(k))
            assert cost["decryptions"] <= height * (ceil(log2(n)) + 2)
            assert cost["decryptions"] >= height


class TestC2StorageAndDepth:
    def test_disguise_fanout_beats_encrypted_keys(self):
        """§4.2: encrypted keys -> fewer triplets per block -> deeper tree."""
        v = singer_difference_set(9).v  # 91... (order 9 plane)
        cryptogram = generate_rsa_keypair(bits=256).cryptogram_size_bytes()
        block = 4096
        disguised = NodeLayout(block, substituted_triplet(v, cryptogram))
        encrypted = NodeLayout(block, encrypted_key_triplet(cryptogram))
        assert disguised.fanout > encrypted.fanout
        for records in (10**3, 10**5, 10**7):
            assert disguised.min_depth_for(records) <= encrypted.min_depth_for(records)
        # strict somewhere in the sweep
        assert any(
            disguised.min_depth_for(r) < encrypted.min_depth_for(r)
            for r in (10**3, 10**4, 10**5, 10**6, 10**7)
        )

    def test_disguised_key_width_is_plaintext_like(self):
        plain = plaintext_triplet(max_key=10**6, max_pointer=2**32 - 1)
        disguised = substituted_triplet(disguise_bound=10**6 + 7, cryptogram_bytes=16)
        assert disguised.key_bytes == plain.key_bytes


class TestC3ReorganisationOverhead:
    def test_bm_splits_reencrypt_keys_hs_does_not(self):
        """§3: under page keys every migrated triplet is decrypted and
        re-encrypted, search keys included; the substitution scheme never
        *decrypts* a key (inversions are arithmetic)."""
        hs, bm = hardjono_seberry(min_degree=3), bayer_metzger(min_degree=3)

        def load(db):
            return lambda: [db.insert(k, b"x") for k in range(150)]

        hs_load, bm_load = hs_cost(hs, load(hs)), bm_cost(bm, load(bm))
        assert hs.tree.counters.splits > 0
        # BM: every split re-enciphers whole triplets (keys inside)
        assert bm_load["encryptions"] > 150
        # HS: pointer cryptograms are re-encrypted, but key handling is
        # substitution only -- no key decryptions exist in the scheme
        assert hs_load["substitutions"] > 0
        assert hs_load["encryptions"] > 0

    def test_page_key_binding_forces_reencryption(self):
        """Moving a node's contents to a fresh block changes every
        cryptogram byte under page keys."""
        from repro.btree.node import Node

        codec = PageKeyNodeCodec(PageKeyScheme(b"\x01" * 8), key_bytes=4)
        node_at_3 = Node(node_id=3, is_leaf=True, keys=[7, 9], values=[70, 90])
        node_at_4 = Node(node_id=4, is_leaf=True, keys=[7, 9], values=[70, 90])
        assert codec.encode(node_at_3) != codec.encode(node_at_4)


def leaf_keys(tree) -> list[int]:
    nodes = [tree._node(node_id) for node_id in tree.node_ids()]
    return sorted(key for node in nodes if node.is_leaf for key in node.keys)


class TestWritePathCosts:
    """Writes pay the pointer cipher only for the triplets they create,
    change or move, plus one decryption per internal node they route
    through (sealed node edits)."""

    def test_leaf_insert_without_split_encrypts_one_triplet(self):
        hs, _, keys = loaded_pair()
        tree = hs.tree
        absent = [k for k in range(DESIGN.v) if k not in set(keys)]
        checked = 0
        for k in random.Random(9).sample(absent, 20):
            height = tree.height()
            splits = tree.counters.splits
            cost = hs_cost(hs, lambda: tree.insert(k, k))
            if tree.counters.splits != splits:
                continue
            checked += 1
            assert cost["encryptions"] == 1
            assert cost["decryptions"] <= height
        assert checked >= 10

    def test_leaf_delete_without_rebalance_encrypts_nothing(self):
        hs, _, _ = loaded_pair()
        tree = hs.tree
        rng, checked = random.Random(10), 0
        for _ in range(20):
            k = rng.choice(leaf_keys(tree))  # earlier borrows lift keys
            height = tree.height()
            reshaped = tree.counters.merges + tree.counters.borrows
            cost = hs_cost(hs, lambda: tree.delete(k))
            if tree.counters.merges + tree.counters.borrows != reshaped:
                continue
            checked += 1
            assert cost["encryptions"] == 0
            assert cost["decryptions"] <= height
        assert checked >= 5

    def test_database_leaf_delete_costs_one_descent(self):
        """A delete through the durable facade descends once: one
        pointer decryption per internal node on the path, plus the data
        pointer read where the key sits -- no separate search first."""
        db = hardjono_seberry()
        for k in random.Random(5).sample(range(DESIGN.v), 150):
            db.insert(k, b"x")
        tree, counts = db.tree, db.pointer_cipher.counts
        assert tree.height() == 3
        rng, checked = random.Random(12), 0
        for _ in range(60):
            k = rng.choice(leaf_keys(tree))  # earlier merges lift keys
            height = tree.height()
            reshaped = tree.counters.merges + tree.counters.borrows
            decryptions, encryptions = counts.decryptions, counts.encryptions
            db.delete(k)
            if tree.counters.merges + tree.counters.borrows != reshaped:
                continue
            checked += 1
            assert counts.decryptions - decryptions == height
            assert counts.encryptions - encryptions == 0
        assert checked >= 30

    def test_root_collapse_costs_no_cipher_operation(self):
        """The root a merge empties hands over to the merged node, whose
        id the delete already holds: once the edits are written, the
        collapse decrypts and encrypts nothing."""
        hs = hardjono_seberry(min_degree=2)
        tree, counts = hs.tree, hs.pointer_cipher.counts
        keys = random.Random(11).sample(range(DESIGN.v), 60)
        for k in keys:
            tree.insert(k, k)
        marks = []
        write_edits = tree._write_edits

        def spy(*args):
            write_edits(*args)
            marks.append(counts.snapshot())  # the delete's edits are all written

        tree._write_edits = spy
        collapses = 0
        for k in keys:
            root_id = tree.root_id
            tree.delete(k)
            collapses += tree.root_id != root_id
            check = counts.snapshot()
            assert check == marks[-1]
        assert collapses > 0

