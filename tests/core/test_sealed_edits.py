"""Sealed node edits: B-tree writes keep untouched cryptograms verbatim.

A node edited from a :class:`~repro.core.codecs.SubstitutedNodeView`
carries its triplets still enciphered, and ``encode`` copies each one
that stays intact in its own block.  These tests pin the two promises
that makes: the platter bytes equal a fresh full re-encryption, and no
triplet reaches another block without a block-binding-checked decrypt.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.codec import HEADER_BYTES
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.database import EncipheredDatabase
from repro.crypto.base import CountingCipher
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import DuplicateKeyError, IntegrityError
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0x5EA1))


def make_tree(min_degree: int, extra_pointer_mode: str = "encrypt") -> EncipheredDatabase:
    """An uncached database: blocks planted on the disk are what the tree reads."""
    sub = OvalSubstitution(DESIGN, t=5)
    cipher = CountingCipher(RSA(KEYPAIR))
    return EncipheredDatabase.create(
        sub, cipher, block_size=1024, min_degree=min_degree, cache_blocks=0,
        codec=SubstitutedNodeCodec(sub, cipher, extra_pointer_mode=extra_pointer_mode),
    )


def assert_blocks_freshly_encoded(hs: EncipheredDatabase) -> None:
    """Every live node block equals a full decrypt-and-re-encrypt of itself."""
    codec = hs.tree.codec
    for node_id in hs.tree.node_ids():
        stored = hs.disk.raw_block(node_id)
        fresh = codec.encode(codec.decode(node_id, stored).to_node())
        assert stored[: len(fresh)] == fresh, f"block {node_id} differs"


@given(
    min_degree=st.integers(2, 5),
    extra_pointer_mode=st.sampled_from(["encrypt", "disguise"]),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, DESIGN.v - 1)), max_size=60
    ),
)
@settings(max_examples=25, deadline=None)
def test_sealed_edits_match_fresh_encryption(min_degree, extra_pointer_mode, ops):
    hs = make_tree(min_degree, extra_pointer_mode)
    tree = hs.tree
    oracle: dict[int, int] = {}
    for step, (insert, key) in enumerate(ops):
        if key not in oracle:
            tree.insert(key, step)
            oracle[key] = step
        elif insert:
            with pytest.raises(DuplicateKeyError):
                tree.insert(key, step)
        else:
            tree.delete(key)
            del oracle[key]
        tree.check_invariants()
        assert list(tree.items()) == sorted(oracle.items())
        assert_blocks_freshly_encoded(hs)


# -- foreign cryptograms ----------------------------------------------------


def leaves(hs: EncipheredDatabase) -> list[int]:
    """The root's children, left to right (the trees below are height 2)."""
    return hs.tree._node(hs.tree.root_id).children


def plant_foreign(hs: EncipheredDatabase, target: int, slot: int, source: int) -> None:
    """Overwrite cryptogram ``slot`` of block ``target`` with block
    ``source``'s first cryptogram -- a valid cryptogram, bound elsewhere."""
    codec = hs.tree.codec
    foreign = codec.decode(source, hs.disk.raw_block(source)).stored_cryptogram(0)
    data = bytearray(hs.disk.raw_block(target))
    num_keys = codec.decode(target, bytes(data)).num_keys
    start = HEADER_BYTES + num_keys * codec.key_bytes + slot * codec.cryptogram_bytes
    data[start : start + len(foreign)] = foreign
    hs.disk.write_block(target, bytes(data))


def build(keys: list[int]) -> EncipheredDatabase:
    hs = make_tree(min_degree=2)
    for key in keys:
        hs.tree.insert(key, key * 10)
    return hs


class TestForeignCryptogram:
    def test_in_place_insert_keeps_it_and_the_next_read_fails(self):
        hs = build([10, 20, 30, 40, 50])  # root [20]; leaves [10], [30, 40, 50]
        left, right = leaves(hs)
        plant_foreign(hs, left, 0, source=right)
        hs.tree.insert(5, 50)  # leaf [5, 10]: the planted triplet is copied
        assert hs.tree.search(5) == 50
        with pytest.raises(IntegrityError):
            hs.tree.search(10)

    def test_split_that_moves_it_fails_during_the_write(self):
        hs = build([10, 20, 30, 40, 50])
        left, right = leaves(hs)
        plant_foreign(hs, right, 2, source=left)  # key 50's triplet
        with pytest.raises(IntegrityError):
            hs.tree.insert(60, 600)  # splits [30, 40, 50]: 50 moves out

    def test_merge_that_moves_it_fails_during_the_write(self):
        hs = build([10, 20, 30, 40])  # root [20]; leaves [10], [30, 40]
        hs.tree.delete(40)
        left, right = leaves(hs)
        plant_foreign(hs, right, 0, source=left)  # key 30's triplet
        with pytest.raises(IntegrityError):
            hs.tree.delete(10)  # merges [10] + 20 + [30] into the left leaf
