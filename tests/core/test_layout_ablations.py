"""Ablation variants: whole-page baseline, disguised extra pointer."""

from __future__ import annotations

import random

import pytest

from repro.btree.node import Node
from repro.core.codecs import PageKeyNodeCodec, SubstitutedNodeCodec, WholePageNodeCodec
from repro.core.database import EncipheredDatabase
from repro.crypto.base import CountingCipher
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import CodecError
from repro.substitution.identity import IdentitySubstitution
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)
CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))
FILE_KEY = b"\x01\x23\x45\x67\x89\xab\xcd\xef"


def bayer_metzger(codec_class, page_mode: str = "ecb") -> EncipheredDatabase:
    return EncipheredDatabase.create(
        IdentitySubstitution(), CIPHER,
        codec=codec_class(PageKeyScheme(FILE_KEY, mode=page_mode)),
    )


def disguised_extra_pointer(sub: OvalSubstitution) -> EncipheredDatabase:
    cipher = CountingCipher(CIPHER)
    codec = SubstitutedNodeCodec(sub, cipher, extra_pointer_mode="disguise")
    return EncipheredDatabase.create(sub, cipher, codec=codec)


class TestWholePageLayout:
    @pytest.mark.parametrize("page_mode", ["ecb", "cbc", "progressive"])
    def test_crud_all_modes(self, page_mode):
        db = bayer_metzger(WholePageNodeCodec, page_mode)
        keys = random.Random(1).sample(range(5000), 60)
        for k in keys:
            db.insert(k, f"wp-{k}".encode())
        db.tree.check_invariants()
        for k in keys[:10]:
            assert db.search(k) == f"wp-{k}".encode()
        for k in keys[:20]:
            db.delete(k)
        db.tree.check_invariants()

    def test_whole_page_decrypts_everything_per_visit(self):
        """Contrast with the lazy layout: a single search pays the full
        node's triplets at every level."""
        decryptions = {}
        for codec_class in (WholePageNodeCodec, PageKeyNodeCodec):
            db = bayer_metzger(codec_class)
            for k in range(200):
                db.insert(k, b"x")
            counts = db.tree.codec.triplet_counts
            before = counts.decryptions
            db.tree.search(100)
            decryptions[codec_class] = counts.decryptions - before
        # far more than log2(n) per node: all resident triplets decrypted
        assert decryptions[WholePageNodeCodec] > decryptions[PageKeyNodeCodec]

    def test_codec_roundtrip(self):
        codec = WholePageNodeCodec(PageKeyScheme(b"\x01" * 8), key_bytes=4)
        node = Node(node_id=3, is_leaf=False, keys=[4, 9], values=[1, 2], children=[5, 6, 7])
        assert codec.decode(3, codec.encode(node)).to_node() == node

    def test_overhead_accounts_padding(self):
        codec = WholePageNodeCodec(PageKeyScheme(b"\x01" * 8), key_bytes=4)
        node = Node(node_id=1, is_leaf=True, keys=[1, 2, 3], values=[0, 0, 0])
        assert len(codec.encode(node)) == codec.node_overhead_bytes(3, True)

    def test_progressive_mode_is_length_preserving(self):
        codec = WholePageNodeCodec(
            PageKeyScheme(b"\x01" * 8, mode="progressive"), key_bytes=4
        )
        node = Node(node_id=1, is_leaf=True, keys=[1], values=[0])
        assert len(codec.encode(node)) == codec.inner.node_overhead_bytes(1, True)


class TestDisguisedExtraPointer:
    def test_tree_roundtrip(self):
        db = disguised_extra_pointer(OvalSubstitution(DESIGN, t=5))
        keys = random.Random(2).sample(range(DESIGN.v), 90)
        for k in keys:
            db.insert(k, b"x")
        db.tree.check_invariants()
        for k in keys:
            assert db.search(k) == b"x"

    def test_smaller_node_overhead(self):
        cipher = CountingCipher(RSA(generate_rsa_keypair(bits=128, rng=random.Random(3))))
        sub = OvalSubstitution(DESIGN, t=5)
        encrypting = SubstitutedNodeCodec(sub, cipher, extra_pointer_mode="encrypt")
        disguising = SubstitutedNodeCodec(sub, cipher, extra_pointer_mode="disguise")
        assert disguising.node_overhead_bytes(10, False) < encrypting.node_overhead_bytes(10, False)
        # leaves are identical (no extra pointer)
        assert disguising.node_overhead_bytes(10, True) == encrypting.node_overhead_bytes(10, True)

    def test_extra_pointer_leaks_to_disguise_breaker(self):
        """The security cost of the paper's literal sentence: an attacker
        who recovered t reads one true child id per internal node."""
        from repro.analysis.attacker import parse_substituted_blocks

        sub = OvalSubstitution(DESIGN, t=5)
        db = disguised_extra_pointer(sub)
        for k in random.Random(4).sample(range(DESIGN.v), 90):
            db.insert(k, b"x")
        # find an internal node and read the disguised extra pointer field
        leaked = 0
        for node_id in db.tree.node_ids():
            view = db.tree._view(node_id)
            if view.is_leaf:
                continue
            raw = db.disk.raw_block(node_id)
            codec = db.tree.codec
            offset = 3 + view.num_keys * codec.key_bytes + view.num_keys * codec.cryptogram_bytes
            stored = int.from_bytes(raw[offset : offset + codec.key_bytes], "big")
            recovered_child = stored * sub.t_inverse % DESIGN.v  # attacker knows t
            if recovered_child == view.child_at(view.num_keys):
                leaked += 1
        assert leaked > 0  # at least the root leaks a true edge

    def test_block_id_outside_universe_rejected(self):
        """The disguise's key universe bounds the representable block ids;
        growing past it must fail loudly, not corrupt."""
        from repro.designs.difference_sets import PAPER_DIFFERENCE_SET
        from repro.exceptions import KeyUniverseError

        sub = OvalSubstitution(PAPER_DIFFERENCE_SET, t=7)  # universe = 13 ids
        cipher = CountingCipher(RSA(generate_rsa_keypair(bits=128, rng=random.Random(5))))
        codec = SubstitutedNodeCodec(sub, cipher, extra_pointer_mode="disguise")
        node = Node(node_id=1, is_leaf=False, keys=[5], values=[1], children=[2, 99])
        with pytest.raises(KeyUniverseError):
            codec.encode(node)

    def test_bad_mode_rejected(self):
        cipher = CountingCipher(RSA(generate_rsa_keypair(bits=128, rng=random.Random(6))))
        with pytest.raises(CodecError):
            SubstitutedNodeCodec(
                OvalSubstitution(DESIGN, t=5), cipher, extra_pointer_mode="plaintext"
            )
