"""Moderate-scale end-to-end checks (larger designs, more records)."""

from __future__ import annotations

import random

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import singer_difference_set
from repro.designs.multipliers import is_numerical_multiplier
from repro.substitution.oval import OvalSubstitution
from repro.substitution.sums import SumSubstitution


class TestLargeDesigns:
    def test_order_47_design_builds_and_verifies(self):
        ds = singer_difference_set(47)
        assert ds.v == 2257
        assert ds.k == 48
        # spot-check the development and sums at scale
        assert len(set(ds.line(1234))) == 48
        assert ds.cumulative_line_sum(0, 2256) == sum(
            ds.line_sum(y) for y in range(0, 2257, 451)
        ) + sum(ds.line_sum(y) for y in range(2257) if y % 451 != 0)

    def test_thousand_record_enciphered_tree(self):
        ds = singer_difference_set(47)  # v = 2257
        tree = EncipheredDatabase.create(
            OvalSubstitution(ds, t=5),
            RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930))),
            min_degree=8,
        )
        keys = random.Random(0).sample(range(ds.v), 1000)
        for k in keys:
            tree.insert(k, b"r")
        tree.tree.check_invariants()
        probes = random.Random(1).sample(keys, 25)
        for k in probes:
            assert tree.search(k) == b"r"
        # cost profile still one decryption per level at scale
        height = tree.tree.height()
        counts = tree.pointer_cipher.counts
        for k in probes:
            before = counts.decryptions
            tree.tree.search(k)
            assert counts.decryptions - before <= height

    def test_order_preserving_at_scale(self):
        ds = singer_difference_set(29)  # v = 871
        sub = SumSubstitution(ds, start_line=10, num_keys=800)
        values = [sub.substitute(k) for k in range(0, 800, 13)]
        assert values == sorted(values)
        for k in range(0, 800, 97):
            assert sub.invert(sub.substitute(k)) == k

    def test_multiplier_structure_at_scale(self):
        """Hall's theorem at order 29: p = 29 ≡ some power class; the
        prime dividing the order is always a multiplier."""
        ds = singer_difference_set(29)
        assert is_numerical_multiplier(ds, 29)
