"""Attacker toolkit against live systems."""

from __future__ import annotations

import random

import pytest

from repro.analysis.attacker import (
    edge_recovery_by_sequence,
    key_order_correlation,
    multiplier_recovery_attack,
    parse_substituted_blocks,
    range_nesting_edges,
    rank_attack_accuracy,
    rank_matching_attack,
    true_edges,
)
from repro.analysis.metrics import edge_precision_recall
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.substitution.oval import OvalSubstitution
from repro.substitution.sums import SumSubstitution

CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))


@pytest.fixture(scope="module")
def design():
    return planar_difference_set(13)  # v = 183


@pytest.fixture(scope="module")
def oval_tree(design):
    tree = EncipheredDatabase.create(OvalSubstitution(design, t=5), CIPHER)
    keys = random.Random(0).sample(range(design.v), 120)
    for k in keys:
        tree.insert(k, b"r")
    tree._test_keys = keys  # type: ignore[attr-defined]
    return tree


@pytest.fixture(scope="module")
def sum_tree(design):
    tree = EncipheredDatabase.create(SumSubstitution(design, num_keys=160), CIPHER)
    keys = random.Random(0).sample(range(160), 120)
    for k in keys:
        tree.insert(k, b"r")
    tree._test_keys = keys  # type: ignore[attr-defined]
    return tree


class TestParsing:
    def test_parses_every_node_block(self, oval_tree):
        surface = parse_substituted_blocks(
            oval_tree.disk, oval_tree.tree.codec.key_bytes, oval_tree.tree.codec.cryptogram_bytes
        )
        live = set(oval_tree.tree.node_ids())
        parsed = {b.block_id for b in surface.blocks}
        assert live <= parsed

    def test_disguised_keys_visible(self, oval_tree, design):
        surface = parse_substituted_blocks(
            oval_tree.disk, oval_tree.tree.codec.key_bytes, oval_tree.tree.codec.cryptogram_bytes
        )
        expected = {k * 5 % design.v for k in oval_tree._test_keys}
        assert set(surface.all_disguised_keys) == expected

    def test_leaf_internal_split(self, oval_tree):
        surface = parse_substituted_blocks(
            oval_tree.disk, oval_tree.tree.codec.key_bytes, oval_tree.tree.codec.cryptogram_bytes
        )
        assert surface.leaf_blocks()
        assert surface.internal_blocks()


class TestOrderLeakage:
    def test_oval_hides_order(self, oval_tree, design):
        pairs = [(k, k * 5 % design.v) for k in oval_tree._test_keys]
        assert abs(key_order_correlation(pairs)) < 0.4

    def test_sum_leaks_order_completely(self, sum_tree, design):
        sub = SumSubstitution(design, num_keys=160)
        pairs = [(k, sub.substitute(k)) for k in sum_tree._test_keys]
        assert key_order_correlation(pairs) == 1.0


class TestCensusAttack:
    def test_succeeds_against_order_preserving(self, sum_tree, design):
        sub = SumSubstitution(design, num_keys=160)
        keys = sum_tree._test_keys
        disguises = [sub.substitute(k) for k in keys]
        mapping = rank_matching_attack(disguises, sorted(keys))
        truth = list(zip(keys, disguises))
        assert rank_attack_accuracy(mapping, truth) == 1.0

    def test_fails_against_oval(self, oval_tree, design):
        keys = oval_tree._test_keys
        disguises = [k * 5 % design.v for k in keys]
        mapping = rank_matching_attack(disguises, sorted(keys))
        truth = list(zip(keys, disguises))
        assert rank_attack_accuracy(mapping, truth) < 0.2


class TestKnownPlaintext:
    def test_multiplier_recovered_from_one_pair(self, design):
        pairs = [(11, 11 * 5 % design.v)]
        assert multiplier_recovery_attack(pairs, design.v) == 5

    def test_inconsistent_pairs_detected(self, design):
        pairs = [(11, 11 * 5 % design.v), (12, 99)]
        assert multiplier_recovery_attack(pairs, design.v) is None

    def test_sum_disguise_is_not_linear(self, design):
        sub = SumSubstitution(design, num_keys=160)
        pairs = [(k, sub.substitute(k)) for k in (3, 5, 11, 20)]
        assert multiplier_recovery_attack(pairs, design.v) is None


class TestShapeReconstruction:
    def test_oval_defeats_range_nesting(self, oval_tree):
        surface = parse_substituted_blocks(
            oval_tree.disk, oval_tree.tree.codec.key_bytes, oval_tree.tree.codec.cryptogram_bytes
        )
        guess = range_nesting_edges(surface)
        truth = true_edges(oval_tree.tree)
        precision, recall = edge_precision_recall(guess, truth)
        assert recall < 0.5  # the paper's shape claim

    def test_sequence_heuristic_weak(self, oval_tree):
        surface = parse_substituted_blocks(
            oval_tree.disk, oval_tree.tree.codec.key_bytes, oval_tree.tree.codec.cryptogram_bytes
        )
        fanout = oval_tree.tree.max_keys + 1
        guess = edge_recovery_by_sequence(surface, fanout)
        truth = true_edges(oval_tree.tree)
        precision, _ = edge_precision_recall(guess, truth)
        assert precision < 0.6

    def test_true_edges_counts_children(self, oval_tree):
        truth = true_edges(oval_tree.tree)
        assert len(truth) == len(oval_tree.tree.node_ids()) - 1
