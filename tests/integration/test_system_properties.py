"""Property-based testing at system level."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.database import EncipheredDatabase
from repro.core.plain import PlainBTreeSystem
from repro.core.security_filter import SecurityFilter
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.substitution.oval import OvalSubstitution
from repro.substitution.sums import RankedSumSubstitution, SumSubstitution

DESIGN = planar_difference_set(13)  # v = 183
CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))


@given(
    keys=st.lists(st.integers(0, 182), min_size=1, max_size=60, unique=True),
    t=st.sampled_from([2, 5, 7, 11, 50]),
)
@settings(max_examples=25, deadline=None)
def test_enciphered_tree_is_a_sorted_map(keys, t):
    tree = EncipheredDatabase.create(OvalSubstitution(DESIGN, t=t), CIPHER, min_degree=2)
    for k in keys:
        tree.insert(k, f"v{k}".encode())
    tree.tree.check_invariants()
    result = tree.range_search(0, 182)
    assert [k for k, _ in result] == sorted(keys)
    assert all(payload == f"v{k}".encode() for k, payload in result)


@given(
    keys=st.lists(st.integers(0, 169), min_size=1, max_size=50, unique=True),
    lo=st.integers(0, 169),
    hi=st.integers(0, 169),
)
@settings(max_examples=25, deadline=None)
def test_filter_range_equals_plaintext_filtering(keys, lo, hi):
    filt = SecurityFilter(SumSubstitution(DESIGN, num_keys=170))
    for k in keys:
        filt.insert(k, str(k).encode())
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert [k for k, _ in filt.range_search(lo, hi)] == expected


def test_filter_with_ranked_census():
    """The ranked variant slots into the filter for sparse key spaces."""
    keys = [10**6, 42, 999_983, 77, 123_456]
    sub = RankedSumSubstitution(DESIGN, keys)
    filt = SecurityFilter(sub, PlainBTreeSystem(block_size=512))
    for k in keys:
        filt.insert(k, f"sparse-{k}".encode())
    assert filt.search(999_983) == b"sparse-999983"
    result = filt.range_search(50, 10**6 - 1)
    assert [k for k, _ in result] == [77, 123_456, 999_983]


class EncipheredMachine(RuleBasedStateMachine):
    """The full enciphered system against a dict model, under churn."""

    def __init__(self) -> None:
        super().__init__()
        self.tree = EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=5), CIPHER, min_degree=2
        )
        self.model: dict[int, bytes] = {}

    @rule(key=st.integers(0, 182), tag=st.integers(0, 255))
    def insert(self, key, tag):
        payload = bytes([tag]) * 4
        if key in self.model:
            with pytest.raises(DuplicateKeyError):
                self.tree.insert(key, payload)
        else:
            self.tree.insert(key, payload)
            self.model[key] = payload

    @rule(key=st.integers(0, 182))
    def delete(self, key):
        if key in self.model:
            self.tree.delete(key)
            del self.model[key]
        else:
            with pytest.raises(KeyNotFoundError):
                self.tree.delete(key)

    @rule(key=st.integers(0, 182))
    def lookup(self, key):
        if key in self.model:
            assert self.tree.search(key) == self.model[key]
        else:
            with pytest.raises(KeyNotFoundError):
                self.tree.search(key)

    @precondition(lambda self: self.model)
    @rule()
    def scan(self):
        got = self.tree.range_search(0, 182)
        assert got == sorted(self.model.items())

    @invariant()
    def structure_and_store_agree(self):
        self.tree.tree.check_invariants()
        assert self.tree.records.count == len(self.model)


TestEncipheredStateful = EncipheredMachine.TestCase
TestEncipheredStateful.settings = settings(
    max_examples=10, stateful_step_count=30, deadline=None
)
