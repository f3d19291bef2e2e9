"""All four systems answer the same workload identically.

Whatever the encipherment, the *database semantics* must agree: the
paper's point is that security is added below the B-Tree's behaviour.
"""

from __future__ import annotations

import random

import pytest

from repro.core.codecs import PageKeyNodeCodec
from repro.core.database import EncipheredDatabase
from repro.core.plain import PlainBTreeSystem
from repro.core.security_filter import SecurityFilter
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.substitution.identity import IdentitySubstitution
from repro.substitution.oval import OvalSubstitution
from repro.substitution.sums import SumSubstitution

DESIGN = planar_difference_set(13)  # v = 183
CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x48533930)))
KEYS = random.Random(99).sample(range(160), 90)
PAYLOADS = {k: f"payload::{k}".encode() for k in KEYS}


def build_systems():
    return {
        "plain": PlainBTreeSystem(block_size=512),
        "hardjono-seberry": EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=5), CIPHER
        ),
        "bayer-metzger": EncipheredDatabase.create(
            IdentitySubstitution(), CIPHER,
            codec=PageKeyNodeCodec(PageKeyScheme(b"\x01\x23\x45\x67\x89\xab\xcd\xef")),
        ),
        "security-filter": SecurityFilter(SumSubstitution(DESIGN, num_keys=160)),
    }


@pytest.fixture(scope="module")
def loaded_systems():
    systems = build_systems()
    for system in systems.values():
        for k in KEYS:
            system.insert(k, PAYLOADS[k])
    return systems


class TestEquivalence:
    def test_point_lookups_agree(self, loaded_systems):
        probes = random.Random(1).sample(KEYS, 30)
        for name, system in loaded_systems.items():
            for k in probes:
                assert system.search(k) == PAYLOADS[k], name

    def test_range_queries_agree(self, loaded_systems):
        plain = loaded_systems["plain"]
        for lo, hi in [(0, 159), (40, 90), (10, 11), (150, 300)]:
            expected = plain.range_search(lo, hi)
            for name, system in loaded_systems.items():
                assert system.range_search(lo, hi) == expected, name

    def test_sizes_agree(self, loaded_systems):
        sizes = {name: len(system) for name, system in loaded_systems.items()}
        assert set(sizes.values()) == {len(KEYS)}

    def test_delete_agrees(self):
        systems = build_systems()
        rng = random.Random(7)
        alive = set()
        for k in KEYS:
            for system in systems.values():
                system.insert(k, PAYLOADS[k])
            alive.add(k)
        for k in rng.sample(sorted(alive), 40):
            for system in systems.values():
                system.delete(k)
            alive.discard(k)
        survivors = sorted(alive)
        expected = [(k, PAYLOADS[k]) for k in survivors]
        for name, system in systems.items():
            assert system.range_search(0, 200) == expected, name
