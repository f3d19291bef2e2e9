"""Bottom-up reorganisation: a node splits, borrows or merges only when
it overflows or underflows, and a mutation writes each block once.

Both enciphered layouts run the same checks: the paper's (disguised keys,
sealed pointer triplets) and the Bayer--Metzger baseline (per-page keys).
"""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest

from repro.core.codecs import PageKeyNodeCodec
from repro.core.database import EncipheredDatabase
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.substitution.identity import IdentitySubstitution
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
CIPHER = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x2E06)))
PAGE_KEYS = PageKeyScheme(b"\x10\x32\x54\x76\x98\xba\xdc\xfe", mode="ecb")


def make_db(layout: str, min_degree: int) -> EncipheredDatabase:
    if layout == "hardjono-seberry":
        return EncipheredDatabase.create(
            OvalSubstitution(DESIGN, t=5), CIPHER, min_degree=min_degree
        )
    return EncipheredDatabase.create(
        IdentitySubstitution(), CIPHER, min_degree=min_degree,
        codec=PageKeyNodeCodec(PAGE_KEYS),
    )


def reshapes(tree) -> int:
    counters = tree.counters
    return counters.splits + counters.merges + counters.borrows


def tree_keys(tree) -> list[int]:
    return [k for k, _ in tree.items()]


def path_sizes(tree, key: int) -> list[int]:
    """Key counts of the nodes a descent for ``key`` visits, root first."""
    sizes, node = [], tree._node(tree.root_id)
    while True:
        sizes.append(node.num_keys)
        if node.is_leaf:
            return sizes
        node = tree._node(node.children[bisect_left(node.keys, key)])


@pytest.mark.parametrize("layout", ["hardjono-seberry", "bayer-metzger"])
def test_insert_delete_of_one_key_does_not_churn(layout):
    """A path through full and minimal nodes to a leaf with room.  A
    top-down tree splits every full node on the way down and merges or
    borrows at every minimal one, on every insert and delete; here only
    the leaf is written."""
    db = make_db(layout, min_degree=2)
    tree = db.tree
    rng = random.Random(4)
    keys = rng.sample(range(DESIGN.v), 90)
    for k in keys:
        tree.insert(k, k)
    for k in keys[::3]:
        tree.delete(k)
    full, minimal = tree.max_keys, tree.min_keys
    absent = sorted(set(range(DESIGN.v)) - set(tree_keys(tree)))
    key = next(
        k for k in absent
        if full in path_sizes(tree, k)[:-1]
        and minimal in path_sizes(tree, k)[1:-1]
        and path_sizes(tree, k)[-1] < full
    )
    tree.insert(key, 0)
    tree.delete(key)
    writes = tree.pager.stats.write_requests
    reshaped = reshapes(tree)
    for step in range(50):
        tree.insert(key, step)
        tree.check_invariants()
        tree.delete(key)
        tree.check_invariants()
        assert tree.pager.stats.write_requests == writes + 2 * (step + 1)
        assert reshapes(tree) == reshaped


@pytest.mark.parametrize("layout", ["hardjono-seberry", "bayer-metzger"])
@pytest.mark.parametrize("min_degree", [2, 4])
def test_a_mutation_writes_each_block_once(layout, min_degree):
    db = make_db(layout, min_degree)
    tree = db.tree
    written: list[int] = []
    write = tree.pager.write

    def spy(block_id, data):
        written.append(block_id)
        write(block_id, data)

    tree.pager.write = spy
    rng = random.Random(min_degree)
    present: set[int] = set()
    reshaped = reshapes(tree)
    for step in range(2000):
        written.clear()
        if present and (len(present) > 60 or rng.random() < 0.45):
            key = rng.choice(sorted(present))
            assert tree.delete(key) == key
            present.discard(key)
        else:
            key = rng.choice([k for k in range(DESIGN.v) if k not in present])
            tree.insert(key, key)
            present.add(key)
        assert len(written) == len(set(written)), f"step {step}: {written}"
        tree.check_invariants()
    assert sorted(present) == tree_keys(tree)
    assert reshapes(tree) > reshaped  # the stream split, merged and borrowed
