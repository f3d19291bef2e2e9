"""A node visit's binary search in one call: ``NodeView.locate``.

The tree's descents search each node they visit with one ``locate``
call.  The paper's layout implements it straight over its stored bytes,
the page-key and plain views loop over ``key_at``.  Either way it must
answer exactly what a binary search over ``key_at`` answers -- the same
lower-bound index, the same key there, the same probes -- and cost the
same disguise inversions and triplet decryptions, for every stored key
and every gap between keys.
"""

from __future__ import annotations

import random

import pytest

from repro.btree.codec import HEADER_BYTES, PlainNodeCodec
from repro.btree.node import Node
from repro.core.codecs import PageKeyNodeCodec, SubstitutedNodeCodec
from repro.core.packing import PointerPacking
from repro.crypto.base import CountingCipher
from repro.crypto.pagekey import PageKeyScheme
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import KeyUniverseError
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # key universe Z_183
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0x10CA7E))

KEYS = sorted(random.Random(7).sample(range(1, DESIGN.v - 1), 15))
LEAF = Node(node_id=9, is_leaf=True, keys=KEYS, values=[3 * k for k in KEYS])
INTERNAL = Node(
    node_id=9,
    is_leaf=False,
    keys=KEYS,
    values=[3 * k for k in KEYS],
    children=list(range(20, 20 + len(KEYS) + 1)),
)


def hs_codec():
    return SubstitutedNodeCodec(
        OvalSubstitution(DESIGN, t=5), CountingCipher(RSA(KEYPAIR)), PointerPacking()
    )


def bm_codec():
    return PageKeyNodeCodec(PageKeyScheme(b"locate!!"))


def costs(codec) -> dict[str, int]:
    """Every cipher and disguise counter the codec books."""
    if isinstance(codec, SubstitutedNodeCodec):
        return {
            "inversions": codec.substitution.counters.inversions,
            "decryptions": codec.cipher.counts.decryptions,
        }
    if isinstance(codec, PageKeyNodeCodec):
        return {
            "triplets": codec.triplet_counts.decryptions,
            "blocks": codec.block_counts.decryptions,
        }
    return {}


def key_at_search(view, key):
    """The reference: a lower-bound binary search over ``key_at``."""
    lo, hi = 0, view.num_keys
    probes = 0
    while lo < hi:
        mid = (lo + hi) >> 1
        probes += 1
        if view.key_at(mid) < key:
            lo = mid + 1
        else:
            hi = mid
    return lo, (view.key_at(lo) if lo < view.num_keys else None), probes


def spent(codec, action):
    before = costs(codec)
    result = action()
    after = costs(codec)
    return result, {name: after[name] - before[name] for name in after}


#: every stored key, every gap between two keys, and both ends
QUERIES = sorted(
    set(KEYS)
    | {k + 1 for k in KEYS}
    | {k - 1 for k in KEYS}
    | {0, DESIGN.v - 1}
)

CODECS = {"hs": hs_codec, "page_key": bm_codec, "plain": PlainNodeCodec}


@pytest.mark.parametrize("node", [LEAF, INTERNAL], ids=["leaf", "internal"])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_locate_agrees_with_a_key_at_loop(name, node):
    codec = CODECS[name]()
    data = codec.encode(node)
    for query in QUERIES:
        located, located_cost = spent(
            codec, lambda: codec.decode(node.node_id, data).locate(query)
        )
        # the reference reads key ``lo`` once more (a cached read) to
        # report it; locate hands back the key it already holds
        expected, expected_cost = spent(
            codec, lambda: key_at_search(codec.decode(node.node_id, data), query)
        )
        assert located == expected, query
        assert located_cost == expected_cost, query
        assert located_cost.get("decryptions", 0) == 0  # keys are not pointers
        idx, found, _ = located
        assert idx == sum(1 for k in node.keys if k < query)
        assert found == (node.keys[idx] if idx < node.num_keys else None)


@pytest.mark.parametrize("name", sorted(CODECS))
def test_locate_then_edit_costs_what_key_at_then_edit_costs(name):
    """Probed keys stay read for the visit: a write descent's ``edit``
    after ``locate`` inverts only the keys the search did not touch."""
    codec = CODECS[name]()
    data = codec.encode(INTERNAL)
    for query in QUERIES:
        view = codec.decode(9, data)
        _, via_locate = spent(codec, lambda: (view.locate(query), view.edit()))
        view = codec.decode(9, data)
        _, via_key_at = spent(codec, lambda: (key_at_search(view, query), view.edit()))
        assert via_locate == via_key_at, query


def test_locate_honours_keys_the_view_already_read():
    codec = hs_codec()
    view = codec.decode(9, codec.encode(LEAF))
    view.key_at(LEAF.num_keys >> 1)  # every search probes it first
    _, cost = spent(codec, lambda: view.locate(KEYS[0]))
    fresh = codec.decode(9, codec.encode(LEAF))
    _, fresh_cost = spent(codec, lambda: fresh.locate(KEYS[0]))
    assert cost["inversions"] == fresh_cost["inversions"] - 1


@pytest.mark.parametrize("name", sorted(CODECS))
def test_empty_node_locates_nothing_for_free(name):
    codec = CODECS[name]()
    view = codec.decode(9, codec.encode(Node(node_id=9, is_leaf=True)))
    assert spent(codec, lambda: view.locate(5)) == (
        (0, None, 0),
        dict.fromkeys(costs(codec), 0),
    )


def test_a_failing_inversion_is_still_booked():
    """A stored key outside the disguise's range raises as ``key_at``
    does, and its inversion is counted as ``key_at`` counts it."""
    codec = hs_codec()
    data = bytearray(codec.encode(LEAF))
    first_probe = LEAF.num_keys >> 1
    start = HEADER_BYTES + first_probe * codec.key_bytes
    data[start : start + codec.key_bytes] = DESIGN.v.to_bytes(codec.key_bytes, "big")
    for search in (lambda view: view.locate(KEYS[0]), lambda view: key_at_search(view, KEYS[0])):
        view = codec.decode(9, bytes(data))
        with pytest.raises(KeyUniverseError):
            search(view)
    assert costs(codec)["inversions"] == 2
