"""Read descents book exact counts, per operation, on a canonical-shaped store.

Point and range descents keep their probe and visit tallies in locals
and land them in the thread's counter bucket once per operation.  These
tests pin the counts a fixed list of reads costs -- tree probes and node
visits, disguise inversions, pointer decryptions -- on a store shaped
like the canonical benchmark's (order-37 oval, RSA-128, minimum degree
4, 1,200 keys), so a change to how the counts are booked cannot change
what they say.  Descents that raise half way book the work they did, and
concurrent readers merge to exactly their serial sum.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.btree.codec import HEADER_BYTES
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs import non_multiplier_units, planar_difference_set
from repro.exceptions import IntegrityError, KeyNotFoundError
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407
UNIT = non_multiplier_units(DESIGN)[3]
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0x1990))
NUM_KEYS = 1200

_rng = random.Random(1990)
KEYS = _rng.sample(range(DESIGN.v), NUM_KEYS)
ITEMS = [(key, _rng.randbytes(48)) for key in KEYS]
ABSENT = sorted(set(range(DESIGN.v)) - set(KEYS))

#: The fixed read list: present gets, absent gets, then ranges.
READS = (
    [("get", key) for key in KEYS[:24]]
    + [("get", key) for key in ABSENT[::40]]
    + [("range", lo, lo + span) for lo, span in ((0, 24), (300, 5), (700, 60), (1380, 40))]
)

#: What READS costs on one thread.
READS_COUNTS = {
    "nodes_visited": 147,
    "comparisons": 606,
    "inversions": 448,
    "decryptions": 229,
}


def make_db() -> EncipheredDatabase:
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=UNIT), RSA(KEYPAIR), min_degree=4
    )
    db.bulk_load(ITEMS)
    return db


def reset(db: EncipheredDatabase) -> None:
    db.tree.counters.reset()
    db.substitution.counters.reset()
    db.pointer_cipher.reset_counts()


def counts(db: EncipheredDatabase) -> dict[str, int]:
    return {
        "nodes_visited": db.tree.counters.nodes_visited,
        "comparisons": db.tree.counters.comparisons,
        "inversions": db.substitution.counters.inversions,
        "decryptions": db.pointer_cipher.counts.decryptions,
    }


def run_reads(db: EncipheredDatabase) -> None:
    records = dict(ITEMS)
    for op in READS:
        if op[0] == "get":
            assert db.get(op[1]) == records.get(op[1])
        else:
            _, lo, hi = op
            got = db.range_search(lo, hi)
            assert got == sorted((k, v) for k, v in records.items() if lo <= k <= hi)


@pytest.fixture(scope="module")
def db() -> EncipheredDatabase:
    return make_db()


def test_read_list_costs_pinned_counts(db):
    reset(db)
    run_reads(db)
    assert counts(db) == READS_COUNTS


def test_absent_key_descent_books_its_work(db):
    reset(db)
    with pytest.raises(KeyNotFoundError):
        db.search(ABSENT[7])
    assert counts(db) == {
        "nodes_visited": 4,
        "comparisons": 15,
        "inversions": 11,
        "decryptions": 3,
    }


def _path_to(db: EncipheredDatabase, key: int) -> list[int]:
    """Block ids from the root down to the node holding ``key``."""
    path = [db.tree.root_id]
    while True:
        node = db.tree._node(path[-1])
        if key in node.keys:
            return path
        path.append(node.children[sum(1 for k in node.keys if k < key)])


def _plant_foreign(db: EncipheredDatabase, target: int, slot: int, source: int) -> None:
    """Overwrite cryptogram ``slot`` of block ``target`` with block
    ``source``'s first cryptogram -- valid, but bound to another block."""
    codec = db.tree.codec
    foreign = codec.decode(source, db.disk.read_block(source)).stored_cryptogram(0)
    data = bytearray(db.disk.read_block(target))
    num_keys = codec.decode(target, bytes(data)).num_keys
    start = HEADER_BYTES + num_keys * codec.key_bytes + slot * codec.cryptogram_bytes
    data[start : start + len(foreign)] = foreign
    db.disk.write_block(target, bytes(data))
    db.tree.pager.clear_cache()


@pytest.mark.parametrize(
    "where, expected",
    [
        ("leaf", {"nodes_visited": 4, "comparisons": 15, "inversions": 11, "decryptions": 4}),
        ("root", {"nodes_visited": 1, "comparisons": 3, "inversions": 2, "decryptions": 1}),
    ],
)
def test_foreign_cryptogram_descent_books_its_work(where, expected):
    db = make_db()
    key = KEYS[11]
    path = _path_to(db, key)
    assert len(path) >= 3, "the key must sit below the root's children"
    if where == "leaf":
        # the key's own triplet: the descent fails at the data pointer
        target, source = path[-1], path[-2]
        slot = db.tree._node(target).keys.index(key)
    else:
        # the root's pointer on the key's path: the descent fails at once
        target, source = path[0], path[1]
        slot = db.tree._node(target).children.index(path[1])
    _plant_foreign(db, target, slot, source)
    reset(db)
    with pytest.raises(IntegrityError):
        db.search(key)
    assert counts(db) == expected


def test_concurrent_readers_merge_to_exact_multiples(db):
    reset(db)
    start = threading.Barrier(4)
    errors: list[Exception] = []

    def reader() -> None:
        try:
            start.wait(timeout=30)
            run_reads(db)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert counts(db) == {field: 4 * value for field, value in READS_COUNTS.items()}
