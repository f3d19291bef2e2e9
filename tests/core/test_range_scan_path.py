"""A range search walks the tree and fetches records on one blocking path.

The walk reads only the nodes it routes through, and the record fetch
(``RecordStore.get_many``) reads every matching slot window in one
device batch.  Neither may change the paper's counted operations --
substitutions, pointer-cipher calls, record-cipher calls -- against the
plain point-lookup loop, and every result must match ``items()``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.storage.backend import MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0x8A))
WINDOWS = ((0, 40), (30, 90), (100, 159), (0, 159), (41, 41), (170, 182))


def make_db(**kwargs):
    sub = OvalSubstitution(DESIGN, t=5)
    db = EncipheredDatabase.create(
        sub, RSA(KEYPAIR), backend=MemoryBackend(), **kwargs
    )
    for k in range(0, 160, 2):
        db.insert(k, f"rec-{k}".encode())
    return db


def cipher_counts(db):
    s = db.stats()
    return {
        "substitution": s["substitution"],
        "pointer_cipher": s["pointer_cipher"],
        "record_cipher": s["record_cipher"],
    }


class TestRangeScanPath:
    @pytest.mark.parametrize("lo,hi", WINDOWS)
    def test_cold_scan_matches_items(self, lo, hi):
        db = make_db()
        try:
            expected = [(k, v) for k, v in db.items() if lo <= k <= hi]
            db.clear_caches()
            assert db.range_search(lo, hi) == expected
        finally:
            db.close()

    def test_scan_costs_the_ciphers_of_the_point_lookup_loop(self):
        scanned, looped = make_db(), make_db()
        try:
            assert cipher_counts(scanned) == cipher_counts(looped)
            got = scanned.range_search(10, 120)
            matches = looped.tree.range_search(10, 120)
            want = [(k, looped.records.get(rid)) for k, rid in matches]
            assert got == want
            assert cipher_counts(scanned) == cipher_counts(looped)
        finally:
            scanned.close()
            looped.close()

    def test_repeated_cold_scans_cost_the_same(self):
        db = make_db()
        try:
            costs = []
            for _ in range(2):
                db.clear_caches()
                before = cipher_counts(db)
                db.range_search(0, 159)
                after = cipher_counts(db)
                costs.append(_delta(before, after))
            assert costs[0] == costs[1]
        finally:
            db.close()

    def test_record_cache_changes_cost_never_results(self):
        plain, cached = make_db(), make_db(record_cache_blocks=16)
        try:
            for lo, hi in WINDOWS:
                assert cached.range_search(lo, hi) == plain.range_search(lo, hi)
        finally:
            plain.close()
            cached.close()


def _delta(before, after):
    out = {}
    for name, counts in after.items():
        if isinstance(counts, dict):
            out[name] = _delta(before[name], counts)
        else:
            out[name] = counts - before[name]
    return out
