"""The ``stats()`` key set, pinned as a literal.

``EncipheredDatabase.stats()`` and ``ClusterStats.aggregate`` are the
surfaces benchmarks, the cluster rollup and operators read.  A key that
appears or disappears is an interface change, so the whole nested key
tree is spelled out here: any drift fails this test and has to be made
on purpose, in the literal below.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.substitution.oval import OvalSubstitution

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "canonical"))
import harness  # noqa: E402  (the canonical benchmark's counter reader)

DESIGN = planar_difference_set(13)  # v = 183

_DISK = ("reads", "writes", "overwrites", "bytes_read", "bytes_written",
         "read_time_s", "write_time_s", "fsyncs", "header_flips")
_DURABILITY = ("syncs", "wal_frames", "wal_bytes", "header_flips",
               "frames_replayed", "blocks_repaired", "checkpoints")
_FAULTS = ("injected_transient", "injected_permanent", "injected_latency",
           "injected_torn", "injected_crashes", "retries", "retries_exhausted")
_CACHE = ("hits", "misses", "insertions", "evictions", "invalidations")
_INSTRUMENTS = (
    "db.get", "db.put", "db.delete", "db.put_many", "db.delete_many",
    "db.range_search", "db.bulk_load", "db.commit",
    "pager.read", "pager.write", "pager.flush",
    "cipher.record_encrypt", "cipher.record_decrypt",
    "platter.wal_append", "platter.fsync", "platter.header_flip",
    "device.fault_retry",
)
_HISTOGRAM = ("count", "total_ns") + tuple(f"le_{i:02d}" for i in range(28))

#: The nested key tree: a tuple lists leaf keys, a dict nests further.
STATS_KEYS = {
    "size": None,
    "node_disk": _DISK,
    "record_disk": _DISK,
    "pager": ("hits", "misses", "write_requests", "disk_writes", "dirty_evictions"),
    "durability": {"node": _DURABILITY, "records": _DURABILITY},
    "faults": {"node": _FAULTS, "records": _FAULTS},
    "record_cipher": ("encryptions", "decryptions"),
    "record_cache": _CACHE,
    "pointer_cipher": ("encryptions", "decryptions"),
    "substitution": ("substitutions", "inversions"),
    "tree": ("comparisons", "nodes_visited", "splits", "merges", "borrows"),
    "observability": {
        "latency": {name: _HISTOGRAM for name in _INSTRUMENTS},
    },
}


def key_tree(stats: dict) -> dict:
    """``stats`` reduced to its keys, in :data:`STATS_KEYS`' notation."""
    tree = {}
    for key, value in stats.items():
        if not isinstance(value, dict):
            tree[key] = None
        elif all(not isinstance(v, dict) for v in value.values()):
            tree[key] = tuple(value)
        else:
            tree[key] = key_tree(value)
    return tree


def _cipher(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x5A + i)))


@pytest.fixture
def database():
    db = EncipheredDatabase.create(OvalSubstitution(DESIGN, t=5), _cipher(0))
    db.insert(7, b"seven")
    yield db
    db.close()


@pytest.fixture
def cluster():
    cluster = ShardedEncipheredDatabase.create(
        lambda i: OvalSubstitution(DESIGN, t=5), _cipher, num_shards=2
    )
    cluster.insert(7, b"seven")
    yield cluster
    cluster.close()


def test_database_stats_key_tree(database):
    assert key_tree(database.stats()) == STATS_KEYS


def test_cluster_aggregate_key_tree(cluster):
    assert key_tree(cluster.stats().aggregate) == STATS_KEYS


def test_canonical_benchmark_reads_only_pinned_keys(database, cluster):
    # engine_counts indexes stats() directly: a missing key is a KeyError
    for store in (database, cluster):
        counts = harness.engine_counts(store)
        assert counts["nodes_visited"] > 0
