"""The superblock is a durable cluster's only commit point.

A shard on durable devices syncs at ``commit()`` and nowhere else: with
``autocommit=False`` a run of cluster writes reaches the WAL only when
the caller commits.  A process that dies mid-batch therefore leaves
every shard at its last commit, and the manifest-driven reopen lands
there exactly, as a single database does.
"""

from __future__ import annotations

import random

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.storage.backend import FileBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 2


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 3 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC0 + i)))


def backend_at(tmp_path) -> FileBackend:
    return FileBackend(tmp_path / "cluster", fsync=False)


def committed_cluster(tmp_path):
    """A 2-shard file-backed cluster holding 30 committed rows."""
    keys = random.Random(0xC01).sample(range(DESIGN.v), 60)
    cluster = ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=NUM_SHARDS,
        min_degree=2,
        autocommit=False,
        backend=backend_at(tmp_path),
    )
    committed = {k: f"c{k}".encode() for k in keys[:30]}
    cluster.put_many(committed.items())
    cluster.commit()
    assert cluster.range_search(0, DESIGN.v) == sorted(committed.items())
    return cluster, committed, keys[30:]


def device_syncs(cluster) -> int:
    return sum(
        device.durability_snapshot()["syncs"]
        for shard in cluster.shards
        for device in (shard.disk, shard.records.disk)
    )


def crash(cluster) -> None:
    """The process dies: no sync, no close."""
    for shard in cluster.shards:
        shard.disk.abandon()
        shard.records.disk.abandon()


def test_uncommitted_writes_do_not_sync(tmp_path):
    cluster, committed, fresh = committed_cluster(tmp_path)
    try:
        before = device_syncs(cluster)
        for k in fresh[:20]:
            cluster.insert(k, f"u{k}".encode())
        assert device_syncs(cluster) == before
        cluster.commit()
        # one sync per device of every shard the batch touched
        assert 0 < device_syncs(cluster) - before <= 2 * NUM_SHARDS
    finally:
        cluster.close()


def test_crash_mid_batch_reopens_at_the_last_commit(tmp_path):
    cluster, committed, fresh = committed_cluster(tmp_path)
    for k in fresh[:20]:
        cluster.insert(k, f"u{k}".encode())
    cluster.delete(next(iter(committed)))
    crash(cluster)

    reopened = ShardedEncipheredDatabase.reopen_from_manifest(
        sub_factory, cipher_factory, backend_at(tmp_path)
    )
    try:
        reopened.check_invariants()
        assert len(reopened) == len(committed)
        assert reopened.range_search(0, DESIGN.v) == sorted(committed.items())
    finally:
        reopened.close()


def test_autocommit_batches_survive_a_crash(tmp_path):
    """With ``autocommit=True`` a ``bulk_load``, ``put_many`` or
    ``delete_many`` has returned only once its shards are durable, so a
    crash right after it must not lose the batch."""
    keys = random.Random(0xC02).sample(range(DESIGN.v), 60)
    cluster = ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=NUM_SHARDS,
        min_degree=2,
        autocommit=True,
        backend=backend_at(tmp_path),
    )
    expected = {k: f"b{k}".encode() for k in keys[:30]}
    cluster.bulk_load(expected.items())
    batch = {k: f"p{k}".encode() for k in keys[30:]}
    cluster.put_many(batch.items())
    expected.update(batch)
    gone = keys[:4] + keys[30:34]
    cluster.delete_many(gone)
    for k in gone:
        del expected[k]
    crash(cluster)

    reopened = ShardedEncipheredDatabase.reopen_from_manifest(
        sub_factory, cipher_factory, backend_at(tmp_path)
    )
    try:
        reopened.check_invariants()
        assert reopened.range_search(0, DESIGN.v) == sorted(expected.items())
    finally:
        reopened.close()
