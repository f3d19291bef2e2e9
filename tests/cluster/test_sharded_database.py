"""The sharded engine: lifecycle, routing placement, and the parity suite.

The parity suite is the cluster's core contract: for identical workloads
(insert/delete/range/bulk_load, before and after reopen) the sharded
engine must return byte-identical results to a single
:class:`EncipheredDatabase`, under both routing strategies and >= 4
shards.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.manifest import ClusterManifest
from repro.cluster.router import HashRouter, RangeRouter
from repro.cluster.sharded import ShardedEncipheredDatabase, derive_shard_key
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import (
    BTreeError,
    DuplicateKeyError,
    IntegrityError,
    KeyNotFoundError,
    StorageError,
)
from repro.storage.backend import MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 4


@pytest.fixture(scope="module")
def keypairs():
    # one keypair per shard index (and index 9 for the single control);
    # module-scoped because RSA keygen dominates test runtime
    return {
        i: generate_rsa_keypair(bits=128, rng=random.Random(0x5AD + i))
        for i in [*range(NUM_SHARDS), 9]
    }


@pytest.fixture
def factories(keypairs):
    def sub_factory(i: int) -> OvalSubstitution:
        return OvalSubstitution(DESIGN, t=UNITS[i % len(UNITS)])

    def cipher_factory(i: int) -> RSA:
        return RSA(keypairs[i])

    return sub_factory, cipher_factory


def make_cluster(factories, router="hash", **kwargs):
    sub_factory, cipher_factory = factories
    return ShardedEncipheredDatabase.create(
        sub_factory, cipher_factory, num_shards=NUM_SHARDS, router=router, **kwargs
    )


def make_single(factories, keypairs, **kwargs):
    sub_factory, _ = factories
    return EncipheredDatabase.create(sub_factory(0), RSA(keypairs[9]), **kwargs)


def reopen_cluster(factories, backend, **kwargs):
    """A cluster handle rebuilt from the backend's manifest."""
    sub_factory, cipher_factory = factories
    return ShardedEncipheredDatabase.reopen_from_manifest(
        sub_factory, cipher_factory, backend, **kwargs
    )


class TestLifecycle:
    def test_crud_routes_across_shards(self, factories):
        db = make_cluster(factories)
        keys = random.Random(1).sample(range(DESIGN.v), 60)
        for k in keys:
            db.insert(k, f"r{k}".encode())
        assert len(db) == 60
        # the workload actually spread out: no shard is empty at n=60
        assert all(len(shard) > 0 for shard in db.shards)
        assert db.search(keys[0]) == f"r{keys[0]}".encode()
        assert db.get(keys[1]) == f"r{keys[1]}".encode()
        assert db.get(-1, b"fallback") == b"fallback"
        assert keys[2] in db
        db.delete(keys[0])
        assert keys[0] not in db
        with pytest.raises(KeyNotFoundError):
            db.search(keys[0])
        db.check_invariants()
        db.close()

    def test_duplicate_insert_rejected(self, factories):
        db = make_cluster(factories)
        db.insert(7, b"x")
        with pytest.raises(DuplicateKeyError):
            db.insert(7, b"again")

    def test_shards_are_private(self, factories):
        """Each shard runs its own disks, substitution and derived keys."""
        db = make_cluster(factories)
        disks = {id(shard.disk) for shard in db.shards}
        record_disks = {id(shard.records.disk) for shard in db.shards}
        substitutions = {id(shard.substitution) for shard in db.shards}
        assert len(disks) == len(record_disks) == len(substitutions) == NUM_SHARDS
        multipliers = {shard.substitution.t for shard in db.shards}
        assert len(multipliers) == NUM_SHARDS

    def test_derived_keys_distinct_and_deterministic(self):
        base = b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde"
        keys = [derive_shard_key(base, b"SUPR", i) for i in range(8)]
        assert len(set(keys)) == 8
        assert keys == [derive_shard_key(base, b"SUPR", i) for i in range(8)]
        assert derive_shard_key(base, b"DATA", 0) != keys[0]

    def test_get_many_alignment(self, factories):
        db = make_cluster(factories)
        keys = random.Random(2).sample(range(DESIGN.v), 30)
        for k in keys:
            db.insert(k, f"r{k}".encode())
        missing = next(k for k in range(DESIGN.v) if k not in keys)
        probe = [keys[5], missing, keys[0], keys[29]]
        assert db.get_many(probe) == [
            f"r{keys[5]}".encode(), None, f"r{keys[0]}".encode(),
            f"r{keys[29]}".encode(),
        ]
        assert db.get_many([missing], default=b"?") == [b"?"]
        db.close()

    def test_router_shard_count_must_match(self, factories):
        sub_factory, cipher_factory = factories
        with pytest.raises(StorageError):
            ShardedEncipheredDatabase.create(
                sub_factory, cipher_factory, num_shards=4, router=HashRouter(3)
            )
        with pytest.raises(StorageError):
            ShardedEncipheredDatabase.create(
                sub_factory, cipher_factory, num_shards=4, router="zigzag"
            )

    def test_reopen_authenticates_each_shard(self, factories):
        backend = MemoryBackend()
        db = make_cluster(factories, backend=backend)
        db.insert(5, b"x")
        # a manifest that deciphers under the wrong base secret: the
        # shard superblocks must still refuse the keys derived from it
        wrong = b"\x00" * 8
        manifest = ClusterManifest.decipher(
            backend.load_manifest(), b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde"
        )
        backend.save_manifest(manifest.encipher(wrong))
        db.close()
        with pytest.raises(IntegrityError):
            reopen_cluster(factories, backend, super_key=wrong)

    def test_bulk_load_rejects_duplicates_before_touching_shards(self, factories):
        db = make_cluster(factories)
        with pytest.raises(DuplicateKeyError):
            db.bulk_load([(1, b"a"), (2, b"b"), (1, b"c")])
        assert len(db) == 0
        db.bulk_load([(1, b"a"), (2, b"b")])
        assert db.search(1) == b"a"
        with pytest.raises(BTreeError):
            db.bulk_load([(3, b"c")])

    def test_transaction_commits_and_rolls_back_every_shard(self, factories):
        db = make_cluster(factories, router="range")
        keys = random.Random(3).sample(range(DESIGN.v), 40)
        with db.transaction():
            for k in keys:
                db.insert(k, f"t{k}".encode())
        assert len(db) == 40
        fresh = [k for k in range(DESIGN.v) if k not in keys]
        with pytest.raises(RuntimeError):
            with db.transaction():
                for k in fresh[:8]:  # touches several shards
                    db.insert(k, b"doomed")
                db.delete(keys[0])
                raise RuntimeError("abort")
        assert len(db) == 40
        assert db.search(keys[0]) == f"t{keys[0]}".encode()
        for k in fresh[:8]:
            assert k not in db
        db.check_invariants()

    def test_failed_shard_commit_is_not_rolled_back_everywhere(
        self, factories, monkeypatch
    ):
        """What a cluster transaction does *not* guarantee: the shards
        commit one at a time, last first, so a failed commit on shard k
        leaves the later shards committed, rolls the earlier ones back
        and keeps k's writes pending until its next commit."""
        db = make_cluster(factories, router="range")
        keys = [
            next(key for key in range(DESIGN.v) if db.router.shard_for(key) == i)
            for i in range(NUM_SHARDS)
        ]
        failing = 1

        def refuse():
            raise StorageError("sync refused")

        monkeypatch.setattr(db.shards[failing].disk, "sync", refuse)
        with pytest.raises(StorageError, match="sync refused"):
            with db.transaction():
                for key in keys:
                    db.insert(key, b"t")
        assert [key in db for key in keys] == [
            i >= failing for i in range(NUM_SHARDS)
        ]
        assert [shard.has_uncommitted_changes for shard in db.shards] == [
            i == failing for i in range(NUM_SHARDS)
        ]
        monkeypatch.undo()
        db.commit()
        assert not any(shard.has_uncommitted_changes for shard in db.shards)
        db.check_invariants()

    def test_fan_out_inside_transaction_does_not_deadlock(self, factories):
        """The txn thread holds every shard's write lock; fanned-out
        reads must run serially on it instead of wedging pool workers."""
        db = make_cluster(factories, router="hash")
        keys = random.Random(5).sample(range(DESIGN.v), 24)
        with db.transaction():
            for k in keys:
                db.insert(k, f"t{k}".encode())
            # all three fan-out paths, mid-transaction
            results = db.range_search(0, DESIGN.v)
            assert [k for k, _ in results] == sorted(keys)
            assert db.get_many(keys[:6]) == [f"t{k}".encode() for k in keys[:6]]
            db.check_invariants()
        assert len(db) == 24
        db.close()

    def test_stats_aggregate_and_summary(self, factories):
        db = make_cluster(factories)
        for k in random.Random(4).sample(range(DESIGN.v), 50):
            db.insert(k, b"payload")
        stats = db.stats()
        assert stats.num_shards == NUM_SHARDS
        assert stats.total_size == 50 == sum(stats.shard_sizes)
        agg = stats.aggregate
        assert agg["size"] == 50
        assert agg["node_disk"]["writes"] == sum(
            s["node_disk"]["writes"] for s in stats.per_shard
        )
        assert agg["pointer_cipher"]["encryptions"] > 0
        assert stats.imbalance >= 1.0
        assert "cluster (hash, 4 shards): 50 keys" in stats.summary()


class WorkloadMixin:
    """The parity suite body, parameterised by router construction."""

    router = "hash"

    def run_workload(self, db):
        rng = random.Random(0xAB)
        keys = rng.sample(range(DESIGN.v), 90)
        for k in keys[:70]:
            db.insert(k, f"rec-{k}".encode())
        for k in keys[:20]:
            db.delete(k)
        for k in keys[70:]:
            db.insert(k, f"rec-{k}".encode())
        return keys

    def assert_parity(self, sharded, single, keys):
        assert len(sharded) == len(single)
        assert sharded.range_search(0, DESIGN.v) == single.range_search(0, DESIGN.v)
        for lo in range(0, DESIGN.v, 37):
            assert sharded.range_search(lo, lo + 25) == single.range_search(lo, lo + 25)
        assert list(sharded.items()) == list(single.items())
        for k in keys:
            assert sharded.get(k) == single.get(k)
            assert (k in sharded) == (k in single)

    def test_mutation_parity_and_reopen(self, factories, keypairs):
        cluster_backend, single_backend = MemoryBackend(), MemoryBackend()
        sharded = make_cluster(factories, router=self.router, backend=cluster_backend)
        single = make_single(factories, keypairs, backend=single_backend)
        keys = self.run_workload(sharded)
        assert self.run_workload(single) == keys
        self.assert_parity(sharded, single, keys)
        sharded.check_invariants()

        sub_factory, _ = factories
        sharded.close()
        single.close()
        reopened_sharded = reopen_cluster(factories, cluster_backend)
        reopened_single = EncipheredDatabase.reopen_from_backend(
            sub_factory(0), RSA(keypairs[9]), single_backend
        )
        self.assert_parity(reopened_sharded, reopened_single, keys)
        # reopened handles stay writable and consistent
        fresh = next(k for k in range(DESIGN.v) if reopened_single.get(k) is None)
        reopened_sharded.insert(fresh, b"fresh")
        reopened_single.insert(fresh, b"fresh")
        self.assert_parity(reopened_sharded, reopened_single, [*keys, fresh])
        reopened_sharded.close()

    def test_bulk_load_parity_and_reopen(self, factories, keypairs):
        items = [
            (k, f"bulk-{k}".encode())
            for k in random.Random(0xB1).sample(range(DESIGN.v), 80)
        ]
        backend = MemoryBackend()
        sharded = make_cluster(factories, router=self.router, backend=backend)
        single = make_single(factories, keypairs)
        sharded.bulk_load(items)
        single.bulk_load(items)
        self.assert_parity(sharded, single, [k for k, _ in items])
        sharded.check_invariants()

        sharded.close()
        reopened = reopen_cluster(factories, backend)
        self.assert_parity(reopened, single, [k for k, _ in items])
        reopened.close()


class TestParityHashRouting(WorkloadMixin):
    router = "hash"


class TestParityRangeRouting(WorkloadMixin):
    router = "range"


class TestParityExplicitRouterInstance(WorkloadMixin):
    """A hand-built router object must behave like its string shorthand."""

    router = RangeRouter.uniform(NUM_SHARDS, range(DESIGN.v))
