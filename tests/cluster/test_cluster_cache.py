"""Cluster-level cache behaviour and the reopen routing validation.

The parity suite here extends the cluster's core contract to the cache
hierarchy: a fully-cached cluster must return byte-identical results to
an uncached one (and to an uncached single database) over both routing
strategies, across deletes, transactions and reopen.  The reopen tests
cover the fail-fast validation of the manifest's router against the
actual key placement.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cluster.manifest import ClusterManifest
from repro.cluster.router import HashRouter, RangeRouter
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import IntegrityError, StorageError
from repro.storage.backend import MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 4
SUPER_KEY = b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde"  # the cluster default

CACHED = {"record_cache_blocks": 64}


@pytest.fixture(scope="module")
def keypairs():
    return {
        i: generate_rsa_keypair(bits=128, rng=random.Random(0xCA0 + i))
        for i in range(NUM_SHARDS)
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


def reopen_cluster(factories, backend, **kwargs):
    sub_factory, cipher_factory = factories
    return ShardedEncipheredDatabase.reopen_from_manifest(
        sub_factory, cipher_factory, backend, **kwargs
    )


def run_workload(db, rng_seed: int) -> list:
    """A mixed workload; returns every observable result for comparison."""
    rng = random.Random(rng_seed)
    keys = rng.sample(range(DESIGN.v), 90)
    observed = []
    for k in keys:
        db.insert(k, f"r{k}".encode())
    for k in keys[::9]:
        db.delete(k)
    live = [k for i, k in enumerate(keys) if i % 9]
    for k in live[:30]:
        observed.append(db.search(k))
    for lo in range(0, DESIGN.v, 37):
        observed.append(db.range_search(lo, lo + 36))
    observed.append(db.get_many(keys[:25], default=b"?"))
    observed.append(sorted(db.items(), key=lambda kv: kv[0]))
    observed.append(len(db))
    return observed


class TestClusterParity:
    @pytest.mark.parametrize("router", ["hash", "range"])
    def test_cached_matches_uncached(self, factories, router):
        cached = make_cluster(factories, router=router, **CACHED)
        control = make_cluster(factories, router=router)
        assert run_workload(cached, 11) == run_workload(control, 11)
        cached.check_invariants()
        cached.close()
        control.close()

    @pytest.mark.parametrize("router", ["hash", "range"])
    def test_cached_parity_survives_reopen(self, factories, router):
        cached_backend, control_backend = MemoryBackend(), MemoryBackend()
        cached = make_cluster(factories, router=router, backend=cached_backend, **CACHED)
        control = make_cluster(factories, router=router, backend=control_backend)
        run_workload(cached, 23)
        run_workload(control, 23)
        cached.close()
        control.close()
        reopened_cached = reopen_cluster(factories, cached_backend, **CACHED)
        reopened_control = reopen_cluster(factories, control_backend)
        assert sorted(reopened_cached.items()) == sorted(reopened_control.items())
        # reopen is cold: the items() walk above deciphered every block anew
        stats = reopened_cached.stats()
        assert stats.record_cache["misses"] > 0
        reopened_cached.close()
        reopened_control.close()

    def test_cached_cluster_decrypts_less_when_warm(self, factories):
        db = make_cluster(factories, router="range", **CACHED)
        db.bulk_load((k, f"r{k}".encode()) for k in range(0, DESIGN.v, 2))
        queries = [(lo, lo + 30) for lo in range(0, DESIGN.v - 30, 13)]
        for lo, hi in queries:
            db.range_search(lo, hi)  # warm
        before = db.stats().aggregate["record_cipher"]["decryptions"]
        warm_results = [db.range_search(lo, hi) for lo, hi in queries]
        after = db.stats().aggregate["record_cipher"]["decryptions"]
        assert after == before  # fully warm: zero record decryptions
        assert warm_results[0]  # and the queries actually returned data
        assert db.stats().record_cache_hit_rate > 0.5
        db.close()


class TestClusterCacheStats:
    def test_rollup_and_summary(self, factories):
        db = make_cluster(factories, **CACHED)
        for k in random.Random(3).sample(range(DESIGN.v), 40):
            db.insert(k, b"x")
        db.range_search(0, DESIGN.v)
        db.range_search(0, DESIGN.v)
        stats = db.stats()
        per_shard_hits = sum(s["record_cache"]["hits"] for s in stats.per_shard)
        assert stats.record_cache["hits"] == per_shard_hits
        assert 0.0 < stats.record_cache_hit_rate <= 1.0
        assert "record cache" in stats.summary()
        db.close()

    def test_clear_caches_chills_every_shard(self, factories):
        db = make_cluster(factories, **CACHED)
        for k in range(0, 100, 5):
            db.insert(k, b"x")
        db.range_search(0, 100)
        db.clear_caches()
        assert all(len(s.records.cache) == 0 for s in db.shards)
        assert db.range_search(0, 100) == [
            (k, b"x") for k in range(0, 100, 5)
        ]
        db.close()


class TestReopenValidation:
    """The manifest authenticates the configuration; the placement
    check cross-checks it against the data.  Each reject test saves a
    mismatched manifest under the right key, as a stale or doctored
    configuration would be, and the reopen must refuse it."""

    def load(self, factories, router="hash"):
        backend = MemoryBackend()
        db = make_cluster(factories, router=router, backend=backend)
        for k in random.Random(5).sample(range(DESIGN.v), 60):
            db.insert(k, f"r{k}".encode())
        db.close()
        return backend

    @staticmethod
    def resave(backend, **changes):
        """Replace the stored manifest with an edited copy."""
        manifest = ClusterManifest.decipher(backend.load_manifest(), SUPER_KEY)
        edited = dataclasses.replace(manifest, **changes)
        backend.save_manifest(edited.encipher(SUPER_KEY))

    def test_reopen_with_matching_router_succeeds(self, factories):
        backend = self.load(factories, router="hash")
        reopened = reopen_cluster(factories, backend)
        assert len(reopened) == 60
        reopened.close()

    def test_reopen_with_wrong_router_kind_fails_fast(self, factories):
        backend = self.load(factories, router="hash")
        uniform = RangeRouter.uniform(NUM_SHARDS, range(DESIGN.v))
        self.resave(
            backend, router_kind="range", router_boundaries=list(uniform.boundaries)
        )
        with pytest.raises(StorageError, match="router mismatch"):
            reopen_cluster(factories, backend)

    def test_reopen_with_wrong_boundaries_fails_fast(self, factories):
        backend = self.load(factories, router="range")
        # shard 3 would own nearly everything
        self.resave(backend, router_boundaries=[2, 4, 6])
        with pytest.raises(StorageError, match="router mismatch"):
            reopen_cluster(factories, backend)

    def test_reopen_with_shuffled_parts_fails_fast(self, factories):
        backend = self.load(factories, router="range")
        scopes = [f"shard-{i:03d}" for i in range(NUM_SHARDS)]
        scopes[0], scopes[-1] = scopes[-1], scopes[0]
        self.resave(backend, shard_scopes=scopes)
        with pytest.raises((StorageError, IntegrityError)):
            # shard 0's superblock no longer authenticates under shard 0's
            # derived key, or -- if it somehow did -- routing validation
            # rejects the placement; either way reopen refuses
            reopen_cluster(factories, backend)

    def test_check_invariants_rejects_a_wrong_router(self, factories):
        backend = self.load(factories, router="range")
        reopened = reopen_cluster(factories, backend)
        reopened.router = HashRouter(NUM_SHARDS)
        with pytest.raises(StorageError, match="router mismatch"):
            reopened.check_invariants()
