"""The enciphered cluster manifest and manifest-driven cluster reopen.

Extends the crash matrix to the cluster layer: a cluster created on
durable backends, killed mid-commit on one shard (after its WAL seal),
reopens from the directory and the base secrets *alone* -- shard
count, router and key-derivation labels all come from the manifest,
each shard's geometry from its own platter and superblock -- and
recovers every committed row.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.cluster.manifest import ClusterManifest
from repro.cluster.router import HashRouter, RangeRouter
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import PlatterFormatError, StorageError
from repro.storage.backend import FileBackend, MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 3
KEYPAIRS = {
    i: generate_rsa_keypair(bits=128, rng=random.Random(0xCA0 + i))
    for i in range(NUM_SHARDS)
}


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(KEYPAIRS[i])


def make_cluster(backend, router="range", **kwargs):
    return ShardedEncipheredDatabase.create(
        sub_factory, cipher_factory, num_shards=NUM_SHARDS,
        router=router, backend=backend, **kwargs
    )


def reopen_cluster(backend, **kwargs):
    return ShardedEncipheredDatabase.reopen_from_manifest(
        sub_factory, cipher_factory, backend, **kwargs
    )


def backend_at(tmp_path):
    return FileBackend(tmp_path / "cluster", fsync=False)


class Kill(Exception):
    pass


class TestManifestFormat:
    def roundtrip(self, manifest):
        return ClusterManifest.from_bytes(manifest.to_bytes())

    def test_plain_roundtrip(self):
        m = ClusterManifest(
            num_shards=3, router_kind="range", shard_scopes=["a", "b", "c"],
            router_boundaries=[61, 122],
        )
        assert self.roundtrip(m) == m

    def test_hash_router_roundtrip(self):
        m = ClusterManifest(
            num_shards=2, router_kind="hash", shard_scopes=["s0", "s1"],
        )
        back = self.roundtrip(m)
        assert back == m
        assert isinstance(back.build_router(), HashRouter)

    def test_enciphered_roundtrip_and_wrong_key(self):
        m = ClusterManifest(
            num_shards=2, router_kind="hash", shard_scopes=["s0", "s1"],
        )
        blob = m.encipher(b"\x01" * 8)
        assert blob[:8] != b"HSMF1990"  # actually enciphered
        assert ClusterManifest.decipher(blob, b"\x01" * 8) == m
        with pytest.raises(PlatterFormatError):
            ClusterManifest.decipher(blob, b"\x02" * 8)

    def test_describe_and_rebuild_routers(self):
        kind, bounds = ClusterManifest.describe_router(RangeRouter([10, 20]))
        assert (kind, bounds) == ("range", [10, 20])  # 3 shards
        m = ClusterManifest(
            num_shards=3, router_kind=kind, router_boundaries=bounds, shard_scopes=["a", "b", "c"],
        )
        rebuilt = m.build_router()
        assert isinstance(rebuilt, RangeRouter)
        assert rebuilt.boundaries == [10, 20]

    def test_corruption_detected(self):
        m = ClusterManifest(
            num_shards=2, router_kind="hash", shard_scopes=["a", "b"],
        )
        raw = bytearray(m.to_bytes())
        raw[10] ^= 0xFF
        with pytest.raises(PlatterFormatError, match="checksum"):
            ClusterManifest.from_bytes(bytes(raw))
        with pytest.raises(PlatterFormatError, match="magic"):
            ClusterManifest.from_bytes(b"garbage-bytes-here")

    def test_shard_scope_count_must_match(self):
        m = ClusterManifest(
            num_shards=3, router_kind="hash", shard_scopes=["a", "b"],
        )
        with pytest.raises(PlatterFormatError, match="scope names"):
            self.roundtrip(m)

    def test_geometry_tags_of_older_manifests_are_skipped(self):
        """A manifest that still records the block and record sizes
        (tags 4 and 5) reads as before: each shard describes itself."""
        entries = [
            (1, struct.pack("<I", 2)), (2, b"hash"),
            (4, struct.pack("<I", 512)), (5, struct.pack("<I", 120)),
            (6, b"SUPR"), (7, b"DATA"), (8, b"a"), (8, b"b"),
        ]
        body = b"HSMF1990" + struct.pack("<HI", 1, len(entries)) + b"".join(
            struct.pack("<BI", tag, len(payload)) + payload for tag, payload in entries
        )
        raw = body + struct.pack("<I", zlib.crc32(body))
        assert ClusterManifest.from_bytes(raw) == ClusterManifest(
            num_shards=2, router_kind="hash", shard_scopes=["a", "b"]
        )

    def test_unrecordable_router_rejected(self):
        class Weird:
            pass

        with pytest.raises(StorageError, match="cannot be recorded"):
            ClusterManifest.describe_router(Weird())


class TestManifestReopen:
    def seed(self, db, seed=7, n=80):
        keys = random.Random(seed).sample(range(DESIGN.v), n)
        for k in keys:
            db.insert(k, f"payload-{k}".encode())
        db.commit()
        return keys

    def test_reopen_from_directory_and_secrets_alone(self, tmp_path):
        db = make_cluster(backend_at(tmp_path))
        keys = self.seed(db)
        db.close()

        db2 = reopen_cluster(backend_at(tmp_path))
        assert db2.num_shards == NUM_SHARDS
        assert isinstance(db2.router, RangeRouter)
        assert db2.router.boundaries == db.router.boundaries
        for k in keys:
            assert db2.search(k) == f"payload-{k}".encode()
        assert len(db2.range_search(0, DESIGN.v)) == len(keys)
        db2.close()

    def test_hash_router_survives_the_roundtrip(self, tmp_path):
        db = make_cluster(backend_at(tmp_path), router="hash")
        keys = self.seed(db)
        db.close()
        db2 = reopen_cluster(backend_at(tmp_path))
        assert isinstance(db2.router, HashRouter)
        for k in keys:
            assert db2.search(k) == f"payload-{k}".encode()
        db2.close()

    def test_memory_backend_manifest_roundtrip(self):
        backend = MemoryBackend()
        db = make_cluster(backend)
        keys = self.seed(db)
        db.close()
        db2 = reopen_cluster(backend)
        for k in keys[:10]:
            assert db2.search(k) == f"payload-{k}".encode()

    def test_wrong_super_key_fails_cleanly(self, tmp_path):
        db = make_cluster(backend_at(tmp_path))
        self.seed(db)
        db.close()
        with pytest.raises(PlatterFormatError):
            reopen_cluster(backend_at(tmp_path), super_key=b"\x00" * 8)

    def test_missing_manifest_fails_cleanly(self, tmp_path):
        with pytest.raises(StorageError, match="no manifest"):
            reopen_cluster(FileBackend(tmp_path / "empty", fsync=False))

    def test_kill_one_shard_mid_commit_then_manifest_recovery(self, tmp_path):
        db = make_cluster(backend_at(tmp_path), autocommit=False)
        keys = self.seed(db)
        extra = [k for k in range(DESIGN.v) if k not in keys][:15]
        for k in extra:
            db.insert(k, f"late-{k}".encode())

        victim = db.shards[db.router.shard_for(extra[0])]

        def bomb(point):
            if point == "wal:appended":
                raise Kill

        victim.disk.fault_hook = bomb
        with pytest.raises(Kill):
            db.commit()
        for shard in db.shards:  # the process dies: no sync, no close
            shard.disk.abandon()
            shard.records.disk.abandon()

        db2 = reopen_cluster(backend_at(tmp_path))
        replayed = sum(
            s.stats()["durability"]["node"]["frames_replayed"]
            + s.stats()["durability"]["records"]["frames_replayed"]
            for s in db2.shards
        )
        assert replayed >= 1
        for k in keys:
            assert db2.search(k) == f"payload-{k}".encode()
        # the victim sealed its WAL before dying: its batch is durable
        for k in extra:
            if db.router.shard_for(k) == db.router.shard_for(extra[0]):
                assert db2.search(k) == f"late-{k}".encode()
        db2.close()

    def test_recovered_cluster_is_byte_identical_to_control(self, tmp_path):
        """Acceptance: kill mid-commit, reopen via the manifest alone,
        compare every shard's at-rest bytes against an in-memory
        control cluster that committed the same operations cleanly."""
        db = make_cluster(backend_at(tmp_path), autocommit=False)
        keys = self.seed(db)
        extra = [k for k in range(DESIGN.v) if k not in keys][:15]
        victim_idx = db.router.shard_for(extra[0])
        batch = [k for k in extra if db.router.shard_for(k) == victim_idx]
        for k in batch:
            db.insert(k, f"late-{k}".encode())
        db.shards[victim_idx].disk.fault_hook = (
            lambda p: (_ for _ in ()).throw(Kill) if p == "wal:appended" else None
        )
        with pytest.raises(Kill):
            db.commit()
        for shard in db.shards:
            shard.disk.abandon()
            shard.records.disk.abandon()
        recovered = reopen_cluster(backend_at(tmp_path))

        control = make_cluster(MemoryBackend(), autocommit=False)
        self.seed(control)
        for k in batch:
            control.insert(k, f"late-{k}".encode())
        control.commit()

        for mine, theirs in zip(recovered.shards, control.shards):
            assert mine.disk.raw_blocks() == theirs.disk.raw_blocks()
            assert (mine.records.disk.raw_blocks()
                    == theirs.records.disk.raw_blocks())
        recovered.close()

    def test_reopened_cluster_accepts_writes_and_reopens_again(self, tmp_path):
        db = make_cluster(backend_at(tmp_path))
        keys = self.seed(db)
        db.close()
        db2 = reopen_cluster(backend_at(tmp_path))
        fresh = next(k for k in range(DESIGN.v) if k not in keys)
        db2.insert(fresh, b"second-generation")
        db2.commit()
        db2.close()
        db3 = reopen_cluster(backend_at(tmp_path))
        assert db3.search(fresh) == b"second-generation"
        db3.close()
