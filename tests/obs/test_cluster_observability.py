"""Observability watches and never changes what the engine does.

A cluster's merged instrument *counts* in ``stats()["observability"]``
count every operation exactly once, whichever shard ran it.  Switching
the plane on changes neither cipher counts nor a byte at rest.
"""

from __future__ import annotations

import random

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.obs import INSTRUMENTS, ObsConfig
from repro.storage.backend import FileBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)


def sub_factory(i: int):
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0x0B5 + i)))


def cipher(i: int = 0) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xEA7 + i)))


def make_cluster(enabled: bool = True) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=4,
        router="hash",
        block_size=512,
        min_degree=2,
        observability=ObsConfig(enabled=enabled),
    )


def run_workload(cluster: ShardedEncipheredDatabase) -> None:
    rng = random.Random(0x0B5E)
    sample = rng.sample(range(DESIGN.v), 60)
    cluster.bulk_load([(k, f"rec{k}".encode()) for k in sample])
    cluster.range_search(0, DESIGN.v)
    cluster.get_many(sample[:20])
    absent = [k for k in range(DESIGN.v) if k not in sample]
    cluster.put_many([(k, b"n") for k in rng.sample(absent, 8)])
    cluster.delete_many(sample[:3])
    cluster.range_search(0, DESIGN.v // 2)
    for key in sample[10:15]:
        cluster.search(key)


def observed_counts(cluster: ShardedEncipheredDatabase) -> dict[str, int]:
    """Instrument name -> merged span count, after ``close()``.

    ``device.fault_retry`` is left out: under an environment-armed fault
    plan (the REPRO_FAULTS CI job) its count follows the per-device
    injection schedule, not the workload.
    """
    cluster.close()
    return {
        name: snap["count"]
        for name, snap in cluster.stats().latency.items()
        if name != "device.fault_retry"
    }


class TestMergedCounts:
    def test_every_operation_is_counted_once(self):
        cluster = make_cluster()
        run_workload(cluster)
        counts = observed_counts(cluster)
        # 2 cluster-level range searches, fanned out to all 4 shards
        assert counts["db.range_search"] == 8
        assert counts["db.bulk_load"] > 0
        assert counts["pager.read"] > 0


class TestDisabledCluster:
    def test_disabled_reports_all_zero(self):
        cluster = make_cluster(enabled=False)
        run_workload(cluster)
        cluster.close()
        stats = cluster.stats()
        for name in INSTRUMENTS:
            assert stats.latency[name]["count"] == 0, name

    def test_cipher_counts_identical_enabled_vs_disabled(self):
        # observability must never change what the engine does -- only
        # record it: the paper's cipher cost model is the invariant
        totals = {}
        for enabled in (False, True):
            cluster = make_cluster(enabled=enabled)
            run_workload(cluster)
            agg = cluster.stats().aggregate
            totals[enabled] = (
                agg["pointer_cipher"],
                agg["substitution"],
                agg["record_cipher"],
                agg["tree"],
            )
            cluster.close()
        assert totals[False] == totals[True]


def _listing(root) -> list[str]:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


class TestNothingAtRest:
    """Observability records what the engine does; it never changes
    what is at rest -- no extra file, no changed byte."""

    @staticmethod
    def _traffic(store):
        keys = random.Random(11).sample(range(DESIGN.v), 30)
        for key in keys:
            store.insert(key, f"rec-{key}".encode())
        for key in keys[::3]:
            store.search(key)
        store.range_search(0, DESIGN.v // 2)
        store.delete(keys[0])

    def _assert_same_footprint(self, tmp_path, create):
        footprints = []
        for enabled in (False, True):
            root = tmp_path / f"obs-{enabled}"
            store = create(FileBackend(root, fsync=False), ObsConfig(enabled=enabled))
            self._traffic(store)
            store.close()
            footprints.append({
                name: (root / name).read_bytes() if (root / name).is_file() else None
                for name in _listing(root)
            })
        off, on = footprints
        assert sorted(on) == sorted(off)
        assert on == off

    def test_single_database(self, tmp_path):
        self._assert_same_footprint(
            tmp_path,
            lambda backend, obs: EncipheredDatabase.create(
                OvalSubstitution(DESIGN, t=5), cipher(), backend=backend,
                observability=obs, record_cache_blocks=8,
            ),
        )

    def test_manifest_cluster(self, tmp_path):
        self._assert_same_footprint(
            tmp_path,
            lambda backend, obs: ShardedEncipheredDatabase.create(
                lambda i: OvalSubstitution(DESIGN, t=5), cipher, num_shards=2,
                backend=backend, observability=obs,
            ),
        )
