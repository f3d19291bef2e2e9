"""Key-range heat tracking: bands, merging, and nothing left at rest."""

from __future__ import annotations

import random

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.cluster.stats import merge_counter_dicts
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.obs import NUM_RANGES, RANGE_FIELDS, HeatMap, ObsConfig
from repro.storage.backend import FileBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183


def cipher(i: int = 0) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xEA7 + i)))


class TestKeyRangeHeat:
    def test_bucket_covers_universe_edges(self):
        heat = HeatMap(range(100, 300), enabled=True)
        assert heat.bucket_for(100) == 0
        assert heat.bucket_for(299) == NUM_RANGES - 1
        # out-of-universe keys clamp instead of raising
        assert heat.bucket_for(0) == 0
        assert heat.bucket_for(10_000) == NUM_RANGES - 1

    def test_bands_partition_the_universe(self):
        heat = HeatMap(range(0, 183), enabled=True)
        bounds = heat.range_bounds()
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 182
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert lo == hi + 1

    def test_note_op_counts_ops_keys_and_bands(self):
        heat = HeatMap(range(0, 183), enabled=True)
        heat.note_op((0, 1, 182), duration_ns=500)
        snap = heat.snapshot()
        assert snap["ops"] == 1
        assert snap["keys"] == 3
        assert snap["busy_ns"] == 500
        assert snap[RANGE_FIELDS[0]] == 2
        assert snap[RANGE_FIELDS[-1]] == 1

    def test_disabled_heat_is_a_noop(self):
        heat = HeatMap(range(0, 183), enabled=False)
        heat.note_op((5,), 100)
        assert heat.snapshot()["ops"] == 0

    def test_snapshots_merge_leafwise(self):
        a = HeatMap(range(0, 183), enabled=True)
        b = HeatMap(range(0, 183), enabled=True)
        a.note_op((0,), 10)
        b.note_op((0, 182), 20)
        merged = merge_counter_dicts([a.snapshot(), b.snapshot()])
        assert merged["ops"] == 2
        assert merged["keys"] == 3
        assert merged[RANGE_FIELDS[0]] == 2
        assert merged[RANGE_FIELDS[-1]] == 1




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
