"""C11 -- mixed read/write workloads under incremental replica sync.

PR 4's process executor made pure-read fan-outs fast but paid O(database
size) for every parent-side write: any mutation invalidated the worker
replica wholesale, and the next read re-shipped the shard's entire
platter.  This experiment measures the remedy -- journal-backed delta
sync plus write-batched cluster mutations -- in three parts:

1. **Bytes shipped per single-key write** (the acceptance metric).  A
   write/read ping-pong forces one re-sync per write; the delta
   protocol must move >= 5x fewer bytes per write than the full-state
   re-ship baseline, priced by ``full_ship_bytes`` of the shard each
   of those re-syncs caught up (what a full ship of it would have
   moved), with query results byte-identical to the ``serial``
   executor.
2. **Mixed workloads end to end.**  One deterministic operation stream
   per scenario -- read-heavy (90% reads), mixed (60%), write-heavy
   (30%) -- replayed through the ``serial`` and ``processes``
   executors, reporting throughput, re-sync counts and bytes shipped.
   Results and cipher totals must be identical across both arms.
3. **Write batching.**  k single-key inserts (one re-sync each) vs one
   ``put_many`` burst, which runs worker-side and ships one delta back
   per touched shard (``offloaded_batches``/``offload_bytes``): ships
   and bytes must both drop.

``C11_N``, ``C11_OPS``, ``C11_WRITES``, ``C11_BATCH`` (env vars) shrink
the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import random
import time

from repro.cluster.executor import full_ship_bytes
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.substitution.oval import OvalSubstitution
from repro.workloads.generators import mixed_operations

DESIGN = planar_difference_set(37)  # v = 1407
UNITS = non_multiplier_units(DESIGN)

NUM_KEYS = int(os.environ.get("C11_N", "600"))
NUM_OPS = int(os.environ.get("C11_OPS", "120"))
NUM_WRITES = int(os.environ.get("C11_WRITES", "10"))
BATCH_SIZE = int(os.environ.get("C11_BATCH", "32"))
NUM_SHARDS = 4
SCENARIOS = {"read_heavy": 0.9, "mixed": 0.6, "write_heavy": 0.3}
ARMS = ("serial", "processes")


def _sub_factory(shard: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[shard * 7 % len(UNITS)])


def _cipher_factory(shard: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC110 + shard)))


def _new_cluster(arm: str) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        _sub_factory,
        _cipher_factory,
        num_shards=NUM_SHARDS,
        router="hash",  # every range read fans out to all shards
        block_size=512,
        min_degree=4,
        cache_blocks=64,
        executor=arm,
    )


def _items() -> list[tuple[int, bytes]]:
    keys = random.Random(0xC11).sample(range(DESIGN.v), NUM_KEYS)
    return [(k, f"rec{k}".encode()) for k in keys]


def _reset_sync_stats(cluster: ShardedEncipheredDatabase) -> None:
    if cluster._procs is not None:
        cluster._procs.sync_stats.update(
            dict.fromkeys(cluster._procs.sync_stats, 0)
        )


def _shipped(cluster: ShardedEncipheredDatabase) -> tuple[int, int]:
    """(total ships, total platter bytes shipped) since the last reset.

    Counts both directions: re-syncs out to the replicas and the deltas
    an offloaded ``put_many``/``delete_many`` ships back.
    """
    sync = cluster.sync_stats()
    if sync is None:
        return 0, 0
    return (
        sync["full_ships"] + sync["delta_ships"] + sync["offloaded_batches"],
        sync["full_bytes"] + sync["delta_bytes"] + sync["offload_bytes"],
    )


# -- part 1: bytes shipped per single-key write ----------------------------


def _write_read_pingpong(items):
    """One re-sync per write: delta bytes vs the full ships they replace."""
    taken = {k for k, _ in items}
    fresh = [k for k in range(DESIGN.v) if k not in taken][:NUM_WRITES]
    transcripts = {}
    for arm in ARMS:
        cluster = _new_cluster(arm)
        try:
            cluster.bulk_load(items)
            cluster.range_search(0, DESIGN.v)  # replicas established
            _reset_sync_stats(cluster)
            transcript = []
            full_bytes = 0
            for i, key in enumerate(fresh):
                cluster.insert(key, b"w%d" % i)
                if arm == "processes":
                    # the payload a full re-ship of the touched shard moves
                    shard_id = cluster.router.shard_for(key)
                    full_bytes += full_ship_bytes(cluster.shards[shard_id])
                transcript.append(cluster.range_search(0, DESIGN.v))
            if arm == "processes":
                ships, shipped = _shipped(cluster)
            transcripts[arm] = transcript
        finally:
            cluster.close()
    assert transcripts["processes"] == transcripts["serial"], (
        "delta-synced replicas answered differently from the serial executor"
    )
    return {
        "delta": {
            "writes": len(fresh),
            "ships": ships,
            "bytes": shipped,
            "bytes_per_write": shipped / len(fresh),
        },
        "full_baseline": {
            "writes": len(fresh),
            "ships": len(fresh),
            "bytes": full_bytes,
            "bytes_per_write": full_bytes / len(fresh),
        },
    }


# -- part 2: mixed workloads through every arm -----------------------------


def _replay(cluster, ops) -> float:
    start = time.perf_counter()
    for op in ops:
        if op[0] == "range":
            cluster.range_search(op[1], op[2])
        elif op[0] == "put":
            cluster.insert(op[1], op[2])
        else:
            cluster.delete(op[1])
    return time.perf_counter() - start


def _scenarios(items):
    base_keys = sorted(k for k, _ in items)
    streams = {
        name: mixed_operations(
            range(DESIGN.v), base_keys, NUM_OPS, read_fraction,
            seed=0xC11 + int(read_fraction * 100), range_span=40,
        )
        for name, read_fraction in SCENARIOS.items()
    }
    rows = {name: {} for name in streams}
    finals, totals = {}, {}
    for arm in ARMS:
        for name, ops in streams.items():
            cluster = _new_cluster(arm)
            try:
                cluster.bulk_load(items)
                cluster.range_search(0, DESIGN.v)  # replicas established
                _reset_sync_stats(cluster)
                elapsed = _replay(cluster, ops)
                ships, shipped = _shipped(cluster)
                writes = sum(1 for op in ops if op[0] != "range")
                rows[name][arm] = {
                    "elapsed_s": elapsed,
                    "ops_per_s": len(ops) / elapsed,
                    "resyncs": ships,
                    "bytes_shipped": shipped,
                    "bytes_per_write": shipped / writes if writes else 0.0,
                }
                finals.setdefault(name, {})[arm] = cluster.range_search(
                    0, DESIGN.v
                )
                agg = cluster.stats().aggregate
                totals.setdefault(name, {})[arm] = (
                    agg["pointer_cipher"], agg["record_cipher"], agg["size"],
                )
            finally:
                cluster.close()
    for name in streams:
        for arm in ARMS:
            assert finals[name][arm] == finals[name]["serial"], (name, arm)
            assert totals[name][arm] == totals[name]["serial"], (name, arm)
    return rows


# -- part 3: write batching ------------------------------------------------


def _batching(items):
    taken = {k for k, _ in items}
    fresh = [k for k in range(DESIGN.v) if k not in taken][
        NUM_WRITES : NUM_WRITES + BATCH_SIZE
    ]
    out = {}
    for mode in ("singles", "put_many"):
        cluster = _new_cluster("processes")
        try:
            cluster.bulk_load(items)
            cluster.range_search(0, DESIGN.v)
            _reset_sync_stats(cluster)
            if mode == "singles":
                for i, key in enumerate(fresh):
                    cluster.insert(key, b"b%d" % i)
                    cluster.range_search(0, DESIGN.v)  # re-sync per write
            else:
                cluster.put_many(
                    (key, b"b%d" % i) for i, key in enumerate(fresh)
                )
                cluster.range_search(0, DESIGN.v)  # replicas already current
            ships, shipped = _shipped(cluster)
            out[mode] = {"ships": ships, "bytes": shipped}
        finally:
            cluster.close()
    return out


# -- the experiment --------------------------------------------------------


def test_c11_mixed_workload(benchmark, reporter):
    items = _items()

    pingpong = benchmark(lambda: _write_read_pingpong(items))
    delta, full = pingpong["delta"], pingpong["full_baseline"]
    reduction = full["bytes_per_write"] / delta["bytes_per_write"]
    reporter.table(
        f"{NUM_WRITES} single-key writes, each followed by a full range "
        f"fan-out ({NUM_KEYS} keys, {NUM_SHARDS} shards); results "
        "byte-identical to the serial executor",
        ["sync protocol", "re-syncs", "bytes shipped", "bytes/write"],
        [
            ["delta (journal-backed)", delta["ships"],
             f"{delta['bytes']:,}", f"{delta['bytes_per_write']:,.0f}"],
            ["full re-ship (spec payload of the same shards)", full["ships"],
             f"{full['bytes']:,}", f"{full['bytes_per_write']:,.0f}"],
        ],
    )
    assert reduction >= 5.0, (
        f"delta sync only cut bytes/write by {reduction:.1f}x (need >= 5x)"
    )
    assert delta["bytes"] < full["bytes"]

    scenario_rows = _scenarios(items)
    for name, per_arm in scenario_rows.items():
        reporter.table(
            f"scenario {name} ({int(SCENARIOS[name] * 100)}% reads, "
            f"{NUM_OPS} ops); results and cipher totals identical across "
            "arms",
            ["executor", "ops/s", "re-syncs", "bytes shipped", "bytes/write"],
            [
                [arm,
                 f"{row['ops_per_s']:.1f}",
                 row["resyncs"],
                 f"{row['bytes_shipped']:,}",
                 f"{row['bytes_per_write']:,.0f}"]
                for arm, row in per_arm.items()
            ],
        )

    batching = _batching(items)
    reporter.table(
        f"{BATCH_SIZE} inserts: singles (read after each) vs one put_many "
        "burst, process executor with delta sync (the burst runs "
        "worker-side and ships its deltas back)",
        ["mode", "ships", "bytes shipped"],
        [
            ["single-key inserts", batching["singles"]["ships"],
             f"{batching['singles']['bytes']:,}"],
            ["put_many burst", batching["put_many"]["ships"],
             f"{batching['put_many']['bytes']:,}"],
        ],
    )
    assert batching["put_many"]["bytes"] > 0, "the burst shipped nothing"
    assert batching["put_many"]["ships"] < batching["singles"]["ships"]
    assert batching["put_many"]["bytes"] < batching["singles"]["bytes"]

    reporter.metrics({
        "num_keys": NUM_KEYS,
        "num_shards": NUM_SHARDS,
        "single_key_writes": {
            "writes": NUM_WRITES,
            "delta": delta,
            "full_baseline": full,
            "bytes_per_write_reduction": reduction,
            "results_identical": True,
        },
        "scenarios": scenario_rows,
        "write_batching": {
            "batch_size": BATCH_SIZE,
            **batching,
        },
    })
