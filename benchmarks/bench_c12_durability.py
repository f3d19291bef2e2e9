"""C12 -- durability: the file platter vs the in-memory device.

PR 6 gives the enciphered database an actual at-rest form: a
self-describing platter file per device, a sidecar write-ahead log, and
an enciphered cluster manifest.  This experiment prices that durability
and verifies the recovery story end to end:

1. **Durable-write cost.**  One deterministic workload (one
   transaction of inserts and deletes, then searches, range reads and a
   commit) on three backends -- in-memory, platter files without fsync,
   platter files with fsync -- reporting wall-clock, WAL traffic and
   header flips.  The acceptance check:
   cipher-operation counts are *identical* across all arms (the device
   must not perturb the paper's cost model).
2. **Cold open.**  Close the durable database and reopen it from the
   directory and the secrets alone, timing the open (superblock read +
   record-store metadata scan) and the first query on cold caches.
3. **WAL replay.**  A cluster on platter backends is killed mid-commit
   on one shard -- after its WAL frame is appended (the seal), before
   the blocks land -- then reopened via the enciphered manifest alone.
   The reopen must replay the sealed generation and land byte-identical
   to an in-memory control cluster that committed the same operations
   cleanly.

Each arm runs ``ROUNDS`` times, the arms in rotated order, and reports
its median run: run once in a fixed order, the first arm paid the
process's warm-up, so the "vs memory" column priced the order instead
of durability.  The "I/O wait" column is the median run's measured
device time: reads' at-rest fetches, plus the platter syncs that land
its writes.

``C12_N`` and ``C12_WRITES`` (env vars) shrink the workload for CI
smoke runs.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.storage.backend import FileBackend, MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407
UNITS = non_multiplier_units(DESIGN)

NUM_KEYS = int(os.environ.get("C12_N", "500"))
NUM_WRITES = int(os.environ.get("C12_WRITES", "40"))
NUM_SHARDS = 3
ROUNDS = 3  # runs per arm, in rotated order; each arm reports its median

KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0xC12))
SHARD_KEYPAIRS = {
    i: generate_rsa_keypair(bits=128, rng=random.Random(0xC120 + i))
    for i in range(NUM_SHARDS)
}


def _single_parts():
    return OvalSubstitution(DESIGN, t=UNITS[3]), RSA(KEYPAIR)


def _sub_factory(shard: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[shard * 7 % len(UNITS)])


def _cipher_factory(shard: int) -> RSA:
    return RSA(SHARD_KEYPAIRS[shard])


def _keys():
    return random.Random(0xC12).sample(range(DESIGN.v), NUM_KEYS)


def _workload(db, keys) -> list:
    """Deterministic mixed workload; returns every observable result."""
    observed = []
    with db.transaction():
        for k in keys:
            db.insert(k, f"rec-{k}".encode())
        for k in keys[::9]:
            db.delete(k)
    live = [k for i, k in enumerate(keys) if i % 9]
    for k in live[:40]:
        observed.append(db.search(k))
    for lo in range(0, DESIGN.v, DESIGN.v // 4):
        observed.append(db.range_search(lo, lo + 60))
    db.commit()
    return observed


def _cipher_totals(db) -> tuple:
    s = db.stats()
    return (s["substitution"], s["pointer_cipher"], s["record_cipher"])


# -- part 1 + 2: durable-write cost, then cold open ------------------------


ARMS = {
    "memory": lambda path: MemoryBackend(),
    "file": lambda path: FileBackend(path, fsync=False),
    "file+fsync": lambda path: FileBackend(path, fsync=True),
}


def _run_arm(backend, keys):
    """One arm: the workload, then (on a durable backend) a cold open.

    Returns ``(row, observed, ciphers)``.
    """
    sub, rsa = _single_parts()
    start = time.perf_counter()
    db = EncipheredDatabase.create(sub, rsa, backend=backend)
    observed = {"": _workload(db, keys)}
    elapsed = time.perf_counter() - start
    ciphers = _cipher_totals(db)
    stats = db.stats()
    durability = stats["durability"]
    io_wait_s = sum(
        stats[device][field]
        for device in ("node_disk", "record_disk")
        for field in ("read_time_s", "write_time_s")
    )
    row = {
        "elapsed_s": elapsed,
        "io_wait_s": io_wait_s,
        "durable": backend.durable,
        "wal_frames": durability["node"]["wal_frames"]
        + durability["records"]["wal_frames"],
        "wal_bytes": durability["node"]["wal_bytes"]
        + durability["records"]["wal_bytes"],
        "header_flips": durability["node"]["header_flips"]
        + durability["records"]["header_flips"],
    }
    db.close()

    if backend.durable:
        start = time.perf_counter()
        sub, rsa = _single_parts()
        db2 = EncipheredDatabase.reopen_from_backend(sub, rsa, backend)
        open_s = time.perf_counter() - start
        start = time.perf_counter()
        probe = db2.range_search(0, 120)
        first_query_s = time.perf_counter() - start
        row["cold_open_s"] = open_s
        row["cold_first_query_s"] = first_query_s
        row["replayed_on_clean_open"] = (
            db2.stats()["durability"]["node"]["frames_replayed"]
        )
        observed[":reopened"] = [probe]
        db2.close()
    return row, observed, ciphers


def _single_database_arms(keys):
    # a fresh directory per invocation and per run: the benchmark
    # fixture may run this several times, and a platter create demands
    # virgin paths
    root = tempfile.mkdtemp(prefix="c12-arms-")
    names = list(ARMS)
    runs = {name: [] for name in names}
    for r in range(ROUNDS):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            backend = ARMS[name](os.path.join(root, f"{name}-{r}"))
            runs[name].append(_run_arm(backend, keys))
    shutil.rmtree(root, ignore_errors=True)

    rows = {}
    observations = {}
    ciphers = {}
    for name in names:
        ranked = sorted(runs[name], key=lambda run: run[0]["elapsed_s"])
        row, observed, counts = ranked[len(ranked) // 2]
        for _, other_observed, other_counts in ranked:
            assert other_observed == observed, f"{name} runs returned different results"
            assert other_counts == counts, f"{name} runs counted different cipher work"
        rows[name] = row
        ciphers[name] = counts
        for suffix, results in observed.items():
            observations[name + suffix] = results
    return rows, observations, ciphers


# -- part 3: kill mid-commit, recover via the manifest ---------------------


class _Kill(Exception):
    pass


def _make_cluster(backend):
    return ShardedEncipheredDatabase.create(
        _sub_factory,
        _cipher_factory,
        num_shards=NUM_SHARDS,
        router="range",
        backend=backend,
    )


def _insert_batch(cluster, keys, tag):
    """One cluster transaction inserting ``tag-<key>`` for every key."""
    with cluster.transaction():
        for k in keys:
            cluster.insert(k, f"{tag}-{k}".encode())


def _crash_recovery(keys):
    committed = keys[: NUM_KEYS // 2]
    late = keys[NUM_KEYS // 2 : NUM_KEYS // 2 + NUM_WRITES]

    root = tempfile.mkdtemp(prefix="c12-crash-")
    crashed_dir = os.path.join(root, "cluster")
    db = _make_cluster(FileBackend(crashed_dir, fsync=False))
    _insert_batch(db, committed, "rec")
    victim_idx = db.router.shard_for(late[0])
    batch = [k for k in late if db.router.shard_for(k) == victim_idx]

    def bomb(point):
        if point == "wal:appended":
            raise _Kill

    db.shards[victim_idx].disk.fault_hook = bomb
    try:
        _insert_batch(db, batch, "late")
        raise AssertionError("fault hook never fired")
    except _Kill:
        pass
    for shard in db.shards:  # the process dies: nothing else runs
        shard.disk.abandon()
        shard.records.disk.abandon()

    start = time.perf_counter()
    recovered = ShardedEncipheredDatabase.reopen_from_manifest(
        _sub_factory, _cipher_factory, FileBackend(crashed_dir, fsync=False)
    )
    recovery_s = time.perf_counter() - start
    replayed = sum(
        s.stats()["durability"]["node"]["frames_replayed"]
        + s.stats()["durability"]["records"]["frames_replayed"]
        for s in recovered.shards
    )

    control = _make_cluster(MemoryBackend())
    _insert_batch(control, committed, "rec")
    _insert_batch(control, batch, "late")

    identical = all(
        mine.disk.raw_blocks() == theirs.disk.raw_blocks()
        and mine.records.disk.raw_blocks() == theirs.records.disk.raw_blocks()
        for mine, theirs in zip(recovered.shards, control.shards)
    )
    rows = {
        "committed_keys": len(committed),
        "sealed_batch": len(batch),
        "frames_replayed": replayed,
        "recovery_open_s": recovery_s,
        "byte_identical_to_control": identical,
        "recovered_rows": len(recovered.range_search(0, DESIGN.v)),
        "control_rows": len(control.range_search(0, DESIGN.v)),
    }
    recovered.close()
    shutil.rmtree(root, ignore_errors=True)
    return rows


# -- the experiment --------------------------------------------------------


def test_c12_durability(benchmark, reporter):
    keys = _keys()
    rows, observations, ciphers = benchmark(
        lambda: _single_database_arms(keys)
    )

    assert observations["file"] == observations["memory"]
    assert observations["file+fsync"] == observations["memory"]
    assert ciphers["file"] == ciphers["memory"], (
        "the durable device changed the cipher-operation counts"
    )
    assert ciphers["file+fsync"] == ciphers["memory"]

    assert rows["file"]["replayed_on_clean_open"] == 0

    memory_s = rows["memory"]["elapsed_s"]
    reporter.table(
        f"{NUM_KEYS}-key workload (inserts, deletes, searches, range "
        "reads, two commits); results and cipher counts identical on "
        f"every backend; median of {ROUNDS} runs per backend, backends "
        "in rotated order",
        ["backend", "elapsed", "vs memory", "I/O wait", "WAL frames",
         "WAL bytes", "header flips"],
        [
            [name,
             f"{row['elapsed_s'] * 1e3:,.1f} ms",
             f"{row['elapsed_s'] / memory_s:,.2f}x",
             f"{row['io_wait_s'] * 1e3:,.1f} ms",
             row["wal_frames"],
             f"{row['wal_bytes']:,}",
             row["header_flips"]]
            for name, row in rows.items()
        ],
    )
    reporter.table(
        "cold open from the directory and secrets alone (superblock "
        "read + record metadata scan), then one cold range query",
        ["backend", "open", "first query", "WAL frames replayed"],
        [
            [name,
             f"{row['cold_open_s'] * 1e3:,.1f} ms",
             f"{row['cold_first_query_s'] * 1e3:,.1f} ms",
             row["replayed_on_clean_open"]]
            for name, row in rows.items() if "cold_open_s" in row
        ],
    )

    crash = _crash_recovery(keys)
    assert crash["frames_replayed"] >= 1, "nothing was replayed"
    assert crash["byte_identical_to_control"], (
        "recovered platters differ from the cleanly-committed control"
    )
    assert crash["recovered_rows"] == crash["control_rows"]
    reporter.table(
        f"{NUM_SHARDS}-shard cluster killed mid-commit (after the WAL "
        "seal, before the block apply), reopened via the enciphered "
        "manifest alone",
        ["metric", "value"],
        [[k, v] for k, v in crash.items()],
    )

    reporter.metrics({
        "num_keys": NUM_KEYS,
        "rounds": ROUNDS,
        "write_through": rows,
        "crash_recovery": crash,
        "cipher_counts_identical": True,
    })
