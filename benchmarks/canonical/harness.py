"""The canonical workloads: stores, op streams, oracle and both passes.

``run.py`` launches this script once per workload and pass, in a fresh
subprocess with every ``REPRO_*`` variable removed; the script prints
its result as one JSON line.  Run it directly only to debug::

    PYTHONPATH=src python3 benchmarks/canonical/harness.py \\
        --workload get_zipf --seed 1 --seconds 20 --trace 0 --workdir /some/dir

Every store is created on a ``FileBackend`` that skips the device flush
(see :data:`FSYNC`) and otherwise uses
the engine defaults: write-through autocommit pager with a 16-block
cache, plaintext caches off, group commit off, the ``fast`` DES kernel
and, for the cluster, the ``threads`` executor.  Keys come from the
order-37 planar difference set (universe of 1,407 keys) disguised by
oval substitution, pointers are enciphered by RSA-128, blocks are 512
bytes and the B-tree's minimum degree is 4.  A loaded store holds 1,200
keys with 48-byte payloads in 120-byte slots: 174 node blocks plus 300
record blocks, far more than the 16-block pager cache.

All workloads are closed loops: a client sends its next operation when
the previous one returns.  Inputs depend only on ``--seed``; a run
measures for ``--seconds``, so how many operations it completes depends
on the speed of the code under test.  Timings are reported at the
reference host speed (see :data:`REFERENCE_PROBE_NS`).
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.des import default_kernel
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.storage.backend import FileBackend
from repro.substitution.oval import OvalSubstitution

from spans import OP, SpanTracer, instrument, layer_metrics

ORDER = 37
UNIVERSE = ORDER * ORDER + ORDER + 1
NUM_KEYS = 1200
PAYLOAD_BYTES = 48
ZIPF_S = 1.1
RANGE_SPAN = 24
BATCH_KEYS = 8
#: How far a writing client's live key count may drift from its loaded
#: size.  Holding it exactly level locks a run at whichever B-tree
#: height it reaches (write amplification about 60 at height 4, up to
#: about 70 at height 5 on ``write_mixed``); a bounded random walk lets a
#: run cross back, while the space it ends with stays put.
LIVE_WALK = 16
SHARDS = 4
RSA_BITS = 128
RSA_SEED = 0x1990
#: Whether the stores' platters fsync.  Every WAL frame, block write and
#: header flip still reaches the file system; only the device flush is
#: skipped.  On a shared virtual disk a flush takes from about 1 ms to
#: over 20 ms depending on the neighbours, for minutes at a time, which
#: moved write latencies by a quarter between two sets of the same code.
FSYNC = False
#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Probes read before and after every set-up (see :func:`probe_burst`).
SETUP_PROBES = 9
#: On a shared host, other tenants slow the CPU by 1.5x or more, for
#: anything from a fraction of a second to many minutes.  Before every
#: operation (and around every set-up) a client therefore times a fixed
#: pure-Python loop of this many iterations in thread CPU time: the
#: host's speed at that moment, whatever the engine does.
PROBE_LOOPS = 400
#: What that loop takes on the reference host (2-vCPU Xeon VM, Python
#: 3.11) at its fast speed.  Every timing is scaled by this over the
#: probe readings around it: it is reported as the time it would have
#: taken with the host running at the reference speed.
REFERENCE_PROBE_NS = 22_000
#: The traced pass alternates segments of about this length between an
#: untraced and a traced copy of the store, so drift cancels out of the
#: overhead estimate.
SEGMENT_SECONDS = 0.5
#: Record-cache size of the handle that verifies a reopened store (the
#: verification reads every record; 512 covers every record block).
VERIFY_CACHE_BLOCKS = 512

OP_TYPES = ("get", "range", "put", "delete", "batch")
_OP_TYPE = {
    "get": "get",
    "range": "range",
    "put": "put",
    "delete": "delete",
    "put_many": "batch",
    "delete_many": "batch",
}


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int
    sharded: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("get_zipf", clients=1, sharded=False),
        Workload("scan_range", clients=1, sharded=False),
        Workload("write_mixed", clients=2, sharded=False),
        Workload("cluster_mixed", clients=1, sharded=True),
    )
}


# -- inputs ----------------------------------------------------------------


def load_items(seed: int, num_keys: int = NUM_KEYS) -> list[tuple[int, bytes]]:
    """The ``(key, payload)`` pairs every store is loaded with."""
    rng = random.Random(f"load:{seed}")
    return [(key, rng.randbytes(PAYLOAD_BYTES)) for key in rng.sample(range(UNIVERSE), num_keys)]


class _KeyPool:
    """The live and absent keys one client owns, as its stream sees them."""

    def __init__(self, owned: range, loaded: list[int]) -> None:
        present = set(loaded)
        self.live = [k for k in owned if k in present]
        self.absent = [k for k in owned if k not in present]
        self.target = len(self.live)

    def any_live(self, rng: random.Random) -> int:
        return self.live[rng.randrange(len(self.live))]

    def deletes_next(self, rng: random.Random, step: int = 1) -> bool:
        """Whether the next write (of ``step`` keys) deletes: a fair coin,
        reflected so the live count stays within :data:`LIVE_WALK` keys
        of its loaded size."""
        drift = len(self.live) - self.target
        if drift + step > LIVE_WALK:
            return True
        if drift - step < -LIVE_WALK:
            return False
        return rng.random() < 0.5

    @staticmethod
    def _take(rng: random.Random, keys: list[int]) -> int:
        i = rng.randrange(len(keys))
        keys[i], keys[-1] = keys[-1], keys[i]
        return keys.pop()

    def insert(self, rng: random.Random) -> int:
        key = self._take(rng, self.absent)
        self.live.append(key)
        return key

    def delete(self, rng: random.Random) -> int:
        key = self._take(rng, self.live)
        self.absent.append(key)
        return key


def _range(rng: random.Random) -> tuple:
    lo = rng.randrange(UNIVERSE - RANGE_SPAN + 1)
    return ("range", lo, lo + RANGE_SPAN - 1)


def _get_zipf(rng, owned, loaded):
    ranked = [k for k in loaded if k in owned]
    rng.shuffle(ranked)
    cumulative = list(itertools.accumulate(r ** -ZIPF_S for r in range(1, len(ranked) + 1)))
    while True:
        yield ("get", ranked[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])])


def _scan_range(rng, owned, loaded):
    while True:
        yield _range(rng)


def _write_mixed(rng, owned, loaded):
    pool = _KeyPool(owned, loaded)
    while True:
        if rng.random() < 0.5:
            yield ("get", pool.any_live(rng))
        elif pool.deletes_next(rng):
            yield ("delete", pool.delete(rng))
        else:
            yield ("put", pool.insert(rng), rng.randbytes(PAYLOAD_BYTES))


def _cluster_mixed(rng, owned, loaded):
    pool = _KeyPool(owned, loaded)
    while True:
        r = rng.random()
        if r < 0.7:
            yield ("get", pool.any_live(rng))
        elif r < 0.9:
            yield _range(rng)
        elif pool.deletes_next(rng, BATCH_KEYS):
            yield ("delete_many", [pool.delete(rng) for _ in range(BATCH_KEYS)])
        else:
            yield ("put_many", [
                (pool.insert(rng), rng.randbytes(PAYLOAD_BYTES)) for _ in range(BATCH_KEYS)
            ])


_STREAMS = {
    "get_zipf": _get_zipf,
    "scan_range": _scan_range,
    "write_mixed": _write_mixed,
    "cluster_mixed": _cluster_mixed,
}


def owned_keys(client: int, clients: int) -> range:
    """Client ``c`` of ``n`` owns the ``c``-th of ``n`` contiguous key
    slices, so every client's stream stays valid under any interleaving
    and mostly touches leaves no other client writes."""
    return range(client * UNIVERSE // clients, (client + 1) * UNIVERSE // clients)


def op_stream(workload: str, seed: int, client: int, clients: int, loaded: list[int]):
    """Client ``client``'s endless operation stream for ``workload``."""
    rng = random.Random(f"{workload}:{seed}:{client}")
    return _STREAMS[workload](rng, owned_keys(client, clients), loaded)


# -- the store -------------------------------------------------------------


class Engine:
    """The secrets of one store, rebuilt from scratch by every set-up."""

    def __init__(self, sharded: bool) -> None:
        self.design = planar_difference_set(ORDER)
        self.units = non_multiplier_units(self.design)
        self.sharded = sharded
        self.keypairs = [
            generate_rsa_keypair(bits=RSA_BITS, rng=random.Random(RSA_SEED + i))
            for i in range(SHARDS if sharded else 1)
        ]

    def substitution(self, shard: int) -> OvalSubstitution:
        return OvalSubstitution(self.design, t=self.units[(3 + 7 * shard) % len(self.units)])

    def cipher(self, shard: int) -> RSA:
        return RSA(self.keypairs[shard])

    def create(self, directory: Path):
        backend = FileBackend(directory, fsync=FSYNC)
        if self.sharded:
            return ShardedEncipheredDatabase.create(
                self.substitution, self.cipher, num_shards=SHARDS, backend=backend
            )
        return EncipheredDatabase.create(self.substitution(0), self.cipher(0), backend=backend)

    def reopen(self, directory: Path):
        """A verification handle rebuilt from the backend alone."""
        backend = FileBackend(directory, fsync=FSYNC)
        if self.sharded:
            return ShardedEncipheredDatabase.reopen_from_manifest(
                self.substitution, self.cipher, backend,
                record_cache_blocks=VERIFY_CACHE_BLOCKS, executor="serial",
            )
        return EncipheredDatabase.reopen_from_backend(
            self.substitution(0), self.cipher(0), backend,
            record_cache_blocks=VERIFY_CACHE_BLOCKS,
        )


def build(workload: Workload, directory: Path, items) -> tuple[Engine, object]:
    """Set up one loaded store: design construction through committed load."""
    engine = Engine(workload.sharded)
    store = engine.create(directory)
    store.bulk_load(items)
    return engine, store


def _databases(store) -> list[EncipheredDatabase]:
    return list(getattr(store, "shards", [store]))


def engine_counts(store) -> dict[str, int]:
    """The engine's own counters that the metrics need, summed over shards."""
    stats = store.stats()
    if not isinstance(stats, dict):
        stats = stats.aggregate
    disks = (stats["node_disk"], stats["record_disk"])
    durability = stats["durability"].values()
    return {
        "pointer_decrypts": stats["pointer_cipher"]["decryptions"],
        "pointer_encrypts": stats["pointer_cipher"]["encryptions"],
        "inversions": stats["substitution"]["inversions"],
        "nodes_visited": stats["tree"]["nodes_visited"],
        "pager_hits": stats["pager"]["hits"],
        "pager_misses": stats["pager"]["misses"],
        "record_blocks": sum(stats["record_cipher"].values()),
        "blocks_read": sum(d["reads"] for d in disks),
        "blocks_written": sum(d["writes"] for d in disks),
        "bytes_written": sum(d["bytes_written"] for d in disks),
        "wal_bytes": sum(d["wal_bytes"] for d in durability),
        "syncs": sum(d["syncs"] for d in durability),
    }


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after}


# -- the oracle and the client loop -----------------------------------------


def execute(store, op: tuple):
    kind = op[0]
    if kind == "get":
        return store.get(op[1])
    if kind == "range":
        return store.range_search(op[1], op[2])
    if kind == "put":
        return store.insert(op[1], op[2])
    if kind == "delete":
        return store.delete(op[1])
    if kind == "put_many":
        return store.put_many(op[1])
    if kind == "delete_many":
        return store.delete_many(op[1])
    raise ValueError(f"unknown operation {kind!r}")


class Oracle:
    """What one client's keys must hold: a dict updated by every mutation."""

    def __init__(self, items) -> None:
        self.data = dict(items)
        self.keys = sorted(self.data)
        self.payload_written = 0

    def _put(self, key: int, payload: bytes) -> None:
        self.data[key] = payload
        bisect.insort(self.keys, key)
        self.payload_written += len(payload)

    def _delete(self, key: int) -> None:
        del self.data[key]
        self.keys.pop(bisect.bisect_left(self.keys, key))

    def check(self, op: tuple, result) -> bool:
        """Whether ``result`` is right for ``op``; applies a mutation."""
        kind = op[0]
        if kind == "get":
            return result == self.data.get(op[1])
        if kind == "range":
            lo = bisect.bisect_left(self.keys, op[1])
            hi = bisect.bisect_right(self.keys, op[2])
            return result == [(k, self.data[k]) for k in self.keys[lo:hi]]
        if kind == "put":
            self._put(op[1], op[2])
            return result is None
        if kind == "delete":
            self._delete(op[1])
            return result is None
        if kind == "put_many":
            for key, payload in op[1]:
                self._put(key, payload)
            return result == len(op[1])
        for key in op[1]:
            self._delete(key)
        return result == len(op[1])


def probe() -> int:
    """Thread CPU time, in ns, of a fixed pure-Python loop: the host's speed."""
    start = time.thread_time_ns()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.thread_time_ns() - start


def probe_burst() -> float:
    """The median of :data:`SETUP_PROBES` back-to-back probes: one
    reading of the host's speed, steadier than a single probe."""
    return statistics.median(probe() for _ in range(SETUP_PROBES))


class Sample(NamedTuple):
    """One completed operation; times are ns since the run started."""

    op_type: str
    mark_ns: int  # when the probe before the operation started
    probe_ns: int
    end_ns: int
    latency_ns: int


class SampleLog:
    """One client's completed operations, about 33 bytes each.

    ``peak_rss_mb`` counts this log, and a faster engine completes more
    operations in a run, so rows live in flat arrays: as :class:`Sample`
    tuples they took about 300 bytes each, enough for a twice-as-fast
    engine to read some 8% more memory on ``get_zipf``.
    """

    def __init__(self) -> None:
        self._types = array("b")
        self._times = array("q")  # mark, probe, end and latency of each row

    def append(self, op_type: str, mark_ns: int, probe_ns: int, end_ns: int,
               latency_ns: int) -> None:
        self._types.append(OP_TYPES.index(op_type))
        self._times.extend((mark_ns, probe_ns, end_ns, latency_ns))

    def __iter__(self):
        for i, op_type in enumerate(self._types):
            yield Sample(OP_TYPES[op_type], *self._times[4 * i:4 * i + 4])


@dataclass
class ClientResult:
    samples: SampleLog = field(default_factory=SampleLog)
    attempted: int = 0
    failed: int = 0


def _client(store, ops, oracle: Oracle, origin_ns: int, deadline: float, tracer,
            out: ClientResult) -> None:
    while time.perf_counter() < deadline:
        op = next(ops, None)
        if op is None:
            return
        out.attempted += 1
        mark_ns = time.perf_counter_ns() - origin_ns
        probe_ns = probe()
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                result = execute(store, op)
            else:
                with tracer.span(OP):
                    result = execute(store, op)
        except Exception as exc:  # a failed op is counted; the run goes on
            out.failed += 1
            print(f"op {op[0]} on {op[1]!r} raised {exc!r}", file=sys.stderr)
            continue
        end = time.perf_counter_ns()
        out.samples.append(_OP_TYPE[op[0]], mark_ns, probe_ns, end - origin_ns, end - start)
        if not oracle.check(op, result):
            out.failed += 1
            print(f"op {op[0]} on {op[1]!r} returned a wrong result", file=sys.stderr)


def run_clients(store, streams, oracles, seconds: float = math.inf, tracer=None):
    """Run one closed-loop client per stream; returns (results, wall seconds).

    A client stops when its stream ends or ``seconds`` have passed.
    """
    results = [ClientResult() for _ in streams]
    deadline = time.perf_counter() + seconds
    origin_ns = time.perf_counter_ns()
    with ThreadPoolExecutor(max_workers=len(streams), thread_name_prefix="client") as pool:
        futures = [
            pool.submit(_client, store, iter(ops), oracle, origin_ns, deadline, tracer, out)
            for ops, oracle, out in zip(streams, oracles, results)
        ]
        for future in futures:
            future.result()
    return results, (time.perf_counter_ns() - origin_ns) / 1e9


def _oracles(items, clients: int) -> list[Oracle]:
    return [
        Oracle((k, p) for k, p in items if k in owned_keys(c, clients))
        for c in range(clients)
    ]


def _streams(workload: Workload, seed: int, items) -> list:
    loaded = [key for key, _ in items]
    return [
        op_stream(workload.name, seed, c, workload.clients, loaded)
        for c in range(workload.clients)
    ]


# -- the untraced pass: end-to-end metrics -----------------------------------


def _quantile(sorted_values: list, q: float) -> float:
    """The ``q``-quantile of sorted values, by linear interpolation."""
    pos = q * (len(sorted_values) - 1)
    lower = math.floor(pos)
    upper = min(lower + 1, len(sorted_values) - 1)
    return sorted_values[lower] + (sorted_values[upper] - sorted_values[lower]) * (pos - lower)


def at_reference_speed(elapsed_ns: float, probe_ns: float) -> float:
    """``elapsed_ns`` taken while the probe read ``probe_ns``, scaled to
    the time it takes on the reference host (:data:`REFERENCE_PROBE_NS`)."""
    return elapsed_ns * REFERENCE_PROBE_NS / probe_ns


class Timeline:
    """Every probe reading of a run on one clock.

    The marks of all clients, in time order, bound the run's gaps: the
    time from one operation's start to the next one's, whichever client
    sent either.  An operation, or a gap, is scaled by the mean probe
    reading from its own mark to the first mark at or after its end, so
    a flip of the host's speed while it ran counts in proportion.
    """

    def __init__(self, samples: list[Sample]) -> None:
        marks = sorted(samples, key=lambda s: s.mark_ns)
        self.times = [s.mark_ns for s in marks]
        self.probes = [s.probe_ns for s in marks]
        self.types = [s.op_type for s in marks]

    def _probe_over(self, start_ns: int, end_ns: int) -> float:
        first = bisect.bisect_left(self.times, start_ns)
        last = min(bisect.bisect_left(self.times, end_ns), len(self.times) - 1)
        return statistics.fmean(self.probes[first:last + 1])

    def latency(self, sample: Sample) -> float:
        """The operation's latency at the reference speed, ns."""
        return at_reference_speed(sample.latency_ns, self._probe_over(sample.mark_ns, sample.end_ns))

    def gaps(self) -> dict[str, list[float]]:
        """Per op type: each gap its operations' marks open, at the
        reference speed, ns."""
        out = defaultdict(list)
        for i in range(len(self.times) - 1):
            probe_ns = (self.probes[i] + self.probes[i + 1]) / 2
            out[self.types[i]].append(at_reference_speed(self.times[i + 1] - self.times[i], probe_ns))
        return out


def latency_summary(samples: list[Sample], timeline: Timeline) -> dict[str, dict[str, float]]:
    """Per op type: the count, p50 and p90 at the reference speed, and
    p50, p90 and p99 as timed (ms)."""
    by_type = defaultdict(list)
    for s in samples:
        by_type[s.op_type].append(s)
    summary = {}
    for op_type in OP_TYPES:
        if op_type not in by_type:
            continue
        scaled = sorted(timeline.latency(s) for s in by_type[op_type])
        timed = sorted(s.latency_ns for s in by_type[op_type])
        summary[op_type] = {
            "n": len(timed),
            "p50_ms": _quantile(scaled, 0.50) / 1e6,
            "p90_ms": _quantile(scaled, 0.90) / 1e6,
            "timed_p50_ms": _quantile(timed, 0.50) / 1e6,
            "timed_p90_ms": _quantile(timed, 0.90) / 1e6,
            "timed_p99_ms": _quantile(timed, 0.99) / 1e6,
        }
    return summary


def _mix_weighted(summary: dict[str, dict[str, float]], key: str) -> float:
    """A per-type value averaged over op types, weighted by their share."""
    total = sum(s["n"] for s in summary.values())
    return sum(s["n"] * s[key] for s in summary.values()) / total


def _throughput(timeline: Timeline) -> float:
    """Operations per second at the typical pace: one over the median
    gap between consecutive marks at the reference speed, taken per op
    type and weighted by the type's share of the gaps.  Medians leave
    out the stalls a shared host causes now and then (a write the file
    system holds up, a descheduled lock holder); the mean, which counts
    them, is in the run's details."""
    gaps = timeline.gaps()
    total = sum(len(g) for g in gaps.values())
    return 1e9 / sum(len(g) / total * statistics.median(g) for g in gaps.values())


def _verify_reopen(engine: Engine, store, directory: Path, expected: dict) -> tuple[bool, int, float]:
    """Close, reopen from the backend alone and compare every pair.

    Returns (matches, on-disk bytes after a WAL checkpoint, reopen seconds).
    """
    for db in _databases(store):
        db.disk.checkpoint()
        db.records.disk.checkpoint()
    store.close()
    disk_bytes = sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
    start = time.perf_counter()
    reopened = engine.reopen(directory)
    reopen_s = time.perf_counter() - start
    try:
        ok = list(reopened.items()) == sorted(expected.items())
        for db in _databases(reopened):
            with db.lock.read_locked():
                db.tree.check_invariants()
    except Exception as exc:  # a corrupt reopen is a failed check, reported
        print(f"reopened store failed verification: {exc!r}", file=sys.stderr)
        ok = False
    finally:
        reopened.close()
    return ok, disk_bytes, reopen_s


def measure(name: str, seed: int, seconds: float, workdir: Path,
            num_keys: int = NUM_KEYS, setups: int = SETUP_REPEATS) -> dict:
    """The untraced pass: end-to-end metrics of one workload."""
    workload = WORKLOADS[name]
    items = load_items(seed, num_keys)
    setup_s = []
    setup_probes = [probe_burst()]
    store = None
    for i in range(setups):
        if store is not None:
            store.close()  # earlier set-ups are only timed
        directory = workdir / f"store-{i}"
        start = time.perf_counter()
        engine, store = build(workload, directory, items)
        setup_s.append(time.perf_counter() - start)
        setup_probes.append(probe_burst())

    loaded = engine_counts(store)
    oracles = _oracles(items, workload.clients)
    results, wall_s = run_clients(store, _streams(workload, seed, items), oracles, seconds)
    # before the report and the reopen check add their own memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run = _delta(engine_counts(store), loaded)
    samples = [s for r in results for s in r.samples]
    timeline = Timeline(samples)
    scaled_setup_s = [
        at_reference_speed(s, (before + after) / 2)
        for s, before, after in zip(setup_s, setup_probes, setup_probes[1:])
    ]

    written = sum(o.payload_written for o in oracles)
    if written:
        write_amp = (run["bytes_written"] + run["wal_bytes"]) / written
    else:  # a read-only run writes nothing: price the bulk load instead
        write_amp = (loaded["bytes_written"] + loaded["wal_bytes"]) / (num_keys * PAYLOAD_BYTES)
    expected = {k: v for o in oracles for k, v in o.data.items()}
    reopen_ok, disk_bytes, reopen_s = _verify_reopen(engine, store, directory, expected)

    latency = latency_summary(samples, timeline)
    attempted = sum(r.attempted for r in results)
    metrics = {
        "setup_s": statistics.median(scaled_setup_s),
        "ops_per_s": _throughput(timeline),
        "p50_ms": _mix_weighted(latency, "p50_ms"),
        "p90_ms": _mix_weighted(latency, "p90_ms"),
        "write_amp": write_amp,
        "space_amp": disk_bytes / sum(len(v) for v in expected.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "attempted": attempted + 1,  # the reopen check counts as one
        "failed": sum(r.failed for r in results) + (not reopen_ok),
        "metrics": metrics,
        "info": {
            "latency": latency,
            "timed_ops_per_s": len(samples) / wall_s,
            "timed_setup_s": statistics.median(setup_s),
            "setup_s_each": setup_s,
            "probe_median_us": statistics.median(timeline.probes) / 1e3,
            "reference_probe_us": REFERENCE_PROBE_NS / 1e3,
            "wall_s": wall_s,
            "reopen_s": reopen_s,
            "des_kernel": default_kernel(),
        },
    }


# -- the traced pass: per-layer metrics --------------------------------------


def _decrypt_us(engine: Engine, calls: int = 1000) -> float:
    """Isolated cost of one RSA pointer decryption, in microseconds."""
    cipher = engine.cipher(0)
    rng = random.Random(0)
    values = [rng.randrange(cipher.modulus) for _ in range(calls)]
    start = time.perf_counter_ns()
    for value in values:
        cipher.decrypt_int(value)
    return (time.perf_counter_ns() - start) / 1e3 / calls


def _recorded(ops, log: list):
    """The operations of ``ops``, each appended to ``log`` as it is taken."""
    for op in ops:
        log.append(op)
        yield op


def trace(name: str, seed: int, seconds: float, workdir: Path, num_keys: int = NUM_KEYS) -> dict:
    """The traced pass: per-layer metrics and the tracing overhead.

    Two identical stores run the same operations in alternating
    segments, one with every layer wrapped in spans and one without;
    the traced store's spans and counters give the layer metrics, and
    the wall-time ratio of the two gives the overhead.
    """
    workload = WORKLOADS[name]
    items = load_items(seed, num_keys)
    engine, plain = build(workload, workdir / "plain", items)
    _, traced = build(workload, workdir / "traced", items)
    stores = {"plain": plain, "traced": traced}
    oracles = {side: _oracles(items, workload.clients) for side in stores}
    streams = _streams(workload, seed, items)
    model_us = _decrypt_us(engine)

    tracer = SpanTracer()
    before = engine_counts(traced)
    instrument(tracer, traced)
    wall_s = {side: 0.0 for side in stores}
    attempted = failed = 0
    segment_s = min(SEGMENT_SECONDS, seconds / 4)
    deadline = time.perf_counter() + seconds
    segment = 0
    try:
        while time.perf_counter() < deadline:
            first, second = ("plain", "traced") if segment % 2 == 0 else ("traced", "plain")
            executed = [[] for _ in streams]
            results, elapsed = run_clients(
                stores[first], [_recorded(ops, log) for ops, log in zip(streams, executed)],
                oracles[first], segment_s, tracer if first == "traced" else None,
            )
            wall_s[first] += elapsed
            replay, elapsed = run_clients(
                stores[second], executed, oracles[second],
                tracer=tracer if second == "traced" else None,
            )
            wall_s[second] += elapsed
            for r in results + replay:
                attempted += r.attempted
                failed += r.failed
            segment += 1
    finally:
        tracer.unwrap_all()
    counts = _delta(engine_counts(traced), before)
    totals = tracer.totals()
    metrics = layer_metrics(totals, counts, wall_s["traced"] / wall_s["plain"] - 1)
    for store in stores.values():
        store.close()

    info = {
        "des_kernel": default_kernel(),
        "traced_ops": totals.ops,
        "wall_s": wall_s,
        "model_us_per_decrypt": model_us,
        "model_pointer_us_per_op": model_us * metrics["pointer_cipher.decrypts_per_op"],
    }
    if name == "get_zipf":
        # the lazy codec decrypts exactly one triplet per node visited on
        # a successful search (benchmark C1's identity)
        attempted += 1
        if counts["pointer_decrypts"] != counts["nodes_visited"]:
            failed += 1
            print(
                f"paper-model identity broken: {counts['pointer_decrypts']} pointer "
                f"decrypts for {counts['nodes_visited']} node visits",
                file=sys.stderr,
            )
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for every thread the run starts, so the client's probe
        # reads the speed of the CPU that does the work: a shared host's
        # vCPUs slow down independently, and the cluster's pool threads
        # take no probes of their own.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = trace if args.trace else measure
    result = run(args.workload, args.seed, args.seconds, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
