"""C13 -- the observability plane must observe without perturbing.

The engine threads latency histograms, fed by span tracing, through
every layer.  The instrumentation lives permanently in the hot paths --
no ``#ifdef``-style forks -- so its cost discipline is the experiment:

1. **Disabled is free.**  The default (paper-faithful) configuration's
   ``trace()`` call is one attribute check returning a shared no-op
   singleton, measured here in nanoseconds per call.
2. **Enabled is cheap.**  Replaying a mixed workload (60% range reads)
   with tracing enabled must cost <= ``C13_MAX_OVERHEAD`` (default 5%)
   wall-clock over the disabled arm.  Arms are interleaved and the
   best-of-``C13_REPEATS`` runs compared, which cancels thermal and
   scheduling drift.
3. **Observation never changes behaviour.**  Per-shard cipher-operation
   counts (pointer cipher, substitution, record cipher) must be
   *identical* between the disabled and enabled arms -- the security
   cost model is the repo's ground truth and must not move.

``C13_N``, ``C13_OPS``, ``C13_REPEATS``, ``C13_MAX_OVERHEAD`` (env
vars) shrink or loosen the experiment for CI smoke runs.
"""

from __future__ import annotations

import os
import random
import time

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.obs import ObsConfig, Observability
from repro.substitution.oval import OvalSubstitution
from repro.workloads.generators import mixed_operations

DESIGN = planar_difference_set(37)  # v = 1407
UNITS = non_multiplier_units(DESIGN)

NUM_KEYS = int(os.environ.get("C13_N", "600"))
NUM_OPS = int(os.environ.get("C13_OPS", "120"))
REPEATS = int(os.environ.get("C13_REPEATS", "3"))
MAX_OVERHEAD = float(os.environ.get("C13_MAX_OVERHEAD", "0.05"))
NUM_SHARDS = 4
READ_FRACTION = 0.6

CIPHER_FAMILIES = ("pointer_cipher", "substitution", "record_cipher")


def _sub_factory(shard: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[shard * 7 % len(UNITS)])


def _cipher_factory(shard: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC130 + shard)))


def _new_cluster(enabled: bool) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        _sub_factory,
        _cipher_factory,
        num_shards=NUM_SHARDS,
        router="hash",
        block_size=512,
        min_degree=4,
        cache_blocks=64,
        observability=ObsConfig(enabled=enabled),
    )


def _items() -> list[tuple[int, bytes]]:
    keys = random.Random(0xC13).sample(range(DESIGN.v), NUM_KEYS)
    return [(k, f"rec{k}".encode()) for k in keys]


def _ops(items) -> list[tuple]:
    base_keys = sorted(k for k, _ in items)
    return mixed_operations(
        range(DESIGN.v), base_keys, NUM_OPS, READ_FRACTION,
        seed=0xC13, range_span=40,
    )


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


# -- part 1: the disabled fast path, in nanoseconds ------------------------


def _noop_trace_ns(calls: int = 200_000) -> dict[str, float]:
    disabled = Observability(ObsConfig(enabled=False))
    enabled = Observability(ObsConfig(enabled=True))
    out = {}
    for label, obs in (("disabled", disabled), ("enabled", enabled)):
        trace = obs.trace
        start = time.perf_counter_ns()
        for _ in range(calls):
            with trace("db.get"):
                pass
        out[label] = (time.perf_counter_ns() - start) / calls
    return out


# -- part 2+3: overhead and cipher identity on the mixed workload ----------


def _overhead_arms(items, ops):
    """Best-of-REPEATS wall clock for disabled vs enabled, interleaved."""
    best = {"disabled": float("inf"), "enabled": float("inf")}
    per_shard_ciphers = {}
    snapshots = {}
    for _ in range(REPEATS):
        for label, enabled in (("disabled", False), ("enabled", True)):
            cluster = _new_cluster(enabled)
            try:
                cluster.bulk_load(items)
                elapsed = _replay(cluster, ops)
                best[label] = min(best[label], elapsed)
                stats = cluster.stats()
                per_shard_ciphers[label] = [
                    {family: shard[family] for family in CIPHER_FAMILIES}
                    for shard in stats.per_shard
                ]
                snapshots[label] = stats
            finally:
                cluster.close()
    return best, per_shard_ciphers, snapshots


# -- the experiment --------------------------------------------------------


def test_c13_observability(benchmark, reporter):
    items = _items()
    ops = _ops(items)

    noop = benchmark(lambda: _noop_trace_ns())
    reporter.table(
        "trace() call cost (mean of 200k no-body spans)",
        ["tracer", "ns/call"],
        [[label, f"{ns:,.0f}"] for label, ns in noop.items()],
    )

    best, ciphers, snapshots = _overhead_arms(items, ops)
    overhead = best["enabled"] / best["disabled"] - 1.0
    reporter.table(
        f"mixed workload ({NUM_OPS} ops, {int(READ_FRACTION * 100)}% "
        f"reads, {NUM_KEYS} keys, {NUM_SHARDS} shards), best of "
        f"{REPEATS} interleaved repeats",
        ["observability", "wall s", "ops/s", "overhead"],
        [
            ["disabled", f"{best['disabled']:.3f}",
             f"{len(ops) / best['disabled']:.1f}", "(baseline)"],
            ["enabled", f"{best['enabled']:.3f}",
             f"{len(ops) / best['enabled']:.1f}", f"{overhead:+.1%}"],
        ],
    )

    enabled_stats = snapshots["enabled"]
    top = sorted(
        ((snap["count"], name) for name, snap in enabled_stats.latency.items()),
        reverse=True,
    )[:6]
    reporter.table(
        "busiest instruments (enabled arm)",
        ["instrument", "count"],
        [[name, count] for count, name in top],
    )

    # recorded before the gates, so a run over budget still leaves its numbers
    reporter.metrics({
        "noop_trace_ns_disabled": noop["disabled"],
        "noop_trace_ns_enabled": noop["enabled"],
        "mixed_wall_s_disabled": best["disabled"],
        "mixed_wall_s_enabled": best["enabled"],
        "enabled_overhead_fraction": overhead,
        "overhead_budget": MAX_OVERHEAD,
        "cipher_counts_identical": ciphers["disabled"] == ciphers["enabled"],
    })
    assert ciphers["disabled"] == ciphers["enabled"], (
        "observability changed per-shard cipher counts -- it must only watch"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"enabled tracing cost {overhead:.1%} (budget {MAX_OVERHEAD:.0%})"
    )
