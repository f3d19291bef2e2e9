"""C9 -- plaintext record cache: warm-query speedup, unchanged envelope.

An early C8 run measured per-match record-block DES decryption at
~70-80% of range-query time: the enciphered B-Tree prunes beautifully
and then re-deciphers the same data blocks for every matching record.
The record store's plaintext slot-block cache (``record_cache_blocks``,
built on ``repro.storage.cache``) attacks exactly that redundancy.  The
node path keeps no plaintext: every node visit decodes its block and
pays its pointer decryptions, cache on or off.  Three questions are
measured:

1. **Warm speedup.**  The same bulk-loaded database is queried with the
   record cache off (the historical engine, the control) and on.  The
   headline number is warm-cache elapsed time vs the control (fastest of
   ``TIMING_REPEATS`` batches each); the win must be >= 1.5x, with zero
   warm record decryptions and exactly the control's pointer
   decryptions.  On the ``openssl`` DES kernel record deciphering is a
   bit under half of the control's time, so the warm win tops out near
   2x; on the pure-Python ``fast`` kernel it is far larger.
2. **Security envelope.**  Caching must change only *plaintext-side*
   work.  Asserted two ways: (a) with caches **disabled**, per-shard
   pointer- and record-cipher counts over a routed query workload are
   *identical* to standalone single-database controls replaying the
   same queries -- the cluster plumbing adds no hidden crypto; (b) with
   caches **enabled**, the bytes at rest on every platter are
   byte-identical to the uncached engine's -- fewer decryptions, never
   different ciphertext.
3. **Cluster locality.**  Each shard's private record cache warms
   under the fan-out; the rollup reports per-shard and aggregate hit
   rates.

``C9_N`` and ``C9_QUERIES`` (env vars) override the workload for CI
smoke runs.
"""

from __future__ import annotations

import os
import random
import time

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407
NUM_KEYS = int(os.environ.get("C9_N", "1200"))
NUM_QUERIES = int(os.environ.get("C9_QUERIES", "100"))
NUM_SHARDS = 4
QUERY_WIDTH = 40
TIMING_REPEATS = 5
UNITS = non_multiplier_units(DESIGN)

# plenty for the whole working set: the caches never thrash in this
# experiment, so the measured win is the steady-state warm number
CACHE_CONFIG = {"record_cache_blocks": 1024}


def _sub_factory(shard: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[shard * 7 % len(UNITS)])


def _cipher_factory(shard: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC90 + shard)))


def _records() -> dict[int, bytes]:
    keys = random.Random(0xC9).sample(range(DESIGN.v), NUM_KEYS)
    return {k: f"rec{k}".encode() for k in keys}


def _queries() -> list[tuple[int, int]]:
    rng = random.Random(0xC9C9)
    out = []
    for _ in range(NUM_QUERIES):
        lo = rng.randrange(DESIGN.v - QUERY_WIDTH)
        out.append((lo, lo + QUERY_WIDTH))
    return out


def _new_single(**cache_kwargs) -> EncipheredDatabase:
    return EncipheredDatabase.create(
        _sub_factory(0),
        _cipher_factory(0),
        block_size=512,
        min_degree=4,
        cache_blocks=64,
        **cache_kwargs,
    )


def _best_time(run) -> tuple[float, object]:
    """Fastest wall time (s) of ``TIMING_REPEATS`` calls, and the last result.

    A batch takes tens of milliseconds, so one timing is at the mercy of
    a scheduler hiccup; the fastest of a few is the steady-state cost.
    """
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _reset_meters(db: EncipheredDatabase) -> None:
    db.disk.stats.reset()
    db.records.disk.stats.reset()
    db.records.cipher_counts.reset()
    db.tree.pager.stats.reset()
    db.pointer_cipher.reset_counts()


def test_c9_read_cache(benchmark, reporter):
    data = _records()
    queries = _queries()

    # -- 1. warm-cache speedup on one database ---------------------------
    control = _new_single()
    cached = _new_single(**CACHE_CONFIG)
    control.bulk_load(data.items())
    cached.bulk_load(data.items())

    control.range_search(*queries[0])  # warm the raw node cache alike
    control_elapsed, control_results = _best_time(
        lambda: [control.range_search(lo, hi) for lo, hi in queries]
    )
    _reset_meters(control)
    [control.range_search(lo, hi) for lo, hi in queries]
    control_record_decrypts = control.records.cipher_counts.decryptions
    control_pointer_decrypts = control.pointer_cipher.counts.decryptions

    cached.clear_caches()
    cold_start = time.perf_counter()
    cold_results = [cached.range_search(lo, hi) for lo, hi in queries]
    cold_elapsed = time.perf_counter() - cold_start

    def run_warm():
        return [cached.range_search(lo, hi) for lo, hi in queries]

    _reset_meters(cached)
    warm_results = run_warm()
    warm_record_decrypts = cached.records.cipher_counts.decryptions
    warm_pointer_decrypts = cached.pointer_cipher.counts.decryptions
    warm_elapsed, _ = _best_time(run_warm)
    benchmark.pedantic(run_warm, rounds=1, iterations=1)

    assert warm_results == control_results, "cached results diverge"
    assert cold_results == control_results, "cold cached results diverge"

    speedup = control_elapsed / warm_elapsed
    cold_ratio = control_elapsed / cold_elapsed
    record_stats = cached.records.cache.stats

    reporter.table(
        f"{NUM_QUERIES} range queries of width {QUERY_WIDTH} over "
        f"{NUM_KEYS} keys (block=512, t=4; identical results asserted)",
        ["engine", "elapsed (s)", "vs control",
         "record decrypts", "pointer decrypts"],
        [
            ["record cache off (control)", f"{control_elapsed:.3f}", "1.00x",
             control_record_decrypts, control_pointer_decrypts],
            ["record cache on, cold", f"{cold_elapsed:.3f}",
             f"{cold_ratio:.2f}x", "-", "-"],
            ["record cache on, warm", f"{warm_elapsed:.3f}",
             f"{speedup:.2f}x", warm_record_decrypts, warm_pointer_decrypts],
        ],
    )
    assert speedup >= 1.5, (
        f"warm cache must win >= 1.5x over the cache-off control, got "
        f"{speedup:.2f}x"
    )
    assert warm_record_decrypts < control_record_decrypts
    # the node path caches no plaintext: every visit pays its decrypts
    assert warm_pointer_decrypts == control_pointer_decrypts

    # -- 2a. envelope: disabled caches add zero crypto anywhere ----------
    cluster = ShardedEncipheredDatabase.create(
        _sub_factory, _cipher_factory,
        num_shards=NUM_SHARDS, router="hash",
        block_size=512, min_degree=4, cache_blocks=64,
    )
    keys = list(data)
    for k in keys:
        cluster.insert(k, data[k])
    shard_keys: list[list[int]] = [[] for _ in range(NUM_SHARDS)]
    for k in keys:
        shard_keys[cluster.router.shard_for(k)].append(k)

    controls = []
    for i in range(NUM_SHARDS):
        ctl = EncipheredDatabase.create(
            _sub_factory(i), _cipher_factory(i),
            block_size=512, min_degree=4, cache_blocks=64,
        )
        for k in shard_keys[i]:
            ctl.insert(k, data[k])
        controls.append(ctl)

    for shard, ctl in zip(cluster.shards, controls):
        _reset_meters(shard)
        _reset_meters(ctl)
    for lo, hi in queries:
        cluster.range_search(lo, hi)
        for ctl in controls:
            ctl.range_search(lo, hi)

    envelope_rows = []
    for i, (shard, ctl) in enumerate(zip(cluster.shards, controls)):
        s, c = shard.stats(), ctl.stats()
        assert s["pointer_cipher"] == c["pointer_cipher"], (
            f"shard {i}: cluster read path changed pointer-cipher counts"
        )
        assert s["record_cipher"] == c["record_cipher"], (
            f"shard {i}: cluster read path changed record-cipher counts"
        )
        envelope_rows.append([
            f"shard {i}",
            s["pointer_cipher"]["decryptions"],
            c["pointer_cipher"]["decryptions"],
            s["record_cipher"]["decryptions"],
            c["record_cipher"]["decryptions"],
        ])
    reporter.table(
        f"caches disabled: per-shard cipher counts over {NUM_QUERIES} "
        "routed range queries vs standalone controls (asserted identical)",
        ["shard", "ptr D (cluster)", "ptr D (control)",
         "rec D (cluster)", "rec D (control)"],
        envelope_rows,
    )

    # -- 2b. envelope: enabled caches never change the platters ----------
    assert cached.disk.raw_blocks() == control.disk.raw_blocks(), (
        "caching changed node-disk ciphertext"
    )
    assert (
        cached.records.disk.raw_blocks() == control.records.disk.raw_blocks()
    ), "caching changed record-disk ciphertext"

    # -- 3. cluster locality: per-shard caches under the fan-out ---------
    cached_cluster = ShardedEncipheredDatabase.create(
        _sub_factory, _cipher_factory,
        num_shards=NUM_SHARDS, router="range",
        block_size=512, min_degree=4, cache_blocks=64, **CACHE_CONFIG,
    )
    cached_cluster.bulk_load(data.items())
    for lo, hi in queries:
        cached_cluster.range_search(lo, hi)  # warm every shard it touches
    warm_cluster_results = [
        cached_cluster.range_search(lo, hi) for lo, hi in queries
    ]
    assert warm_cluster_results == control_results, "cached cluster diverges"
    cstats = cached_cluster.stats()
    locality_rows = [
        [
            f"shard {i}",
            s["record_cache"]["hits"],
            s["record_cache"]["misses"],
        ]
        for i, s in enumerate(cstats.per_shard)
    ]
    locality_rows.append([
        "aggregate",
        cstats.record_cache["hits"],
        cstats.record_cache["misses"],
    ])
    reporter.table(
        "range-routed cluster, record cache on: per-shard cache locality "
        "(each slice warms only the shard it scans)",
        ["shard", "rec hits", "rec misses"],
        locality_rows,
    )

    reporter.metrics({
        "num_keys": NUM_KEYS,
        "num_queries": NUM_QUERIES,
        "query_width": QUERY_WIDTH,
        "cache_config": CACHE_CONFIG,
        "single": {
            "control_elapsed_s": control_elapsed,
            "cold_elapsed_s": cold_elapsed,
            "warm_elapsed_s": warm_elapsed,
            "warm_speedup": speedup,
            "record_decrypts_control": control_record_decrypts,
            "record_decrypts_warm": warm_record_decrypts,
            "pointer_decrypts_control": control_pointer_decrypts,
            "pointer_decrypts_warm": warm_pointer_decrypts,
            "record_cache": record_stats.snapshot(),
        },
        "envelope": {
            "per_shard_counts_identical_when_disabled": True,
            "platters_identical_when_enabled": True,
        },
        "cluster": {
            "router": cstats.router,
            "record_cache_hit_rate": cstats.record_cache_hit_rate,
        },
    })

    reporter.section(
        "verdict",
        f"the plaintext record cache serves warm range queries "
        f"{speedup:.2f}x faster than the cache-off control "
        f"({control_record_decrypts} -> {warm_record_decrypts} record-block "
        f"decryptions per {NUM_QUERIES}-query batch; pointer decryptions "
        f"stay at the control's {warm_pointer_decrypts}, since every node "
        f"visit still pays its own) while leaving the security envelope "
        f"untouched: disabled-cache cipher counts are identical to "
        f"standalone controls on every shard, and enabled-cache platters "
        f"are byte-identical to the uncached engine's -- caching changes "
        f"plaintext-side work only, never ciphertext traffic.",
    )

    cluster.close()
    cached_cluster.close()
