"""C10 -- crypto kernel throughput and executor wall-clock.

PR 2 made the *count* of cipher operations on a range query small and
parallel (C8: ~2.9x shorter critical path), but the wall clock barely
moved: pure-Python DES dominated the hot path and a thread pool
serialised it on the GIL.  This experiment measures the two remedies:

1. **Kernel throughput.**  Single-thread DES blocks/sec for the
   clarity-first :class:`ReferenceDESKernel` (timed directly: it is the
   FIPS oracle, not a selectable kernel) vs the ``fast`` kernel (fused SP
   tables, cached forward/reverse key schedules, bulk entry points), in
   both per-block and bulk-call form, asserting byte-identical output.
   Target: >= 5x (the acceptance bar; CI smoke asserts >= 2x).  When
   numpy is importable the ``vector`` kernel joins the comparison: all
   16 rounds as ndarray gathers over the whole buffer at once, asserted
   byte-identical and >= 3x the fast kernel's bulk rate
   (``C10_VECTOR_FLOOR`` tunes the bar for slow CI hosts).
2. **Executor backends.**  The same range-query workload through the
   cluster's ``serial`` and ``processes`` executors, with byte-identical
   results and identical cipher-operation deltas asserted across both.
   Reported alongside the measured wall
   clock: the serially-measured per-shard *critical path* (what
   parallel hardware can reach) and the honest CPU count -- on a
   single-core container the process pool cannot beat serial, and the
   numbers say so rather than pretend.
3. **End to end.**  Mean per-query time of the PR-3 configuration
   (reference kernel, serial fan-out) vs this PR's (fast kernel,
   process fan-out): the user-visible speedup of the whole stack.

``C10_BLOCKS``, ``C10_N``, ``C10_QUERIES``, ``C10_E2E_QUERIES`` (env
vars) shrink the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import random
import time
from unittest.mock import patch

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.cluster.stats import subtract_counter_dicts
from repro.crypto import des as des_module
from repro.crypto.des import DES, ReferenceDESKernel, default_kernel, vector_available
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407
UNITS = non_multiplier_units(DESIGN)

NUM_BLOCKS = int(os.environ.get("C10_BLOCKS", "3000"))
NUM_KEYS = int(os.environ.get("C10_N", "1200"))
NUM_QUERIES = int(os.environ.get("C10_QUERIES", "120"))
E2E_QUERIES = int(os.environ.get("C10_E2E_QUERIES", "12"))
VECTOR_FLOOR = float(os.environ.get("C10_VECTOR_FLOOR", "3.0"))
NUM_SHARDS = 4
QUERY_WIDTH = 40
BACKENDS = ("serial", "processes")
KERNELS = ("reference", "fast") + (("vector",) if vector_available() else ())


def _sub_factory(shard: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[shard * 7 % len(UNITS)])


def _cipher_factory(shard: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC100 + shard)))


def _new_cluster(executor: str) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        _sub_factory,
        _cipher_factory,
        num_shards=NUM_SHARDS,
        router="hash",  # every query fans out to all shards
        block_size=512,
        min_degree=4,
        cache_blocks=64,
        executor=executor,
    )


def _queries(count: int) -> list[tuple[int, int]]:
    rng = random.Random(0xC10C10)
    return [
        (lo, lo + QUERY_WIDTH)
        for lo in (rng.randrange(DESIGN.v - QUERY_WIDTH) for _ in range(count))
    ]


def _items() -> list[tuple[int, bytes]]:
    keys = random.Random(0xC10).sample(range(DESIGN.v), NUM_KEYS)
    return [(k, f"rec{k}".encode()) for k in keys]


# -- part 1: kernel throughput ---------------------------------------------


def _reference_kernel_as_default():
    """Build default-kernel :class:`DES` objects on the reference kernel.

    The reference kernel is not selectable; while this patch is active
    new ``DES(key)`` objects call ``ReferenceDESKernel.crypt_block(s)``
    directly.
    """
    return patch.dict(des_module._KERNELS, {default_kernel(): ReferenceDESKernel})


def _des(key: bytes, kernel: str) -> DES:
    if kernel != "reference":
        return DES(key, kernel=kernel)
    with _reference_kernel_as_default():
        return DES(key)


def _throughput(fn, blocks: int) -> float:
    start = time.perf_counter()
    fn()
    return blocks / (time.perf_counter() - start)


def _kernel_rates(payload: bytes) -> dict[str, dict[str, float]]:
    key = bytes.fromhex("133457799BBCDFF1")
    rates: dict[str, dict[str, float]] = {}
    outputs = {}
    for kernel in KERNELS:
        des = _des(key, kernel)
        outputs[kernel] = des.encrypt_blocks(payload)

        def per_block(des=des):
            for off in range(0, len(payload), 8):
                des.encrypt_block(payload[off : off + 8])

        def per_block_dec(des=des, ct=outputs[kernel]):
            for off in range(0, len(ct), 8):
                des.decrypt_block(ct[off : off + 8])

        rates[kernel] = {
            "encrypt_block_calls": _throughput(per_block, NUM_BLOCKS),
            "encrypt_bulk": _throughput(
                lambda des=des: des.encrypt_blocks(payload), NUM_BLOCKS
            ),
            "decrypt_block_calls": _throughput(per_block_dec, NUM_BLOCKS),
            "decrypt_bulk": _throughput(
                lambda des=des, ct=outputs[kernel]: des.decrypt_blocks(ct), NUM_BLOCKS
            ),
        }
    for kernel in KERNELS[1:]:
        assert outputs[kernel] == outputs["reference"], f"{kernel} diverges"
    des = DES(key)
    assert des.decrypt_blocks(outputs["fast"]) == payload
    return rates


# -- part 2: executor backends ---------------------------------------------


def _measure_backends(items, queries):
    clusters = {name: _new_cluster(name) for name in BACKENDS}
    wall: dict[str, float] = {}
    results: dict[str, list] = {}
    deltas: dict[str, dict] = {}
    try:
        for cluster in clusters.values():
            cluster.bulk_load(items)
        for cluster in clusters.values():
            cluster.range_search(*queries[0])  # warm pools, ship specs
        for name, cluster in clusters.items():
            before = cluster.stats().aggregate
            start = time.perf_counter()
            results[name] = [cluster.range_search(lo, hi) for lo, hi in queries]
            wall[name] = time.perf_counter() - start
            after = cluster.stats().aggregate
            deltas[name] = {
                "pointer_cipher": subtract_counter_dicts(
                    after["pointer_cipher"], before["pointer_cipher"]
                ),
                "record_cipher": subtract_counter_dicts(
                    after["record_cipher"], before["record_cipher"]
                ),
            }

        # the critical path: each shard's share timed separately (what a
        # core per shard would run concurrently), measured on the serial
        # cluster after the stats comparison so it pollutes no deltas
        critical = 0.0
        for lo, hi in queries:
            shard_times = []
            for shard in clusters["serial"].shards:
                start = time.perf_counter()
                shard.range_search(lo, hi)
                shard_times.append(time.perf_counter() - start)
            critical += max(shard_times)
    finally:
        for cluster in clusters.values():
            cluster.close()

    assert results["serial"] == results["processes"], (
        "executor backends returned different results"
    )
    assert deltas["serial"] == deltas["processes"], (
        f"executor backends did different cipher work: {deltas}"
    )
    return wall, critical, deltas["serial"], len(results["serial"][0])


# -- part 3: end to end ----------------------------------------------------


def _mean_query_time(cluster, queries) -> float:
    start = time.perf_counter()
    for lo, hi in queries:
        cluster.range_search(lo, hi)
    return (time.perf_counter() - start) / len(queries)


def _end_to_end(items, queries):
    """PR-3 stack (reference kernel, serial) vs this PR's (fast, processes)."""
    # the whole run stays patched: codecs may build DES objects lazily
    with _reference_kernel_as_default():
        baseline = _new_cluster("serial")
        try:
            baseline.bulk_load(items)
            baseline.range_search(*queries[0])
            reference_serial = _mean_query_time(baseline, queries)
        finally:
            baseline.close()

    current = _new_cluster("processes")
    try:
        current.bulk_load(items)
        current.range_search(*queries[0])
        fast_processes = _mean_query_time(current, queries)
    finally:
        current.close()
    return reference_serial, fast_processes


def test_c10_crypto_throughput(benchmark, reporter):
    # -- kernels ---------------------------------------------------------
    payload = random.Random(0xDE5).randbytes(8 * NUM_BLOCKS)
    rates = _kernel_rates(payload)
    benchmark.pedantic(
        lambda: DES(bytes.fromhex("133457799BBCDFF1")).encrypt_blocks(payload),
        rounds=1, iterations=1,
    )
    speedup_bulk = rates["fast"]["encrypt_bulk"] / rates["reference"]["encrypt_bulk"]
    speedup_block = (
        rates["fast"]["encrypt_block_calls"]
        / rates["reference"]["encrypt_block_calls"]
    )
    speedup_decrypt = (
        rates["fast"]["decrypt_bulk"] / rates["reference"]["decrypt_bulk"]
    )
    reporter.table(
        f"single-thread DES throughput, {NUM_BLOCKS} blocks of 8 bytes "
        "(identical ciphertext asserted across kernels"
        + ("" if vector_available() else "; numpy absent, no vector arm")
        + ")",
        ["kernel", "path", "blocks/s"],
        [
            [kernel, path, f"{rate:,.0f}"]
            for kernel in KERNELS
            for path, rate in rates[kernel].items()
        ],
    )
    assert speedup_bulk >= 2.0, (
        f"fast kernel only {speedup_bulk:.1f}x the reference (bulk encrypt)"
    )
    assert speedup_decrypt >= 2.0

    vector_speedups = None
    if vector_available():
        vector_speedups = {
            "encrypt_bulk_vs_fast": rates["vector"]["encrypt_bulk"]
            / rates["fast"]["encrypt_bulk"],
            "decrypt_bulk_vs_fast": rates["vector"]["decrypt_bulk"]
            / rates["fast"]["decrypt_bulk"],
        }
        assert vector_speedups["encrypt_bulk_vs_fast"] >= VECTOR_FLOOR, (
            f"vector kernel only {vector_speedups['encrypt_bulk_vs_fast']:.1f}x "
            f"the fast kernel (bulk encrypt); floor {VECTOR_FLOOR}x"
        )
        assert vector_speedups["decrypt_bulk_vs_fast"] >= VECTOR_FLOOR

    # -- executors -------------------------------------------------------
    items = _items()
    queries = _queries(NUM_QUERIES)
    wall, critical, cipher_delta, first_matches = _measure_backends(items, queries)
    cpus = os.cpu_count() or 1
    speedup = {name: wall["serial"] / wall[name] for name in BACKENDS}
    speedup_critical = wall["serial"] / critical
    reporter.table(
        f"{NUM_QUERIES} range queries of width {QUERY_WIDTH} over {NUM_KEYS} "
        f"keys, {NUM_SHARDS} hash-routed shards, fast kernel, {cpus} CPU(s); "
        "results and cipher-op deltas identical across backends",
        ["executor", "elapsed (s)", "vs serial"],
        [
            ["serial", f"{wall['serial']:.3f}", "1.00x"],
            ["processes", f"{wall['processes']:.3f}", f"{speedup['processes']:.2f}x"],
            ["critical path (1 core/shard)", f"{critical:.3f}",
             f"{speedup_critical:.2f}x"],
        ],
    )

    # -- end to end ------------------------------------------------------
    e2e_queries = _queries(NUM_QUERIES)[:E2E_QUERIES]
    reference_serial, fast_processes = _end_to_end(items, e2e_queries)
    e2e_speedup = reference_serial / fast_processes
    reporter.table(
        f"end to end: mean range-query latency over {len(e2e_queries)} queries",
        ["stack", "s/query", "speedup"],
        [
            ["reference kernel + serial fan-out", f"{reference_serial:.4f}", "1.00x"],
            ["fast kernel + process fan-out", f"{fast_processes:.4f}",
             f"{e2e_speedup:.2f}x"],
        ],
    )
    assert e2e_speedup > 1.8, (
        f"the full stack gained only {e2e_speedup:.2f}x over the PR-3 baseline"
    )

    reporter.metrics({
        "cpus": cpus,
        "num_shards": NUM_SHARDS,
        "num_keys": NUM_KEYS,
        "num_queries": NUM_QUERIES,
        "query_width": QUERY_WIDTH,
        "matches_first_query": first_matches,
        "kernel_throughput": {
            "blocks": NUM_BLOCKS,
            "rates_blocks_per_s": rates,
            "speedup_fast_vs_reference_bulk": speedup_bulk,
            "speedup_fast_vs_reference_block_calls": speedup_block,
            "speedup_fast_vs_reference_decrypt_bulk": speedup_decrypt,
            "vector_available": vector_available(),
            "speedup_vector_vs_fast": vector_speedups,
        },
        "cluster_range_queries": {
            "wall_clock_s": wall,
            "speedup_processes_over_serial": speedup["processes"],
            "critical_path_s": critical,
            "speedup_critical_path": speedup_critical,
            "results_identical_across_backends": True,
            "cipher_deltas_identical_across_backends": True,
            "cipher_delta_per_backend": cipher_delta,
        },
        "end_to_end": {
            "queries": len(e2e_queries),
            "reference_kernel_serial_s_per_query": reference_serial,
            "fast_kernel_processes_s_per_query": fast_processes,
            "speedup": e2e_speedup,
        },
    })
