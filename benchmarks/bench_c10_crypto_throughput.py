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
   ``cryptography`` is importable the ``openssl`` kernel joins the
   comparison: the same calls run by OpenSSL, asserted byte-identical
   and >= 3x the fast kernel's bulk rate (``C10_OPENSSL_FLOOR`` tunes
   the bar for slow CI hosts).  The fast kernel's bulk rates run on the
   key's round tables (its key first makes the ``TABLE_BUILD_CALLS``
   bulk calls that earn them); a second table reports the table build's
   cost and the fast kernel's us/block with and without the tables.
   A third table prices one RSA-128 pointer decrypt -- the paper's
   per-node cost -- on GMP's ``mpz_powm`` against CPython's ``pow``,
   asserted identical to ``pow(c, d, n)``; where libgmp loads, GMP must
   be >= 3x faster (``C10_GMP_FLOOR`` tunes the bar).
2. **Executor backends.**  The same range-query workload through the
   cluster's ``serial`` and ``processes`` executors, with byte-identical
   results and identical cipher-operation deltas asserted across both.
   Reported alongside the measured wall
   clock: the serially-measured per-shard *critical path* (what
   parallel hardware can reach) and the honest CPU count -- on a
   single-core container the process pool cannot beat serial, and the
   numbers say so rather than pretend.
3. **End to end.**  Mean per-query time of the PR-3 configuration
   (reference kernel, serial fan-out) vs the current one (default
   kernel, process fan-out): the user-visible speedup of the whole
   stack.

``C10_BLOCKS``, ``C10_N``, ``C10_QUERIES``, ``C10_E2E_QUERIES`` (env
vars) shrink the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import nullcontext
from unittest.mock import patch

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.cluster.stats import subtract_counter_dicts
from repro.crypto import des as des_module
from repro.crypto.des import (
    DES,
    MIN_COUNTED_BLOCKS,
    TABLE_BUILD_CALLS,
    FastDESKernel,
    ReferenceDESKernel,
    RoundTables,
    default_kernel,
    openssl_available,
)
from repro.crypto import rsa as rsa_module
from repro.crypto.rsa import RSA, generate_rsa_keypair, gmp_available
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407
UNITS = non_multiplier_units(DESIGN)

NUM_BLOCKS = int(os.environ.get("C10_BLOCKS", "3000"))
NUM_KEYS = int(os.environ.get("C10_N", "1200"))
NUM_QUERIES = int(os.environ.get("C10_QUERIES", "120"))
E2E_QUERIES = int(os.environ.get("C10_E2E_QUERIES", "12"))
OPENSSL_FLOOR = float(os.environ.get("C10_OPENSSL_FLOOR", "3.0"))
GMP_FLOOR = float(os.environ.get("C10_GMP_FLOOR", "3.0"))
RSA_DECRYPTS = 2000
NUM_SHARDS = 4
QUERY_WIDTH = 40
BACKENDS = ("serial", "processes")
KERNELS = ("reference", "fast") + (("openssl",) if openssl_available() else ())


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
    """A key on ``kernel`` in the state a long-lived record or node key
    reaches: a fast key has earned its round tables (the reference and
    openssl kernels read none)."""
    if kernel == "reference":
        with _reference_kernel_as_default():
            return DES(key)
    des = DES(key, kernel=kernel)
    if kernel == "fast":
        for _ in range(TABLE_BUILD_CALLS + 1):
            des.encrypt_blocks(bytes(8 * MIN_COUNTED_BLOCKS))
        assert des._tables is not None
    return des


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


def _best_us(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def _round_table_costs(payload: bytes) -> dict[str, float]:
    """Table build us and the fast kernel's bulk us/block on bare
    subkeys vs the key's round tables."""
    subkeys = DES(bytes.fromhex("133457799BBCDFF1"), kernel="fast")._subkeys
    tables = RoundTables.build(subkeys)
    crypt = FastDESKernel.crypt_blocks
    assert crypt(payload, tables) == crypt(payload, subkeys)
    nblocks = len(payload) // 8
    return {
        "build_us": _best_us(lambda: RoundTables.build(subkeys), 5),
        "fast_bare_us_per_block": _best_us(lambda: crypt(payload, subkeys)) / nblocks,
        "fast_tables_us_per_block": _best_us(lambda: crypt(payload, tables)) / nblocks,
    }


def _rsa_decrypt_costs() -> dict[str, float]:
    """us per RSA-128 pointer decrypt on each available backend (best of
    5 runs over the same cryptograms), identical results asserted."""
    keypair = generate_rsa_keypair(bits=128, rng=random.Random(0xC10A))
    cipher = RSA(keypair)
    rng = random.Random(0xC10B)
    values = [rng.randrange(keypair.n) for _ in range(RSA_DECRYPTS)]

    def decrypt_all():
        return [cipher.decrypt_int(c) for c in values]

    costs: dict[str, float] = {}
    outputs: dict[str, list[int]] = {}
    for backend in ("gmp", "pow") if gmp_available() else ("pow",):
        on_pow = backend == "pow"
        with patch.object(rsa_module, "_scratch", None) if on_pow else nullcontext():
            outputs[backend] = decrypt_all()
            costs[backend] = _best_us(decrypt_all) / len(values)
    expected = [pow(c, keypair.d, keypair.n) for c in values]
    for backend, output in outputs.items():
        assert output == expected, f"{backend} RSA decrypts diverge from pow"
    return costs


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
    """PR-3 stack (reference kernel, serial) vs the current one (default
    kernel, processes)."""
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
        current_processes = _mean_query_time(current, queries)
    finally:
        current.close()
    return reference_serial, current_processes


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
        + ("" if openssl_available() else "; cryptography absent, no openssl arm")
        + ")",
        ["kernel", "path", "blocks/s"],
        [
            [kernel, path, f"{rate:,.0f}"]
            for kernel in KERNELS
            for path, rate in rates[kernel].items()
        ],
    )
    table_costs = _round_table_costs(payload)
    reporter.table(
        f"round tables: build cost and bulk encrypt cost per block, "
        f"{NUM_BLOCKS} blocks (identical output asserted)",
        ["measure", "us"],
        [[name, f"{value:,.2f}"] for name, value in table_costs.items()],
    )
    rsa_costs = _rsa_decrypt_costs()
    gmp_speedup = rsa_costs["pow"] / rsa_costs["gmp"] if "gmp" in rsa_costs else None
    reporter.table(
        f"RSA-128 pointer decrypt (Garner CRT), {RSA_DECRYPTS} cryptograms, "
        "best of 5 (results identical to pow(c, d, n) asserted"
        + ("" if gmp_available() else "; libgmp not loadable, no gmp arm")
        + ")",
        ["backend", "us/decrypt", "vs pow"],
        [
            [backend, f"{us:.2f}", f"{rsa_costs['pow'] / us:.2f}x"]
            for backend, us in rsa_costs.items()
        ],
    )
    if gmp_speedup is not None:
        assert gmp_speedup >= GMP_FLOOR, (
            f"GMP RSA decrypt only {gmp_speedup:.1f}x pow; floor {GMP_FLOOR}x"
        )

    assert speedup_bulk >= 2.0, (
        f"fast kernel only {speedup_bulk:.1f}x the reference (bulk encrypt)"
    )
    assert speedup_decrypt >= 2.0

    openssl_speedups = None
    if openssl_available():
        openssl_speedups = {
            "encrypt_bulk_vs_fast": rates["openssl"]["encrypt_bulk"]
            / rates["fast"]["encrypt_bulk"],
            "decrypt_bulk_vs_fast": rates["openssl"]["decrypt_bulk"]
            / rates["fast"]["decrypt_bulk"],
        }
        assert openssl_speedups["encrypt_bulk_vs_fast"] >= OPENSSL_FLOOR, (
            f"openssl kernel only {openssl_speedups['encrypt_bulk_vs_fast']:.1f}x "
            f"the fast kernel (bulk encrypt); floor {OPENSSL_FLOOR}x"
        )
        assert openssl_speedups["decrypt_bulk_vs_fast"] >= OPENSSL_FLOOR

    # -- executors -------------------------------------------------------
    items = _items()
    queries = _queries(NUM_QUERIES)
    wall, critical, cipher_delta, first_matches = _measure_backends(items, queries)
    cpus = os.cpu_count() or 1
    speedup = {name: wall["serial"] / wall[name] for name in BACKENDS}
    speedup_critical = wall["serial"] / critical
    reporter.table(
        f"{NUM_QUERIES} range queries of width {QUERY_WIDTH} over {NUM_KEYS} "
        f"keys, {NUM_SHARDS} hash-routed shards, {default_kernel()} kernel, "
        f"{cpus} CPU(s); "
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
    reference_serial, current_processes = _end_to_end(items, e2e_queries)
    e2e_speedup = reference_serial / current_processes
    reporter.table(
        f"end to end: mean range-query latency over {len(e2e_queries)} queries",
        ["stack", "s/query", "speedup"],
        [
            ["reference kernel + serial fan-out", f"{reference_serial:.4f}", "1.00x"],
            [f"{default_kernel()} kernel + process fan-out", f"{current_processes:.4f}",
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
            "openssl_available": openssl_available(),
            "speedup_openssl_vs_fast": openssl_speedups,
            "round_tables": table_costs,
        },
        "rsa_pointer_decrypt": {
            "bits": 128,
            "decrypts": RSA_DECRYPTS,
            "gmp_available": gmp_available(),
            "us_per_decrypt": rsa_costs,
            "speedup_gmp_vs_pow": gmp_speedup,
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
            "default_kernel": default_kernel(),
            "default_kernel_processes_s_per_query": current_processes,
            "speedup": e2e_speedup,
        },
    })
