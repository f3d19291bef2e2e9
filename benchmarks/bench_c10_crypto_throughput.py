"""C10 -- crypto kernel throughput and its end-to-end effect.

PR 2 made the *count* of cipher operations on a range query small
(C8), but the wall clock barely moved: pure-Python DES dominated the
hot path.  This experiment measures the remedy, the cipher kernels:

1. **Kernel throughput.**  Single-thread DES blocks/sec for the
   clarity-first :class:`ReferenceDESKernel` (timed directly: it is the
   FIPS oracle, not a selectable kernel) vs the ``fast`` kernel (fused SP
   tables, cached forward/reverse key schedules, bulk entry points), in
   both per-block and bulk-call form, asserting byte-identical output.
   Target: >= 5x (the acceptance bar; CI smoke asserts >= 2x).  When
   ``cryptography`` is importable the ``openssl`` kernel joins the
   comparison: the same calls run by OpenSSL, asserted byte-identical
   and >= 3x the fast kernel's bulk rate (``C10_OPENSSL_FLOOR`` tunes
   the bar for slow CI hosts).  A second table prices one RSA-128
   pointer decrypt -- the paper's per-node cost -- on GMP's
   ``mpz_powm`` against CPython's ``pow``, asserted identical to
   ``pow(c, d, n)``; where libgmp loads, GMP must be >= 3x faster
   (``C10_GMP_FLOOR`` tunes the bar).
2. **End to end.**  Mean per-query time of a 4-shard cluster's range
   queries on the reference DES kernel vs the default one: the
   user-visible speedup of the whole stack.

``C10_BLOCKS``, ``C10_N``, ``C10_E2E_QUERIES`` (env vars) shrink the
workload for CI smoke runs.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import nullcontext
from unittest.mock import patch

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto import des as des_module
from repro.crypto.des import DES, ReferenceDESKernel, default_kernel, openssl_available
from repro.crypto import rsa as rsa_module
from repro.crypto.rsa import RSA, generate_rsa_keypair, gmp_available
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407
UNITS = non_multiplier_units(DESIGN)

NUM_BLOCKS = int(os.environ.get("C10_BLOCKS", "3000"))
NUM_KEYS = int(os.environ.get("C10_N", "1200"))
E2E_QUERIES = int(os.environ.get("C10_E2E_QUERIES", "12"))
OPENSSL_FLOOR = float(os.environ.get("C10_OPENSSL_FLOOR", "3.0"))
GMP_FLOOR = float(os.environ.get("C10_GMP_FLOOR", "3.0"))
RSA_DECRYPTS = 2000
NUM_SHARDS = 4
QUERY_WIDTH = 40
KERNELS = ("reference", "fast") + (("openssl",) if openssl_available() else ())


def _sub_factory(shard: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[shard * 7 % len(UNITS)])


def _cipher_factory(shard: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC100 + shard)))


def _new_cluster() -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        _sub_factory,
        _cipher_factory,
        num_shards=NUM_SHARDS,
        router="hash",  # every query fans out to all shards
        block_size=512,
        min_degree=4,
        cache_blocks=64,
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
    new ``DES(key)`` objects call ``ReferenceDESKernel.crypt_blocks``
    directly.
    """
    return patch.dict(des_module._KERNELS, {default_kernel(): ReferenceDESKernel})


def _des(key: bytes, kernel: str) -> DES:
    """A key on ``kernel``, the reference kernel included."""
    if kernel == "reference":
        with _reference_kernel_as_default():
            return DES(key)
    return DES(key, kernel=kernel)


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


# -- part 2: end to end ----------------------------------------------------


def _mean_query_time(cluster, queries) -> float:
    start = time.perf_counter()
    for lo, hi in queries:
        cluster.range_search(lo, hi)
    return (time.perf_counter() - start) / len(queries)


def _end_to_end(items, queries):
    """Mean s/query on the reference kernel vs the default one, with
    identical results asserted."""
    times, results = [], []
    for on_reference in (True, False):
        # the whole run stays patched: codecs may build DES objects lazily
        with _reference_kernel_as_default() if on_reference else nullcontext():
            cluster = _new_cluster()
            try:
                cluster.bulk_load(items)
                cluster.range_search(*queries[0])
                times.append(_mean_query_time(cluster, queries))
                results.append([cluster.range_search(lo, hi) for lo, hi in queries])
            finally:
                cluster.close()
    assert results[0] == results[1], "the kernels returned different results"
    return times[0], times[1], len(results[1][0])


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

    # -- end to end ------------------------------------------------------
    items = _items()
    e2e_queries = _queries(E2E_QUERIES)
    reference_s, default_s, first_matches = _end_to_end(items, e2e_queries)
    e2e_speedup = reference_s / default_s
    reporter.table(
        f"end to end: mean latency of {len(e2e_queries)} range queries of "
        f"width {QUERY_WIDTH} over {NUM_KEYS} keys, {NUM_SHARDS} hash-routed "
        f"shards (identical results asserted)",
        ["kernel", "s/query", "speedup"],
        [
            ["reference", f"{reference_s:.4f}", "1.00x"],
            [default_kernel(), f"{default_s:.4f}", f"{e2e_speedup:.2f}x"],
        ],
    )
    assert e2e_speedup > 1.8, (
        f"the default kernel gained only {e2e_speedup:.2f}x over the reference"
    )

    reporter.metrics({
        "num_shards": NUM_SHARDS,
        "num_keys": NUM_KEYS,
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
        },
        "rsa_pointer_decrypt": {
            "bits": 128,
            "decrypts": RSA_DECRYPTS,
            "gmp_available": gmp_available(),
            "us_per_decrypt": rsa_costs,
            "speedup_gmp_vs_pow": gmp_speedup,
        },
        "end_to_end": {
            "queries": len(e2e_queries),
            "reference_kernel_s_per_query": reference_s,
            "default_kernel": default_kernel(),
            "default_kernel_s_per_query": default_s,
            "speedup": e2e_speedup,
        },
    })
