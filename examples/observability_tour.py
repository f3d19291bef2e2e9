#!/usr/bin/env python3
"""A tour of the observability plane: mergeable latency histograms.

The enciphered database already counts *what* it does (cipher calls,
disk blocks, cache hits); ``repro.obs`` adds *how long*: one latency
histogram per engine instrument (``db.get``, ``pager.read``,
``cipher.record_decrypt``, ...), fed by a near-zero-cost span tracer.
No instrument is keyed by a search key, so the readout says nothing
about which keys are hot.  This example walks through it on one small
store:

1. enable tracing (``ObsConfig(enabled=True)`` or ``REPRO_OBS_TRACE=1``)
   and run some traffic;
2. read ``stats()["observability"]["latency"]`` and the human
   ``dump()`` table;
3. show the same histograms merged across a sharded cluster.

Run:  PYTHONPATH=src python examples/observability_tour.py
"""

from __future__ import annotations

import random

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.obs import ObsConfig, summarize
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(23)  # v = 553
UNITS = non_multiplier_units(DESIGN)


def new_cipher(seed: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(seed)))


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 3 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return new_cipher(0x70 + i)


def main() -> None:
    # -- 1. a traced single database -----------------------------------
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5),
        new_cipher(42),
        observability=ObsConfig(enabled=True),
        record_cache_blocks=16,
    )
    keys = random.Random(7).sample(range(DESIGN.v), 120)
    for k in keys:
        db.insert(k, f"record #{k}".encode())
    hot = keys[:12]
    for _ in range(8):
        for k in hot:
            db.search(k)
    db.range_search(0, DESIGN.v // 4)

    # -- 2. the machine-readable and human-readable views --------------
    latency = db.stats()["observability"]["latency"]
    assert latency["db.put"]["count"] == len(keys)
    assert latency["db.get"]["count"] == 8 * len(hot)
    print("== stats()['observability']['latency'] (excerpt) ==")
    for name in ("db.put", "db.get", "db.range_search"):
        summary = summarize(latency[name])
        print(f"  {name:<16} count={summary['count']:<5} "
              f"p50<={summary['p50_s'] * 1e3:.3f} ms  "
              f"p99<={summary['p99_s'] * 1e3:.3f} ms")
    print()
    print("== dump() ==")
    print(db.obs.dump())
    print()
    db.close()

    # -- 3. the same histograms, merged across a sharded cluster -------
    cluster = ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=3,
        router="hash",
        observability=ObsConfig(enabled=True),
    )
    cluster.bulk_load([(k, f"rec{k}".encode()) for k in keys])
    cluster.range_search(0, DESIGN.v)
    for k in hot:
        cluster.search(k)
    cstats = cluster.stats()
    per_shard = [s["observability"]["latency"]["db.get"]["count"] for s in cstats.per_shard]
    merged = cstats.latency["db.get"]["count"]
    assert merged == sum(per_shard) == len(hot)
    print("== cluster rollup (3 shards) ==")
    print(f"  db.get per shard {per_shard}, merged {merged}")
    print(f"  db.range_search merged: {cstats.latency['db.range_search']['count']} "
          "(one per shard the range fanned out to)")
    cluster.close()


if __name__ == "__main__":
    main()
