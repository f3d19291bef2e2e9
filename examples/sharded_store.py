#!/usr/bin/env python3
"""A four-shard enciphered store: routing, fan-out, compartmentalised keys.

The cluster engine (`repro.cluster`) spreads one logical database over N
private `EncipheredDatabase` shards.  Each shard gets its *own* disguise
secret (a different oval multiplier) and its own derived superblock and
data keys, so:

* an opponent who compromises one shard's smartcard reads one shard;
* block-frequency analysis across platters finds nothing to correlate --
  the same plaintext key is disguised differently on every shard;
* range queries fan out to every shard (range routing additionally
  prunes to the overlapping shards).

This example ingests a personnel directory, queries it through both
routers, survives a crash (reopen from its storage backend and the
secrets alone), and prints
the per-shard statistics rollup.

Run:  PYTHONPATH=src python examples/sharded_store.py
"""

from __future__ import annotations

import random

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.storage.backend import MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(17)  # v = 307 employee ids
NUM_SHARDS = 4
UNITS = non_multiplier_units(DESIGN)
KEYPAIRS = {
    i: generate_rsa_keypair(bits=128, rng=random.Random(0xC1 + i))
    for i in range(NUM_SHARDS)
}


def substitution_factory(shard: int) -> OvalSubstitution:
    """A different oval multiplier per shard: independent disguises."""
    return OvalSubstitution(DESIGN, t=UNITS[shard * 5 % len(UNITS)])


def cipher_factory(shard: int) -> RSA:
    return RSA(KEYPAIRS[shard])


def main() -> None:
    rng = random.Random(1990)
    ids = rng.sample(range(DESIGN.v), 150)
    directory = {
        emp: f"employee #{emp} | dept {emp % 7} | clearance {emp % 3}".encode()
        for emp in ids
    }

    # -- build: range routing, one transaction across all shards --------
    backend = MemoryBackend()  # held, so the cluster can be reopened
    store = ShardedEncipheredDatabase.create(
        substitution_factory, cipher_factory,
        num_shards=NUM_SHARDS, router="range", backend=backend,
    )
    with store.transaction():
        for emp, record in directory.items():
            store.insert(emp, record)
    print(f"loaded {len(store)} records over {store.num_shards} shards")
    print("per-shard multipliers:",
          [shard.substitution.t for shard in store.shards])

    # -- point and batch reads ------------------------------------------
    probe = ids[0]
    print(f"\nsearch({probe}):", store.search(probe).decode())
    print("get(missing id, default):",
          store.get(next(k for k in range(DESIGN.v) if k not in directory),
                    b"<no such employee>").decode())
    batch = store.get_many(ids[:4])
    print("get_many first 4:", [r.decode().split(" | ")[0] for r in batch])

    # -- range queries: the router prunes, the pool fans out ------------
    lo, hi = 40, 90
    matches = store.range_search(lo, hi)
    touched = store.router.shards_for_range(lo, hi)
    print(f"\nrange [{lo}, {hi}]: {len(matches)} records from "
          f"shards {touched} (of {store.num_shards})")

    # -- crash: reopen from the backend and the secrets alone -----------
    store.close()
    reopened = ShardedEncipheredDatabase.reopen_from_manifest(
        substitution_factory, cipher_factory, backend,
    )
    assert list(reopened.items()) == sorted(
        (k, v) for k, v in directory.items()
    )
    print(f"\nreopened {reopened.num_shards} shards from the backend's manifest: "
          f"{len(reopened)} records intact")

    # -- what the all-platters attacker sees ----------------------------
    raw = [
        {data for _, data in shard.disk.raw_blocks()} for shard in reopened.shards
    ]
    collisions = sum(
        len(raw[i] & raw[j])
        for i in range(NUM_SHARDS)
        for j in range(i + 1, NUM_SHARDS)
    )
    same_key_disguises = {
        shard.substitution.substitute(probe) for shard in reopened.shards
    }
    print(f"raw block collisions across shards: {collisions}")
    print(f"employee {probe} disguised as {len(same_key_disguises)} "
          f"distinct stored keys: {sorted(same_key_disguises)}")

    # -- statistics rollup ----------------------------------------------
    print("\n" + reopened.stats().summary())
    reopened.close()


if __name__ == "__main__":
    main()
