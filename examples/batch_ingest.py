#!/usr/bin/env python3
"""Batch ingest: transactions and bulk loading on the enciphered database.

The paper's cost model charges every node rewrite a disk write and every
superblock update a re-encipherment -- faithful, but punishing for bulk
ingest.  This example loads the same records three ways and prints what
each pays:

1. autocommit through the write-through pager (the paper's mode);
2. one transaction -- the pager runs write-back inside it, so dirty
   nodes and the superblock reach the disk once, at commit;
3. ``bulk_load`` -- the tree is built bottom-up, each node enciphered
   and written exactly once.

It then aborts a transaction on purpose to show rollback.

Run:  PYTHONPATH=src python examples/batch_ingest.py
"""

from __future__ import annotations

import random

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(23)  # v = 553
NUM_RECORDS = 250


def new_db() -> EncipheredDatabase:
    cipher = RSA(generate_rsa_keypair(bits=128, rng=random.Random(42)))
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5),
        cipher,
        cache_blocks=128,
    )
    db.disk.stats.reset()
    db.pointer_cipher.reset_counts()
    return db


def report(label: str, db: EncipheredDatabase) -> None:
    print(
        f"{label:<22} node-block writes: {db.disk.stats.writes:>5}   "
        f"pointer encryptions: {db.pointer_cipher.counts.encryptions:>5}"
    )


def main() -> None:
    keys = random.Random(7).sample(range(DESIGN.v), NUM_RECORDS)
    records = [(k, f"record #{k}".encode()) for k in keys]

    # 1. the paper's mode: every insert pays its writes immediately
    db1 = new_db()
    for k, rec in records:
        db1.insert(k, rec)
    report("write-through", db1)

    # 2. one transaction: same inserts, one flush at commit
    db2 = new_db()
    with db2.transaction():
        for k, rec in records:
            db2.insert(k, rec)
    report("write-back + txn", db2)

    # 3. bottom-up build: every node block written once
    db3 = new_db()
    db3.bulk_load(records)
    report("bulk_load", db3)

    # all three hold the same data
    sample = keys[0]
    assert db1.search(sample) == db2.search(sample) == db3.search(sample)
    print(f"\nall three databases agree; search({sample}) ->",
          db1.search(sample).decode())

    # 4. rollback: an aborted transaction leaves no trace
    try:
        with db3.transaction():
            db3.delete(sample)
            raise RuntimeError("changed our mind")
    except RuntimeError:
        pass
    print("after aborted delete, record still there:",
          db3.search(sample).decode())


if __name__ == "__main__":
    main()
