"""C7 -- write amplification: write-through vs write-back vs bulk-load.

The default write-through pager charges every node rewrite (and every
superblock re-encipherment) a disk write, exactly as the paper's
per-operation cost model requires.  This bench quantifies what the
write-back/commit layer buys an ingest workload on top of that model:
identical inserts run (a) autocommitted through the write-through pager,
(b) inside one transaction, where the pager runs write-back, and (c) through the
bottom-up bulk loader.  Disk-block writes, overwrites, pointer-cipher
operations and wall-clock throughput are reported for each.

A record-rewrite arm prices the record store's side of a write: after
filling the store, it deletes a random record and puts a new one into
the freed slot, as ``write_mixed`` does.  Each record write re-enciphers
its block only from the DES block holding its slot (suffix-only CBC);
the arm counts the DES blocks every write CBC-enciphers, by slot, by
wrapping the record cipher's ``cbc_encrypt_blocks``, against a reference
store that re-enciphers each written block whole.

Claims asserted:

* batching reduces node-disk writes per insert by at least 2x;
* write-back changes *only* I/O counts -- pointer decryptions are
  identical to write-through, so C1/C3 remain faithful in default mode;
* a record write enciphers fewer than the 62 DES blocks of a whole
  512-byte block on average, and leaves exactly the whole-block
  writer's platter bytes.

``C7_N`` (env var) overrides the workload size for CI smoke runs.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407
NUM_KEYS = int(os.environ.get("C7_N", "1000"))
CACHE_BLOCKS = 256
RECORD_KEY = bytes.fromhex("133457799bbcdff1")


def _keys() -> list[int]:
    return random.Random(0xC7).sample(range(DESIGN.v), NUM_KEYS)


def _new_db() -> EncipheredDatabase:
    cipher = RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xC7)))
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5),
        cipher,
        block_size=512,
        min_degree=4,
        cache_blocks=CACHE_BLOCKS,
    )
    db.disk.stats.reset()
    db.records.disk.stats.reset()
    db.tree.pager.stats.reset()
    db.pointer_cipher.reset_counts()
    return db


def _measure(scenario: str):
    keys = _keys()
    db = _new_db()
    start = time.perf_counter()
    if scenario == "write-through":
        for k in keys:
            db.insert(k, f"rec{k}".encode())
    elif scenario == "write-back":
        with db.transaction():
            for k in keys:
                db.insert(k, f"rec{k}".encode())
    elif scenario == "bulk-load":
        db.bulk_load((k, f"rec{k}".encode()) for k in keys)
    else:
        raise ValueError(scenario)
    elapsed = time.perf_counter() - start
    # every scenario must produce the same database contents
    assert len(db) == NUM_KEYS
    for k in keys[:20]:
        assert db.search(k) == f"rec{k}".encode()
    db.tree.check_invariants()
    return db, elapsed


class _WholeBlockStore(RecordStore):
    """Reference writer: every record write re-enciphers its whole block."""

    def _base(self, block_index, slot):
        return 0


def _count_cbc_blocks(store: RecordStore) -> list[int]:
    """Wrap the record cipher's CBC encipher; ``[blocks so far]``."""
    des = store._transform._des
    inner = des.cbc_encrypt_blocks
    counter = [0]

    def counted(blocks, iv):
        counter[0] += len(blocks) // des.block_size
        return inner(blocks, iv)

    des.cbc_encrypt_blocks = counted
    return counter


def _record_rewrite_arm():
    """DES blocks CBC-enciphered per record write, by slot, in both stores.

    Returns ``{slot: [writes, whole-block blocks, suffix blocks]}``, each
    arm's seconds for the rewrites, and whether the two platters are
    byte-identical afterwards.
    """
    rng = random.Random(0xC7 + 1)
    records = [rng.randbytes(rng.randrange(121)) for _ in range(2 * NUM_KEYS)]
    by_slot: dict[int, list[int]] = {}
    seconds = {}
    stores = {}
    for column, cls in ((1, _WholeBlockStore), (2, RecordStore)):
        store = stores[cls] = cls(RECORD_KEY, record_size=120, block_size=512)
        live = store.put_many(records[:NUM_KEYS])
        counter = _count_cbc_blocks(store)
        ops = random.Random(0xC7 + 2)
        start = time.perf_counter()
        for record in records[NUM_KEYS:]:
            victim = live.pop(ops.randrange(len(live)))
            before = counter[0]
            store.delete(victim)
            freed = counter[0] - before
            live.append(store.put(record))  # into the slot just freed
            for record_id, blocks in ((victim, freed), (live[-1], counter[0] - before - freed)):
                row = by_slot.setdefault(record_id % store.slots_per_block, [0, 0, 0])
                row[0] += column == 1
                row[column] += blocks
        seconds[cls] = time.perf_counter() - start
    whole, suffix = stores[_WholeBlockStore], stores[RecordStore]
    same = whole.disk.raw_blocks() == suffix.disk.raw_blocks()
    return by_slot, (seconds[_WholeBlockStore], seconds[RecordStore]), same


def test_c7_write_amplification(benchmark, reporter):
    results = {}
    for scenario in ("write-through", "write-back", "bulk-load"):
        db, elapsed = _measure(scenario)
        results[scenario] = {
            "db": db,
            "elapsed": elapsed,
            "node_writes": db.disk.stats.writes,
            "node_overwrites": db.disk.stats.overwrites,
            "record_writes": db.records.disk.stats.writes,
            "encryptions": db.pointer_cipher.counts.encryptions,
            "decryptions": db.pointer_cipher.counts.decryptions,
        }

    # time one write-back transactional run end to end for the plugin
    benchmark.pedantic(lambda: _measure("write-back"), rounds=1, iterations=1)

    reporter.table(
        f"{NUM_KEYS} inserts, block=512, t=4, cache={CACHE_BLOCKS} blocks "
        "(node disk only; the record store is identical across scenarios)",
        [
            "scenario",
            "node writes",
            "writes/insert",
            "overwrites",
            "ptr encrypts",
            "ptr decrypts",
            "ops/sec",
        ],
        [
            [
                name,
                r["node_writes"],
                f"{r['node_writes'] / NUM_KEYS:.2f}",
                r["node_overwrites"],
                r["encryptions"],
                r["decryptions"],
                f"{NUM_KEYS / r['elapsed']:.0f}",
            ]
            for name, r in results.items()
        ],
    )

    reporter.metric("num_keys", NUM_KEYS)
    for name, r in results.items():
        reporter.metric(
            name,
            {
                "node_writes": r["node_writes"],
                "writes_per_insert": r["node_writes"] / NUM_KEYS,
                "node_overwrites": r["node_overwrites"],
                "pointer_encryptions": r["encryptions"],
                "pointer_decryptions": r["decryptions"],
                "ops_per_sec": NUM_KEYS / r["elapsed"],
            },
        )

    by_slot, (whole_s, suffix_s), same_platter = _record_rewrite_arm()
    writes = sum(row[0] for row in by_slot.values())
    whole_mean = sum(row[1] for row in by_slot.values()) / writes
    suffix_mean = sum(row[2] for row in by_slot.values()) / writes
    reporter.table(
        f"record rewrites over {NUM_KEYS} records: {NUM_KEYS} deletes, each "
        "followed by a put into the freed slot; block=512, 4 slots of 122 B "
        "(DES blocks CBC-enciphered per record write)",
        ["slot", "writes", "whole-block", "suffix"],
        [
            [slot, row[0], f"{row[1] / row[0]:.1f}", f"{row[2] / row[0]:.1f}"]
            for slot, row in sorted(by_slot.items())
        ]
        + [["all", writes, f"{whole_mean:.1f}", f"{suffix_mean:.1f}"]],
    )
    reporter.metric(
        "record_rewrites",
        {
            "writes": writes,
            "whole_block_des_blocks_per_write": whole_mean,
            "suffix_des_blocks_per_write": suffix_mean,
            "by_slot": {
                str(slot): {
                    "writes": row[0],
                    "whole_block_des_blocks_per_write": row[1] / row[0],
                    "suffix_des_blocks_per_write": row[2] / row[0],
                }
                for slot, row in sorted(by_slot.items())
            },
            "whole_block_seconds": whole_s,
            "suffix_seconds": suffix_s,
            "platter_identical": same_platter,
        },
    )

    wt = results["write-through"]
    wb = results["write-back"]
    bl = results["bulk-load"]

    # suffix-only CBC: fewer DES blocks per record write, same bytes at rest
    assert same_platter, "suffix writes left different platter bytes"
    assert suffix_mean < 62 and suffix_mean < whole_mean, (
        f"suffix writes encipher {suffix_mean:.1f} DES blocks per write "
        f"against {whole_mean:.1f} whole-block"
    )

    # the headline: batching amortises block I/O by >= 2x per insert
    assert wt["node_writes"] >= 2 * wb["node_writes"], (
        f"write-back saved too little: {wt['node_writes']} vs {wb['node_writes']}"
    )
    assert wt["node_writes"] >= 2 * bl["node_writes"], (
        f"bulk-load saved too little: {wt['node_writes']} vs {bl['node_writes']}"
    )
    # write-back defers I/O *below* the codec: cryptographic counts are
    # untouched, so default-mode C1/C3 decryption counts stay faithful
    assert wb["decryptions"] == wt["decryptions"]
    assert wb["encryptions"] == wt["encryptions"]
    # bulk-load also cuts cipher work: each node is enciphered once
    assert bl["encryptions"] < wt["encryptions"]

    reporter.section(
        "verdict",
        f"write-back + one transaction turns {wt['node_writes']} node-block "
        f"writes into {wb['node_writes']} "
        f"({wt['node_writes'] / wb['node_writes']:.1f}x fewer; "
        f"{wb['node_overwrites']} overwrites vs {wt['node_overwrites']}), "
        f"with pointer-cipher counts unchanged "
        f"({wb['encryptions']}E/{wb['decryptions']}D).  bulk_load writes "
        f"each node once: {bl['node_writes']} writes and "
        f"{bl['encryptions']} pointer encryptions for the same database.  "
        f"A record write enciphers {suffix_mean:.1f} DES blocks on average "
        f"from its slot's DES block on, against {whole_mean:.1f} for the "
        f"whole block, with identical platter bytes.",
    )
