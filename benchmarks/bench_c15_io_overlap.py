"""C15 -- overlapped I/O: readahead range scans and shared WAL rounds.

Two latency plays, measured against their blocking controls:

1. **Readahead overlap.**  A range scan over a latency-armed in-memory
   device (every physical block read sleeps ``C15_LATENCY_S``) with the
   pager's background fetch pool on: the tree's descent hints and the
   record-block prewarm pull upcoming blocks through
   ``BlockDevice.read_many`` -- one service charge per *batch* -- while
   the scan decodes what already arrived.  Acceptance: >=
   ``C15_OVERLAP_FLOOR``x scan throughput over the blocking pager, with
   identical results and identical cipher-operation totals (readahead
   moves fetches earlier; it must not change the paper's cost model).
2. **Concurrent commits.**  8 committers on a ``FileBackend`` with a
   modeled per-fsync cost (``C15_FSYNC_LATENCY_S``): a commit stages
   under the write lock and syncs under the read lock, so concurrent
   commits share WAL rounds -- one frame, one data fsync, one header
   flip per round -- instead of paying the full fsync set each.  The
   control is the same 8 committers on the same code, serialised by a
   benchmark-side mutex around each insert+commit pair.  Acceptance:
   >= ``C15_COMMIT_FLOOR``x commits/s over the serialised control,
   fewer fsyncs, and every committed key durable after reopen.  (A
   tier-1 test in ``tests/core/`` pins the single-threaded platter
   bytes.)

``C15_N``, ``C15_SCANS``, ``C15_COMMITTERS``, ``C15_COMMITS`` shrink
the workload for CI smoke runs.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.storage.backend import FileBackend, MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(37)  # v = 1407

NUM_KEYS = int(os.environ.get("C15_N", "400"))
SCANS = int(os.environ.get("C15_SCANS", "3"))
LATENCY_S = float(os.environ.get("C15_LATENCY_S", "0.002"))
OVERLAP_FLOOR = float(os.environ.get("C15_OVERLAP_FLOOR", "2.0"))
COMMITTERS = int(os.environ.get("C15_COMMITTERS", "8"))
COMMITS_EACH = int(os.environ.get("C15_COMMITS", "3"))
FSYNC_LATENCY_S = float(os.environ.get("C15_FSYNC_LATENCY_S", "0.002"))
COMMIT_FLOOR = float(os.environ.get("C15_COMMIT_FLOOR", "3.0"))

KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0xC15))


def _keys():
    return random.Random(0xC151).sample(range(DESIGN.v), NUM_KEYS)


# -- 1. readahead overlap -------------------------------------------------


def _scan_arm(readahead_workers: int):
    """Build on an instant device, then arm the latency and scan cold."""
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5),
        RSA(KEYPAIR),
        backend=MemoryBackend(),
        block_size=512,
        cache_blocks=512,
        record_cache_blocks=512,
        readahead_workers=readahead_workers,
    )
    try:
        for k in _keys():
            db.insert(k, f"rec-{k}".encode())
        db.commit()
        db.disk.latency_s = LATENCY_S  # loads were free; scans pay
        db.records.disk.latency_s = LATENCY_S
        results, elapsed = [], 0.0
        for _ in range(SCANS):
            db.tree.pager.clear_cache()
            db.records.clear_cache()
            start = time.perf_counter()
            results.append(db.range_search(0, DESIGN.v - 1))
            elapsed += time.perf_counter() - start
        s = db.stats()
        ciphers = {
            "substitution": s["substitution"],
            "pointer_cipher": s["pointer_cipher"],
            "record_cipher": s["record_cipher"],
        }
        return elapsed, results, ciphers, dict(s["pager"])
    finally:
        db.disk.latency_s = 0.0
        db.records.disk.latency_s = 0.0
        db.close()


# -- 2. concurrent commits -----------------------------------------------


def _commit_backend(tmp_path, name):
    return FileBackend(tmp_path / name, fsync=True, fsync_latency_s=FSYNC_LATENCY_S)


def _commit_arm(tmp_path, name, serialise):
    """COMMITTERS threads, COMMITS_EACH insert+commit pairs each.

    ``serialise`` wraps every insert+commit pair in one benchmark-side
    mutex, so each commit pays its own WAL round: the control.
    """
    db = EncipheredDatabase.create(
        OvalSubstitution(DESIGN, t=5),
        RSA(KEYPAIR),
        backend=_commit_backend(tmp_path, name),
        block_size=512,
        autocommit=False,
    )
    keys = _keys()
    barrier = threading.Barrier(COMMITTERS)
    mutex = threading.Lock() if serialise else contextlib.nullcontext()
    errors = []

    def committer(tid):
        try:
            barrier.wait()
            for i in range(COMMITS_EACH):
                k = keys[tid * COMMITS_EACH + i]
                with mutex:
                    db.insert(k, f"c{tid}-{i}".encode())
                    db.commit()
        except BaseException as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [
        threading.Thread(target=committer, args=(t,)) for t in range(COMMITTERS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    assert not errors, errors
    snap = db.stats()["durability"]
    fsyncs = db.disk.stats.fsyncs + db.records.disk.stats.fsyncs
    frames = snap["node"]["wal_frames"] + snap["records"]["wal_frames"]
    db.close()

    survivor = EncipheredDatabase.reopen_from_backend(
        OvalSubstitution(DESIGN, t=5),
        RSA(KEYPAIR),
        _commit_backend(tmp_path, name),
    )
    committed = COMMITTERS * COMMITS_EACH
    assert survivor.tree.size == committed, (
        f"{name}: {survivor.tree.size} of {committed} commits survived reopen"
    )
    survivor.close()
    return wall, fsyncs, frames


def test_c15_io_overlap(benchmark, reporter, tmp_path):
    run = benchmark.pedantic(
        lambda: {
            "blocking": _scan_arm(0),
            "overlapped": _scan_arm(4),
            "serialised": _commit_arm(tmp_path, "serialised", True),
            "concurrent": _commit_arm(tmp_path, "concurrent", False),
        },
        rounds=1, iterations=1,
    )

    # -- readahead overlap ------------------------------------------------
    blocking_s, blocking_results, blocking_ciphers, _ = run["blocking"]
    overlap_s, overlap_results, overlap_ciphers, overlap_pager = run["overlapped"]
    assert overlap_results == blocking_results, "readahead changed scan results"
    assert overlap_ciphers == blocking_ciphers, (
        "readahead changed the cipher-operation totals"
    )
    assert overlap_pager["readaheads"] > 0, "the overlap arm never hinted"
    overlap_speedup = blocking_s / overlap_s
    assert overlap_speedup >= OVERLAP_FLOOR, (
        f"readahead gained only {overlap_speedup:.2f}x on an I/O-bound scan "
        f"(floor {OVERLAP_FLOOR}x at {LATENCY_S * 1e3:.1f} ms/read)"
    )

    # -- concurrent commits -----------------------------------------------
    serial_wall, serial_fsyncs, serial_frames = run["serialised"]
    conc_wall, conc_fsyncs, conc_frames = run["concurrent"]
    commits = COMMITTERS * COMMITS_EACH
    commit_speedup = (commits / conc_wall) / (commits / serial_wall)
    assert commit_speedup >= COMMIT_FLOOR, (
        f"concurrent commits reached only {commit_speedup:.2f}x commits/s "
        f"with {COMMITTERS} committers (floor {COMMIT_FLOOR}x)"
    )
    assert conc_fsyncs < serial_fsyncs, "coalescing saved no fsyncs"

    reporter.table(
        f"range scans over {NUM_KEYS} keys, {LATENCY_S * 1e3:.1f} ms/device "
        f"read, {SCANS} cold scans per arm; results and cipher totals "
        "identical across arms",
        ["arm", "scan wall-clock", "throughput vs blocking"],
        [
            ["blocking pager", f"{blocking_s * 1e3:,.1f} ms", "1.00x"],
            ["readahead (4 workers)", f"{overlap_s * 1e3:,.1f} ms",
             f"{overlap_speedup:,.2f}x"],
        ],
    )
    reporter.table(
        f"{COMMITTERS} committers x {COMMITS_EACH} commits, "
        f"{FSYNC_LATENCY_S * 1e3:.1f} ms/fsync modeled; all commits durable "
        "after reopen in both arms",
        ["arm", "wall-clock", "fsyncs", "WAL frames", "commits/s vs serialised"],
        [
            ["serialised (mutex)", f"{serial_wall * 1e3:,.1f} ms",
             serial_fsyncs, serial_frames, "1.00x"],
            ["concurrent", f"{conc_wall * 1e3:,.1f} ms",
             conc_fsyncs, conc_frames, f"{commit_speedup:,.2f}x"],
        ],
    )

    reporter.metrics({
        "keys": NUM_KEYS,
        "scans": SCANS,
        "device_latency_s": LATENCY_S,
        "scan_wall_s": {"blocking": blocking_s, "overlapped": overlap_s},
        "overlap_speedup": overlap_speedup,
        "overlap_pager": overlap_pager,
        "committers": COMMITTERS,
        "commits_each": COMMITS_EACH,
        "fsync_latency_s": FSYNC_LATENCY_S,
        "commit_wall_s": {"serialised": serial_wall, "concurrent": conc_wall},
        "commit_fsyncs": {"serialised": serial_fsyncs, "concurrent": conc_fsyncs},
        "wal_frames": {"serialised": serial_frames, "concurrent": conc_frames},
        "commit_speedup": commit_speedup,
        "parity": {
            "scan_results_identical": True,
            "scan_ciphers_identical": True,
        },
    })
