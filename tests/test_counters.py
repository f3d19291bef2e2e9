"""Thread-safe operation counters: no lost increments under concurrency.

The ROADMAP's "operation counters under concurrency" item: tree and
substitution counters were plain ``+=`` fields, exact only in
single-threaded runs.  They now accumulate per-thread and merge on
read, so a concurrent benchmark can never under-report work.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.btree.tree import TreeCounters
from repro.counters import ThreadSafeCounters
from repro.crypto.base import CryptoOpCounts
from repro.substitution.base import SubstitutionCounters


def hammer(fn, threads: int = 8) -> None:
    """Run ``fn(thread_index)`` on N threads simultaneously."""
    start = threading.Barrier(threads)

    def run(i: int) -> None:
        start.wait()
        fn(i)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


class TestThreadSafeCounters:
    def test_no_lost_increments(self):
        counts = CryptoOpCounts()
        per_thread = 5000
        hammer(lambda i: [counts.bump("encryptions") for _ in range(per_thread)])
        assert counts.encryptions == 8 * per_thread

    def test_merged_reads_and_snapshot(self):
        counters = TreeCounters()

        def work(i: int) -> None:
            for _ in range(1000):
                counters.bump("comparisons")
            counters.bump("splits", i)

        hammer(work)
        assert counters.comparisons == 8000
        assert counters.splits == sum(range(8))
        snap = counters.snapshot()
        assert snap["comparisons"] == 8000
        assert snap["nodes_visited"] == 0

    def test_reset_zeroes_every_bucket(self):
        counters = SubstitutionCounters()
        hammer(lambda i: counters.bump("inversions", 10))
        assert counters.inversions == 80
        counters.reset()
        assert counters.inversions == 0
        assert counters.total == 0
        counters.bump("substitutions")
        assert counters.total == 1

    def test_totals_survive_thread_death(self):
        counts = CryptoOpCounts()
        t = threading.Thread(target=lambda: counts.bump("decryptions", 42))
        t.start()
        t.join()
        assert counts.decryptions == 42

    def test_dropped_counters_are_collectable_despite_live_threads(self):
        """The thread-death finalizer must hold only weak references:
        a counters object bumped from the (immortal) main thread and
        then dropped must be garbage-collectable immediately."""
        import gc
        import weakref

        counts = CryptoOpCounts()
        counts.bump("encryptions")  # registers a finalizer on this thread
        tracker = weakref.ref(counts)
        del counts
        gc.collect()
        assert tracker() is None, "finalizer pinned the counters object"

    def test_dead_threads_do_not_accumulate_buckets(self):
        """Thread churn folds buckets into the retired totals instead of
        growing the per-thread list (and reset clears both)."""
        import gc

        counts = CryptoOpCounts()
        for _ in range(50):
            t = threading.Thread(target=lambda: counts.bump("encryptions", 2))
            t.start()
            t.join()
            del t
        gc.collect()  # let the Thread finalizers run
        assert counts.encryptions == 100
        assert len(counts._buckets) < 50  # buckets were retired, not hoarded
        counts.reset()
        assert counts.encryptions == 0

    def test_first_bump_on_a_fresh_thread_registers_one_bucket(self):
        counts = CryptoOpCounts(encryptions=1)  # the main thread's bucket
        bumped, release = threading.Event(), threading.Event()
        seen: list[int] = []

        def worker() -> None:
            seen.append(len(counts._buckets))  # no bucket before a bump
            counts.bump("decryptions", 5)
            seen.append(len(counts._buckets))
            counts.bump("decryptions")  # the same bucket, not a new one
            seen.append(len(counts._buckets))
            bumped.set()
            release.wait(timeout=30)

        t = threading.Thread(target=worker)
        t.start()
        assert bumped.wait(timeout=30)
        assert seen == [1, 2, 2]
        assert counts.snapshot() == {"encryptions": 1, "decryptions": 6}
        release.set()
        t.join(timeout=30)
        assert not t.is_alive()

    def test_dead_thread_bucket_retires_into_the_totals(self):
        import gc

        counts = CryptoOpCounts()
        counts.bump("encryptions")
        t = threading.Thread(target=lambda: counts.bump("encryptions", 7))
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        del t
        gc.collect()
        assert len(counts._buckets) == 1  # only the live main thread's
        assert counts.encryptions == 8
        counts.bump("encryptions")  # the main thread's bucket still counts
        assert counts.encryptions == 9

    def test_reset_reaches_buckets_of_live_threads(self):
        counts = TreeCounters()
        bumped, done = threading.Barrier(4, timeout=30), threading.Barrier(4, timeout=30)
        cleared = threading.Event()

        def worker() -> None:
            counts.bump("comparisons", 10)
            bumped.wait()
            cleared.wait(timeout=30)
            counts.bump("comparisons")  # lands on the zeroed bucket
            done.wait()

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        bumped.wait()
        assert counts.comparisons == 30
        counts.reset()
        assert counts.comparisons == 0
        cleared.set()
        done.wait()
        assert counts.comparisons == 3
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    def test_constructor_seeding_preserves_dataclass_style(self):
        counts = CryptoOpCounts(encryptions=3, decryptions=4)
        assert counts.total == 7
        with pytest.raises(TypeError):
            CryptoOpCounts(bogus=1)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            TreeCounters().frobnications  # noqa: B018

    def test_unknown_bump_raises(self):
        with pytest.raises(KeyError):
            TreeCounters().bump("frobnications")


class TestCountersUnderRealLoad:
    def test_concurrent_searches_report_exact_traversal_work(self):
        """N threads x M searches must tally exactly N*M leaf inversions'
        worth of work: serial control and concurrent run agree."""
        from repro.core.database import EncipheredDatabase
        from repro.crypto.rsa import RSA, generate_rsa_keypair
        from repro.designs.difference_sets import planar_difference_set
        from repro.substitution.oval import OvalSubstitution

        design = planar_difference_set(13)
        rng = random.Random(0xC2)
        db = EncipheredDatabase.create(
            OvalSubstitution(design, t=5),
            RSA(generate_rsa_keypair(bits=128, rng=rng)),
        )
        keys = rng.sample(range(design.v), 60)
        for k in keys:
            db.insert(k, b"x")
        probes = keys[:20]

        db.tree.counters.reset()
        db.substitution.counters.reset()
        db.pointer_cipher.reset_counts()
        for k in probes:
            db.search(k)
        serial = (
            db.tree.counters.snapshot(),
            db.substitution.counters.snapshot(),
            db.pointer_cipher.counts.snapshot(),
        )

        db.tree.counters.reset()
        db.substitution.counters.reset()
        db.pointer_cipher.reset_counts()
        hammer(lambda i: [db.search(k) for k in probes], threads=4)
        concurrent = (
            db.tree.counters.snapshot(),
            db.substitution.counters.snapshot(),
            db.pointer_cipher.counts.snapshot(),
        )
        for serial_counts, concurrent_counts in zip(serial, concurrent):
            for field, value in serial_counts.items():
                assert concurrent_counts[field] == 4 * value, (
                    f"{field}: expected {4 * value}, got {concurrent_counts[field]}"
                )
