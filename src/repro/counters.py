"""Thread-safe operation counters: per-thread accumulation, merged reads.

The repo's cost model is a *counting* argument -- substitutions per
probe, decryptions per node visit, comparisons per descent -- and the
counters were originally plain dataclass fields bumped with ``+=``.
That was exact in single-threaded runs but racy the moment the cluster's
thread pool fanned readers out: two threads loading, incrementing and
storing the same field lose updates, so a concurrent benchmark could
*under-report* cryptographic work (the one direction a security cost
model must never err in).

:class:`ThreadSafeCounters` closes that without putting a lock on every
hot-path increment: each thread accumulates into its own private bucket
(no sharing, no contention, no lost updates), and reads merge all
buckets under a lock.  A bucket is registered on its thread's first
bump, after which a bump is one ``threading.local`` attribute read and
one dict increment; when its thread is collected the bucket is folded
into a retired total, so totals never shrink and unbounded thread churn
never grows the bucket list or slows the merged reads.  The merged read
is a momentary sum -- exact whenever the writers are quiescent (which is
when benchmarks read it), and never an undercount of work already
completed by any thread at merge time.

Hot loops need not bump per event: the B-tree's read descents count
their probes and node visits in local variables and bump once per
operation (in a ``finally``, so a descent that raises still books the
work it did).  Per-operation booking is exact -- the totals are the
same sums -- and it keeps counting cheap next to what it counts.

Concrete counter families (:class:`~repro.btree.tree.TreeCounters`,
:class:`~repro.substitution.base.SubstitutionCounters`,
:class:`~repro.crypto.base.CryptoOpCounts`, ...) subclass this with a
``_FIELDS`` tuple; each field is readable as an attribute (merged total)
and bumped via :meth:`bump`.
"""

from __future__ import annotations

import threading
import weakref


class _Bucket(dict):
    """A per-thread counter dict that supports weak references."""

    __slots__ = ("__weakref__",)


def _retire_bucket(counters_ref: "weakref.ref", bucket_ref: "weakref.ref") -> None:
    """Thread-death finalizer: fold the bucket into the retired totals.

    Module-level and armed with *weak* references only, so the finalizer
    pins neither the counters object nor the bucket: a counters object
    dropped by its owner is collectable immediately, even though the
    thread that bumped it (e.g. the main thread) lives on.
    """
    counters = counters_ref()
    bucket = bucket_ref()
    if counters is not None and bucket is not None:
        counters._retire(bucket)


class ThreadSafeCounters:
    """Named integer counters with per-thread buckets and merged reads.

    Subclasses declare ``_FIELDS``; every field then reads as a merged
    attribute (``counters.comparisons``) and increments via
    ``counters.bump("comparisons")``.  Constructor keyword arguments
    seed the calling thread's bucket, preserving the old dataclass
    construction style (``CryptoOpCounts(encryptions=3)``).
    """

    _FIELDS: tuple[str, ...] = ()

    def __init__(self, **initial: int) -> None:
        self._lock = threading.Lock()
        self._buckets: list[dict[str, int]] = []
        # counts folded in from threads that have exited, so totals
        # survive thread death without keeping a bucket per dead thread
        self._retired: dict[str, int] = dict.fromkeys(self._FIELDS, 0)
        self._finalizers: list[weakref.finalize] = []
        # each thread's bucket, as attribute ``bucket``: a plain local,
        # whose attribute reads are cheaper than a subclass's
        self._local = threading.local()
        for field, value in initial.items():
            if field not in self._FIELDS:
                raise TypeError(
                    f"{type(self).__name__} has no counter {field!r}"
                )
            self.bump(field, value)

    # -- the write side (per-thread, lock-free) --------------------------

    def _register(self) -> dict[str, int]:
        """Make and register the calling thread's bucket (once per thread).

        Called on a thread's first bump, when ``self._local.bucket`` is
        still missing; counters a thread never bumps -- most latency
        histograms while tracing is off -- cost it nothing.
        """
        bucket = _Bucket.fromkeys(self._FIELDS, 0)
        # when this thread's Thread object is collected, fold the bucket
        # into the retired totals -- unbounded thread churn must not grow
        # the bucket list or slow the merged reads
        finalizer = weakref.finalize(
            threading.current_thread(),
            _retire_bucket,
            weakref.ref(self),
            weakref.ref(bucket),
        )
        with self._lock:
            self._buckets.append(bucket)
            self._finalizers.append(finalizer)
        self._local.bucket = bucket
        return bucket

    def __del__(self) -> None:
        # detach this instance's registrations from long-lived threads'
        # finalizer registries, so counter-object churn on an immortal
        # thread (e.g. main) does not accumulate dead no-op records
        for finalizer in getattr(self, "_finalizers", ()):
            finalizer.detach()

    def _retire(self, bucket: dict[str, int]) -> None:
        with self._lock:
            try:
                self._buckets.remove(bucket)
            except ValueError:
                return  # already retired (e.g. racing finalizers)
            for field, value in bucket.items():
                self._retired[field] += value

    def bump(self, field: str, n: int = 1) -> None:
        """Add ``n`` to ``field`` in this thread's private bucket."""
        try:
            self._local.bucket[field] += n
        except AttributeError:  # this thread's first bump
            self._register()[field] += n

    # -- the read side (merged under the lock) ---------------------------

    def __getattr__(self, name: str):
        # only consulted when normal lookup fails, i.e. for counter
        # fields (real attributes live in __init__ / class properties)
        if name in type(self)._FIELDS:
            with self._lock:
                return self._retired[name] + sum(
                    bucket[name] for bucket in self._buckets
                )
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def snapshot(self) -> dict[str, int]:
        """Every field's merged total, in one pass under the lock."""
        with self._lock:
            return {
                field: self._retired[field]
                + sum(bucket[field] for bucket in self._buckets)
                for field in type(self)._FIELDS
            }

    def reset(self) -> None:
        """Zero every thread's bucket (and the retired totals).

        Exact when writers are quiescent; a thread racing an increment
        past a reset may keep that one increment.
        """
        with self._lock:
            for field in type(self)._FIELDS:
                self._retired[field] = 0
            for bucket in self._buckets:
                for field in type(self)._FIELDS:
                    bucket[field] = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"{type(self).__name__}({fields})"
