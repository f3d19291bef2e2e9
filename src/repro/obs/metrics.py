"""Mergeable latency histograms for the observability plane.

The engine's cost model has always been *counters* -- exact, additive,
mergeable across threads and shards.  Latency must ride the same rails
or it cannot be rolled up: a list of raw durations does not merge
leaf-wise (variable shape).

:class:`Histogram` therefore stores latency as **fixed-shape counts**: a
log-spaced bucket per power-of-two microsecond band, plus an exact
``count`` and ``total_ns``.  Every field is an additive integer, so a
histogram snapshot is just another counter dict -- it flows through
:func:`repro.cluster.stats.merge_counter_dicts`, and two merged histograms answer
the same percentile queries as one histogram that saw both streams
(bucketing is deterministic, so merging loses nothing the bucket
resolution had not already discarded).

Percentiles are **computed at export time** from the bucket counts
(:func:`percentile`, :func:`summarize`) -- never stored, because a p99 is
not additive.  This is the standard fixed-bucket design (Prometheus
histograms, HdrHistogram's iteration mode) applied to the repo's
per-thread-bucket :class:`~repro.counters.ThreadSafeCounters`: the
observe path touches only the calling thread's private dict, so
instrumenting a hot path adds no lock traffic.
"""

from __future__ import annotations

from repro.counters import ThreadSafeCounters

__all__ = [
    "BUCKET_FIELDS",
    "Histogram",
    "MetricsRegistry",
    "NUM_BUCKETS",
    "bucket_bounds_s",
    "bucket_index",
    "percentile",
    "summarize",
]

#: Bucket ``i`` counts observations with duration < 2**i microseconds
#: (the last bucket is the overflow: everything >= 2**(NUM_BUCKETS-2) us,
#: i.e. >= ~67 s with 28 buckets -- far beyond any single engine op).
NUM_BUCKETS = 28

BUCKET_FIELDS = tuple(f"le_{i:02d}" for i in range(NUM_BUCKETS))

#: Upper bound of each bucket in seconds (used by percentile readout).
_BUCKET_UPPER_S = tuple((1 << i) / 1e6 for i in range(NUM_BUCKETS))


def bucket_index(duration_ns: int) -> int:
    """Deterministic bucket for a duration: ``floor(log2(us)) + 1``, clamped.

    ``bit_length`` of the integer microsecond count gives the log-spaced
    band directly: 0 us -> bucket 0, 1 us -> 1, 2-3 us -> 2, ... with
    everything past the top band collapsing into the overflow bucket.
    """
    idx = (duration_ns // 1000).bit_length()
    return idx if idx < NUM_BUCKETS else NUM_BUCKETS - 1


class Histogram(ThreadSafeCounters):
    """A fixed-bucket latency histogram with per-thread write buckets.

    The observe path performs one thread-local dict lookup and three
    plain ``+=`` increments -- the same lock-free discipline as every
    other counter in the engine.  Reads (:meth:`snapshot`) merge all
    thread buckets under the lock, exactly like
    :class:`~repro.counters.ThreadSafeCounters`.
    """

    _FIELDS = ("count", "total_ns") + BUCKET_FIELDS

    def observe_ns(self, duration_ns: int) -> None:
        """Record one observation of ``duration_ns`` nanoseconds."""
        try:
            bucket = self._local.bucket
        except AttributeError:  # this thread's first observation
            bucket = self._register()
        bucket["count"] += 1
        bucket["total_ns"] += duration_ns
        bucket[BUCKET_FIELDS[bucket_index(duration_ns)]] += 1

    def observe_s(self, duration_s: float) -> None:
        """Record one observation expressed in seconds."""
        self.observe_ns(int(duration_s * 1e9))


def bucket_bounds_s() -> tuple[float, ...]:
    """Upper bound of every bucket in seconds, in bucket order."""
    return _BUCKET_UPPER_S


def percentile(snapshot: dict, q: float) -> float:
    """The ``q``-quantile upper bound (seconds) from a histogram snapshot.

    ``snapshot`` is any dict with ``count`` and the ``le_XX`` bucket
    fields -- a single histogram's :meth:`Histogram.snapshot`, or the
    leaf-wise merge of many (cluster rollups).  Returns
    the upper bound of the bucket containing the target rank, i.e. a
    conservative (never-optimistic) latency estimate at the bucket
    resolution.  Zero observations -> ``0.0``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    total = snapshot["count"]
    if total <= 0:
        return 0.0
    # the smallest rank r with r >= q * total, at least 1
    target = max(1, -(-int(q * total * 1_000_000) // 1_000_000))
    seen = 0
    for index, field in enumerate(BUCKET_FIELDS):
        seen += snapshot[field]
        if seen >= target:
            return _BUCKET_UPPER_S[index]
    return _BUCKET_UPPER_S[-1]


def summarize(snapshot: dict) -> dict:
    """Count / mean / p50 / p95 / p99 summary of a histogram snapshot.

    Works on merged snapshots exactly as on single ones -- this is the
    read side the cluster rollup and the ``dump()`` table share.  Times
    are seconds (floats); the mean is exact (from ``total_ns``), the
    percentiles are bucket upper bounds.
    """
    count = snapshot["count"]
    return {
        "count": count,
        "total_s": snapshot["total_ns"] / 1e9,
        "mean_s": (snapshot["total_ns"] / count / 1e9) if count else 0.0,
        "p50_s": percentile(snapshot, 0.50),
        "p95_s": percentile(snapshot, 0.95),
        "p99_s": percentile(snapshot, 0.99),
    }


class MetricsRegistry:
    """Named histograms with a fixed shape, set at construction.

    The cluster merges whole stats snapshots leaf-wise, so the set of
    histograms must be identical in every snapshot a database ever
    produces.  The registry therefore holds
    exactly the instrument names passed to the constructor (the
    engine's are ``repro.obs.INSTRUMENTS``) and never grows.
    """

    def __init__(self, histogram_names: tuple[str, ...] = ()) -> None:
        self._histograms: dict[str, Histogram] = {
            name: Histogram() for name in histogram_names
        }

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name``.

        Raises :class:`KeyError` for a name outside the registry: an
        ad-hoc instrument would break the fixed snapshot shape.
        """
        return self._histograms[name]

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Every histogram's merged counts -- all leaves additive ints."""
        return {name: hist.snapshot() for name, hist in self._histograms.items()}
