"""Per-layer span tracing for the canonical benchmark's traced pass.

The engine's own tracer (:mod:`repro.obs.tracing`) records flat spans, so
nested spans double-count.  This tracer is benchmark code: it wraps the
public methods of *live* engine objects (instance attributes shadowing
the class methods, removed again by :meth:`SpanTracer.unwrap_all`), keeps
one span stack per thread, and charges every span its exclusive (self)
time -- its duration minus the durations of the spans it directly
encloses on the same thread.  Over one thread the self times therefore
sum exactly to the wall time of the root spans.

A client operation is a root span named :data:`OP`.  Work a pool thread
does on a client's behalf (the cluster's shard fan-out) opens its own
root span on that thread's stack, so it never lands on the caller's
stack: the caller's enclosing span keeps the time it spent waiting, and
the pool thread's root time is reported as executor busy time.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter_ns

#: Layer name of the root span around each client operation.
OP = "op"

_DEVICE_IO = ("read_block", "write_block", "read_many", "write_many")

#: (attribute path from an EncipheredDatabase, methods, layer).  The
#: record cipher is the record device's transform; the WAL is each
#: platter's ``sync``.
DATABASE_LAYERS = (
    ("lock", ("acquire_read", "acquire_write"), "rwlock"),
    ("", ("get", "search", "insert", "delete", "range_search",
          "put_many", "delete_many", "commit"), "database"),
    ("tree", ("search", "range_search", "insert", "delete"), "btree"),
    ("tree.codec", ("encode", "decode"), "codec"),
    ("substitution", ("substitute", "invert"), "substitution"),
    ("pointer_cipher", ("encrypt_int", "decrypt_int"), "pointer_cipher"),
    ("tree.pager", ("read", "read_decoded", "write", "flush"), "pager"),
    ("records", ("get", "put", "delete"), "records"),
    ("records.disk.transform", ("on_read", "on_write"), "record_cipher"),
    ("disk", _DEVICE_IO, "device"),
    ("records.disk", _DEVICE_IO, "device"),
    ("disk", ("sync",), "wal"),
    ("records.disk", ("sync",), "wal"),
)

CLUSTER_METHODS = ("get", "range_search", "insert", "delete", "put_many", "delete_many")

_ABSENT = object()


@dataclass
class SpanTotals:
    """Span accumulators: one thread's, or every thread's merged."""

    ops: int = 0
    op_ns: int = 0
    op_self_ns: int = 0
    background_ns: int = 0
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: ``(enclosing layer or None, layer) -> spans closed``.
    edges: dict[tuple[str | None, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )


@dataclass
class _ThreadSpans(SpanTotals):
    """One thread's span stack and accumulators (touched by that thread only)."""

    #: Open spans, innermost last: ``[layer, child_ns, start_ns]``.
    stack: list[list] = field(default_factory=list)


class SpanTracer:
    """Wraps methods of live objects and attributes self time to layers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._patched: list[tuple[object, str, object]] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def _open(self, layer: str) -> tuple[_ThreadSpans, list]:
        spans = self._spans()
        frame = [layer, 0, perf_counter_ns()]
        spans.stack.append(frame)
        return spans, frame

    @staticmethod
    def _close(spans: _ThreadSpans, frame: list, name: str) -> None:
        elapsed = perf_counter_ns() - frame[2]
        stack = spans.stack
        stack.pop()
        layer = frame[0]
        own = elapsed - frame[1]
        spans.self_ns[layer] += own
        spans.calls[name] += 1
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            spans.edges[(parent[0], layer)] += 1
            return
        spans.edges[(None, layer)] += 1
        if layer == OP:
            spans.ops += 1
            spans.op_ns += elapsed
            spans.op_self_ns += own
        else:
            spans.background_ns += elapsed

    @contextmanager
    def span(self, layer: str):
        """A span around a block of benchmark code (the per-op root)."""
        spans, frame = self._open(layer)
        try:
            yield
        finally:
            self._close(spans, frame, layer)

    def wrap(self, obj: object, method: str, layer: str) -> None:
        """Trace ``obj.method`` as a span of ``layer`` (once per object)."""
        if any(o is obj and m == method for o, m, _ in self._patched):
            return
        original = getattr(obj, method)
        name = f"{layer}.{method}"
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            spans, frame = open_span(layer)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(spans, frame, name)

        self._patched.append((obj, method, vars(obj).get(method, _ABSENT)))
        setattr(obj, method, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped method."""
        for obj, method, previous in reversed(self._patched):
            if previous is _ABSENT:
                delattr(obj, method)
            else:
                setattr(obj, method, previous)
        self._patched.clear()

    def totals(self) -> SpanTotals:
        """Merge every thread's accumulators (call once the threads are idle)."""
        out = SpanTotals()
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            out.ops += spans.ops
            out.op_ns += spans.op_ns
            out.op_self_ns += spans.op_self_ns
            out.background_ns += spans.background_ns
            for target, source in (
                (out.self_ns, spans.self_ns),
                (out.calls, spans.calls),
                (out.edges, spans.edges),
            ):
                for key, value in source.items():
                    target[key] += value
        return out


def instrument(tracer: SpanTracer, store) -> None:
    """Wrap every layer of a database, or of a cluster and all its shards."""
    shards = getattr(store, "shards", None)
    if shards is not None:
        for method in CLUSTER_METHODS:
            tracer.wrap(store, method, "cluster")
    for db in shards if shards is not None else [store]:
        for path, methods, layer in DATABASE_LAYERS:
            obj = attrgetter(path)(db) if path else db
            for method in methods:
                tracer.wrap(obj, method, layer)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: SpanTotals, counts: dict[str, int], overhead_frac: float
) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``counts`` holds the engine's own counters (from ``stats()``) over the
    traced operations; times come from the spans.  A layer the workload
    never enters reads 0.
    """
    ops = totals.ops

    def self_us(layer: str) -> float:
        return _ratio(totals.self_ns.get(layer, 0) / 1e3, ops)

    def per_op(count: float) -> float:
        return _ratio(count, ops)

    pointer_calls = counts["pointer_encrypts"] + counts["pointer_decrypts"]
    # a shard call is a database span opened by the cluster inline, or
    # as the root of a pool thread's share of a fan-out
    shard_calls = totals.edges.get(("cluster", "database"), 0) + totals.edges.get(
        (None, "database"), 0
    )
    return {
        "rwlock.wait_us_per_op": self_us("rwlock"),
        "database.self_us_per_op": self_us("database"),
        "cluster.self_us_per_op": self_us("cluster"),
        "cluster.shards_per_op": per_op(shard_calls),
        "executor.pool_busy_us_per_op": per_op(totals.background_ns / 1e3),
        "btree.self_us_per_op": self_us("btree"),
        "btree.nodes_per_op": per_op(counts["nodes_visited"]),
        "codec.self_us_per_op": self_us("codec"),
        "codec.encodes_per_op": per_op(totals.calls.get("codec.encode", 0)),
        "substitution.self_us_per_op": self_us("substitution"),
        "substitution.inversions_per_op": per_op(counts["inversions"]),
        "pointer_cipher.self_us_per_op": self_us("pointer_cipher"),
        "pointer_cipher.decrypts_per_op": per_op(counts["pointer_decrypts"]),
        "pointer_cipher.encrypts_per_op": per_op(counts["pointer_encrypts"]),
        "pointer_cipher.us_per_call": _ratio(
            totals.self_ns.get("pointer_cipher", 0) / 1e3, pointer_calls
        ),
        "pager.self_us_per_op": self_us("pager"),
        "pager.hit_rate": _ratio(
            counts["pager_hits"], counts["pager_hits"] + counts["pager_misses"]
        ),
        "records.self_us_per_op": self_us("records"),
        "record_cipher.self_us_per_op": self_us("record_cipher"),
        "record_cipher.blocks_per_op": per_op(counts["record_blocks"]),
        "record_cipher.us_per_block": _ratio(
            totals.self_ns.get("record_cipher", 0) / 1e3, counts["record_blocks"]
        ),
        "device.self_us_per_op": self_us("device"),
        "device.blocks_read_per_op": per_op(counts["blocks_read"]),
        "device.blocks_written_per_op": per_op(counts["blocks_written"]),
        "device.bytes_written_per_op": per_op(counts["bytes_written"]),
        "wal.self_us_per_op": self_us("wal"),
        "wal.syncs_per_op": per_op(counts["syncs"]),
        "wal.bytes_per_sync": _ratio(counts["wal_bytes"], counts["syncs"]),
        "trace.unattributed_frac": _ratio(totals.op_self_ns, totals.op_ns),
        "trace.overhead_frac": overhead_frac,
    }
