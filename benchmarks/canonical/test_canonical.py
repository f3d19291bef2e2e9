"""Tests of the canonical benchmark: smoke runs, op streams and the tracer."""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from pathlib import Path

import pytest

import harness
from spans import OP, SpanTracer

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _declared(section: str) -> list[str]:
    return sorted(m["name"] for m in SPEC[section])


def test_workloads_match_the_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, tmp_path):
    measured = harness.measure(
        workload, seed=7, seconds=0.2, workdir=tmp_path / "measured", num_keys=64, setups=1
    )
    traced = harness.trace(workload, seed=7, seconds=0.2, workdir=tmp_path / "traced", num_keys=64)
    for result, section in ((measured, "end_to_end"), (traced, "per_layer")):
        assert sorted(result["metrics"]) == _declared(section)
        assert all(math.isfinite(v) for v in result["metrics"].values())
        assert result["attempted"] > 1
        assert result["failed"] == 0
    assert traced["metrics"]["trace.unattributed_frac"] <= 0.05


def test_op_streams_are_determined_by_the_seed():
    def take(workload, seed, client):
        clients = harness.WORKLOADS[workload].clients
        loaded = [key for key, _ in harness.load_items(seed, 200)]
        return list(itertools.islice(
            harness.op_stream(workload, seed, client, clients, loaded), 300
        ))

    assert harness.load_items(5, 200) == harness.load_items(5, 200)
    assert harness.load_items(5, 200) != harness.load_items(6, 200)
    for name, workload in harness.WORKLOADS.items():
        for client in range(workload.clients):
            assert take(name, 5, client) == take(name, 5, client)
            assert take(name, 5, client) != take(name, 6, client)


def test_op_streams_stay_valid_under_any_interleaving():
    """A client touches only its own keys, and each of its mutations applies."""
    items = harness.load_items(3, 200)
    loaded = [key for key, _ in items]
    for name, workload in harness.WORKLOADS.items():
        for client, oracle in enumerate(harness._oracles(items, workload.clients)):
            stream = harness.op_stream(name, 3, client, workload.clients, loaded)
            for op in itertools.islice(stream, 500):
                kind = op[0]
                if kind == "range":
                    continue
                if kind == "put_many":
                    keys = [key for key, _ in op[1]]
                elif kind == "delete_many":
                    keys = op[1]
                else:
                    keys = [op[1]]
                assert all(key in harness.owned_keys(client, workload.clients) for key in keys)
                fresh = kind in ("put", "put_many")
                assert all((key in oracle.data) != fresh for key in keys)
                oracle.check(op, None)


def _sample(op_type, mark_ms, probe_us, latency_ms):
    mark = int(mark_ms * 1e6)
    latency = int(latency_ms * 1e6)
    return harness.Sample(op_type, mark, int(probe_us * 1e3), mark + latency, latency)


def test_timings_are_scaled_to_the_reference_speed():
    # one client: 60 ops of 8 ms every 10 ms at the reference speed, then
    # 40 ops of 12 ms every 15 ms with the host 1.5x slower
    fast, slow = 60, 40
    reference_us = harness.REFERENCE_PROBE_NS / 1e3
    samples = [_sample("get", 10 * i, reference_us, 8) for i in range(fast)] + [
        _sample("get", 10 * fast + 15 * i, 1.5 * reference_us, 12) for i in range(slow)
    ]
    timeline = harness.Timeline(samples)
    summary = harness.latency_summary(samples, timeline)["get"]
    assert summary["p50_ms"] == pytest.approx(8)
    assert summary["p90_ms"] == pytest.approx(8)
    assert summary["timed_p90_ms"] == pytest.approx(12)
    assert harness._throughput(timeline) == pytest.approx(100)

    # an operation is scaled by every probe from its own mark to the
    # first one at or after its end, whichever client took them
    # (here the 10 fast marks from 500 ms and the 8 slow ones to 705 ms)
    across = _sample("range", 10 * fast - 100, reference_us, 200)
    assert timeline.latency(across) == pytest.approx(200e6 * 18 / (10 + 8 * 1.5))


class _Layer:
    def __init__(self, work_s: float, inner=None, pool_work=None) -> None:
        self.work_s = work_s
        self.inner = inner
        self.pool_work = pool_work

    def call(self) -> None:
        time.sleep(self.work_s)
        if self.pool_work is not None:
            worker = threading.Thread(target=self.pool_work.call)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        if self.inner is not None:
            self.inner.call()


def test_tracer_self_times_sum_to_wall_and_pool_spans_stay_off_the_caller_stack():
    pool_leaf = _Layer(0.02)
    leaf = _Layer(0.005)
    middle = _Layer(0.005, inner=leaf, pool_work=pool_leaf)
    outer = _Layer(0.005, inner=middle)
    tracer = SpanTracer()
    tracer.wrap(outer, "call", "outer")
    tracer.wrap(middle, "call", "middle")
    tracer.wrap(leaf, "call", "leaf")
    tracer.wrap(pool_leaf, "call", "leaf")
    for _ in range(2):
        with tracer.span(OP):
            outer.call()
    tracer.unwrap_all()
    assert "call" not in vars(outer) and "call" not in vars(pool_leaf)

    totals = tracer.totals()
    assert totals.ops == 2
    # every nanosecond of every thread's root spans is some span's self time
    assert sum(totals.self_ns.values()) == totals.op_ns + totals.background_ns
    # the pool thread's leaf opened its own root: it is never a child of
    # the caller's middle span, which keeps the time it waited instead
    assert totals.edges[(None, "leaf")] == 2
    assert totals.edges[("middle", "leaf")] == 2
    assert totals.background_ns >= 2 * 0.02e9
    assert totals.self_ns["middle"] >= 2 * (0.005 + 0.02) * 1e9
    assert totals.self_ns["outer"] < totals.self_ns["middle"]
    assert totals.op_self_ns < 0.05 * totals.op_ns
