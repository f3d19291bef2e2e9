"""The span tracer: no-op fast path, histogram feed, fixed names, env switch."""

from __future__ import annotations

import time

import pytest

from repro.obs import INSTRUMENTS, ObsConfig, Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Span, Tracer


class TestDisabledPath:
    def test_disabled_trace_returns_shared_singleton(self):
        tracer = Tracer(MetricsRegistry(), enabled=False)
        first = tracer.trace("a")
        second = tracer.trace("b")
        assert first is second  # no allocation on the fast path

    def test_disabled_span_records_nothing(self):
        registry = MetricsRegistry(("op",))
        tracer = Tracer(registry, enabled=False)
        with tracer.trace("op"):
            pass
        assert registry.snapshot()["op"]["count"] == 0

    def test_disabled_trace_never_checks_the_name(self):
        tracer = Tracer(MetricsRegistry(("op",)), enabled=False)
        with tracer.trace("not-registered"):
            pass  # the fast path is one attribute check, nothing else

    def test_null_tracer_never_touches_a_registry(self):
        with NULL_TRACER.trace("anything"):
            pass  # registry is None; must not raise


class TestEnabledPath:
    def test_span_times_and_feeds_histogram(self):
        registry = MetricsRegistry(("op",))
        tracer = Tracer(registry, enabled=True)
        with tracer.trace("op"):
            time.sleep(0.002)
        snap = registry.snapshot()["op"]
        assert snap["count"] == 1
        assert snap["total_ns"] >= 2_000_000

    def test_span_records_even_when_body_raises(self):
        registry = MetricsRegistry(("op",))
        tracer = Tracer(registry, enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.trace("op"):
                raise RuntimeError("boom")
        assert registry.snapshot()["op"]["count"] == 1

    def test_unregistered_name_raises_before_the_body_runs(self):
        tracer = Tracer(MetricsRegistry(("op",)), enabled=True)
        ran = []
        with pytest.raises(KeyError):
            with tracer.trace("ad-hoc"):
                ran.append(True)
        assert ran == []

    def test_flipping_enabled_mid_flight(self):
        registry = MetricsRegistry(("op",))
        tracer = Tracer(registry, enabled=False)
        with tracer.trace("op"):
            pass
        tracer.enabled = True
        with tracer.trace("op"):
            pass
        assert registry.snapshot()["op"]["count"] == 1
        assert isinstance(tracer.trace("op"), Span)


class TestConfig:
    def test_default_config_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
        assert ObsConfig.from_env().enabled is False

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_TRACE", "1")
        assert ObsConfig.from_env().enabled is True
        monkeypatch.setenv("REPRO_OBS_TRACE", "0")
        assert ObsConfig.from_env().enabled is False
        monkeypatch.setenv("REPRO_OBS_TRACE", "")
        assert ObsConfig.from_env().enabled is False

    @pytest.mark.parametrize("value", ["false", "true", "yes", "2", " 1", "on"])
    def test_env_flag_rejects_other_values(self, monkeypatch, value):
        # only "", "0" and "1" are accepted: "false" must not mean "on"
        monkeypatch.setenv("REPRO_OBS_TRACE", value)
        with pytest.raises(ValueError, match="REPRO_OBS_TRACE"):
            ObsConfig.from_env()
        with pytest.raises(ValueError):
            Observability()

    def test_observability_honours_env_when_unconfigured(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_TRACE", "1")
        assert Observability().enabled is True
        monkeypatch.delenv("REPRO_OBS_TRACE")
        assert Observability().enabled is False
        # an explicit config beats the environment
        monkeypatch.setenv("REPRO_OBS_TRACE", "1")
        assert Observability(ObsConfig(enabled=False)).enabled is False

    def test_snapshot_is_latency_only(self):
        obs = Observability(ObsConfig(enabled=True))
        with obs.trace("db.get"):
            pass
        snap = obs.snapshot()
        assert list(snap) == ["latency"]
        assert set(snap["latency"]) == set(INSTRUMENTS)
        assert snap["latency"]["db.get"]["count"] == 1

    def test_dump_renders_without_traffic(self):
        obs = Observability(ObsConfig(enabled=True))
        text = obs.dump()
        assert "observability (enabled)" in text
        assert len(text.splitlines()) == 2  # title and header, no rows

    def test_dump_lists_instruments_that_saw_traffic(self):
        obs = Observability(ObsConfig(enabled=True))
        with obs.trace("db.get"):
            pass
        rows = obs.dump().splitlines()[2:]
        assert [row.split()[:2] for row in rows] == [["db.get", "1"]]
