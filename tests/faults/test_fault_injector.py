"""The fault plane's own contracts: plan grammar, injector, retry policy.

Everything here is deterministic by construction -- same plan, same
seed, same decisions -- because the chaos matrix's byte-identity
assertions only mean something when a failing schedule can be replayed
exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import (
    PermanentIOError,
    ShardUnavailableError,
    TransientIOError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrashError,
    RetryPolicy,
    plan_from_env,
    zero_fault_counters,
)


class TestPlanGrammar:
    def test_full_spec_round_trip(self):
        plan = FaultPlan.parse(
            "seed=42; attempts=5, delay=0.003 "
            "read.transient@5 write.torn@12 read.latency*10=0.004 "
            "write.transient%0.01 sync.permanent@3 crash:wal:appended@1"
        )
        assert plan.seed == 42
        assert plan.retry.max_attempts == 5
        assert plan.retry.base_delay_s == 0.003
        ops = [(r.op, r.kind) for r in plan.rules]
        assert ops == [
            ("read", "transient"),
            ("write", "torn"),
            ("read", "latency"),
            ("write", "transient"),
            ("sync", "permanent"),
            ("crash", "crash"),
        ]
        assert plan.rules[0].at == 5
        assert plan.rules[2].every == 10
        assert plan.rules[2].delay_s == 0.004
        assert plan.rules[3].probability == 0.01
        assert plan.rules[5].point == "wal:appended"

    def test_empty_spec_is_an_empty_plan(self):
        plan = FaultPlan.parse("seed=7")
        assert plan.rules == ()
        assert plan.seed == 7

    @pytest.mark.parametrize(
        "bad",
        [
            "read.transient",  # no trigger
            "bogus.transient@1",  # unknown op
            "read.bogus@1",  # unknown kind
            "crash:@1",  # crash without a point
        ],
    )
    def test_malformed_tokens_fail_fast(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(op="read", kind="transient")  # no trigger
        with pytest.raises(ValueError):
            FaultRule(op="read", kind="nope", at=1)


class TestInjector:
    def test_at_rule_fires_exactly_once(self):
        plan = FaultPlan.parse("read.transient@3")
        inj = FaultInjector(plan)
        actions = [inj.fire("read") for _ in range(6)]
        assert [a.kind if a else None for a in actions] == [
            None, None, "transient", None, None, None,
        ]
        assert inj.snapshot()["injected_transient"] == 1

    def test_every_rule_fires_periodically(self):
        inj = FaultInjector(FaultPlan.parse("write.latency*2=0.0"))
        kinds = [getattr(inj.fire("write"), "kind", None) for _ in range(6)]
        assert kinds == [None, "latency", None, "latency", None, "latency"]
        assert inj.snapshot()["injected_latency"] == 3

    def test_ops_count_independently(self):
        inj = FaultInjector(FaultPlan.parse("read.transient@2 write.transient@2"))
        assert inj.fire("read") is None
        assert inj.fire("write") is None
        assert inj.fire("read").kind == "transient"
        assert inj.fire("write").kind == "transient"
        assert inj.op_counts() == {"read": 2, "write": 2, "sync": 0}

    def test_probability_rules_are_seed_deterministic(self):
        plan = FaultPlan.parse("read.transient%0.3")
        a = FaultInjector(plan, seed=99)
        b = FaultInjector(plan, seed=99)
        decisions_a = [a.fire("read") is not None for _ in range(200)]
        decisions_b = [b.fire("read") is not None for _ in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_permanent_fault_is_sticky(self):
        inj = FaultInjector(FaultPlan.parse("write.permanent@2"))
        assert inj.fire("write") is None
        assert inj.fire("write").kind == "permanent"
        assert inj.failed
        # every subsequent op -- any op -- fails permanently
        assert inj.fire("read").kind == "permanent"
        assert inj.fire("sync").kind == "permanent"
        assert inj.snapshot()["injected_permanent"] == 3

    def test_crash_point_counts_and_raises(self):
        inj = FaultInjector(FaultPlan.parse("crash:wal:appended@2"))
        inj.crash_point("wal:appended")  # first hit: armed for the 2nd
        inj.crash_point("header:flipped")  # different point: ignored
        with pytest.raises(InjectedCrashError):
            inj.crash_point("wal:appended")
        assert inj.snapshot()["injected_crashes"] == 1

    def test_tear_same_length_different_bytes(self):
        inj = FaultInjector(FaultPlan())
        payload = bytes(range(64))
        torn = inj.tear(payload)
        assert len(torn) == len(payload)
        assert torn != payload
        assert torn == inj.tear(payload)  # deterministic
        assert inj.tear(b"") == b""

    def test_plan_injectors_get_distinct_deterministic_seeds(self):
        plan = FaultPlan(seed=5)
        assert plan.injector().seed != plan.injector().seed

    def test_counter_shape_is_fixed(self):
        assert set(FaultInjector(FaultPlan()).snapshot()) == set(
            zero_fault_counters()
        )


class TestRetryPolicy:
    def test_classification(self):
        assert RetryPolicy.is_transient(TransientIOError("x"))
        assert not RetryPolicy.is_transient(PermanentIOError("x"))
        assert not RetryPolicy.is_transient(ShardUnavailableError(0, "gone"))
        assert not RetryPolicy.is_transient(ValueError("x"))
        assert not RetryPolicy.is_transient(InjectedCrashError("x"))

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.010, max_delay_s=0.035, jitter=0.0)
        delays = [policy.delay_for(a) for a in (1, 2, 3, 4)]
        assert delays == [0.010, 0.020, 0.035, 0.035]

    def test_jitter_only_shaves(self):
        policy = RetryPolicy(base_delay_s=0.010, jitter=0.5)
        rng = random.Random(3)
        for attempt in (1, 2, 3):
            full = policy.delay_for(attempt)
            jittered = policy.delay_for(attempt, rng)
            assert 0.5 * full <= jittered <= full

    def test_call_retries_transient_until_success(self):
        attempts = []
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientIOError("not yet")
            return "ok"

        retries = []
        assert policy.call(flaky, on_retry=lambda a, e: retries.append(a)) == "ok"
        assert len(attempts) == 3
        assert retries == [1, 2]

    def test_call_exhausts_budget(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        calls = []

        def always():
            calls.append(1)
            raise TransientIOError("still broken")

        with pytest.raises(TransientIOError):
            policy.call(always)
        assert len(calls) == 2

    def test_call_never_retries_permanent(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        calls = []

        def dead():
            calls.append(1)
            raise PermanentIOError("spindle gone")

        with pytest.raises(PermanentIOError):
            policy.call(dead)
        assert len(calls) == 1


class TestEnvPlan:
    def test_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert plan_from_env() is None

    def test_spec_parses_and_caches(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9 read.transient%0.5")
        first = plan_from_env()
        assert first.seed == 9 and len(first.rules) == 1
        assert plan_from_env() is first  # same spec string: cached object


class TestExceptionTypes:
    def test_shard_unavailable_carries_shard_and_reason(self):
        exc = ShardUnavailableError(2, "quarantined: dead spindle")
        assert exc.shard_id == 2
        assert "shard 2 unavailable" in str(exc)
        assert "dead spindle" in str(exc)
