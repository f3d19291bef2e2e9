"""Graceful degradation: the health state machine and partial reads.

A shard whose device keeps failing walks healthy -> degraded ->
quarantined; quarantine makes cluster operations fail fast with the
typed :class:`ShardUnavailableError` -- or, when the cluster opted into
``degraded_reads``, lets read fan-outs skip the dead shard and say so
via :class:`PartialResult`.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.health import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    ClusterHealth,
    PartialResult,
)
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import (
    PermanentIOError,
    ShardUnavailableError,
    TransientIOError,
)
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 3
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xE0 + i)))


def make_cluster(**kwargs) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=NUM_SHARDS,
        router="hash",
        block_size=512,
        min_degree=2,
        cache_blocks=2,
        **kwargs,
    )


def seed_data(cluster, n=60):
    rng = random.Random(11)
    keys = rng.sample(range(DESIGN.v), n)
    cluster.put_many([(k, f"rec-{k}".encode()) for k in keys])
    return keys


def shard_of(cluster, keys, shard_id):
    return [k for k in keys if cluster.router.shard_for(k) == shard_id]


def kill_shard_device(cluster, shard_id):
    """Arm an everything-fails-permanently schedule on one shard."""
    plan = FaultPlan.parse("read.permanent@1 write.permanent@1 sync.permanent@1")
    for device in (cluster.shards[shard_id].disk, cluster.shards[shard_id].records.disk):
        device.attach_faults(FaultInjector(plan), FAST_RETRY)
    cluster.shards[shard_id].clear_caches()


class TestStateMachine:
    def test_failure_streak_degrades_then_quarantines(self):
        health = ClusterHealth(2, degrade_after=3, recover_after=2, quarantine_after=6)
        for _ in range(2):
            health.record_failure(0)
        assert health.state(0) == HEALTHY
        health.record_failure(0)
        assert health.state(0) == DEGRADED
        for _ in range(3):
            health.record_failure(0)
        assert health.state(0) == QUARANTINED
        assert health.state(1) == HEALTHY  # neighbours untouched

    def test_success_streak_recovers_a_degraded_shard(self):
        health = ClusterHealth(1, degrade_after=2, recover_after=2)
        health.record_failure(0)
        health.record_failure(0)
        assert health.state(0) == DEGRADED
        health.record_success(0)
        assert health.state(0) == DEGRADED  # one is not a streak
        health.record_success(0)
        assert health.state(0) == HEALTHY

    def test_mixed_outcomes_reset_the_failure_streak(self):
        health = ClusterHealth(1, degrade_after=3)
        health.record_failure(0)
        health.record_failure(0)
        health.record_success(0)
        health.record_failure(0)
        health.record_failure(0)
        assert health.state(0) == HEALTHY  # never three in a row

    def test_permanent_goes_straight_to_quarantine(self):
        health = ClusterHealth(1)
        health.record_permanent(0, "spindle seized")
        assert health.state(0) == QUARANTINED
        assert health.reason(0) == "spindle seized"

    def test_quarantine_is_sticky_until_revive(self):
        health = ClusterHealth(1, quarantine_after=1)
        health.record_failure(0)
        assert health.state(0) == QUARANTINED
        for _ in range(10):
            health.record_success(0)
        assert health.state(0) == QUARANTINED  # successes do not unquarantine
        health.revive(0)
        assert health.state(0) == HEALTHY
        assert not health.is_quarantined(0)

    def test_partition_preserves_order(self):
        health = ClusterHealth(4)
        health.quarantine(2, "ops order")
        assert health.partition([3, 2, 0, 1]) == ([3, 0, 1], [2])

    def test_snapshot_rolls_everything_up(self):
        health = ClusterHealth(3, degrade_after=1)
        health.record_failure(1)
        health.record_permanent(2)
        health.record_degraded_read()
        snap = health.snapshot()
        assert sorted(snap) == [
            "degraded_reads_served", "per_shard", "states",
        ]
        assert snap["states"] == {HEALTHY: 1, DEGRADED: 1, QUARANTINED: 1}
        assert sorted(snap["per_shard"][0]) == [
            "permanent_failures", "reason", "state", "times_degraded",
            "times_quarantined", "transient_failures",
        ]
        assert snap["per_shard"][1]["transient_failures"] == 1
        assert snap["per_shard"][2]["permanent_failures"] == 1
        assert snap["degraded_reads_served"] == 1


class TestPartialResult:
    def test_complete_by_default(self):
        r = PartialResult([1, 2, 3])
        assert list(r) == [1, 2, 3]
        assert r.complete and r.missing_shards == ()

    def test_missing_shards_mark_incomplete(self):
        r = PartialResult([1], missing_shards=[2, 0])
        assert not r.complete
        assert r.missing_shards == (2, 0)

    def test_behaves_like_a_list(self):
        r = PartialResult([(1, b"a")], missing_shards=[0])
        assert r[0] == (1, b"a") and len(r) == 1
        assert sorted(r) == [(1, b"a")]


class TestFailFast:
    def test_single_key_ops_raise_typed_error(self):
        with make_cluster() as cluster:
            keys = seed_data(cluster)
            victim = shard_of(cluster, keys, 0)[0]
            kill_shard_device(cluster, 0)
            with pytest.raises(ShardUnavailableError) as info:
                cluster.search(victim)
            assert info.value.shard_id == 0
            # quarantined now: the next op fails fast, no device touched
            with pytest.raises(ShardUnavailableError):
                cluster.search(victim)
            assert cluster.health.state(0) == QUARANTINED
            # other shards keep serving
            other = shard_of(cluster, keys, 1)[0]
            assert cluster.search(other) == f"rec-{other}".encode()

    def test_mutations_fail_before_touching_any_shard(self):
        with make_cluster() as cluster:
            keys = seed_data(cluster)
            kill_shard_device(cluster, 0)
            victim = shard_of(cluster, keys, 0)[0]
            with pytest.raises(ShardUnavailableError):
                cluster.delete(victim)
            sizes_before = [shard.tree.size for shard in cluster.shards]
            fresh = [k for k in range(DESIGN.v) if k not in keys]
            batch = shard_of(cluster, fresh, 0)[:4]  # must touch shard 0
            batch += [k for k in fresh if k not in batch][:8]
            with pytest.raises(ShardUnavailableError):
                cluster.put_many([(k, b"x") for k in batch])
            # fail-fast means *nothing* mutated, healthy shards included
            assert [shard.tree.size for shard in cluster.shards] == sizes_before

    def test_reads_fail_fast_without_degraded_optin(self):
        with make_cluster() as cluster:
            seed_data(cluster)
            kill_shard_device(cluster, 0)
            with pytest.raises(ShardUnavailableError):
                cluster.search(shard_of(cluster, list(range(DESIGN.v)), 0)[0])
            with pytest.raises(ShardUnavailableError):
                cluster.range_search(0, DESIGN.v)
            with pytest.raises(ShardUnavailableError):
                cluster.get_many(list(range(20)))

    def test_transient_errors_degrade_but_keep_serving(self):
        with make_cluster() as cluster:
            keys = seed_data(cluster)
            victim = shard_of(cluster, keys, 1)[0]
            # every read fails, and the 2-attempt policy cannot outlast it
            plan = FaultPlan.parse("read.transient*1")
            cluster.shards[1].disk.attach_faults(FaultInjector(plan), FAST_RETRY)
            cluster.shards[1].clear_caches()
            for _ in range(3):
                with pytest.raises(TransientIOError):
                    cluster.search(victim)
                cluster.shards[1].clear_caches()
            assert cluster.health.state(1) == DEGRADED
            # disarm; a success streak recovers the shard
            cluster.shards[1].disk.attach_faults(None)
            assert cluster.search(victim) == f"rec-{victim}".encode()
            assert cluster.search(victim) == f"rec-{victim}".encode()
            assert cluster.health.state(1) == HEALTHY
            snap = cluster.stats().health
            assert snap["per_shard"][1]["times_degraded"] == 1
            assert snap["per_shard"][1]["transient_failures"] == 3


class TestDegradedReads:
    def test_range_search_returns_partial_with_marker(self):
        with make_cluster(degraded_reads=True) as cluster:
            keys = seed_data(cluster)
            kill_shard_device(cluster, 0)
            with pytest.raises(ShardUnavailableError):
                cluster.search(shard_of(cluster, keys, 0)[0])  # quarantines 0
            result = cluster.range_search(0, DESIGN.v)
            assert isinstance(result, PartialResult)
            assert not result.complete
            assert result.missing_shards == (0,)
            survivors = sorted(
                k for k in keys if cluster.router.shard_for(k) != 0
            )
            assert [k for k, _ in result] == survivors

    def test_get_many_fills_defaults_for_missing_shards(self):
        with make_cluster(degraded_reads=True) as cluster:
            keys = seed_data(cluster)
            kill_shard_device(cluster, 0)
            with pytest.raises(ShardUnavailableError):
                cluster.search(shard_of(cluster, keys, 0)[0])
            probe = keys[:10]
            result = cluster.get_many(probe, default=b"?")
            assert isinstance(result, PartialResult)
            assert result.missing_shards == (0,)
            for key, value in zip(probe, result):
                if cluster.router.shard_for(key) == 0:
                    assert value == b"?"
                else:
                    assert value == f"rec-{key}".encode()

    def test_complete_reads_stay_plain_lists(self):
        with make_cluster(degraded_reads=True) as cluster:
            keys = seed_data(cluster)
            result = cluster.range_search(0, DESIGN.v)
            assert not isinstance(result, PartialResult)
            assert [k for k, _ in result] == sorted(keys)

    def test_single_key_reads_never_go_partial(self):
        with make_cluster(degraded_reads=True) as cluster:
            keys = seed_data(cluster)
            kill_shard_device(cluster, 0)
            victim = shard_of(cluster, keys, 0)[0]
            with pytest.raises(ShardUnavailableError):
                cluster.search(victim)
            with pytest.raises(ShardUnavailableError):
                cluster.get(victim)  # a point read has no partial semantics

    def test_degraded_reads_are_counted(self):
        with make_cluster(degraded_reads=True) as cluster:
            seed_data(cluster)
            kill_shard_device(cluster, 0)
            with pytest.raises(ShardUnavailableError):
                cluster.get_many(list(range(DESIGN.v)))
            cluster.range_search(0, 50)
            cluster.get_many(list(range(30)))
            snap = cluster.stats().health
            assert snap["degraded_reads_served"] == 2
            assert snap["states"]["quarantined"] == 1

    def test_revive_restores_full_service(self):
        with make_cluster(degraded_reads=True) as cluster:
            keys = seed_data(cluster)
            kill_shard_device(cluster, 0)
            with pytest.raises(ShardUnavailableError):
                cluster.search(shard_of(cluster, keys, 0)[0])
            assert not cluster.range_search(0, DESIGN.v).complete
            # the operator replaced the device: disarm and revive
            cluster.shards[0].disk.attach_faults(None)
            cluster.shards[0].records.disk.attach_faults(None)
            cluster.health.revive(0)
            result = cluster.range_search(0, DESIGN.v)
            assert not isinstance(result, PartialResult)
            assert [k for k, _ in result] == sorted(keys)


class TestDegradedLifecycle:
    def test_close_skips_quarantined_shards(self):
        cluster = make_cluster()
        seed_data(cluster)
        kill_shard_device(cluster, 0)
        with pytest.raises(ShardUnavailableError):
            cluster.search(shard_of(cluster, list(range(DESIGN.v)), 0)[0])
        cluster.close()  # must not re-raise shard 0's device error
        cluster.close()  # and stays idempotent

    def test_commit_skips_quarantined_shards(self):
        with make_cluster() as cluster:
            keys = seed_data(cluster)
            kill_shard_device(cluster, 0)
            with pytest.raises(ShardUnavailableError):
                cluster.search(shard_of(cluster, keys, 0)[0])
            cluster.commit()  # healthy shards commit; no error surfaces

    def test_stats_summary_reports_health(self):
        with make_cluster() as cluster:
            seed_data(cluster)
            kill_shard_device(cluster, 0)
            with pytest.raises(ShardUnavailableError):
                cluster.search(shard_of(cluster, list(range(DESIGN.v)), 0)[0])
            stats = cluster.stats()
            assert stats.health["states"]["quarantined"] == 1
            assert stats.health["per_shard"][0]["permanent_failures"] >= 1
            assert "quarantined" in stats.summary()
            assert stats.health["per_shard"][0]["state"] == "quarantined"

    def test_faults_section_always_in_database_stats(self, monkeypatch):
        # hermetic against an environment-armed plan (the CI job that
        # runs tier-1 under REPRO_FAULTS): the zero-counter assertions
        # below are about the *unarmed* default
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with make_cluster() as cluster:
            stats = cluster.stats()
            for shard_stats in stats.per_shard:
                faults = shard_stats["faults"]
                assert set(faults) == {"node", "records"}
                assert faults["node"]["injected_transient"] == 0
            # and it merges leaf-wise like every other counter group
            assert stats.aggregate["faults"]["node"]["retries"] == 0
