"""The chaos matrix: 125 seeded fault schedules, replayable one by one.

Three arms, each parametrised by seed so a red schedule reruns exactly
(``pytest -k 'seed47'`` style):

* **Arm A** (70 schedules; 60 memory + 10 file-backed) -- seed-derived
  transient/torn/latency schedules armed on a single database's devices.
  Every schedule must finish with results *and* at-rest platter bytes
  identical to the fault-free control, and the device retry counters
  must equal the injected schedule exactly.
* **Arm B** (15 schedules) -- a shard's devices fail permanently
  mid-run.  The cluster must degrade with the typed error and then
  serve explicit :class:`PartialResult` reads equal to the control
  minus the dead shard's keys.  Never a wedge, never a wrong answer.
* **Arm C** (40 schedules; 32 memory + 8 file-backed) -- healable
  schedules armed on one shard of a cluster at a seed-chosen phase of a
  mixed cluster workload (batched writes, single-key writes, cold
  fan-out reads, a transaction).  Results, platter bytes and pointer
  cipher counts must match one fault-free cluster control, the retry
  counters must equal the injected schedule, and no shard may leave
  the healthy state: a fault the device heals is invisible to the
  cluster's health machine.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.health import PartialResult
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import ShardUnavailableError
from repro.faults import FaultPlan
from repro.storage.backend import FileBackend, MemoryBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0xC4))
NUM_SHARDS = 3

# ---------------------------------------------------------------------------
# Arm A: device-level schedules against a fault-free control
# ---------------------------------------------------------------------------

MEMORY_SEEDS = 60
FILE_SEEDS = 10


def make_db(backend) -> EncipheredDatabase:
    sub = OvalSubstitution(DESIGN, t=5)
    return EncipheredDatabase.create(
        sub, RSA(KEYPAIR), backend=backend, block_size=512, min_degree=2,
        cache_blocks=4,
    )


def run_workload(db: EncipheredDatabase) -> list:
    """~170 deterministic ops: inserts, cold searches, ranges, deletes."""
    out = []
    rng = random.Random(313)  # data rng is FIXED: every run, every seed
    keys = rng.sample(range(DESIGN.v), 48)
    for k in keys:
        db.insert(k, f"payload-{k:03d}".encode())
    db.commit()
    for i, k in enumerate(keys):
        if i % 7 == 0:
            db.clear_caches()  # force real device reads
        out.append(db.search(k))
    out.append(db.range_search(0, DESIGN.v // 2))
    out.append(db.range_search(DESIGN.v // 2, DESIGN.v))
    for k in keys[::5]:
        db.delete(k)
    db.commit()
    db.clear_caches()
    out.append(db.range_search(0, DESIGN.v))
    return out


def finish(db: EncipheredDatabase):
    state = (db.disk.export_state(), db.records.disk.export_state())
    faults = (db.disk.fault_snapshot(), db.records.disk.fault_snapshot())
    db.close()
    return state, faults


def schedule_for(seed: int) -> FaultPlan:
    """1-3 healable one-shot rules, drawn deterministically from the seed."""
    rng = random.Random(0xA0000 + seed)
    tokens = [f"seed={seed}", "attempts=4", "delay=0.0"]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("read", "write"))
        kinds = ("transient", "latency") if op == "read" else (
            "transient", "torn", "latency")
        kind = rng.choice(kinds)
        token = f"{op}.{kind}@{rng.randint(1, 40)}"
        if kind == "latency":
            token += "=0.0005"
        tokens.append(token)
    return FaultPlan.parse(" ".join(tokens))


@pytest.fixture(scope="module")
def memory_control():
    db = make_db(MemoryBackend())
    results = run_workload(db)
    state, _ = finish(db)
    return results, state


@pytest.fixture(scope="module")
def file_control(tmp_path_factory):
    db = make_db(FileBackend(tmp_path_factory.mktemp("ctl") / "db", fsync=False))
    results = run_workload(db)
    state, _ = finish(db)
    return results, state


def run_schedule(seed, backend, control):
    plan = schedule_for(seed)
    db = make_db(backend)
    db.disk.attach_faults(plan.injector("node"), plan.retry)
    db.records.disk.attach_faults(plan.injector("records"), plan.retry)
    results = run_workload(db)
    state, faults = finish(db)
    expect_results, expect_state = control
    # identical answers and identical bytes at rest, or it is not healing
    assert results == expect_results
    assert state == expect_state
    # retry counters match the injected schedule exactly: every healable
    # injection (transient or torn) costs exactly one retry, nothing else
    injected = sum(f["injected_transient"] + f["injected_torn"] for f in faults)
    retried = sum(f["retries"] for f in faults)
    assert retried == injected
    return faults


@pytest.mark.parametrize("seed", range(MEMORY_SEEDS))
def test_memory_schedule(seed, memory_control):
    run_schedule(seed, MemoryBackend(), memory_control)


@pytest.mark.parametrize("seed", range(FILE_SEEDS))
def test_file_schedule(seed, tmp_path, file_control):
    run_schedule(seed, FileBackend(tmp_path / "db", fsync=False), file_control)


def test_the_matrix_actually_injects(memory_control):
    """Guard against a vacuously green arm: most schedules must fire."""
    fired = 0
    for seed in range(MEMORY_SEEDS):
        faults = run_schedule(seed, MemoryBackend(), memory_control)
        fired += any(
            v for f in faults for k, v in f.items() if k.startswith("injected")
        )
    assert fired >= MEMORY_SEEDS // 2


# ---------------------------------------------------------------------------
# Arm B: permanent shard loss -> typed error, then explicit partial reads
# ---------------------------------------------------------------------------

CLUSTER_SEEDS = 15


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xE0 + i)))


def make_cluster(**kwargs) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        sub_factory, cipher_factory, num_shards=NUM_SHARDS, router="hash",
        block_size=512, min_degree=2, **kwargs,
    )


@pytest.mark.parametrize("seed", range(CLUSTER_SEEDS))
def test_shard_loss_schedule(seed):
    rng = random.Random(0xB0000 + seed)
    victim = rng.randrange(NUM_SHARDS)
    items = {k: f"rec-{k}".encode()
             for k in rng.sample(range(DESIGN.v), rng.randint(30, 50))}
    with make_cluster(degraded_reads=True) as cluster:
        cluster.put_many(sorted(items.items()))
        assert [k for k, _ in cluster.range_search(0, DESIGN.v)] == sorted(items)
        # phase 2: the victim's devices die permanently
        plan = FaultPlan.parse("read.permanent@1 write.permanent@1")
        for device in (cluster.shards[victim].disk,
                       cluster.shards[victim].records.disk):
            device.attach_faults(plan.injector(), plan.retry)
        cluster.clear_caches()
        dead_keys = {k for k in items if cluster.router.shard_for(k) == victim}
        probe = sorted(dead_keys)[0] if dead_keys else None
        if probe is not None:
            with pytest.raises(ShardUnavailableError) as info:
                cluster.search(probe)
            assert info.value.shard_id == victim
        else:  # no data landed on the victim: quarantine it directly
            cluster.health.quarantine(victim, "empty victim")
        # degraded reads: everything except the dead shard, marked as such
        result = cluster.range_search(0, DESIGN.v)
        assert isinstance(result, PartialResult)
        assert result.missing_shards == (victim,)
        assert [k for k, _ in result] == sorted(set(items) - dead_keys)
        for k, value in result:
            assert value == items[k]
        got = cluster.get_many(sorted(items), default=None)
        assert isinstance(got, PartialResult)
        for k, value in zip(sorted(items), got):
            assert value == (None if k in dead_keys else items[k])
        # mutations fail fast and mutate nothing
        sizes = [shard.tree.size for shard in cluster.shards]
        with pytest.raises(ShardUnavailableError):
            cluster.put_many([(k, b"x") for k in sorted(dead_keys or {0})])
        assert [shard.tree.size for shard in cluster.shards] == sizes
        health = cluster.stats().health
        assert health["states"]["quarantined"] == 1
        if probe is not None:
            assert health["per_shard"][victim]["permanent_failures"] >= 1


# ---------------------------------------------------------------------------
# Arm C: healable faults on one shard of a cluster, at a seed-chosen phase
# ---------------------------------------------------------------------------

CLUSTER_MEMORY_SEEDS = 32
CLUSTER_FILE_SEEDS = 8
CLUSTER_PHASES = 5


def cluster_phases(cluster: ShardedEncipheredDatabase, out: list) -> list:
    """The fixed cluster workload, as phases a schedule can be armed before."""
    rng = random.Random(414)  # data rng is FIXED: every run, every seed
    keys = rng.sample(range(DESIGN.v), 72)
    loaded, inserted, fresh = keys[:48], keys[48:64], keys[64:]

    def batch_writes():
        cluster.put_many((k, f"payload-{k:03d}".encode()) for k in loaded)

    def single_writes():
        for k in inserted:
            cluster.insert(k, f"single-{k:03d}".encode())
        cluster.commit()

    def cold_reads():
        cluster.clear_caches()
        out.append(cluster.range_search(0, DESIGN.v))
        out.append(cluster.get_many(keys[::3] + fresh[:2], default=None))
        out.append([cluster.search(k) for k in inserted[::4]])

    def deletes_and_transaction():
        cluster.delete_many(loaded[::4])
        with cluster.transaction():
            for k in fresh:
                cluster.insert(k, f"txn-{k:03d}".encode())
            cluster.delete(inserted[0])
            out.append(cluster.range_search(DESIGN.v // 3, DESIGN.v))

    def final_reads():
        cluster.commit()
        cluster.clear_caches()
        out.append(cluster.range_search(0, DESIGN.v))
        out.append(cluster.get_many(keys, default=b"?"))

    return [batch_writes, single_writes, cold_reads,
            deletes_and_transaction, final_reads]


def cluster_schedule_for(seed: int) -> tuple[int, int, FaultPlan]:
    """(victim shard, phase to arm before, 1-3 healable one-shot rules)."""
    rng = random.Random(0xD0000 + seed)
    victim = rng.randrange(NUM_SHARDS)
    phase = rng.randrange(CLUSTER_PHASES)
    tokens = [f"seed={seed}", "attempts=4", "delay=0.0"]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("read", "write"))
        kinds = ("transient", "latency") if op == "read" else (
            "transient", "torn", "latency")
        kind = rng.choice(kinds)
        token = f"{op}.{kind}@{rng.randint(1, 12)}"
        if kind == "latency":
            token += "=0.0005"
        tokens.append(token)
    return victim, phase, FaultPlan.parse(" ".join(tokens))


def run_cluster_workload(cluster, arm_before=None, arm=None):
    """Run every phase; return (results, platter bytes, pointer cipher ops)."""
    out: list = []
    for i, phase in enumerate(cluster_phases(cluster, out)):
        if i == arm_before:
            arm()
        phase()
    cluster.commit()
    cipher_ops = cluster.stats().aggregate["pointer_cipher"]
    return out, platter_fingerprint(cluster), cipher_ops


def platter_fingerprint(cluster):
    return [
        (shard.disk.export_state(), shard.records.disk.export_state())
        for shard in cluster.shards
    ]


@pytest.fixture(scope="module")
def cluster_memory_control():
    with make_cluster() as control:
        return run_cluster_workload(control)


@pytest.fixture(scope="module")
def cluster_file_control(tmp_path_factory):
    backend = FileBackend(tmp_path_factory.mktemp("cluster-ctl") / "c", fsync=False)
    with make_cluster(backend=backend) as control:
        return run_cluster_workload(control)


def run_cluster_schedule(seed, control, **kwargs):
    victim, phase, plan = cluster_schedule_for(seed)
    with make_cluster(**kwargs) as cluster:
        devices = (cluster.shards[victim].disk, cluster.shards[victim].records.disk)

        def arm():
            devices[0].attach_faults(plan.injector("node"), plan.retry)
            devices[1].attach_faults(plan.injector("records"), plan.retry)

        observed = run_cluster_workload(cluster, arm_before=phase, arm=arm)
        faults = [device.fault_snapshot() for device in devices]
        health = cluster.stats().health
    # identical answers, bytes at rest and cipher work, or it is not healing
    assert observed == control
    injected = sum(f["injected_transient"] + f["injected_torn"] for f in faults)
    assert sum(f["retries"] for f in faults) == injected
    assert sum(f["retries_exhausted"] for f in faults) == 0
    # a healed fault never escapes the device: the cluster saw only successes
    assert health["states"]["healthy"] == NUM_SHARDS
    assert all(s["transient_failures"] == 0 for s in health["per_shard"])
    return faults


@pytest.mark.parametrize("seed", range(CLUSTER_MEMORY_SEEDS))
def test_cluster_memory_schedule(seed, cluster_memory_control):
    run_cluster_schedule(seed, cluster_memory_control)


@pytest.mark.parametrize("seed", range(CLUSTER_FILE_SEEDS))
def test_cluster_file_schedule(seed, tmp_path, cluster_file_control):
    backend = FileBackend(tmp_path / "c", fsync=False)
    run_cluster_schedule(seed, cluster_file_control, backend=backend)


def test_the_cluster_arm_actually_injects(cluster_memory_control):
    """Guard against a vacuously green arm: most schedules must fire,
    and every phase and every shard must be armed by some seed."""
    fired = 0
    phases, victims = set(), set()
    for seed in range(CLUSTER_MEMORY_SEEDS):
        victim, phase, _ = cluster_schedule_for(seed)
        phases.add(phase)
        victims.add(victim)
        faults = run_cluster_schedule(seed, cluster_memory_control)
        fired += any(
            v for f in faults for k, v in f.items() if k.startswith("injected")
        )
    assert fired >= CLUSTER_MEMORY_SEEDS // 2
    assert phases == set(range(CLUSTER_PHASES))
    assert victims == set(range(NUM_SHARDS))
