"""The cluster's one fan-out path: drain contract and per-shard atomicity.

Every cross-shard operation runs through
:meth:`ShardedEncipheredDatabase._fan_out`, a loop on the calling
thread.  Its contract: every slice runs even when one raises, and the
first error is re-raised after the loop.  Mutating fan-outs build their
atomicity on it -- a failing slice rolls back only its own shard while
every sibling slice still commits -- and reads see exactly what the
shards hold, uncommitted state included.
"""

from __future__ import annotations

import itertools
import random
from contextlib import ExitStack

import pytest

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.designs.multipliers import non_multiplier_units
from repro.exceptions import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.backend import FileBackend
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183
UNITS = non_multiplier_units(DESIGN)
NUM_SHARDS = 4


def sub_factory(i: int) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=UNITS[i * 5 % len(UNITS)])


def cipher_factory(i: int) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xE0 + i)))


def make_cluster(num_shards: int = NUM_SHARDS, **kwargs) -> ShardedEncipheredDatabase:
    return ShardedEncipheredDatabase.create(
        sub_factory,
        cipher_factory,
        num_shards=num_shards,
        block_size=512,
        min_degree=2,
        **kwargs,
    )


def records_for(keys) -> dict[int, bytes]:
    return {k: f"rec{k}".encode() for k in keys}


class TestDrainContract:
    @pytest.mark.parametrize(
        "failing", [(1, 3), (0,), (3,), (0, 1, 2, 3)],
        ids=["middle-and-last", "first", "last", "every"],
    )
    def test_every_slice_runs_and_the_first_error_is_raised(self, failing):
        cluster = make_cluster()
        ran = []

        def slice_(shard_id):
            ran.append(shard_id)
            if shard_id in failing:
                raise ValueError(f"slice {shard_id}")
            return shard_id * 10

        with pytest.raises(ValueError, match=f"slice {failing[0]}$"):
            cluster._fan_out(slice_, [0, 1, 2, 3])
        assert ran == [0, 1, 2, 3]
        assert cluster._fan_out(lambda i: i * 10, [2, 0]) == [20, 0]

    def test_an_interrupt_propagates_at_once(self):
        cluster = make_cluster()
        ran = []

        def slice_(shard_id):
            ran.append(shard_id)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cluster._fan_out(slice_, [0, 1, 2])
        assert ran == [0]


class TestPerShardAtomicity:
    """One slice fails; it rolls back its whole shard while every sibling
    slice -- those the fan-out runs before it and those it runs after --
    still commits.  Parametrised over the failing shard's position in
    the fan-out, first through last."""

    def _setup(self, bad_shard):
        records = records_for(random.Random(0xF01).sample(range(DESIGN.v), 60))
        cluster = make_cluster()
        cluster.bulk_load(records.items())
        absent = [k for k in range(DESIGN.v) if k not in records]
        bad = next(
            k for k in sorted(records) if cluster.router.shard_for(k) == bad_shard
        )
        return records, cluster, absent, bad

    @pytest.mark.parametrize("bad_shard", range(NUM_SHARDS))
    def test_put_many_commits_every_other_shard(self, bad_shard):
        records, cluster, absent, dup = self._setup(bad_shard)
        try:
            batch = [(k, b"n") for k in absent[:24]] + [(dup, b"dup")]
            touched = {cluster.router.shard_for(k) for k, _ in batch}
            assert touched == set(range(NUM_SHARDS))
            with pytest.raises(DuplicateKeyError):
                cluster.put_many(batch)
            data = dict(cluster.items())
            assert data[dup] == records[dup]
            for k, _ in batch[:-1]:
                if cluster.router.shard_for(k) == bad_shard:
                    assert k not in data  # rolled back with its slice
                else:
                    assert data[k] == b"n"  # sibling slices committed
            cluster.check_invariants()
            # the failed shard takes the next batch normally
            cluster.put_many([(k, b"retry") for k in absent[24:36]])
            for k in absent[24:36]:
                assert cluster.get(k) == b"retry"
        finally:
            cluster.close()

    @pytest.mark.parametrize("bad_shard", range(NUM_SHARDS))
    def test_delete_many_commits_every_other_shard(self, bad_shard):
        records, cluster, absent, _ = self._setup(bad_shard)
        try:
            missing = next(
                k for k in absent if cluster.router.shard_for(k) == bad_shard
            )
            doomed = sorted(records)[:24]
            touched = {cluster.router.shard_for(k) for k in doomed}
            assert touched == set(range(NUM_SHARDS))
            with pytest.raises(KeyNotFoundError):
                cluster.delete_many([missing] + doomed)
            data = dict(cluster.items())
            for k in doomed:
                if cluster.router.shard_for(k) == bad_shard:
                    assert data[k] == records[k]  # rolled back with its slice
                else:
                    assert k not in data  # sibling slices committed
            cluster.check_invariants()
        finally:
            cluster.close()

    @pytest.mark.parametrize("bad_shard", range(NUM_SHARDS))
    def test_bulk_load_loads_every_other_shard(self, bad_shard):
        cluster = make_cluster(record_size=8)
        try:
            keys = random.Random(0xF02).sample(range(DESIGN.v), 40)
            items = {k: b"ok" for k in keys}
            bad = next(k for k in keys if cluster.router.shard_for(k) == bad_shard)
            items[bad] = b"far too long for an 8-byte slot"
            with pytest.raises(StorageError):
                cluster.bulk_load(items.items())
            for shard_id, shard in enumerate(cluster.shards):
                expected = sorted(
                    k for k in keys if cluster.router.shard_for(k) == shard_id
                )
                if shard_id == bad_shard:
                    assert len(shard) == 0  # the failing slice left nothing
                    assert shard.records.count == 0
                else:
                    assert [k for k, _ in shard.items()] == expected
            cluster.check_invariants()
        finally:
            cluster.close()

    @pytest.mark.parametrize("op", ["put_many", "delete_many"])
    @pytest.mark.parametrize(
        "bad_shards", [(0, 3), (1, 2), (2, 3)], ids=lambda p: f"{p[0]}-{p[1]}"
    )
    def test_two_failing_slices_raise_the_first(self, op, bad_shards):
        """Both failing shards roll back; the error raised is the one
        from the slice the fan-out ran first."""
        records = records_for(random.Random(0xF03).sample(range(DESIGN.v), 60))
        cluster = make_cluster()
        try:
            cluster.bulk_load(records.items())
            shard_of = cluster.router.shard_for
            if op == "put_many":
                culprits = [
                    next(k for k in sorted(records) if shard_of(k) == i)
                    for i in bad_shards
                ]
                fresh = [k for k in range(DESIGN.v) if k not in records][:24]
                batch = [(k, b"n") for k in fresh] + [(k, b"dup") for k in culprits]
                with pytest.raises(DuplicateKeyError) as info:
                    cluster.put_many(batch)
                changed, expect = fresh, b"n"
            else:
                culprits = [
                    next(k for k in range(DESIGN.v)
                         if k not in records and shard_of(k) == i)
                    for i in bad_shards
                ]
                doomed = sorted(records)[:24]
                with pytest.raises(KeyNotFoundError) as info:
                    cluster.delete_many(culprits + doomed)
                changed, expect = doomed, None
            assert info.value.key == culprits[0]
            data = dict(cluster.items())
            for k in changed:
                if shard_of(k) in bad_shards:
                    assert data.get(k) == records.get(k)  # rolled back
                else:
                    assert data.get(k) == expect  # sibling slices committed
            cluster.check_invariants()
        finally:
            cluster.close()


class TestReads:
    @pytest.mark.parametrize("router", ["hash", "range"])
    @pytest.mark.parametrize("device", ["memory", "file"])
    def test_cold_range_search_spans_every_shard(self, router, device, tmp_path):
        records = records_for(random.Random(0xE5).sample(range(DESIGN.v), 60))
        backend = FileBackend(tmp_path / "c", fsync=False) if device == "file" else None
        cluster = make_cluster(router=router, backend=backend)
        try:
            cluster.bulk_load(records.items())
            cluster.clear_caches()
            assert cluster.range_search(0, DESIGN.v) == sorted(records.items())
            lo, hi = 40, 120
            assert cluster.range_search(lo, hi) == sorted(
                (k, v) for k, v in records.items() if lo <= k <= hi
            )
        finally:
            cluster.close()

    @pytest.mark.parametrize("router", ["hash", "range"])
    @pytest.mark.parametrize("autocommit", [True, False], ids=["autocommit", "manual"])
    def test_transaction_reads_see_uncommitted_writes(self, router, autocommit):
        """The scopes run write-back whatever the commit mode outside
        them: autocommit, or manual commits that leave the bulk load's
        superblock behind until the first scope commits."""
        sample = random.Random(0xE6).sample(range(DESIGN.v), 30)
        absent = [k for k in range(DESIGN.v) if k not in set(sample)]
        cluster = make_cluster(router=router, autocommit=autocommit)
        try:
            cluster.bulk_load(records_for(sample).items())
            with cluster.transaction():
                cluster.insert(absent[0], b"txn")
                cluster.delete(sample[0])
                inside = dict(cluster.range_search(0, DESIGN.v))
                assert inside[absent[0]] == b"txn"
                assert sample[0] not in inside
                assert cluster.get_many([absent[0], sample[0]], default=b"?") == [
                    b"txn", b"?",
                ]
            after = dict(cluster.range_search(0, DESIGN.v))
            assert after[absent[0]] == b"txn"
            with pytest.raises(RuntimeError):
                with cluster.transaction():
                    cluster.insert(absent[1], b"doomed")
                    assert cluster.get(absent[1]) == b"doomed"
                    raise RuntimeError("abort")
            assert absent[1] not in dict(cluster.range_search(0, DESIGN.v))
        finally:
            cluster.close()

    def test_reads_never_flush_dirty_pages(self):
        """A fan-out read inside a transaction serves its dirty pages
        without committing them."""
        sample = random.Random(0xEC).sample(range(DESIGN.v), 20)
        cluster = make_cluster()
        try:
            with cluster.transaction():
                for k in sample:
                    cluster.insert(k, f"rec{k}".encode())
                dirty_before = sum(s.tree.pager.dirty_blocks for s in cluster.shards)
                assert dirty_before > 0
                assert len(cluster.range_search(0, DESIGN.v)) == len(sample)
                assert len(cluster.get_many(sample)) == len(sample)
                dirty_after = sum(s.tree.pager.dirty_blocks for s in cluster.shards)
                assert dirty_after == dirty_before, "a read committed dirty pages"
        finally:
            cluster.close()

    def test_write_through_uncommitted_reads(self):
        """autocommit=False with the write-through pager leaves the
        superblock stale until commit; reads still see every write."""
        sample = random.Random(0xF0).sample(range(DESIGN.v), 24)
        cluster = make_cluster(autocommit=False)
        try:
            for k in sample:
                cluster.insert(k, f"rec{k}".encode())
            assert any(s.has_uncommitted_changes for s in cluster.shards)
            result = cluster.range_search(0, DESIGN.v)
            assert len(result) == len(sample)
            cluster.commit()
            assert not any(s.has_uncommitted_changes for s in cluster.shards)
            assert cluster.range_search(0, DESIGN.v) == result
        finally:
            cluster.close()

    def test_uncommitted_bulk_load_stays_uncommitted(self):
        sample = random.Random(0xEE).sample(range(DESIGN.v), 40)
        cluster = make_cluster()
        try:
            with cluster.transaction():
                cluster.bulk_load(records_for(sample).items())
                assert any(s.tree.pager.dirty_blocks for s in cluster.shards)
                assert len(cluster.range_search(0, DESIGN.v)) == len(sample)
            assert not any(s.tree.pager.dirty_blocks for s in cluster.shards)
        finally:
            cluster.close()


class TestOracleMatrix:
    """A seeded stream of every cluster operation, checked step by step
    against a dict.  Each point of the matrix changes what the fan-out
    sees: one shard (no merge), an uneven shard count, key-ordered or
    hashed placement, and pages that stay dirty until commit.  The
    ``back`` arm runs the stream in cluster transactions of up to ten
    steps -- the one write-back scope -- closing each before the
    stream's own transaction steps."""

    @pytest.mark.parametrize("write_back", [False, True], ids=["through", "back"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("router", ["hash", "range"])
    def test_stream_matches_a_dict(self, router, num_shards, write_back):
        rng = random.Random(f"{router}-{num_shards}-{write_back}")
        oracle: dict[int, bytes] = {}
        cluster = make_cluster(num_shards=num_shards, router=router)
        scope = ExitStack()  # the back arm's open cluster transaction
        in_scope = False

        def some(n, present):
            pool = sorted(oracle) if present else [
                k for k in range(DESIGN.v) if k not in oracle
            ]
            return rng.sample(pool, min(n, len(pool)))

        try:
            for step in range(90):
                op = rng.choice((
                    "insert", "insert_dup", "delete", "delete_missing",
                    "search", "get", "put_many", "delete_many", "range",
                    "get_many", "txn_commit", "txn_abort",
                ))
                if write_back and (op.startswith("txn") or step % 10 == 0):
                    scope.close()
                    in_scope = False
                if write_back and not in_scope and not op.startswith("txn"):
                    scope.enter_context(cluster.transaction())
                    in_scope = True
                if op == "insert":
                    for k in some(1, present=False):
                        cluster.insert(k, f"i{step}".encode())
                        oracle[k] = f"i{step}".encode()
                elif op == "insert_dup":
                    for k in some(1, present=True):
                        with pytest.raises(DuplicateKeyError):
                            cluster.insert(k, b"dup")
                elif op == "delete":
                    for k in some(1, present=True):
                        cluster.delete(k)
                        del oracle[k]
                elif op == "delete_missing":
                    for k in some(1, present=False):
                        with pytest.raises(KeyNotFoundError):
                            cluster.delete(k)
                elif op == "search":
                    for k in some(2, present=True):
                        assert cluster.search(k) == oracle[k]
                        assert k in cluster
                elif op == "get":
                    for k in some(2, present=False):
                        assert cluster.get(k, b"-") == b"-"
                        assert k not in cluster
                elif op == "put_many":
                    batch = [(k, f"p{step}".encode())
                             for k in some(rng.randint(1, 12), present=False)]
                    assert cluster.put_many(batch) == len(batch)
                    oracle.update(batch)
                elif op == "delete_many":
                    doomed = some(rng.randint(1, 8), present=True)
                    assert cluster.delete_many(doomed) == len(doomed)
                    for k in doomed:
                        del oracle[k]
                elif op == "range":
                    lo = rng.randrange(DESIGN.v)
                    hi = rng.randrange(lo, DESIGN.v)
                    assert cluster.range_search(lo, hi) == sorted(
                        (k, v) for k, v in oracle.items() if lo <= k <= hi
                    )
                elif op == "get_many":
                    keys = some(4, present=True) + some(3, present=False)
                    rng.shuffle(keys)
                    assert cluster.get_many(keys, default=b"?") == [
                        oracle.get(k, b"?") for k in keys
                    ]
                else:
                    fresh = some(2, present=False)
                    gone = some(1, present=True)
                    view = dict(oracle)
                    try:
                        with cluster.transaction():
                            for k in fresh:
                                cluster.insert(k, f"t{step}".encode())
                                view[k] = f"t{step}".encode()
                            for k in gone:
                                cluster.delete(k)
                                del view[k]
                            assert dict(cluster.range_search(0, DESIGN.v)) == view
                            if op == "txn_abort":
                                raise RuntimeError("abort")
                    except RuntimeError:
                        pass
                    else:
                        oracle = view
                    assert dict(cluster.range_search(0, DESIGN.v)) == oracle
                assert len(cluster) == len(oracle)
            scope.close()
            cluster.check_invariants()
            cluster.commit()
            cluster.clear_caches()
            assert list(cluster.items()) == sorted(oracle.items())
            assert cluster.range_search(0, DESIGN.v) == sorted(oracle.items())
        finally:
            scope.close()
            cluster.close()


class TestLifecycle:
    def test_errors_propagate_and_the_cluster_keeps_serving(self):
        sample = random.Random(0xEA).sample(range(DESIGN.v), 20)
        cluster = make_cluster()
        try:
            cluster.bulk_load(records_for(sample).items())
            with pytest.raises(Exception):
                cluster.bulk_load(records_for(sample).items())
            assert len(cluster.range_search(0, DESIGN.v)) == len(sample)
        finally:
            cluster.close()

    def test_close_is_idempotent_and_stats_survive(self):
        sample = random.Random(0xE8).sample(range(DESIGN.v), 24)
        cluster = make_cluster()
        cluster.bulk_load(records_for(sample).items())
        cluster.range_search(0, DESIGN.v)
        before = cluster.stats().aggregate["pointer_cipher"]
        cluster.close()
        cluster.close()
        assert cluster.stats().aggregate["pointer_cipher"] == before

    def test_memory_cluster_serves_after_close(self):
        sample = random.Random(0xE9).sample(range(DESIGN.v), 24)
        cluster = make_cluster()
        cluster.bulk_load(records_for(sample).items())
        expected = cluster.range_search(0, DESIGN.v)
        cluster.close()
        assert cluster.range_search(0, DESIGN.v) == expected
