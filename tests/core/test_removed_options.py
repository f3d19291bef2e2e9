"""Deleted cache, heat and observability options fail loudly instead of being ignored.

Record-block heat (and its persistence), heat-guided and background
warming, the decoded-node byte budget and LRU pinning were removed: no
measured workload gained from them.  So was the decoded-node cache
itself (``decoded_node_cache_blocks``): it kept decrypted pointers
from one operation to the next, where the paper charges every node
visit its decrypts, and no measured workload turned it on.  A caller
still passing one of their keywords gets a ``TypeError``; their methods
are gone.  So is the
``poll``/``reattach`` reader catch-up: a reader that needs another
handle's commits reopens with ``reopen_from_backend``.  So are the
pager's background readahead pool (``readahead_workers``) and every
``warm(levels)`` path: a scan over canonical storage ran slower with
the pool on, and no benchmark warmed a cache.  Observability keeps only
its latency histograms: key-range heat (which counted operations by
plaintext key band), the tracer's recent-span ring, slow-op log and
span counters, gauges and the runtime on/off switch are gone, with the
keywords that configured them.  The numpy ``"vector"`` DES kernel is
gone too, replaced by ``"openssl"``: asking for it by ``DES(kernel=)``
raises ``KeyError_``, and nothing in the package imports numpy any more.
So are the ``fast`` kernel's key-specific round tables with their build
policy, and the process-wide kernel override: ``set_default_kernel`` is
gone and the ``REPRO_DES_KERNEL`` environment variable is ignored, so
the platform alone picks the default kernel.  The cluster's process
executor is gone with its change journals and replica sync: ``create``
rejects ``executor=``, ``shard_factories=`` and ``op_deadline_s=``,
``reopen_from_manifest`` rejects the last two and accepts only
``executor="serial"`` (anything else raises ``StorageError``), and
nothing in the package imports ``multiprocessing``.  The in-memory
``EncipheredBTree`` and ``BayerMetzgerBTree`` facades are gone with their
``TraversalCost``/``BaselineCost`` snapshots: both systems run on
``EncipheredDatabase``, the Bayer--Metzger layouts passed as ``codec=``,
and their costs are read from ``stats()`` and the codec's own counters.
The modelled device latency is gone: ``SimulatedDisk`` and
``MemoryBackend`` reject ``latency_s=``, ``FilePlatter`` and
``FileBackend`` reject ``fsync_latency_s=``, and no device keeps a
service-time hook, so a device books only the time it measures.
There is one way to open a store and one place write-back happens:
every database and cluster lives on a storage backend and reopens with
``reopen_from_backend``/``reopen_from_manifest`` (the device-object
``reopen`` methods and ``shard_parts`` are gone), and only
``transaction()`` switches the pager to write-back, so ``write_back=``,
``validate_routing=`` and ``device_name=`` raise ``TypeError``.
A store describes its own geometry -- the platter header records the
block size, the superblock the record size -- so ``reopen_from_backend``
rejects ``block_size=`` and ``record_size=``, and ``ClusterManifest``
records neither.  There is one mutation path: every write runs in a
transaction, its own or the caller's, so ``autocommit=`` is rejected by
every create and reopen entry point and a database has no
``autocommit`` attribute.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import random
import subprocess
import sys

import pytest

import repro
import repro.cluster
import repro.cluster.health
import repro.core
import repro.exceptions
import repro.obs
import repro.obs.metrics
import repro.storage

from repro.cluster.manifest import ClusterManifest
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto import des as des_module
from repro.crypto.des import DES, default_kernel
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import KeyError_, StorageError
from repro.obs import INSTRUMENTS, MetricsRegistry, ObsConfig, Observability, Tracer
from repro.storage.backend import FileBackend, MemoryBackend
from repro.storage.cache import LRUCache
from repro.storage.device import BlockDevice
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Pager
from repro.storage.platter import FilePlatter
from repro.substitution.oval import OvalSubstitution

DESIGN = planar_difference_set(13)  # v = 183


def sub(i: int = 0) -> OvalSubstitution:
    return OvalSubstitution(DESIGN, t=5)


def cipher(i: int = 0) -> RSA:
    return RSA(generate_rsa_keypair(bits=128, rng=random.Random(0xD0 + i)))


BUDGET = {"decoded_node_cache_bytes": 1024}
READAHEAD = {"readahead_workers": 2}
DECODED = {"decoded_node_cache_blocks": 64}
WRITE_BACK = {"write_back": True}
MANUAL_COMMIT = {"autocommit": False}


def _reopen_db_from_backend(tmp_path, removed=BUDGET):
    backend = FileBackend(tmp_path / "db", fsync=False)
    EncipheredDatabase.create(sub(), cipher(), backend=backend).close()
    return EncipheredDatabase.reopen_from_backend(sub(), cipher(), backend, **removed)


def _manifest_backend() -> MemoryBackend:
    backend = MemoryBackend()
    ShardedEncipheredDatabase.create(sub, cipher, num_shards=2, backend=backend).close()
    return backend


def _reopen_cluster_from_manifest(tmp_path, removed=BUDGET):
    return ShardedEncipheredDatabase.reopen_from_manifest(
        sub, cipher, _manifest_backend(), **removed
    )


#: The process executor's keywords, each with a value it used to accept.
EXECUTOR_KEYWORDS = {
    "executor": "serial",
    "shard_factories": (sub, cipher),
    "op_deadline_s": 0.5,
}


def _construct_cluster_with(*removed_args, **removed):
    cluster = ShardedEncipheredDatabase.create(sub, cipher, num_shards=2)
    return ShardedEncipheredDatabase(
        cluster.shards, cluster.router, *removed_args, **removed
    )


#: Every surface that took a removed keyword, called with it.
REJECTING_CALLS = {
    "db.create": lambda tmp_path: EncipheredDatabase.create(sub(), cipher(), **BUDGET),
    "db.reopen_from_backend": _reopen_db_from_backend,
    "cluster.create": lambda tmp_path: ShardedEncipheredDatabase.create(
        sub, cipher, num_shards=2, **BUDGET
    ),
    "cluster.reopen_from_manifest": _reopen_cluster_from_manifest,
    "Pager(decoded_cache_bytes)": lambda tmp_path: Pager(
        SimulatedDisk(block_size=64), decoded_cache_bytes=1024
    ),
    "LRUCache(max_bytes)": lambda tmp_path: LRUCache(4, max_bytes=1024),
    "LRUCache(weigher)": lambda tmp_path: LRUCache(4, weigher=lambda key, value: 1),
    "LRUCache.put(weight)": lambda tmp_path: LRUCache(4).put("k", "v", weight=1),
    "db.create(readahead_workers)": lambda tmp_path: EncipheredDatabase.create(
        sub(), cipher(), **READAHEAD
    ),
    "db.reopen_from_backend(readahead_workers)": lambda tmp_path: _reopen_db_from_backend(
        tmp_path, READAHEAD
    ),
    "Pager(readahead_workers)": lambda tmp_path: Pager(
        SimulatedDisk(block_size=64), **READAHEAD
    ),
    "db.create(decoded_node_cache_blocks)": lambda tmp_path: EncipheredDatabase.create(
        sub(), cipher(), **DECODED
    ),
    "db.reopen_from_backend(decoded_node_cache_blocks)": lambda tmp_path: (
        _reopen_db_from_backend(tmp_path, DECODED)
    ),
    "cluster.create(decoded_node_cache_blocks)": lambda tmp_path: (
        ShardedEncipheredDatabase.create(sub, cipher, num_shards=2, **DECODED)
    ),
    "cluster.reopen_from_manifest(decoded_node_cache_blocks)": lambda tmp_path: (
        _reopen_cluster_from_manifest(tmp_path, DECODED)
    ),
    "Pager(decoded_cache_blocks)": lambda tmp_path: Pager(
        SimulatedDisk(block_size=64), decoded_cache_blocks=4
    ),
    "ObsConfig(ring_size)": lambda tmp_path: ObsConfig(enabled=True, ring_size=16),
    "ObsConfig(slow_op_threshold_s)": lambda tmp_path: ObsConfig(
        enabled=True, slow_op_threshold_s=0.1
    ),
    "Tracer(ring_size)": lambda tmp_path: Tracer(MetricsRegistry(), ring_size=16),
    "Tracer(slow_op_threshold_s)": lambda tmp_path: Tracer(
        MetricsRegistry(), slow_op_threshold_s=0.1
    ),
    "Observability(universe)": lambda tmp_path: Observability(
        ObsConfig(), universe=range(183)
    ),
    "db.create(observability=Observability)": lambda tmp_path: EncipheredDatabase.create(
        sub(), cipher(), observability=Observability(ObsConfig())
    ),
    **{
        f"cluster.create({keyword})": (
            lambda tmp_path, keyword=keyword: ShardedEncipheredDatabase.create(
                sub, cipher, num_shards=2, **{keyword: EXECUTOR_KEYWORDS[keyword]}
            )
        )
        for keyword in EXECUTOR_KEYWORDS
    },
    "cluster.reopen_from_manifest(op_deadline_s)": lambda tmp_path: (
        _reopen_cluster_from_manifest(tmp_path, {"op_deadline_s": 0.5})
    ),
    "cluster.reopen_from_manifest(shard_factories)": lambda tmp_path: (
        _reopen_cluster_from_manifest(tmp_path, {"shard_factories": (sub, cipher)})
    ),
    "db.create(write_back)": lambda tmp_path: EncipheredDatabase.create(
        sub(), cipher(), **WRITE_BACK
    ),
    "db.reopen_from_backend(write_back)": lambda tmp_path: _reopen_db_from_backend(
        tmp_path, WRITE_BACK
    ),
    "cluster.create(write_back)": lambda tmp_path: ShardedEncipheredDatabase.create(
        sub, cipher, num_shards=2, **WRITE_BACK
    ),
    "cluster.reopen_from_manifest(write_back)": lambda tmp_path: (
        _reopen_cluster_from_manifest(tmp_path, WRITE_BACK)
    ),
    "db.create(autocommit)": lambda tmp_path: EncipheredDatabase.create(
        sub(), cipher(), **MANUAL_COMMIT
    ),
    "db.reopen_from_backend(autocommit)": lambda tmp_path: _reopen_db_from_backend(
        tmp_path, MANUAL_COMMIT
    ),
    "cluster.create(autocommit)": lambda tmp_path: ShardedEncipheredDatabase.create(
        sub, cipher, num_shards=2, **MANUAL_COMMIT
    ),
    "cluster.reopen_from_manifest(autocommit)": lambda tmp_path: (
        _reopen_cluster_from_manifest(tmp_path, MANUAL_COMMIT)
    ),
    "Pager(write_back)": lambda tmp_path: Pager(
        SimulatedDisk(block_size=64), **WRITE_BACK
    ),
    "db.reopen_from_backend(block_size)": lambda tmp_path: _reopen_db_from_backend(
        tmp_path, {"block_size": 512}
    ),
    "db.reopen_from_backend(record_size)": lambda tmp_path: _reopen_db_from_backend(
        tmp_path, {"record_size": 120}
    ),
    "ClusterManifest(block_size, record_size)": lambda tmp_path: ClusterManifest(
        num_shards=1, router_kind="hash", shard_scopes=["a"],
        block_size=512, record_size=120,
    ),
    "cluster.reopen_from_manifest(validate_routing)": lambda tmp_path: (
        _reopen_cluster_from_manifest(tmp_path, {"validate_routing": False})
    ),
    "RecordStore(device_name)": lambda tmp_path: RecordStore(
        b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1", device_name="records"
    ),
    "SimulatedDisk(latency_s)": lambda tmp_path: SimulatedDisk(
        block_size=64, latency_s=0.001
    ),
    "MemoryBackend(latency_s)": lambda tmp_path: MemoryBackend(latency_s=0.001),
    "FilePlatter(fsync_latency_s)": lambda tmp_path: FilePlatter(
        tmp_path / "p.platter", fsync=False, fsync_latency_s=0.001
    ),
    "FileBackend(fsync_latency_s)": lambda tmp_path: FileBackend(
        tmp_path / "f", fsync=False, fsync_latency_s=0.001
    ),
    "ShardedEncipheredDatabase(executor)": lambda tmp_path: _construct_cluster_with(
        executor="serial"
    ),
    # the third positional parameter was ``executor``; it must not land
    # in ``degraded_reads`` now
    "ShardedEncipheredDatabase(shards, router, executor)": lambda tmp_path: (
        _construct_cluster_with("serial")
    ),
}

#: The prefetch entry points; no owner below may have any of them.
PREFETCH = ("warm", "warm_blocks", "readahead")

#: Every owner of a removed method or attribute, with what it lost.
GONE = {
    "database": (
        lambda tmp_path: EncipheredDatabase.create(sub(), cipher()),
        ("save_heat", "load_heat", "_backend", "_warm_thread", "reattach", "warming",
         "seal_changes", "truncate_journals", "has_unsealed_changes",
         "collect_delta", "apply_delta", "reopen", "autocommit", "_after_mutation")
        + PREFETCH,
    ),
    "BTree": (
        lambda tmp_path: EncipheredDatabase.create(sub(), cipher()).tree,
        PREFETCH,
    ),
    "PagerStats": (
        lambda tmp_path: Pager(SimulatedDisk(block_size=64)).stats,
        ("readaheads", "readahead_loads", "readahead_drops"),
    ),
    "RecordStore": (
        lambda tmp_path: RecordStore(b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"),
        ("reattach", "_reindex_blocks", "_meta_blocks", "export_state", "from_state",
         "import_state", "collect_delta", "apply_delta", "reopen") + PREFETCH,
    ),
    "BlockDevice": (
        lambda tmp_path: BlockDevice,
        ("poll", "import_state", "snapshot_blocks", "_wait"),
    ),
    "SimulatedDisk": (
        lambda tmp_path: SimulatedDisk(block_size=64),
        ("poll", "journal", "import_state", "snapshot_blocks", "_wait", "latency_s"),
    ),
    "FilePlatter": (
        lambda tmp_path: FilePlatter(tmp_path / "p.platter", fsync=False),
        ("poll", "journal", "import_state", "snapshot_blocks", "_wait",
         "fsync_latency_s"),
    ),
    "Pager": (
        lambda tmp_path: Pager(SimulatedDisk(block_size=64)),
        ("readahead_workers", "close", "collect_delta", "decoded") + PREFETCH,
    ),
    "cluster": (
        lambda tmp_path: ShardedEncipheredDatabase.create(sub, cipher, num_shards=2),
        ("save_heat", "load_heat", "sync_stats", "executor", "op_deadline_s",
         "_procs", "_shard_epochs", "_epoch_locks", "_txn_thread",
         "_process_pool", "_process_map", "_use_processes", "_process_bulk_load",
         "_offload_batch", "_install_offload", "_note_writes",
         "_note_changed_writes", "_note_worker_trouble", "reopen",
         "shard_parts") + PREFETCH,
    ),
    "MemoryBackend": (
        lambda tmp_path: MemoryBackend(), ("save_blob", "load_blob", "latency_s")
    ),
    "FileBackend": (
        lambda tmp_path: FileBackend(tmp_path / "f", fsync=False),
        ("save_blob", "load_blob", "blob_path", "fsync_latency_s"),
    ),
    "LRUCache": (
        lambda tmp_path: LRUCache(4),
        ("pin", "unpin", "unpin_all", "pinned_count", "resize_bytes", "total_bytes",
         "max_bytes"),
    ),
    "repro.obs": (
        lambda tmp_path: repro.obs,
        ("HeatMap", "NUM_RANGES", "RANGE_FIELDS", "Gauge"),
    ),
    "repro.obs.metrics": (lambda tmp_path: repro.obs.metrics, ("Gauge",)),
    "MetricsRegistry": (
        lambda tmp_path: MetricsRegistry(INSTRUMENTS),
        ("gauge", "gauge_values", "histogram_names"),
    ),
    "Tracer": (
        lambda tmp_path: Tracer(MetricsRegistry(), enabled=True),
        ("recent_spans", "slow_ops", "slow_op_threshold_s", "counters", "snapshot"),
    ),
    "Span": (
        lambda tmp_path: Tracer(MetricsRegistry(("op",)), enabled=True).trace("op"),
        ("duration_ns", "name", "start_ns"),
    ),
    "disabled span": (
        lambda tmp_path: Tracer(MetricsRegistry(), enabled=False).trace("op"),
        ("duration_ns",),
    ),
    "Observability": (
        lambda tmp_path: Observability(ObsConfig(enabled=True)),
        ("set_enabled", "heat"),
    ),
    "ObsConfig": (lambda tmp_path: ObsConfig(), ("ring_size", "slow_op_threshold_s")),
    "ClusterStats": (
        lambda tmp_path: ShardedEncipheredDatabase.create(sub, cipher, num_shards=2).stats(),
        ("heat", "shard_heat", "hottest_shards", "replica_sync",
         "node_decoded_cache", "node_decoded_cache_hit_rate"),
    ),
    "ClusterHealth": (
        lambda tmp_path: ShardedEncipheredDatabase.create(sub, cipher, num_shards=2).health,
        ("record_worker_loss",),
    ),
    "repro.exceptions": (
        lambda tmp_path: repro.exceptions,
        ("WorkerCrashError", "WorkerTimeoutError"),
    ),
    "repro.cluster": (
        lambda tmp_path: repro.cluster,
        ("ProcessShardExecutor", "ShardSpec", "subtract_counter_dicts"),
    ),
    "repro.cluster.health": (lambda tmp_path: repro.cluster.health, ("WORKER_FIELDS",)),
    "repro.storage": (
        lambda tmp_path: repro.storage,
        ("ChangeJournal", "DiskDelta", "RecordStoreDelta", "ShardDelta"),
    ),
}


class TestRemovedOptions:
    @pytest.mark.parametrize("surface", sorted(REJECTING_CALLS))
    def test_removed_keyword_raises_type_error(self, tmp_path, surface):
        with pytest.raises(TypeError):
            REJECTING_CALLS[surface](tmp_path)

    @pytest.mark.parametrize("owner", sorted(GONE))
    def test_removed_methods_are_gone(self, tmp_path, owner):
        build, names = GONE[owner]
        instance = build(tmp_path)
        for name in names:
            assert not hasattr(instance, name), name

    def test_heat_module_is_gone(self):
        assert importlib.util.find_spec("repro.obs.heat") is None

    def test_observability_stats_hold_latency_only(self):
        db = EncipheredDatabase.create(sub(), cipher(), observability=ObsConfig(enabled=True))
        assert list(db.stats()["observability"]) == ["latency"]

    def test_cache_config_drops_byte_budget(self):
        db = EncipheredDatabase.create(sub(), cipher())
        assert sorted(db.cache_config()) == ["node_raw_blocks", "record_plaintext_blocks"]


def _run_python(script: str, **env_extra: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter with this checkout's ``src`` on the path."""
    env = dict(os.environ, **env_extra)
    here = os.path.dirname(os.path.abspath(des_module.__file__))
    src = os.path.join(here, "..", "..")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )


class TestRemovedVectorKernel:
    def test_des_kernel_vector_raises(self):
        with pytest.raises(KeyError_):
            DES(b"k" * 8, kernel="vector")

    def test_vector_names_are_gone(self):
        assert importlib.util.find_spec("repro.crypto.vector") is None
        for name in ("VectorDESKernel", "vector_available", "MIN_VECTOR_BLOCKS",
                     "_build_round_tables_py"):
            assert not hasattr(des_module, name), name

    def test_no_module_imports_numpy(self):
        done = _run_python(
            "import importlib, pkgutil, sys, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n"
            "print('numpy' in sys.modules)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]


class TestRemovedRoundTables:
    @pytest.mark.parametrize("name", [
        "RoundTables", "_build_round_tables", "WINDOW_SHIFTS",
        "MIN_COUNTED_BLOCKS", "TABLE_BUILD_CALLS", "set_default_kernel",
    ])
    def test_module_names_are_gone(self, name):
        assert not hasattr(des_module, name), name

    def test_des_objects_hold_no_tables(self):
        des = DES(b"k" * 8, kernel="fast")
        for _ in range(3):
            des.encrypt_blocks(bytes(8 * 20))
        for name in ("release_tables", "_tables", "_bulk_calls"):
            assert not hasattr(des, name), name
        assert not hasattr(RecordStore, "release_cipher_tables")

    def test_single_block_methods_are_gone(self):
        # a single block is a one-block bulk call; the FIPS oracle keeps its own
        assert not hasattr(des_module.FastDESKernel, "crypt_block")
        assert not hasattr(des_module.OpenSSLDESKernel, "crypt_block")
        assert hasattr(des_module.ReferenceDESKernel, "crypt_block")

    @pytest.mark.parametrize("requested", ["fast", "openssl", "vector"])
    def test_kernel_env_var_is_ignored(self, requested):
        done = _run_python(
            "from repro.crypto import des; print(des.default_kernel())",
            REPRO_DES_KERNEL=requested,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [default_kernel()]


class TestRemovedProcessExecutor:
    @pytest.mark.parametrize("module", ["repro.cluster.executor", "repro.storage.journal"])
    def test_process_executor_modules_are_gone(self, module):
        assert importlib.util.find_spec(module) is None

    @pytest.mark.parametrize("executor", ["processes", "threads"])
    def test_reopen_from_manifest_accepts_only_serial(self, executor):
        backend = _manifest_backend()
        with pytest.raises(StorageError, match="process executor was removed"):
            ShardedEncipheredDatabase.reopen_from_manifest(
                sub, cipher, backend, executor=executor
            )
        cluster = ShardedEncipheredDatabase.reopen_from_manifest(
            sub, cipher, backend, executor="serial"
        )
        assert cluster.num_shards == 2

    def test_instruments_drop_the_executor_histograms(self):
        assert [name for name in INSTRUMENTS if name.startswith("executor.")] == []

    def test_health_snapshot_has_no_worker_block(self):
        cluster = ShardedEncipheredDatabase.create(sub, cipher, num_shards=2)
        health = cluster.stats().health
        assert "worker" not in health
        assert "worker_losses" not in health["per_shard"][0]
        with pytest.raises(TypeError):
            cluster.health.snapshot(worker={})

    def test_no_module_imports_multiprocessing(self):
        done = _run_python(
            "import importlib, pkgutil, sys, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n"
            "print('multiprocessing' in sys.modules)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]


class TestRemovedFacades:
    @pytest.mark.parametrize("module", ["repro.core.enciphered_btree", "repro.core.bayer_metzger"])
    def test_facade_modules_fail_to_import(self, module):
        assert importlib.util.find_spec(module) is None
        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize("package", [repro, repro.core], ids=["repro", "repro.core"])
    @pytest.mark.parametrize("name", ["EncipheredBTree", "BayerMetzgerBTree", "TraversalCost"])
    def test_facade_names_are_not_exported(self, package, name):
        assert not hasattr(package, name)
        assert name not in package.__all__
