"""Deleted cache, heat and observability options fail loudly instead of being ignored.

Record-block heat (and its persistence), heat-guided and background
warming, the decoded-node byte budget and LRU pinning were removed: no
measured workload gained from them.  A caller still passing one of their
keywords gets a ``TypeError``; their methods are gone.  So is the
``poll``/``reattach`` reader catch-up: a reader that needs another
handle's commits reopens with ``reopen_from_backend``.  So are the
pager's background readahead pool (``readahead_workers``) and every
``warm(levels)`` path: a scan over canonical storage ran slower with
the pool on, and no benchmark warmed a cache.  Observability keeps only
its latency histograms: key-range heat (which counted operations by
plaintext key band), the tracer's recent-span ring, slow-op log and
span counters, gauges and the runtime on/off switch are gone, with the
keywords that configured them.  The numpy ``"vector"`` DES kernel is
gone too, replaced by ``"openssl"``: asking for it by ``DES(kernel=)``,
``set_default_kernel`` or ``REPRO_DES_KERNEL`` raises ``KeyError_``, and
nothing in the package imports numpy any more.
"""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys

import pytest

import repro.obs
import repro.obs.metrics

from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto import des as des_module
from repro.crypto.des import DES, default_kernel, set_default_kernel
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.exceptions import KeyError_
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


def _reopen_db(tmp_path, removed=BUDGET):
    backend = FileBackend(tmp_path / "db", fsync=False)
    db = EncipheredDatabase.create(sub(), cipher(), backend=backend)
    db.close()
    return EncipheredDatabase.reopen(sub(), cipher(), db.disk, db.records, **removed)


def _reopen_db_from_backend(tmp_path, removed=BUDGET):
    backend = FileBackend(tmp_path / "db", fsync=False)
    EncipheredDatabase.create(sub(), cipher(), backend=backend).close()
    return EncipheredDatabase.reopen_from_backend(sub(), cipher(), backend, **removed)


def _reopen_cluster(tmp_path):
    cluster = ShardedEncipheredDatabase.create(sub, cipher, num_shards=2)
    return ShardedEncipheredDatabase.reopen(sub, cipher, cluster.shard_parts(), **BUDGET)


def _reopen_cluster_from_manifest(tmp_path):
    backend = MemoryBackend()
    ShardedEncipheredDatabase.create(sub, cipher, num_shards=2, backend=backend).close()
    return ShardedEncipheredDatabase.reopen_from_manifest(sub, cipher, backend, **BUDGET)


#: Every surface that took a removed keyword, called with it.
REJECTING_CALLS = {
    "db.create": lambda tmp_path: EncipheredDatabase.create(sub(), cipher(), **BUDGET),
    "db.reopen": _reopen_db,
    "db.reopen_from_backend": _reopen_db_from_backend,
    "cluster.create": lambda tmp_path: ShardedEncipheredDatabase.create(
        sub, cipher, num_shards=2, **BUDGET
    ),
    "cluster.reopen": _reopen_cluster,
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
    "db.reopen(readahead_workers)": lambda tmp_path: _reopen_db(tmp_path, READAHEAD),
    "db.reopen_from_backend(readahead_workers)": lambda tmp_path: _reopen_db_from_backend(
        tmp_path, READAHEAD
    ),
    "Pager(readahead_workers)": lambda tmp_path: Pager(
        SimulatedDisk(block_size=64), **READAHEAD
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
}

#: The prefetch entry points; no owner below may have any of them.
PREFETCH = ("warm", "warm_blocks", "readahead")

#: Every owner of a removed method or attribute, with what it lost.
GONE = {
    "database": (
        lambda tmp_path: EncipheredDatabase.create(sub(), cipher()),
        ("save_heat", "load_heat", "_backend", "_warm_thread", "reattach", "warming")
        + PREFETCH,
    ),
    "BTree": (
        lambda tmp_path: EncipheredDatabase.create(sub(), cipher()).tree,
        PREFETCH,
    ),
    "Pager": (
        lambda tmp_path: Pager(SimulatedDisk(block_size=64)),
        ("readahead_workers", "close") + PREFETCH,
    ),
    "PagerStats": (
        lambda tmp_path: Pager(SimulatedDisk(block_size=64)).stats,
        ("readaheads", "readahead_loads", "readahead_drops"),
    ),
    "RecordStore": (
        lambda tmp_path: RecordStore(b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"),
        ("reattach", "_reindex_blocks", "_meta_blocks") + PREFETCH,
    ),
    "BlockDevice": (lambda tmp_path: BlockDevice, ("poll",)),
    "SimulatedDisk": (lambda tmp_path: SimulatedDisk(block_size=64), ("poll",)),
    "FilePlatter": (
        lambda tmp_path: FilePlatter(tmp_path / "p.platter", fsync=False),
        ("poll",),
    ),
    "cluster": (
        lambda tmp_path: ShardedEncipheredDatabase.create(sub, cipher, num_shards=2),
        ("save_heat", "load_heat") + PREFETCH,
    ),
    "MemoryBackend": (lambda tmp_path: MemoryBackend(), ("save_blob", "load_blob")),
    "FileBackend": (
        lambda tmp_path: FileBackend(tmp_path / "f", fsync=False),
        ("save_blob", "load_blob", "blob_path"),
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
        ("heat", "shard_heat", "hottest_shards"),
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
        assert sorted(db.cache_config()) == [
            "node_decoded_blocks", "node_raw_blocks", "record_plaintext_blocks",
        ]


def _run_python(script: str, **env_extra: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter with this checkout's ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_DES_KERNEL"}
    env.update(env_extra)
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

    def test_set_default_kernel_vector_raises(self):
        before = default_kernel()
        with pytest.raises(KeyError_):
            set_default_kernel("vector")
        assert default_kernel() == before

    def test_env_var_vector_fails_at_import(self):
        done = _run_python("import repro.crypto.des", REPRO_DES_KERNEL="vector")
        assert done.returncode != 0
        assert "KeyError_" in done.stderr and "REPRO_DES_KERNEL" in done.stderr

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
