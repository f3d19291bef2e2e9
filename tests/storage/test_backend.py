"""Storage backends: device factories, scoping, manifest storage."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import StorageError
from repro.storage.backend import FileBackend, MemoryBackend
from repro.storage.platter import FilePlatter


@pytest.fixture(params=["memory", "file"])
def any_backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return FileBackend(tmp_path / "db", fsync=False)


class TestOpenRules:
    """One block-size rule and one live handle, on every backend."""

    def test_existing_device_opens_at_its_stored_size(self, any_backend):
        any_backend.open_device("node", block_size=512).close()
        dev = any_backend.open_device("node", create=False)
        assert dev.block_size == 512
        dev.close()
        with pytest.raises(StorageError, match="512-byte blocks"):
            any_backend.open_device("node", block_size=4096)

    def test_second_live_open_refused_until_close(self, any_backend):
        dev = any_backend.open_device("node", block_size=64)
        dev.write_block(dev.allocate(), b"kept")
        with pytest.raises(StorageError, match="open in another handle"):
            any_backend.open_device("node")
        dev.close()
        dev.close()  # idempotent: releases once
        again = any_backend.open_device("node")
        assert again.read_block(0) == b"kept"
        with pytest.raises(StorageError, match="open in another handle"):
            any_backend.open_device("node")
        again.close()


class TestMemoryBackend:
    def test_reopen_by_name_finds_the_same_blocks(self):
        backend = MemoryBackend()
        dev = backend.open_device("node", block_size=64)
        b = dev.allocate()
        dev.write_block(b, b"kept")
        dev.close()
        again = backend.open_device("node", block_size=64, create=False)
        assert again is not dev  # a fresh handle, with its own statistics
        assert again.read_block(b) == b"kept"
        assert (again.num_blocks, again.stats.reads) == (1, 1)

    def test_create_flags(self):
        backend = MemoryBackend()
        backend.open_device("node", create=True)
        with pytest.raises(StorageError, match="already exists"):
            backend.open_device("node", create=True)
        with pytest.raises(StorageError, match="not found"):
            backend.open_device("other", create=False)

    def test_block_size_mismatch_rejected(self):
        backend = MemoryBackend()
        backend.open_device("node", block_size=64).close()
        with pytest.raises(StorageError, match="64-byte blocks"):
            backend.open_device("node", block_size=128)

    def test_scoped_is_stable_and_isolated(self):
        backend = MemoryBackend()
        a = backend.scoped("shard-000")
        b = backend.scoped("shard-001")
        assert backend.scoped("shard-000") is a
        a.open_device("node", block_size=64)
        with pytest.raises(StorageError, match="not found"):
            b.open_device("node", create=False)

    def test_manifest_roundtrip(self):
        backend = MemoryBackend()
        with pytest.raises(StorageError, match="no manifest"):
            backend.load_manifest()
        backend.save_manifest(b"blob-1")
        backend.save_manifest(b"blob-2")
        assert backend.load_manifest() == b"blob-2"

    def test_not_durable(self):
        assert MemoryBackend().durable is False
        assert FileBackend.durable is True

    def test_bad_names_rejected(self):
        backend = MemoryBackend()
        for name in ("", ".hidden", "a/b", "..", "x y"):
            with pytest.raises(StorageError, match="invalid device"):
                backend.open_device(name)
            with pytest.raises(StorageError, match="invalid device"):
                backend.scoped(name)


class TestFileBackend:
    def test_devices_are_platter_files(self, tmp_path):
        backend = FileBackend(tmp_path / "db", fsync=False)
        dev = backend.open_device("node", block_size=64)
        assert isinstance(dev, FilePlatter)
        b = dev.allocate()
        dev.write_block(b, b"kept")
        dev.close()
        assert os.path.exists(tmp_path / "db" / "node.platter")
        again = backend.open_device("node", create=False)
        assert again.read_block(b) == b"kept"
        again.close()

    def test_scoped_is_a_subdirectory(self, tmp_path):
        backend = FileBackend(tmp_path / "db", fsync=False)
        shard = backend.scoped("shard-000")
        dev = shard.open_device("node", block_size=64)
        dev.allocate()
        dev.write_block(0, b"x")
        dev.close()
        assert os.path.exists(tmp_path / "db" / "shard-000" / "node.platter")

    def test_manifest_atomic_roundtrip(self, tmp_path):
        backend = FileBackend(tmp_path / "db", fsync=False)
        with pytest.raises(StorageError, match="no manifest"):
            backend.load_manifest()
        backend.save_manifest(b"first")
        backend.save_manifest(b"second")
        assert backend.load_manifest() == b"second"
        # no stray temp files left behind by the atomic replace
        leftovers = [n for n in os.listdir(tmp_path / "db") if n.startswith(".")]
        assert leftovers == []

    def test_options_reach_the_platter(self, tmp_path):
        backend = FileBackend(tmp_path / "db", fsync=False, wal_limit_bytes=999)
        dev = backend.open_device("node", block_size=64)
        assert dev.fsync is False
        assert dev.wal_limit_bytes == 999
        dev.close()
