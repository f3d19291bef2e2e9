"""Storage backends: device factories, scoping, manifest storage."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import StorageError
from repro.storage.backend import FileBackend, MemoryBackend
from repro.storage.platter import FilePlatter


class TestMemoryBackend:
    def test_reopen_by_name_finds_the_same_device(self):
        backend = MemoryBackend()
        dev = backend.open_device("node", block_size=64)
        b = dev.allocate()
        dev.write_block(b, b"kept")
        again = backend.open_device("node", block_size=64, create=False)
        assert again is dev
        assert again.read_block(b) == b"kept"

    def test_create_flags(self):
        backend = MemoryBackend()
        backend.open_device("node", create=True)
        with pytest.raises(StorageError, match="already exists"):
            backend.open_device("node", create=True)
        with pytest.raises(StorageError, match="not found"):
            backend.open_device("other", create=False)

    def test_block_size_mismatch_rejected(self):
        backend = MemoryBackend()
        backend.open_device("node", block_size=64)
        with pytest.raises(StorageError, match="64-byte blocks"):
            backend.open_device("node", block_size=128)

    def test_reopen_adopts_the_new_transform(self):
        class Marker:
            def on_write(self, block_id, data):
                return data

            def on_read(self, block_id, data):
                return data

        backend = MemoryBackend()
        dev = backend.open_device("node")
        fresh = Marker()
        again = backend.open_device("node", transform=fresh)
        assert again is dev
        assert dev.transform is fresh

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
