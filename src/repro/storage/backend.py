"""Storage backends: where a database's block devices come from.

A database owns two block devices (node blocks, record blocks) and a
cluster owns two per shard.  A :class:`StorageBackend` is the factory
the create/reopen paths thread through, so the same code runs on the
instant in-memory device or on durable :class:`~repro.storage.platter.
FilePlatter` files:

* :class:`MemoryBackend` -- devices are :class:`SimulatedDisk`\\ s held
  in a registry (so a same-process "reopen" opens a fresh handle over
  the same blocks) and the manifest is a held byte string.
* :class:`FileBackend` -- a directory; each device is a
  ``<name>.platter`` file (plus its ``.wal`` sidecar), the manifest is
  an atomically-replaced ``MANIFEST`` file, and :meth:`scoped` returns
  a subdirectory backend (the cluster gives each shard its own scope).

Device *names* are the self-description hook: a manifest records names
("node", "records") rather than paths, and a backend rooted anywhere
can resolve them -- moving a database is moving a directory.
"""

from __future__ import annotations

import os
import re
import tempfile
from abc import ABC, abstractmethod

from repro.exceptions import StorageError
from repro.storage.device import BlockDevice, BlockTransform
from repro.storage.disk import SimulatedDisk
from repro.storage.platter import FilePlatter

__all__ = ["StorageBackend", "MemoryBackend", "FileBackend"]

#: Device and scope names double as file-name stems; keep them tame.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise StorageError(f"invalid device/scope name: {name!r}")
    return name


class StorageBackend(ABC):
    """Factory for the block devices (and the manifest) of one database.

    ``durable`` says whether devices opened here survive the process --
    callers use it to decide whether a sync/commit has real value (the
    C12 benchmark prints it next to every arm).
    """

    durable: bool = False

    @abstractmethod
    def open_device(
        self,
        name: str,
        *,
        block_size: int | None = None,
        transform: BlockTransform | None = None,
        create: bool | None = None,
    ) -> BlockDevice:
        """Open (or create) the named block device.

        ``create`` follows :class:`~repro.storage.platter.FilePlatter`:
        ``True`` demands a fresh device, ``False`` demands an existing
        one, ``None`` takes whichever applies.  ``block_size`` sizes a
        new device (default 4096); an existing one opens at its stored
        size, and a size given for it must match.  A device another
        live handle holds is refused.
        """

    @abstractmethod
    def scoped(self, name: str) -> "StorageBackend":
        """A child backend namespacing its devices under ``name``.

        Stable: asking twice for the same name yields the same storage
        (the cluster reopens shard ``i`` from ``scoped(f"shard-{i:03d}")``).
        """

    @abstractmethod
    def save_manifest(self, payload: bytes) -> None:
        """Durably store the (already enciphered) manifest blob."""

    @abstractmethod
    def load_manifest(self) -> bytes:
        """The stored manifest blob; :class:`StorageError` if none."""


class MemoryBackend(StorageBackend):
    """In-memory devices with a registry, so reopen-by-name works."""

    durable = False

    def __init__(self) -> None:
        #: name -> the device's latest handle; reopening copies its blocks
        self._devices: dict[str, SimulatedDisk] = {}
        self._scopes: dict[str, MemoryBackend] = {}
        self._manifest: bytes | None = None

    def open_device(
        self,
        name: str,
        *,
        block_size: int | None = None,
        transform: BlockTransform | None = None,
        create: bool | None = None,
    ) -> BlockDevice:
        _check_name(name)
        existing = self._devices.get(name)
        if create is True and existing is not None:
            raise StorageError(f"device already exists: {name}")
        if create is False and existing is None:
            raise StorageError(f"device not found: {name}")
        if existing is None:
            device = SimulatedDisk(block_size or 4096, transform)
        elif not existing.closed:
            raise StorageError(f"device {name} is open in another handle; close it first")
        elif block_size not in (None, existing.block_size):
            raise StorageError(
                f"device {name} holds {existing.block_size}-byte blocks, not {block_size}"
            )
        else:
            device = SimulatedDisk(existing.block_size, transform, list(existing._blocks))
        self._devices[name] = device
        return device

    def scoped(self, name: str) -> "MemoryBackend":
        _check_name(name)
        child = self._scopes.get(name)
        if child is None:
            child = MemoryBackend()
            self._scopes[name] = child
        return child

    def save_manifest(self, payload: bytes) -> None:
        self._manifest = bytes(payload)

    def load_manifest(self) -> bytes:
        if self._manifest is None:
            raise StorageError("no manifest stored in this backend")
        return self._manifest


class FileBackend(StorageBackend):
    """A directory of :class:`FilePlatter` files plus a manifest file.

    Layout under ``root``::

        MANIFEST                  enciphered cluster/database manifest
        <name>.platter            one per device
        <name>.platter.wal        its write-ahead log
        <scope>/...               scoped child backends (per shard)

    ``fsync=False`` and ``wal_limit_bytes`` pass straight through to
    every platter opened here.
    """

    durable = True

    def __init__(
        self,
        root,
        *,
        fsync: bool = True,
        wal_limit_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        self.root = os.fspath(root)
        self.fsync = fsync
        self.wal_limit_bytes = wal_limit_bytes
        os.makedirs(self.root, exist_ok=True)

    def device_path(self, name: str) -> str:
        return os.path.join(self.root, _check_name(name) + ".platter")

    def open_device(
        self,
        name: str,
        *,
        block_size: int | None = None,
        transform: BlockTransform | None = None,
        create: bool | None = None,
    ) -> BlockDevice:
        return FilePlatter(
            self.device_path(name),
            block_size=block_size,
            transform=transform,
            create=create,
            fsync=self.fsync,
            wal_limit_bytes=self.wal_limit_bytes,
        )

    def scoped(self, name: str) -> "FileBackend":
        return FileBackend(
            os.path.join(self.root, _check_name(name)),
            fsync=self.fsync,
            wal_limit_bytes=self.wal_limit_bytes,
        )

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "MANIFEST")

    def save_manifest(self, payload: bytes) -> None:
        """Atomic replace: the manifest is either the old one or the new
        one, never a torn mixture -- same discipline as the header flip."""
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".MANIFEST.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.manifest_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def load_manifest(self) -> bytes:
        try:
            with open(self.manifest_path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise StorageError(f"no manifest at {self.manifest_path}") from None
