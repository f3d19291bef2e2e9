"""Simulated secondary storage.

The paper's schemes live at the *"low level, close to the disk-write stage
of the B-Tree node blocks and data blocks"*; the authors assume an
on-the-fly (hardware) encipherment module between main memory and the
physical disk.  This package simulates that boundary:

* :mod:`repro.storage.device` -- :class:`BlockDevice`, the at-rest
  contract written once (allocation, bounds, read/write accounting,
  at-rest state access, the raw view) plus an optional encipherment transform
  applied exactly at the read/write boundary (the hardware module's
  position); each backend below supplies only its at-rest primitives;
* :mod:`repro.storage.disk` -- the in-memory device (instant, the
  paper-faithful cost model);
* :mod:`repro.storage.platter` -- the durable device: one
  self-describing file per platter with a checksummed dual-slot header,
  CRC-tagged block records and a sidecar write-ahead log replayed (and
  used for block repair) on open;
* :mod:`repro.storage.backend` -- factories binding a database's
  devices and manifest to memory or to a directory of platter files;
* :mod:`repro.storage.cache` -- the generic thread-safe LRU (eviction
  predicate and callback, mergeable hit/miss/eviction stats) every
  read-path layer builds its caching on;
* :mod:`repro.storage.pager` -- block allocation plus one cache of
  *raw* (still-enciphered) blocks: it saves disk traffic, and every
  node visit still decodes -- and pays its decryptions -- so
  cryptographic costs stay faithful to the paper;
* :mod:`repro.storage.layout` -- triplet/node sizing arithmetic used by
  the storage-overhead experiment (C2);
* :mod:`repro.storage.rwlock` -- the reader--writer lock the concurrent
  database layer (and the sharded cluster on top of it) serialises
  writers with.
"""

from repro.storage.backend import FileBackend, MemoryBackend, StorageBackend
from repro.storage.cache import CacheStats, LRUCache
from repro.storage.device import BlockDevice
from repro.storage.disk import BlockTransform, DiskStats, SimulatedDisk
from repro.storage.layout import NodeLayout, TripletLayout
from repro.storage.pager import Pager
from repro.storage.platter import FilePlatter
from repro.storage.rwlock import ReadWriteLock

__all__ = [
    "BlockDevice",
    "BlockTransform",
    "CacheStats",
    "DiskStats",
    "FileBackend",
    "FilePlatter",
    "LRUCache",
    "MemoryBackend",
    "NodeLayout",
    "Pager",
    "ReadWriteLock",
    "SimulatedDisk",
    "StorageBackend",
    "TripletLayout",
]
