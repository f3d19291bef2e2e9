"""The sharded enciphered database: N private databases behind one API.

Each shard is a complete :class:`~repro.core.database.EncipheredDatabase`
-- its own node disk, record store, substitution instance and
independently derived superblock/data keys -- so compromise of one
shard's secrets opens exactly one shard, and block-frequency analysis
(the A3/C5 attacker) cannot correlate blocks *across* shards: the same
plaintext key would be disguised differently and enciphered under
different keys on every shard.

Routing happens on plaintext keys inside the trusted boundary (see
:mod:`repro.cluster.router`).  Cross-shard operations -- ``range_search``
fan-out, ``bulk_load`` partitioning, ``get_many`` batch reads and the
batched mutations -- run through one fan-out path,
:meth:`ShardedEncipheredDatabase._fan_out`: a plain loop on the calling
thread.  Every slice runs even after one raises, and the first error is
re-raised after the loop.  With the ciphers running natively (DES on
OpenSSL, RSA pointer decrypts on GMP) a shard's slice costs less than
the round trip to a worker process, so a process-pool backend measured
slower than this loop on the canonical ``cluster_mixed`` workload and
was removed.

Key derivation
--------------

Per-shard secrets are derived from one base secret with the DES block
cipher as a one-way-ish KDF: shard ``i``'s superblock key is
``DES(base)(label || i)`` and its record-store key likewise under a
second label.  Distinct labels and indices give pairwise-distinct shard
keys (benchmark C8 verifies no block collisions across shards); the
operator still stores only the base secrets plus each shard's
substitution parameters.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterable, Iterator, Sequence

from repro.cluster.health import ClusterHealth, PartialResult
from repro.cluster.manifest import ClusterManifest
from repro.cluster.router import HashRouter, RangeRouter, ShardRouter
from repro.cluster.stats import ClusterStats
from repro.core.database import EncipheredDatabase
from repro.crypto.base import IntegerCipher
from repro.crypto.des import DES
from repro.exceptions import (
    BTreeError,
    DuplicateKeyError,
    PermanentIOError,
    ShardUnavailableError,
    StorageError,
    TransientIOError,
)
from repro.obs import ObsConfig
from repro.storage.backend import MemoryBackend, StorageBackend
from repro.substitution.base import KeySubstitution

# the single-database defaults, reused as the cluster's base secrets
_DEFAULT_SUPER_KEY = b"\x5b\xad\xc0\xde\x5b\xad\xc0\xde"
_DEFAULT_DATA_KEY = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"

_SUPER_LABEL = b"SUPR"
_DATA_LABEL = b"DATA"


def derive_shard_key(base_key: bytes, label: bytes, shard_index: int) -> bytes:
    """Derive shard ``shard_index``'s 8-byte key from a base secret."""
    block = label[:4].ljust(4, b"\x00") + shard_index.to_bytes(4, "big")
    return DES(base_key).encrypt_block(block)


def _resolve_router(
    router: ShardRouter | str,
    num_shards: int,
    substitution: KeySubstitution,
) -> ShardRouter:
    """Accept a router instance or the strategy names ``hash``/``range``."""
    if isinstance(router, ShardRouter):
        if router.num_shards != num_shards:
            raise StorageError(
                f"router covers {router.num_shards} shards, cluster has {num_shards}"
            )
        return router
    if router == "hash":
        return HashRouter(num_shards)
    if router == "range":
        return RangeRouter.uniform(num_shards, substitution.key_universe())
    raise StorageError(f"unknown routing strategy {router!r}")


class ShardedEncipheredDatabase:
    """Horizontal partitioning of :class:`EncipheredDatabase` over N shards.

    Build with :meth:`create` (fresh devices) or
    :meth:`reopen_from_manifest` (from the storage backend and the base
    secrets alone).  The factories receive the shard
    index and must return *independent* instances -- in particular each
    shard should get its own substitution secret (e.g. a different oval
    multiplier), which is what makes cross-shard frequency analysis
    strictly harder than against one database.
    """

    def __init__(
        self,
        shards: Sequence[EncipheredDatabase],
        router: ShardRouter,
        *,
        degraded_reads: bool = False,
    ) -> None:
        if not shards:
            raise StorageError("a cluster needs at least one shard")
        if router.num_shards != len(shards):
            raise StorageError(
                f"router covers {router.num_shards} shards, got {len(shards)}"
            )
        self.shards = list(shards)
        self.router = router
        #: Fault-tolerance plane (PR 10): one health state machine per
        #: shard, fed by operation outcomes.  Quarantined shards make
        #: cluster operations fail fast with ShardUnavailableError --
        #: unless ``degraded_reads`` opts read fan-outs into skipping
        #: them and returning a :class:`PartialResult` that names the
        #: missing shards.
        self.health = ClusterHealth(len(self.shards))
        self.degraded_reads = degraded_reads
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(
        cls,
        substitution_factory: Callable[[int], KeySubstitution],
        pointer_cipher_factory: Callable[[int], IntegerCipher],
        *,
        num_shards: int = 4,
        router: ShardRouter | str = "hash",
        block_size: int = 512,
        min_degree: int = 4,
        super_key: bytes = _DEFAULT_SUPER_KEY,
        data_key: bytes = _DEFAULT_DATA_KEY,
        record_size: int = 120,
        cache_blocks: int = 16,
        record_cache_blocks: int = 0,
        degraded_reads: bool = False,
        backend: StorageBackend | None = None,
        observability: ObsConfig | None = None,
    ) -> "ShardedEncipheredDatabase":
        """Initialise ``num_shards`` fresh shards with derived secrets.

        ``record_cache_blocks`` sizes each shard's *private* plaintext
        record cache (default off).  Private caches give the fan-out
        per-shard cache locality: each slice warms and hits only the
        shard it is scanning, with no cross-shard invalidation traffic
        and no shared-cache lock.

        ``backend`` places every shard's devices on a
        :class:`~repro.storage.backend.StorageBackend`: shard ``i``
        lives in the scoped child backend ``shard-{i:03d}``, and an
        enciphered :class:`~repro.cluster.manifest.ClusterManifest`
        (shard count, router kind/boundaries, key-derivation labels,
        scope names) is saved to the backend, so a later
        :meth:`reopen_from_manifest` needs only the backend and the base
        secrets.  ``None`` places the cluster on a fresh
        :class:`~repro.storage.backend.MemoryBackend`; pass one you hold
        to reopen the cluster later.
        """
        if backend is None:
            backend = MemoryBackend()
        substitutions = [substitution_factory(i) for i in range(num_shards)]
        scopes = [f"shard-{i:03d}" for i in range(num_shards)]
        shards = [
            EncipheredDatabase.create(
                substitutions[i],
                pointer_cipher_factory(i),
                block_size=block_size,
                min_degree=min_degree,
                super_key=derive_shard_key(super_key, _SUPER_LABEL, i),
                data_key=derive_shard_key(data_key, _DATA_LABEL, i),
                record_size=record_size,
                cache_blocks=cache_blocks,
                record_cache_blocks=record_cache_blocks,
                backend=backend.scoped(scopes[i]),
                observability=observability,
            )
            for i in range(num_shards)
        ]
        resolved = _resolve_router(router, num_shards, substitutions[0])
        kind, boundaries = ClusterManifest.describe_router(resolved)
        manifest = ClusterManifest(
            num_shards=num_shards,
            router_kind=kind,
            router_boundaries=boundaries,
            shard_scopes=scopes,
            super_label=_SUPER_LABEL,
            data_label=_DATA_LABEL,
        )
        backend.save_manifest(manifest.encipher(super_key))
        return cls(shards, resolved, degraded_reads=degraded_reads)

    @classmethod
    def reopen_from_manifest(
        cls,
        substitution_factory: Callable[[int], KeySubstitution],
        pointer_cipher_factory: Callable[[int], IntegerCipher],
        backend: StorageBackend,
        *,
        super_key: bytes = _DEFAULT_SUPER_KEY,
        data_key: bytes = _DEFAULT_DATA_KEY,
        cache_blocks: int = 16,
        record_cache_blocks: int = 0,
        executor: str = "serial",
        degraded_reads: bool = False,
        observability: ObsConfig | None = None,
    ) -> "ShardedEncipheredDatabase":
        """Rebuild a cluster from its backend and the base secrets alone.

        The self-describing reopen: the shard count, router
        kind/boundaries, key-derivation labels and per-shard scope names
        all come from the backend's enciphered manifest, and each
        shard's geometry from its own platter and superblock --
        nothing about the cluster's shape is trusted from the caller, so
        a stale deployment script cannot silently mis-route.  Each
        shard reopens from its scoped backend via
        :meth:`EncipheredDatabase.reopen_from_backend` (replaying any
        crash-interrupted WAL frames and rescanning record metadata on
        the way), and the reconstructed router is still checked against
        the actual key placement -- the manifest authenticates the
        *configuration*, the validation cross-checks it against the
        *data*: a mismatch (a manifest whose router kind, boundaries or
        scope order do not reproduce where the keys live) fails fast
        with :class:`~repro.exceptions.StorageError` instead of silently
        mis-routing point reads and pruned ranges.

        ``executor`` accepts only ``"serial"``, the one fan-out path;
        any other value raises :class:`~repro.exceptions.StorageError`.
        """
        if executor != "serial":
            raise StorageError(
                f"executor {executor!r} is not available: the process "
                "executor was removed, and 'serial' is the only fan-out path"
            )
        manifest = ClusterManifest.decipher(backend.load_manifest(), super_key)
        substitutions = [
            substitution_factory(i) for i in range(manifest.num_shards)
        ]
        with ExitStack() as opened:  # a failed reopen releases every shard
            shards = []
            for i in range(manifest.num_shards):
                shard = EncipheredDatabase.reopen_from_backend(
                    substitutions[i],
                    pointer_cipher_factory(i),
                    backend.scoped(manifest.shard_scopes[i]),
                    super_key=derive_shard_key(super_key, manifest.super_label, i),
                    data_key=derive_shard_key(data_key, manifest.data_label, i),
                    cache_blocks=cache_blocks,
                    record_cache_blocks=record_cache_blocks,
                    observability=observability,
                )
                opened.callback(shard.close)
                shards.append(shard)
            router = manifest.build_router()
            cls._validate_routing(shards, router)
            opened.pop_all()
        for shard in shards:
            shard._make_cold()  # recovery/validation walks must not pre-warm
        return cls(shards, router, degraded_reads=degraded_reads)

    @staticmethod
    def _validate_routing(
        shards: Sequence[EncipheredDatabase], router: ShardRouter
    ) -> None:
        """Fail fast if ``router`` does not reproduce the key placement.

        A monotonic router (contiguous per-shard key intervals) is
        validated from each shard's min and max key alone -- two
        O(height) edge walks; if both endpoints route home, so does
        everything between them.  Non-monotonic routers (hash) need the
        full key walk, which -- like the tree walk a shard reopen already
        performs to recover the key count -- bumps the read-side
        operation counters; benchmarks reset counters after reopen.
        """
        for index, shard in enumerate(shards):
            with shard.lock.read_locked():
                if router.monotonic:
                    endpoints = (shard.tree.min_key(), shard.tree.max_key())
                    keys = (k for k in endpoints if k is not None)
                else:
                    keys = (key for key, _ in shard.tree.items())
                for key in keys:
                    routed = router.shard_for(key)
                    if routed != index:
                        raise StorageError(
                            f"router mismatch: key {key} lives on shard "
                            f"{index} but the {router.name!r} router "
                            f"sends it to shard {routed}; check the router "
                            f"kind/boundaries and the order of shard scopes"
                        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # -- fault tolerance (PR 10) -----------------------------------------

    def _unavailable(self, shard_id: int) -> ShardUnavailableError:
        reason = self.health.reason(shard_id) or "quarantined"
        return ShardUnavailableError(shard_id, reason)

    def _require_available(self, shard_ids: Iterable[int]) -> None:
        """Fail fast -- before any bytes move -- if a needed shard is out.

        Mutations call this over *every* shard their batch touches, so a
        batch never half-applies against a cluster with a known-dead
        member: the caller gets the typed error while all shards are
        still untouched (per-shard atomicity for the remaining failure
        modes is unchanged).
        """
        for shard_id in shard_ids:
            if self.health.is_quarantined(shard_id):
                raise self._unavailable(shard_id)

    def _serviceable(self, shard_ids: Sequence[int]) -> tuple[list[int], list[int]]:
        """Split a read fan-out's shards into (serving, skipped).

        Without ``degraded_reads`` a quarantined member makes the whole
        read fail fast; with it, the quarantined shards are returned as
        the ``skipped`` list and the caller serves a
        :class:`PartialResult` from the rest.
        """
        available, quarantined = self.health.partition(shard_ids)
        if quarantined and not self.degraded_reads:
            raise self._unavailable(quarantined[0])
        return available, quarantined

    def _on_shard(self, shard_id: int, fn: Callable[[], object]) -> object:
        """Run one shard-touching operation under health accounting.

        Success feeds the shard's recovery streak; an escaped
        :class:`TransientIOError` (the device retries are already
        exhausted by this point) feeds its failure streak; a
        :class:`PermanentIOError` quarantines it on the spot and
        resurfaces as the typed :class:`ShardUnavailableError`.
        Logical errors (duplicate key, key not found) pass through
        untouched -- they say nothing about the shard's hardware.
        """
        if self.health.is_quarantined(shard_id):
            raise self._unavailable(shard_id)
        try:
            result = fn()
        except PermanentIOError as exc:
            self.health.record_permanent(shard_id, str(exc))
            raise ShardUnavailableError(shard_id, str(exc)) from exc
        except TransientIOError as exc:
            self.health.record_failure(shard_id, str(exc))
            raise
        self.health.record_success(shard_id)
        return result

    def close(self) -> None:
        """Commit every shard and release its devices.

        On durable backends this closes every shard's platter files
        (after their final sync).  On either backend a closed device
        refuses I/O, so the closed cluster no longer serves reads.

        Idempotent, and hardened against a degraded cluster: a second
        call is a no-op, quarantined shards are skipped (their device
        already failed permanently -- syncing it again can only raise
        the error the quarantine recorded), and every shard's resources
        are released even when an earlier shard's final commit raises.
        The first non-quarantined shard's error still propagates after
        the cleanup finishes.
        """
        if self._closed:
            return
        self._closed = True
        first_error: BaseException | None = None
        try:
            self.commit()
        except BaseException as exc:
            first_error = exc
        for i, shard in enumerate(self.shards):
            try:
                shard.close()
            except BaseException as exc:
                if first_error is None and not self.health.is_quarantined(i):
                    first_error = exc
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "ShardedEncipheredDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _fan_out(self, fn: Callable[[int], object], shard_ids: Sequence[int]) -> list:
        """Run ``fn(shard_id)`` for every id on the calling thread.

        Each slice runs under :meth:`_on_shard`'s health accounting.
        Every slice runs even when one raises an :class:`Exception`
        (the first is re-raised after the loop).  Callers rely on this
        drain contract: a failing shard in a mutating fan-out
        (``put_many``, ``delete_many``, ``bulk_load``) rolls back only
        its own slice while every sibling shard's slice still commits.
        An interrupt or exit propagates at once.
        """
        results: list[object] = []
        first_error: Exception | None = None
        for i in shard_ids:
            try:
                results.append(self._on_shard(i, lambda: fn(i)))
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    # -- single-key operations (routed, no fan-out) ----------------------

    def _shard(self, key: int) -> EncipheredDatabase:
        return self.shards[self.router.shard_for(key)]

    def insert(self, key: int, record: bytes) -> None:
        shard_id = self.router.shard_for(key)
        self._on_shard(shard_id, lambda: self.shards[shard_id].insert(key, record))

    def search(self, key: int) -> bytes:
        shard_id = self.router.shard_for(key)
        return self._on_shard(shard_id, lambda: self.shards[shard_id].search(key))

    def get(self, key: int, default: bytes | None = None) -> bytes | None:
        shard_id = self.router.shard_for(key)
        return self._on_shard(
            shard_id, lambda: self.shards[shard_id].get(key, default)
        )

    def __contains__(self, key: int) -> bool:
        shard_id = self.router.shard_for(key)
        return self._on_shard(shard_id, lambda: key in self.shards[shard_id])

    def delete(self, key: int) -> None:
        shard_id = self.router.shard_for(key)
        self._on_shard(shard_id, lambda: self.shards[shard_id].delete(key))

    # -- fanned-out operations -------------------------------------------

    def range_search(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """All ``(key, record)`` pairs with ``lo <= key <= hi``, ascending.

        The router prunes the shard set (a :class:`RangeRouter` touches
        only overlapping sub-ranges); the surviving shards are queried in
        turn and their sorted partial results merged.

        Quarantined shards make the read fail fast with
        :class:`~repro.exceptions.ShardUnavailableError` -- unless the
        cluster was built with ``degraded_reads=True``, in which case
        they are skipped and the merge comes back as a
        :class:`~repro.cluster.health.PartialResult` naming them.
        """
        shard_ids = self.router.shards_for_range(lo, hi)
        serving, skipped = self._serviceable(shard_ids)
        partials = self._fan_out(lambda i: self.shards[i].range_search(lo, hi), serving)
        if len(partials) <= 1:
            merged = partials[0] if partials else []
        else:
            merged = sorted(
                (pair for partial in partials for pair in partial),
                key=lambda pair: pair[0],
            )
        if skipped:
            self.health.record_degraded_read()
            return PartialResult(merged, missing_shards=skipped)
        return merged

    def get_many(
        self, keys: Sequence[int], default: bytes | None = None
    ) -> list[bytes | None]:
        """Batch point lookups, fanned out by shard; aligned with ``keys``.

        Degradation mirrors :meth:`range_search`: quarantined shards
        fail the batch fast unless ``degraded_reads=True``, where their
        keys' positions keep ``default`` and the (still aligned) result
        comes back as a :class:`~repro.cluster.health.PartialResult`.
        """
        by_shard = self.router.partition(
            list(enumerate(keys)), key=lambda pk: pk[1]
        )
        out: list[bytes | None] = [default] * len(keys)
        touched = [i for i, group in enumerate(by_shard) if group]
        serving, skipped = self._serviceable(touched)

        def fetch(shard_id: int) -> list[tuple[int, bytes | None]]:
            shard = self.shards[shard_id]
            return [
                (position, shard.get(key, default))
                for position, key in by_shard[shard_id]
            ]

        for chunk in self._fan_out(fetch, serving):
            for position, record in chunk:
                out[position] = record
        if skipped:
            self.health.record_degraded_read()
            return PartialResult(out, missing_shards=skipped)
        return out

    def bulk_load(self, items: Iterable[tuple[int, bytes]]) -> None:
        """Partition ``(key, record)`` pairs by shard and load each slice.

        Requires an empty cluster; duplicate keys are rejected before any
        shard is touched (each shard's own loader re-validates its
        slice).  A shard-level failure after that point leaves the other
        shards loaded -- cross-shard atomicity is an open item, not a
        promise.
        """
        if len(self):
            raise BTreeError("bulk_load requires an empty cluster")
        pairs = list(items)
        seen = sorted(key for key, _ in pairs)
        for left, right in zip(seen, seen[1:]):
            if left == right:
                raise DuplicateKeyError(right)
        partitions = self.router.partition(pairs, key=lambda kv: kv[0])
        loaded = [i for i, part in enumerate(partitions) if part]
        self._require_available(loaded)
        self._fan_out(lambda i: self.shards[i].bulk_load(partitions[i]), loaded)

    # -- batched mutations ------------------------------------------------

    def put_many(self, items: Iterable[tuple[int, bytes]]) -> int:
        """Insert a batch of ``(key, record)`` pairs, grouped per shard.

        Each shard receives its whole slice under **one** write-lock
        acquisition and one commit (:meth:`EncipheredDatabase.put_many`).

        Atomicity is *per shard*: a failing slice (duplicate key,
        oversized record) rolls its own shard back, while every sibling
        shard's slice still runs and commits -- the same contract as
        :meth:`bulk_load`.  Returns the number of pairs inserted.
        """
        pairs = list(items)
        if not pairs:
            return 0
        partitions = self.router.partition(pairs, key=lambda kv: kv[0])
        touched = [i for i, part in enumerate(partitions) if part]
        self._require_available(touched)
        self._fan_out(lambda i: self.shards[i].put_many(partitions[i]), touched)
        return len(pairs)

    def delete_many(self, keys: Iterable[int]) -> int:
        """Delete a batch of keys, grouped per shard (see :meth:`put_many`).

        A missing key raises :class:`~repro.exceptions.KeyNotFoundError`
        and rolls back that shard's whole slice; sibling shards are
        unaffected.  Returns the number of keys deleted.
        """
        key_list = list(keys)
        if not key_list:
            return 0
        partitions = self.router.partition(key_list, key=lambda k: k)
        touched = [i for i, part in enumerate(partitions) if part]
        self._require_available(touched)
        self._fan_out(lambda i: self.shards[i].delete_many(partitions[i]), touched)
        return len(key_list)

    # -- transactions and durability -------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["ShardedEncipheredDatabase"]:
        """One transaction scope over every shard -- not an atomic commit.

        Shard transactions are entered in shard order (a fixed order, so
        two concurrent cluster transactions cannot deadlock on each
        other's write locks) and unwound in reverse.  An exception in
        the scope rolls every shard back.  A clean exit commits the
        shards one at a time, last shard first: if shard *k*'s commit
        fails, the shards after *k* stay committed, the shards before
        *k* roll back, and shard *k* keeps its writes pending for its
        next commit or close.  Atomic cross-shard commit is ROADMAP
        item 7(b).  Reads inside the scope, fan-outs included, see the
        scope's uncommitted writes.
        """
        with ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard.transaction())
            yield self

    def commit(self) -> None:
        """Make every shard's pending changes durable.

        Quarantined shards are skipped: their device already failed
        permanently, and re-raising that error from every periodic
        commit would stop the healthy shards from ever committing.
        """
        for i, shard in enumerate(self.shards):
            if not self.health.is_quarantined(i):
                shard.commit()

    def clear_caches(self) -> None:
        """Drop every shard's cached plaintext (cold-start support)."""
        for shard in self.shards:
            shard.clear_caches()

    # -- whole-cluster queries -------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def items(self) -> Iterator[tuple[int, bytes]]:
        """Every ``(key, record)`` pair in ascending key order.

        A lazy k-way merge of the shards' sorted iterators; each shard's
        read lock is held while its iterator is live.
        """
        yield from heapq.merge(
            *(shard.items() for shard in self.shards), key=lambda pair: pair[0]
        )

    def stats(self) -> ClusterStats:
        """Aggregated per-shard counter rollups (see :class:`ClusterStats`)."""
        return ClusterStats(
            router=self.router.name,
            per_shard=[shard.stats() for shard in self.shards],
            health=self.health.snapshot(),
        )

    def check_invariants(self) -> None:
        """Verify every shard's B-Tree invariants and router placement."""
        for shard in self.shards:
            with shard.lock.read_locked():  # tree walks must not race writers
                shard.tree.check_invariants()
        self._validate_routing(self.shards, self.router)
