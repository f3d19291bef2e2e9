"""Per-shard health tracking: healthy -> degraded -> quarantined.

The cluster's graceful-degradation plane.  Every shard gets a tiny
state machine fed by the outcomes of the operations that touch it:

* ``healthy`` -- the steady state.  A few *consecutive* transient
  failures (I/O errors that outlived the device retries) push the
  shard to ``degraded``.
* ``degraded`` -- still serving, but on notice.  A streak of successes
  recovers it to ``healthy``; continued failures or a permanent device
  error push it to ``quarantined``.
* ``quarantined`` -- out of service.  Cluster operations that need the
  shard fail fast with :class:`~repro.exceptions.ShardUnavailableError`;
  read fan-outs opted into ``degraded_reads=True`` skip it and return a
  :class:`PartialResult` naming exactly which shards are missing.
  Quarantine is sticky until an operator calls :meth:`ClusterHealth.
  revive` -- automatic unquarantine would turn a dying device into a
  flapping one.

All transitions and counters are rolled up by :meth:`ClusterHealth.
snapshot` into the ``health`` field of :class:`~repro.cluster.stats.
ClusterStats`, so a chaos test can assert the observed schedule
exactly.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"


class PartialResult(list):
    """A list of results that may be missing quarantined shards' share.

    Behaves exactly like the list it subclasses (callers that never opt
    into degraded reads keep seeing plain, complete lists), plus an
    explicit completeness marker: ``complete`` is False when at least
    one shard's contribution is absent, and ``missing_shards`` names
    which.
    """

    __slots__ = ("complete", "missing_shards")

    def __init__(self, items=(), complete: bool = True,
                 missing_shards: Iterable[int] = ()) -> None:
        super().__init__(items)
        self.missing_shards = tuple(missing_shards)
        self.complete = complete and not self.missing_shards


class _ShardHealth:
    """One shard's state machine and lifetime counters."""

    __slots__ = (
        "state", "reason", "consec_failures", "consec_successes",
        "transient_failures", "permanent_failures",
        "times_degraded", "times_quarantined",
    )

    def __init__(self) -> None:
        self.state = HEALTHY
        self.reason = ""
        self.consec_failures = 0
        self.consec_successes = 0
        self.transient_failures = 0
        self.permanent_failures = 0
        self.times_degraded = 0
        self.times_quarantined = 0

    def snapshot(self) -> dict[str, object]:
        return {
            "state": self.state,
            "reason": self.reason,
            "transient_failures": self.transient_failures,
            "permanent_failures": self.permanent_failures,
            "times_degraded": self.times_degraded,
            "times_quarantined": self.times_quarantined,
        }


class ClusterHealth:
    """Thread-safe rollup of every shard's health state machine.

    ``degrade_after`` consecutive failures mark a shard degraded;
    ``quarantine_after`` consecutive failures (or any permanent error)
    quarantine it; ``recover_after`` consecutive successes bring a
    degraded shard back.  Client threads record outcomes concurrently,
    so every transition happens under one lock -- with a lock-free fast
    path for the overwhelmingly common case of a success
    on a shard with a clean slate.
    """

    def __init__(
        self,
        num_shards: int,
        degrade_after: int = 3,
        recover_after: int = 2,
        quarantine_after: int = 6,
    ) -> None:
        if num_shards < 1:
            raise ValueError("a cluster has at least one shard")
        self.degrade_after = degrade_after
        self.recover_after = recover_after
        self.quarantine_after = quarantine_after
        self._lock = threading.Lock()
        self._shards = [_ShardHealth() for _ in range(num_shards)]
        # plain-bool fast path: False means "healthy with no streak to
        # update", so record_success can return without the lock
        self._dirty = [False] * num_shards
        self.degraded_reads_served = 0

    # -- event intake ----------------------------------------------------

    def record_success(self, index: int) -> None:
        if not self._dirty[index]:
            return
        with self._lock:
            shard = self._shards[index]
            shard.consec_failures = 0
            if shard.state == QUARANTINED:
                return  # only revive() exits quarantine
            shard.consec_successes += 1
            if shard.state == DEGRADED and (
                shard.consec_successes >= self.recover_after
            ):
                shard.state = HEALTHY
                shard.reason = ""
            if shard.state == HEALTHY:
                self._dirty[index] = False

    def record_failure(self, index: int, reason: str = "") -> None:
        """A transient failure (injected I/O error, flaky op) on the shard."""
        with self._lock:
            shard = self._shards[index]
            shard.transient_failures += 1
            self._dirty[index] = True
            shard.consec_successes = 0
            shard.consec_failures += 1
            if shard.state == QUARANTINED:
                return
            if shard.consec_failures >= self.quarantine_after:
                shard.state = QUARANTINED
                shard.reason = reason or (
                    f"{shard.consec_failures} consecutive failures"
                )
                shard.times_quarantined += 1
            elif shard.state == HEALTHY and (
                shard.consec_failures >= self.degrade_after
            ):
                shard.state = DEGRADED
                shard.reason = reason or (
                    f"{shard.consec_failures} consecutive failures"
                )
                shard.times_degraded += 1

    def record_permanent(self, index: int, reason: str = "") -> None:
        """A permanent device failure: straight to quarantine."""
        with self._lock:
            shard = self._shards[index]
            shard.permanent_failures += 1
            self._dirty[index] = True
            shard.consec_successes = 0
            shard.consec_failures += 1
            if shard.state != QUARANTINED:
                shard.state = QUARANTINED
                shard.reason = reason or "permanent device failure"
                shard.times_quarantined += 1

    def quarantine(self, index: int, reason: str = "") -> None:
        """Administratively take a shard out of service."""
        with self._lock:
            shard = self._shards[index]
            self._dirty[index] = True
            if shard.state != QUARANTINED:
                shard.state = QUARANTINED
                shard.reason = reason or "quarantined by operator"
                shard.times_quarantined += 1

    def revive(self, index: int) -> None:
        """Operator override: return a shard to service with a clean slate."""
        with self._lock:
            shard = self._shards[index]
            shard.state = HEALTHY
            shard.reason = ""
            shard.consec_failures = 0
            shard.consec_successes = 0
            self._dirty[index] = False

    def record_degraded_read(self) -> None:
        with self._lock:
            self.degraded_reads_served += 1

    # -- queries ---------------------------------------------------------

    def state(self, index: int) -> str:
        with self._lock:
            return self._shards[index].state

    def reason(self, index: int) -> str:
        with self._lock:
            return self._shards[index].reason

    def is_quarantined(self, index: int) -> bool:
        if not self._dirty[index]:
            return False
        with self._lock:
            return self._shards[index].state == QUARANTINED

    def partition(self, shard_ids: Sequence[int]) -> tuple[list[int], list[int]]:
        """Split ids into (serviceable, quarantined), preserving order."""
        available: list[int] = []
        quarantined: list[int] = []
        for index in shard_ids:
            (quarantined if self.is_quarantined(index) else available).append(index)
        return available, quarantined

    def snapshot(self) -> dict[str, object]:
        """The mergeless rollup surfaced as ``ClusterStats.health``."""
        with self._lock:
            per_shard = [shard.snapshot() for shard in self._shards]
            served = self.degraded_reads_served
        states = {HEALTHY: 0, DEGRADED: 0, QUARANTINED: 0}
        for entry in per_shard:
            states[entry["state"]] += 1
        return {
            "states": states,
            "per_shard": per_shard,
            "degraded_reads_served": served,
        }
