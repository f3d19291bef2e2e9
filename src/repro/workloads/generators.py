"""Deterministic synthetic workloads.

Key populations, record payloads and query mixes, all driven by seeded
``random.Random`` instances so that every experiment is reproducible
bit-for-bit across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.exceptions import ReproError

_DISTRIBUTIONS = ("uniform", "sequential", "clustered")


def sample_keys(
    universe: range,
    count: int,
    distribution: str = "uniform",
    seed: int = 0,
    rng: random.Random | None = None,
) -> list[int]:
    """Draw ``count`` distinct keys from ``universe``.

    * ``uniform`` -- a uniform random sample (paper's generic workload);
    * ``sequential`` -- the lowest ``count`` keys, in order (bulk load);
    * ``clustered`` -- a few dense runs separated by gaps, modelling
      attribute domains with hot ranges.

    Every generator here draws from one source: the caller's ``rng`` if
    given, else a fresh ``random.Random(seed)`` -- so a caller can either
    share one stream across generators or rely on the seeded defaults
    (bit-for-bit reproducible either way).
    """
    if distribution not in _DISTRIBUTIONS:
        raise ReproError(f"unknown distribution {distribution!r}")
    if count > len(universe):
        raise ReproError(
            f"cannot draw {count} distinct keys from a universe of {len(universe)}"
        )
    rng = random.Random(seed) if rng is None else rng
    if distribution == "sequential":
        return list(universe[:count])
    if distribution == "uniform":
        return rng.sample(list(universe), count)
    # clustered: runs of consecutive keys starting at random anchors
    keys: set[int] = set()
    run_length = max(4, count // 16)
    while len(keys) < count:
        anchor = rng.randrange(universe.start, universe.stop)
        for offset in range(run_length):
            candidate = anchor + offset
            if candidate < universe.stop:
                keys.add(candidate)
            if len(keys) == count:
                break
    return sorted(keys)


def payloads_for(
    keys: list[int],
    size: int = 64,
    seed: int = 1,
    rng: random.Random | None = None,
) -> dict[int, bytes]:
    """A deterministic payload per key (printable prefix + random tail)."""
    rng = random.Random(seed) if rng is None else rng
    out = {}
    for key in keys:
        prefix = f"record:{key}:".encode()
        tail = bytes(rng.randrange(256) for _ in range(max(0, size - len(prefix))))
        out[key] = (prefix + tail)[:size]
    return out


def point_queries(
    keys: list[int],
    count: int,
    hit_rate: float = 1.0,
    seed: int = 2,
    rng: random.Random | None = None,
) -> list[int]:
    """A stream of point lookups; misses are drawn adjacent to real keys."""
    if not 0.0 <= hit_rate <= 1.0:
        raise ReproError(f"hit rate {hit_rate} outside [0, 1]")
    rng = random.Random(seed) if rng is None else rng
    queries = []
    key_set = set(keys)
    for _ in range(count):
        if rng.random() < hit_rate:
            queries.append(rng.choice(keys))
        else:
            base = rng.choice(keys)
            probe = base + 1
            while probe in key_set:
                probe += 1
            queries.append(probe)
    return queries


def range_queries(
    universe: range,
    count: int,
    selectivity: float,
    seed: int = 3,
    rng: random.Random | None = None,
) -> list[tuple[int, int]]:
    """Ranges covering ``selectivity`` of the universe each."""
    if not 0.0 < selectivity <= 1.0:
        raise ReproError(f"selectivity {selectivity} outside (0, 1]")
    rng = random.Random(seed) if rng is None else rng
    span = max(1, int(len(universe) * selectivity))
    out = []
    for _ in range(count):
        lo = rng.randrange(universe.start, max(universe.start + 1, universe.stop - span))
        out.append((lo, lo + span - 1))
    return out


def mixed_operations(
    universe: range,
    initial_keys: list[int],
    count: int,
    read_fraction: float,
    seed: int = 4,
    range_span: int = 32,
    payload_size: int = 48,
    rng: random.Random | None = None,
) -> list[tuple]:
    """A deterministic interleaved stream of reads and writes.

    Models a mixed read/write workload: each step is a range read with
    probability
    ``read_fraction``, otherwise a write (alternating inserts of absent
    keys and deletes of present ones, so the population stays near its
    initial size).  The generator simulates the key population as it
    goes, so every emitted operation is valid when replayed in order
    against a store seeded with ``initial_keys``:

    * ``("range", lo, hi)`` -- a range query;
    * ``("put", key, payload)`` -- insert of a currently-absent key;
    * ``("delete", key)`` -- delete of a currently-present key.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ReproError(f"read fraction {read_fraction} outside [0, 1]")
    rng = random.Random(seed) if rng is None else rng
    present = sorted(initial_keys)
    absent = sorted(set(universe) - set(initial_keys))
    ops: list[tuple] = []
    insert_next = True
    for _ in range(count):
        if rng.random() < read_fraction or (not absent and not present):
            lo = rng.randrange(universe.start, max(universe.start + 1, universe.stop - range_span))
            ops.append(("range", lo, lo + range_span - 1))
            continue
        if (insert_next and absent) or not present:
            key = absent.pop(rng.randrange(len(absent)))
            payload = payloads_for([key], payload_size, seed=key)[key]
            ops.append(("put", key, payload))
            present.append(key)
        else:
            key = present.pop(rng.randrange(len(present)))
            ops.append(("delete", key))
            absent.append(key)
        insert_next = not insert_next
    return ops


@dataclass
class KeyWorkload:
    """A bundled workload: keys, payloads and query streams."""

    universe: range
    count: int
    distribution: str = "uniform"
    payload_size: int = 64
    seed: int = 0
    keys: list[int] = field(init=False)
    payloads: dict[int, bytes] = field(init=False)

    def __post_init__(self) -> None:
        self.keys = sample_keys(self.universe, self.count, self.distribution, self.seed)
        self.payloads = payloads_for(self.keys, self.payload_size, self.seed + 1)

    def lookups(self, count: int, hit_rate: float = 1.0) -> list[int]:
        return point_queries(self.keys, count, hit_rate, self.seed + 2)

    def ranges(self, count: int, selectivity: float) -> list[tuple[int, int]]:
        return range_queries(self.universe, count, selectivity, self.seed + 3)
