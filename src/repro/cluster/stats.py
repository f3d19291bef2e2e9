"""Aggregated statistics over every shard of a cluster.

Each shard's :meth:`~repro.core.database.EncipheredDatabase.stats` dict
nests one level per subsystem with numeric leaves; :class:`ClusterStats`
keeps the per-shard dicts verbatim (benchmark C8 reports per-shard write
amplification from them) and sums them leaf-wise into a cluster-level
rollup.  Balance metrics summarise how evenly the router spread the
keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def merge_counter_dicts(dicts: list[dict[str, object]]) -> dict[str, object]:
    """Leaf-wise sum of same-shaped nested dicts of numbers."""
    if not dicts:
        return {}
    merged: dict[str, object] = {}
    for key, value in dicts[0].items():
        if isinstance(value, dict):
            merged[key] = merge_counter_dicts([d[key] for d in dicts])
        else:
            merged[key] = sum(d[key] for d in dicts)
    return merged


@dataclass
class ClusterStats:
    """Point-in-time statistics for a sharded database.

    ``per_shard[i]`` is shard ``i``'s full counter rollup;
    ``aggregate`` is their leaf-wise sum.  ``health`` is the
    fault-tolerance rollup from :class:`~repro.cluster.health.
    ClusterHealth` -- per-shard state machines and lifetime fault
    counters; it carries cluster-level state, not a per-shard counter,
    so it stays outside the leaf-wise merge.
    """

    router: str
    per_shard: list[dict[str, object]]
    health: dict[str, object] | None = None

    @property
    def num_shards(self) -> int:
        return len(self.per_shard)

    @cached_property
    def aggregate(self) -> dict[str, object]:
        # cached: a ClusterStats is a point-in-time snapshot, and several
        # properties (cache rollups, hit rates) derive from one merge
        return merge_counter_dicts(self.per_shard)

    @property
    def shard_sizes(self) -> list[int]:
        return [s["size"] for s in self.per_shard]

    @property
    def total_size(self) -> int:
        return sum(self.shard_sizes)

    @property
    def imbalance(self) -> float:
        """Largest shard over the mean shard size (1.0 = perfectly even)."""
        sizes = self.shard_sizes
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean else 0.0

    # -- read-path cache rollups -----------------------------------------

    @staticmethod
    def _hit_rate(counters: dict[str, object]) -> float:
        accesses = counters["hits"] + counters["misses"]
        return counters["hits"] / accesses if accesses else 0.0

    @property
    def record_cache(self) -> dict[str, object]:
        """Cluster-wide plaintext record-block cache counters."""
        return self.aggregate["record_cache"]

    @property
    def record_cache_hit_rate(self) -> float:
        return self._hit_rate(self.record_cache)

    # -- observability rollups -------------------------------------------

    @property
    def observability(self) -> dict[str, object]:
        """Cluster-wide merged observability snapshot (``{"latency": ...}``)."""
        return self.aggregate["observability"]

    @property
    def latency(self) -> dict[str, object]:
        """Merged per-instrument latency histogram snapshots."""
        return self.observability["latency"]

    def summary(self) -> str:
        """One human-readable line per shard plus the rollup."""
        lines = []
        for i, s in enumerate(self.per_shard):
            node, cipher = s["node_disk"], s["pointer_cipher"]
            rcache = s["record_cache"]
            lines.append(
                f"shard {i}: {s['size']} keys, "
                f"{node['writes']} node writes, "
                f"{cipher['encryptions']}E/{cipher['decryptions']}D pointer ops, "
                f"record cache {self._hit_rate(rcache):.0%} "
                f"({rcache['hits']}/{rcache['hits'] + rcache['misses']})"
            )
        agg = self.aggregate  # one leaf-wise merge serves every line below
        lines.append(
            f"cluster ({self.router}, {self.num_shards} shards): "
            f"{self.total_size} keys, "
            f"{agg['node_disk']['writes']} node writes, "
            f"imbalance {self.imbalance:.2f}, "
            f"record cache {self._hit_rate(agg['record_cache']):.0%}"
        )
        if self.health is not None:
            states = self.health["states"]
            lines.append(
                f"health: {states['healthy']} healthy / "
                f"{states['degraded']} degraded / "
                f"{states['quarantined']} quarantined; "
                f"{self.health['degraded_reads_served']} degraded reads"
            )
        return "\n".join(lines)
