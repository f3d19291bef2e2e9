"""The engine-wide observability plane: mergeable latency histograms.

One :class:`Observability` object per :class:`~repro.core.database.
EncipheredDatabase` bundles the package's one instrument:

* a :class:`~repro.obs.metrics.MetricsRegistry` of latency histograms,
  fixed at construction to the :data:`INSTRUMENTS` names, so every
  shard's snapshot has the same shape;
* a :class:`~repro.obs.tracing.Tracer` whose spans feed them.

The plane is governed by one switch.  Disabled (the default, and the
paper-faithful cost model) ``trace()`` is a no-op fast path; enabled,
every span records.  The switch comes from an explicit
:class:`ObsConfig` or -- so CI can run the entire tier-1 suite with
tracing live -- from the ``REPRO_OBS_TRACE`` environment variable.

Nothing here is keyed by plaintext search keys, and nothing is
persisted: observability never changes what is at rest.

Because :meth:`Observability.snapshot` contains only additive numeric
leaves in a fixed shape, it rides inside ``stats()["observability"]``
through the cluster's aggregation path:
:class:`~repro.cluster.stats.ClusterStats` merges the shards' snapshots
leaf-wise, like every other counter (asserted by benchmark C13 and the
cluster observability tests).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.obs.metrics import Histogram, MetricsRegistry, percentile, summarize
from repro.obs.tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "Histogram",
    "INSTRUMENTS",
    "MetricsRegistry",
    "NULL_TRACER",
    "ObsConfig",
    "Observability",
    "Span",
    "Tracer",
    "percentile",
    "summarize",
]

#: Every instrument the engine records, and the only names a database's
#: registry holds, so all observability snapshots share one shape (the
#: cluster merge requires it).
INSTRUMENTS = (
    "db.get",
    "db.put",
    "db.delete",
    "db.put_many",
    "db.delete_many",
    "db.range_search",
    "db.bulk_load",
    "db.commit",
    "pager.read",
    "pager.write",
    "pager.flush",
    "cipher.record_encrypt",
    "cipher.record_decrypt",
    "platter.wal_append",
    "platter.fsync",
    "platter.header_flip",
    "device.fault_retry",
)

#: Accepted ``REPRO_OBS_TRACE`` values and the switch each one sets.
_ENV_FLAGS = {"": False, "0": False, "1": True}


@dataclass(frozen=True)
class ObsConfig:
    """Observability configuration: one switch, shared by every shard."""

    enabled: bool = False

    @classmethod
    def from_env(cls) -> "ObsConfig":
        """Default config, honouring ``REPRO_OBS_TRACE`` (``""``, ``"0"`` or ``"1"``)."""
        flag = os.environ.get("REPRO_OBS_TRACE", "")
        if flag not in _ENV_FLAGS:  # "false" must not silently mean "on"
            raise ValueError(
                f"REPRO_OBS_TRACE must be one of {sorted(_ENV_FLAGS)}, got {flag!r}"
            )
        return cls(enabled=_ENV_FLAGS[flag])


class Observability:
    """One database's histogram registry and tracer behind one switch."""

    def __init__(self, config: ObsConfig | None = None) -> None:
        if config is None:
            config = ObsConfig.from_env()
        elif not isinstance(config, ObsConfig):
            raise TypeError(f"observability must be an ObsConfig, got {type(config).__name__}")
        self.config = config
        self.registry = MetricsRegistry(INSTRUMENTS)
        self.tracer = Tracer(self.registry, enabled=self.config.enabled)
        #: Bound-method shortcut: ``with obs.trace("db.get"): ...``
        self.trace = self.tracer.trace

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    # -- exporters --------------------------------------------------------

    def snapshot(self) -> dict:
        """The mergeable export: fixed shape, every leaf an additive number.

        This is what ``EncipheredDatabase.stats()["observability"]``
        returns; it flows through ``merge_counter_dicts`` unchanged.
        """
        return {"latency": self.registry.snapshot()}

    def dump(self) -> str:
        """A human-readable table of the current readings."""
        lines = [
            f"observability ({'enabled' if self.enabled else 'disabled'})",
            f"{'instrument':<24}{'count':>8}{'mean':>10}{'p50':>10}"
            f"{'p95':>10}{'p99':>10}{'total':>10}",
        ]
        for name, snap in sorted(self.registry.snapshot().items()):
            summary = summarize(snap)
            if not summary["count"]:
                continue
            lines.append(
                f"{name:<24}{summary['count']:>8}"
                f"{_fmt_s(summary['mean_s']):>10}{_fmt_s(summary['p50_s']):>10}"
                f"{_fmt_s(summary['p95_s']):>10}{_fmt_s(summary['p99_s']):>10}"
                f"{_fmt_s(summary['total_s']):>10}"
            )
        return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    """Render seconds at a readable scale (us/ms/s)."""
    if seconds == 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"
