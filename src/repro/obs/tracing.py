"""Near-zero-overhead span tracing for the engine's hot paths.

Every instrumented operation is wrapped in ``with tracer.trace("name"):``.
The design goal is asymmetric cost:

* **disabled** (the default, and the paper-faithful cost model): the
  call returns a single shared no-op context manager -- one attribute
  check, no allocation, no timestamps.  Benchmark C13 measures this path
  at nanoseconds per call, which is why the instrumentation can stay in
  the code permanently instead of living behind ``#ifdef``-style forks.
* **enabled**: the span reads ``perf_counter_ns`` twice and feeds the
  duration into the instrument's :class:`~repro.obs.metrics.Histogram`
  (per-thread bucket, lock-free).

The tracer deliberately has no notion of span *hierarchy*: the engine's
layers already encode containment (a ``db.range_search`` span brackets
its ``pager.read`` spans in time), and flat spans keep the enabled path
cheap enough for per-block instrumentation.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["NULL_TRACER", "Span", "Tracer"]


class _NoopSpan:
    """The shared disabled-path context manager: does nothing, allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


class Span:
    """One timed region; created only when the tracer is enabled."""

    __slots__ = ("_hist", "_start_ns")

    def __init__(self, hist: Histogram) -> None:
        self._hist = hist
        self._start_ns = 0

    def __enter__(self) -> "Span":
        self._start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._hist.observe_ns(perf_counter_ns() - self._start_ns)
        return False


class Tracer:
    """Span factory feeding one registry's histograms.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` durations are recorded into (one
        histogram per span name).  ``None`` is allowed only for a
        permanently disabled tracer (see :data:`NULL_TRACER`).
    enabled:
        When false, :meth:`trace` short-circuits to the shared no-op
        span.  Mutable at runtime -- flipping it on mid-flight simply
        starts recording.
    """

    def __init__(self, registry: MetricsRegistry | None, enabled: bool = False) -> None:
        self.registry = registry
        self.enabled = enabled

    def trace(self, name: str):
        """A context manager timing the ``name`` instrument.

        The disabled path returns a module-shared no-op singleton -- the
        only cost is this attribute check.  Enabled, a name the registry
        does not hold raises :class:`KeyError` here, before the body runs.
        """
        if not self.enabled:
            return _NOOP
        return Span(self.registry.histogram(name))


#: The permanently disabled tracer handed to components constructed
#: outside a database (a bare Pager or device in a unit test).  Its
#: ``trace`` never touches the (absent) registry.
NULL_TRACER = Tracer(registry=None, enabled=False)
