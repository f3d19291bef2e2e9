"""Deterministic, seeded fault injection and retry policy.

This module is the single seam through which every layer of the engine
experiences failure.  A :class:`FaultPlan` describes *what* should go
wrong (transient or permanent I/O errors, latency spikes, torn writes,
crash points) and *when* (at the Nth op, every Nth op, or with a seeded
probability per op); a :class:`FaultInjector` executes one plan against
one device, counting everything it does so tests can assert the injected
schedule exactly.  :class:`RetryPolicy` is the recovery half: capped
exponential backoff with deterministic jitter plus the transient-vs-
permanent classification the devices retry by.

The ``REPRO_FAULTS`` environment variable arms the whole engine: every
:class:`~repro.storage.device.BlockDevice` constructed while it is set
gets its own injector (seeded deterministically from the plan seed and a
global device counter) and a default retry policy, so the entire tier-1
suite can run under background fault injection.

Plan grammar (tokens separated by ``;``, ``,`` or whitespace)::

    seed=42                 # base seed for probability draws + jitter
    attempts=5              # retry policy max attempts (default 4)
    delay=0.001             # retry policy base delay seconds
    read.transient@5        # the 5th read fails once, retryably
    write.torn@12           # the 12th write stores corrupt bytes, then fails
    read.latency*10=0.002   # every 10th read sleeps 2ms
    write.transient%0.01    # each write fails with probability 1%
    sync.permanent@3        # the 3rd sync fails the device for good
    crash:wal:appended@1    # first hit of that platter crash point dies

Triggers: ``@N`` fires once at the Nth op (1-based), ``*N`` fires on
every Nth op, ``%P`` fires per-op with probability ``P``.  An optional
``=SECONDS`` suffix sets the sleep for ``latency`` rules.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from dataclasses import dataclass, field

from .exceptions import (
    PermanentIOError,
    StorageError,
    TransientIOError,
)

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "InjectedCrashError",
    "plan_from_env",
]

#: device operations a rule can target
FAULT_OPS = ("read", "write", "sync")
#: failure kinds a rule can inject
FAULT_KINDS = ("transient", "permanent", "latency", "torn")

_DEFAULT_LATENCY_S = 0.002


class InjectedCrashError(StorageError):
    """An injected crash point fired: the process is pretending to die.

    Deliberately **not** transient -- a crash mid-commit leaves the
    platter torn, and recovery goes through ``abandon()`` + reopen, not
    a retry of the half-done operation.
    """


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule.

    ``op`` is a device operation (``read``/``write``/``sync``) or
    ``"crash"``, in which case ``point`` names the platter crash point
    to fire at.  Exactly one trigger should be set: ``at`` (one-shot at
    the Nth matching op, 1-based), ``every`` (every Nth op), or
    ``probability`` (seeded per-op draw).
    """

    op: str
    kind: str
    at: int | None = None
    every: int | None = None
    probability: float = 0.0
    delay_s: float = _DEFAULT_LATENCY_S
    point: str | None = None

    def __post_init__(self) -> None:
        if self.op == "crash":
            if not self.point:
                raise ValueError("crash rules need a point name")
        elif self.op not in FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r}")
        elif self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at is None and self.every is None and not self.probability:
            raise ValueError("fault rule needs a trigger (@N, *N or %P)")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay_for(attempt)`` grows ``base_delay_s`` by ``multiplier`` per
    attempt, capped at ``max_delay_s``; when given an rng, up to
    ``jitter`` of the delay is shaved off deterministically so a fleet
    of retriers does not stampede in lockstep.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.001
    max_delay_s: float = 0.050
    multiplier: float = 2.0
    jitter: float = 0.5

    @staticmethod
    def is_transient(exc: BaseException) -> bool:
        """Classify an error: retryable (transient) or not (permanent)."""
        if isinstance(exc, PermanentIOError):
            return False
        return isinstance(exc, TransientIOError)

    def delay_for(self, attempt: int, rng: random.Random | None = None) -> float:
        delay = min(
            self.max_delay_s,
            self.base_delay_s * self.multiplier ** max(0, attempt - 1),
        )
        if self.jitter and rng is not None:
            delay *= 1.0 - self.jitter * rng.random()
        return delay

    def call(self, fn, rng: random.Random | None = None, on_retry=None):
        """Run ``fn`` under this policy, sleeping between attempts.

        ``on_retry(attempt, exc)`` is invoked before each sleep so the
        caller can count retries; permanent errors and exhausted budgets
        re-raise the last failure unchanged.
        """
        attempt = 1
        while True:
            try:
                return fn()
            except Exception as exc:
                if not self.is_transient(exc) or attempt >= self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                delay = self.delay_for(attempt, rng)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault schedule plus the retry knobs that ship with it."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        rules: list[FaultRule] = []
        seed = 0
        attempts: int | None = None
        base_delay: float | None = None
        for raw in spec.replace(";", " ").replace(",", " ").split():
            token = raw.strip()
            if not token:
                continue
            if token.startswith("seed="):
                seed = int(token[5:])
            elif token.startswith("attempts="):
                attempts = int(token[9:])
            elif token.startswith("delay="):
                base_delay = float(token[6:])
            else:
                rules.append(_parse_rule(token))
        retry_kwargs = {}
        if attempts is not None:
            retry_kwargs["max_attempts"] = attempts
        if base_delay is not None:
            retry_kwargs["base_delay_s"] = base_delay
        return cls(rules=tuple(rules), seed=seed, retry=RetryPolicy(**retry_kwargs))

    def injector(self, label: str = "") -> "FaultInjector":
        """A fresh injector with a seed derived from the plan seed.

        Each call advances a process-global counter so every device gets
        a distinct but fully deterministic random stream.
        """
        derived = self.seed * 1_000_003 + next(_INJECTOR_SEQ)
        return FaultInjector(self, seed=derived, label=label)


def _parse_rule(token: str) -> FaultRule:
    # split off the trigger from the right: the last @, * or % wins
    cut = max(token.rfind("@"), token.rfind("*"), token.rfind("%"))
    if cut <= 0:
        raise ValueError(f"fault token {token!r} has no trigger (@N, *N or %P)")
    head, trig_char, tail = token[:cut], token[cut], token[cut + 1:]
    delay_s = _DEFAULT_LATENCY_S
    if "=" in tail:
        tail, _, delay_text = tail.partition("=")
        delay_s = float(delay_text)
    at = every = None
    probability = 0.0
    if trig_char == "@":
        at = int(tail)
    elif trig_char == "*":
        every = int(tail)
    else:
        probability = float(tail)
    if head.startswith("crash:"):
        return FaultRule(
            op="crash", kind="crash", point=head[len("crash:"):],
            at=at, every=every, probability=probability,
        )
    op, _, kind = head.partition(".")
    return FaultRule(
        op=op, kind=kind, at=at, every=every,
        probability=probability, delay_s=delay_s,
    )


@dataclass(frozen=True)
class FaultAction:
    """What the injector decided for one op: a kind plus its latency."""

    kind: str
    delay_s: float = 0.0

    def stall(self) -> bool:
        """Sleep out an injected delay; ``True`` if that is the whole action."""
        if self.kind != "latency":
            return False
        time.sleep(self.delay_s)
        return True


#: fixed counter shape every injector/device snapshot shares, so the
#: cluster's leaf-wise merge/subtract always sees the same keys
FAULT_COUNTER_FIELDS = (
    "injected_transient",
    "injected_permanent",
    "injected_latency",
    "injected_torn",
    "injected_crashes",
)


def zero_fault_counters() -> dict[str, int]:
    return {name: 0 for name in FAULT_COUNTER_FIELDS}


class FaultInjector:
    """Executes one :class:`FaultPlan` against one device, deterministically.

    Thread-safe: the op counters and the probability rng sit behind a
    lock because devices fan writes out across threads.  A permanent
    fault is sticky -- once fired, every subsequent op on this injector
    fails permanently, which is what models a dead spindle.
    """

    def __init__(self, plan: FaultPlan, seed: int | None = None,
                 label: str = "") -> None:
        self.plan = plan
        self.label = label
        self.seed = plan.seed if seed is None else seed
        self._lock = threading.Lock()
        self._rng = random.Random(self.seed)
        self._op_counts = {op: 0 for op in FAULT_OPS}
        self._fired_once: set[int] = set()  # indexes of spent @N rules
        self._crash_counts: dict[tuple[str, int], int] = {}
        self.failed = False
        self.counters = zero_fault_counters()

    # -- decision ----------------------------------------------------

    def fire(self, op: str) -> FaultAction | None:
        """Advance the ``op`` counter and return the action to take, if any."""
        with self._lock:
            if self.failed:
                self.counters["injected_permanent"] += 1
                return FaultAction("permanent")
            self._op_counts[op] += 1
            count = self._op_counts[op]
            for index, rule in enumerate(self.plan.rules):
                if rule.op != op:
                    continue
                if not self._triggered(index, rule, count):
                    continue
                if rule.kind == "permanent":
                    self.failed = True
                self.counters[f"injected_{rule.kind}"] += 1
                delay = rule.delay_s if rule.kind == "latency" else 0.0
                return FaultAction(rule.kind, delay)
        return None

    def crash_point(self, point: str) -> None:
        """Raise :class:`InjectedCrashError` if a crash rule matches ``point``."""
        with self._lock:
            for index, rule in enumerate(self.plan.rules):
                if rule.op != "crash" or rule.point != point:
                    continue
                # crash points count their own hits, keyed per rule
                key = ("crash", index)
                count = self._crash_counts.setdefault(key, 0) + 1
                self._crash_counts[key] = count
                if self._triggered(index, rule, count):
                    self.counters["injected_crashes"] += 1
                    raise InjectedCrashError(
                        f"injected crash at {point!r}"
                        + (f" on {self.label}" if self.label else "")
                    )

    def _triggered(self, index: int, rule: FaultRule, count: int) -> bool:
        if rule.at is not None:
            if count == rule.at and index not in self._fired_once:
                self._fired_once.add(index)
                return True
            return False
        if rule.every is not None:
            return count % rule.every == 0
        return self._rng.random() < rule.probability

    # -- payload corruption ------------------------------------------

    def tear(self, payload: bytes) -> bytes:
        """A deterministically corrupted variant of ``payload``.

        The first half survives, the tail is zeroed and one surviving
        byte is flipped -- the classic torn-write shape: same length,
        wrong contents.
        """
        if not payload:
            return payload
        keep = len(payload) // 2
        torn = bytearray(payload[:keep]) + bytearray(len(payload) - keep)
        torn[0] ^= 0xFF
        return bytes(torn)

    # -- reporting ---------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counters)

    def op_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._op_counts)


_INJECTOR_SEQ = itertools.count()

_ENV_CACHE: tuple[str | None, FaultPlan | None] = (None, None)


def plan_from_env() -> FaultPlan | None:
    """The plan armed by ``REPRO_FAULTS``, or ``None`` when unset/empty.

    Parsed once per distinct spec string; every device constructed while
    the variable is set derives its own injector from this plan.
    """
    global _ENV_CACHE
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    cached_spec, cached_plan = _ENV_CACHE
    if spec != cached_spec:
        cached_plan = FaultPlan.parse(spec)
        _ENV_CACHE = (spec, cached_plan)
    return cached_plan
