"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch a single base class.  Sub-hierarchies mirror the package
layout: design construction, cryptography, storage, B-Tree and substitution
errors each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class DesignError(ReproError):
    """A combinatorial design could not be constructed or verified."""


class NotADifferenceSetError(DesignError):
    """The supplied residue set is not a (v, k, lambda) difference set."""


class NotADesignError(DesignError):
    """The supplied block collection violates a BIBD axiom."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyError_(CryptoError):
    """An encryption key is malformed (size, parity, range)."""


class MessageRangeError(CryptoError):
    """A plaintext/ciphertext value is out of range for the cipher."""


class IntegrityError(CryptoError):
    """A cryptographic checksum did not verify."""


class ClearanceError(CryptoError):
    """A user's clearance is insufficient for the requested security level."""

    def __init__(self, clearance: int, level: int) -> None:
        super().__init__(
            f"clearance {clearance} cannot read level {level} data"
        )
        self.clearance = clearance
        self.level = level


class StorageError(ReproError):
    """Base class for simulated-disk failures."""


class BlockBoundsError(StorageError):
    """A block id is outside the device, or a payload overflows a block."""

    def __init__(self, message: str, block_id: int | None = None) -> None:
        super().__init__(message)
        self.block_id = block_id


class CodecError(StorageError):
    """A node block could not be encoded into / decoded from bytes."""


class PlatterFormatError(StorageError):
    """A file platter's header, WAL or manifest is not what it claims.

    Raised when a durable artefact fails its self-description: bad
    magic, unsupported format version, a checksum mismatch that no
    write-ahead-log entry can repair, or a torn structure that recovery
    cannot interpret.
    """


class TransientIOError(StorageError):
    """A device operation failed in a way that a retry may fix.

    Raised by the fault-injection seam (and reserved for real backends
    whose errors are known to be retryable).  :class:`repro.faults.RetryPolicy`
    classifies these as retryable; everything else is treated as
    permanent and surfaces immediately.
    """


class PermanentIOError(StorageError):
    """A device has failed for good; retrying cannot help.

    Once a device raises this it stays failed (the injector is sticky),
    which is what lets the cluster's health plane quarantine the shard
    instead of retrying forever.
    """


class ShardUnavailableError(StorageError):
    """A cluster operation touched a shard that is out of service.

    Raised when a shard is quarantined (a permanent device failure, a
    run of transient ones, or an operator's quarantine) and the caller
    did not opt into degraded reads.  Carries the shard id so routers and retry layers
    can act on it.
    """

    def __init__(self, shard_id: int, reason: str = "") -> None:
        detail = f": {reason}" if reason else ""
        super().__init__(f"shard {shard_id} unavailable{detail}")
        self.shard_id = shard_id
        self.reason = reason


class BTreeError(ReproError):
    """Base class for B-Tree failures."""


class DuplicateKeyError(BTreeError):
    """An insert presented a key that is already in the tree."""

    def __init__(self, key: int) -> None:
        super().__init__(f"duplicate key: {key}")
        self.key = key


class KeyNotFoundError(BTreeError):
    """A delete or lookup named a key that is not in the tree."""

    def __init__(self, key: int) -> None:
        super().__init__(f"key not found: {key}")
        self.key = key


class SubstitutionError(ReproError):
    """A key-disguise scheme could not substitute or invert a key."""


class KeyUniverseError(SubstitutionError):
    """A search key is outside the universe covered by the block design."""

    def __init__(self, key: int, universe: str) -> None:
        super().__init__(f"search key {key} outside universe {universe}")
        self.key = key
        self.universe = universe
