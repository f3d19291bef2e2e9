"""The enciphered cluster manifest: a cluster that describes itself.

A cluster reopen that trusted the caller to supply the shard count,
the router kind and boundaries, and the shards *in the right order*
would silently mis-route on a mis-remembered configuration (the
placement validator catches it, but only because it re-walks the
data).  The manifest makes the cluster self-describing: one small
enciphered blob,
stored by the backend beside the platters, recording

* the format version and shard count,
* the router kind and (for a range router) its boundaries,
* the per-shard key-derivation labels (so the reopen re-derives each
  shard's superblock/data keys from the base secrets exactly as the
  create did),
* each shard's backend scope name, in shard order.

Like every other at-rest artefact, the manifest is enciphered -- under
a key derived from the cluster's base superblock secret with its own
label, so an opponent holding the files learns the shard *count* at
most from directory structure, not the routing boundaries (which are
plaintext key values!) nor the derivation labels.  The layout follows
the ubik ``.DB0`` idiom the platter header uses: magic, version,
tagged length-prefixed values, trailing CRC-32.  The magic
authenticates the key (wrong secret -> garbage magic -> clean error)
and the CRC catches torn or tampered bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.cluster.router import HashRouter, RangeRouter, ShardRouter
from repro.crypto.des import DES
from repro.crypto.modes import CBCCipher
from repro.exceptions import CryptoError, PlatterFormatError, StorageError

__all__ = ["ClusterManifest", "MANIFEST_MAGIC", "MANIFEST_VERSION"]

MANIFEST_MAGIC = b"HSMF1990"
MANIFEST_VERSION = 1

#: Key-derivation label for the manifest cipher itself (the per-shard
#: labels it *records* are data; this one is fixed by the format).
_MANIFEST_LABEL = b"MNFS"

# value tags (u8); multi-valued tags repeat, order significant
_TAG_NUM_SHARDS = 1
_TAG_ROUTER_KIND = 2
_TAG_BOUNDARY = 3
# tags 4 and 5 (block and record size) stay unused: older manifests carry them
_TAG_SUPER_LABEL = 6
_TAG_DATA_LABEL = 7
_TAG_SHARD_SCOPE = 8

_ENTRY = struct.Struct("<BI")


def _manifest_cipher(super_key: bytes) -> CBCCipher:
    """DES-CBC under ``DES(super_key)(label || 0)`` -- the same
    derivation shape as the per-shard keys, with the manifest's own
    label, so no shard key ever doubles as the manifest key."""
    key = DES(super_key).encrypt_block(_MANIFEST_LABEL + (0).to_bytes(4, "big"))
    iv = DES(key).encrypt_block(b"MANIFEST")
    return CBCCipher(DES(key), iv)


@dataclass
class ClusterManifest:
    """Everything a manifest-driven reopen needs beyond the secrets."""

    num_shards: int
    router_kind: str
    shard_scopes: list[str]
    router_boundaries: list[int] = field(default_factory=list)
    super_label: bytes = b"SUPR"
    data_label: bytes = b"DATA"
    format_version: int = MANIFEST_VERSION

    # -- router ----------------------------------------------------------

    @classmethod
    def describe_router(cls, router: ShardRouter) -> tuple[str, list[int]]:
        """The (kind, boundaries) pair that reconstructs ``router``."""
        if isinstance(router, RangeRouter):
            return "range", list(router.boundaries)
        if isinstance(router, HashRouter):
            return "hash", []
        raise StorageError(
            f"router {type(router).__name__} cannot be recorded in a manifest"
        )

    def build_router(self) -> ShardRouter:
        """Reconstruct the recorded router, bit-for-bit."""
        if self.router_kind == "hash":
            return HashRouter(self.num_shards)
        if self.router_kind == "range":
            router = RangeRouter(self.router_boundaries)
            if router.num_shards != self.num_shards:
                raise PlatterFormatError(
                    f"manifest records {self.num_shards} shards but "
                    f"{len(self.router_boundaries)} range boundaries "
                    f"(a range router over N shards has N-1)"
                )
            return router
        raise PlatterFormatError(
            f"manifest records unknown router kind {self.router_kind!r}"
        )

    # -- plain serialisation ---------------------------------------------

    def to_bytes(self) -> bytes:
        """Magic + version + tagged length-prefixed values + CRC-32."""
        entries: list[tuple[int, bytes]] = [
            (_TAG_NUM_SHARDS, struct.pack("<I", self.num_shards)),
            (_TAG_ROUTER_KIND, self.router_kind.encode("utf-8")),
            (_TAG_SUPER_LABEL, self.super_label),
            (_TAG_DATA_LABEL, self.data_label),
        ]
        entries.extend(
            (_TAG_BOUNDARY, struct.pack("<q", b)) for b in self.router_boundaries
        )
        entries.extend(
            (_TAG_SHARD_SCOPE, scope.encode("utf-8")) for scope in self.shard_scopes
        )
        parts = [MANIFEST_MAGIC, struct.pack("<HI", self.format_version, len(entries))]
        for tag, payload in entries:
            parts.append(_ENTRY.pack(tag, len(payload)))
            parts.append(payload)
        body = b"".join(parts)
        return body + struct.pack("<I", zlib.crc32(body))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ClusterManifest":
        if len(raw) < 18 or raw[:8] != MANIFEST_MAGIC:
            raise PlatterFormatError(
                "manifest magic mismatch: wrong base secret or not a manifest"
            )
        (crc,) = struct.unpack("<I", raw[-4:])
        if zlib.crc32(raw[:-4]) != crc:
            raise PlatterFormatError("manifest checksum mismatch")
        version, count = struct.unpack_from("<HI", raw, 8)
        if version != MANIFEST_VERSION:
            raise PlatterFormatError(
                f"manifest format version {version} not supported"
            )
        values: dict[int, bytes] = {}
        boundaries: list[int] = []
        scopes: list[str] = []
        offset = 14
        for _ in range(count):
            tag, length = _ENTRY.unpack_from(raw, offset)
            offset += _ENTRY.size
            payload = raw[offset : offset + length]
            if len(payload) != length:
                raise PlatterFormatError("manifest entry truncated")
            offset += length
            if tag == _TAG_BOUNDARY:
                boundaries.append(struct.unpack("<q", payload)[0])
            elif tag == _TAG_SHARD_SCOPE:
                scopes.append(payload.decode("utf-8"))
            else:
                values[tag] = payload  # unknown tags are skipped, forward-compat
        try:
            manifest = cls(
                num_shards=struct.unpack("<I", values[_TAG_NUM_SHARDS])[0],
                router_kind=values[_TAG_ROUTER_KIND].decode("utf-8"),
                shard_scopes=scopes,
                router_boundaries=boundaries,
                super_label=values[_TAG_SUPER_LABEL],
                data_label=values[_TAG_DATA_LABEL],
                format_version=version,
            )
        except KeyError as exc:
            raise PlatterFormatError(f"manifest missing tag {exc}") from None
        if len(manifest.shard_scopes) != manifest.num_shards:
            raise PlatterFormatError(
                f"manifest records {manifest.num_shards} shards but "
                f"{len(manifest.shard_scopes)} scope names"
            )
        return manifest

    # -- enciphered form (what the backend stores) -----------------------

    def encipher(self, super_key: bytes) -> bytes:
        return _manifest_cipher(super_key).encrypt(self.to_bytes())

    @classmethod
    def decipher(cls, blob: bytes, super_key: bytes) -> "ClusterManifest":
        try:
            plain = _manifest_cipher(super_key).decrypt(blob)
        except CryptoError as exc:
            raise PlatterFormatError(
                f"manifest does not decipher: {exc}"
            ) from exc
        return cls.from_bytes(plain)
