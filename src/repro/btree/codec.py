"""Node codecs: how a node block becomes bytes (and back, lazily).

The codec is the seam where all three systems differ:

* :class:`PlainNodeCodec` (here) stores everything in the clear;
* ``SubstitutedNodeCodec`` (in :mod:`repro.core.codecs`) disguises keys
  and encrypts pointer pairs -- the paper's scheme;
* ``PageKeyNodeCodec`` (ibid.) encrypts every triplet under a per-page
  key -- the Bayer--Metzger baseline.

Decoding returns a :class:`NodeView`, a *lazy* reader: the structural
algorithms ask for individual keys and pointers, and each access pays
whatever cryptographic price the codec imposes.  That laziness is what
lets experiment C1 observe "``log2 n`` decryptions for a binary
search-and-decrypt" versus "one decryption for the chosen pointer"
directly, instead of assuming it.
"""

from __future__ import annotations

from typing import Protocol

from repro.btree.node import Node
from repro.exceptions import BTreeError, CodecError

#: Sentinel meaning "no pointer" in packed integer fields (ids are shifted
#: by one on disk so that id 0 remains representable).
_NULL = 0

#: Header: 1 flag byte + 2-byte key count.
HEADER_BYTES = 3


class NodeView(Protocol):
    """Lazy read access to a decoded node block."""

    node_id: int
    is_leaf: bool
    num_keys: int

    def key_at(self, i: int) -> int:
        """The ``i``-th search key, in plaintext."""
        ...

    def locate(self, key: int) -> tuple[int, int | None, int]:
        """One node visit's binary search for ``key``.

        Returns ``(index, found, probes)``: ``index`` is the first ``i``
        with ``key_at(i) >= key`` (``num_keys`` if there is none),
        ``found`` is the key at ``index`` (``None`` at ``num_keys``;
        the search has always probed it otherwise) and ``probes`` is
        the number of keys the search compared.  Each probe costs what
        ``key_at`` costs, so the counts are those of the loop over
        ``key_at`` (:func:`locate_by_key_at`).
        """
        ...

    def stored_key_at(self, i: int) -> int:
        """The ``i``-th key *as stored* (disguised/encrypted form)."""
        ...

    def value_at(self, i: int) -> int:
        """The ``i``-th data pointer."""
        ...

    def child_at(self, i: int) -> int:
        """The ``i``-th tree pointer (``0..num_keys``)."""
        ...

    def to_node(self) -> Node:
        """Materialise the full plaintext node (pays full decode cost)."""
        ...

    def edit(self) -> Node:
        """The node for the B-tree to change and re-``encode``.

        Keys are plaintext.  Pointers may be codec-specific stand-ins
        that the tree moves around unread and only ``encode`` opens, so
        an edit pays for the pointers it changes, not the whole node.
        """
        ...


class NodeCodec(Protocol):
    """Bidirectional node-block serialisation."""

    def encode(self, node: Node) -> bytes:
        """Serialise a node for storage in its block."""
        ...

    def decode(self, node_id: int, data: bytes) -> NodeView:
        """Wrap block bytes in a lazy view."""
        ...

    def node_overhead_bytes(self, num_keys: int, is_leaf: bool) -> int:
        """Stored size of a node with the given shape (for layout math)."""
        ...


def fit_min_degree(codec: NodeCodec, block_size: int) -> int:
    """Largest minimum degree whose full internal node fits one block."""
    t = 2
    while codec.node_overhead_bytes(2 * (t + 1) - 1, is_leaf=False) <= block_size:
        t += 1
    if codec.node_overhead_bytes(2 * t - 1, is_leaf=False) > block_size:
        raise BTreeError(f"block size {block_size} cannot hold a degree-2 node")
    return t


def locate_by_key_at(view: NodeView, key: int) -> tuple[int, int | None, int]:
    """:meth:`NodeView.locate` as a binary search over ``view.key_at``."""
    key_at = view.key_at
    lo, hi = 0, view.num_keys
    found = None
    probes = 0
    while lo < hi:
        mid = (lo + hi) >> 1
        probes += 1
        probed = key_at(mid)
        if probed < key:
            lo = mid + 1
        else:
            hi = mid
            found = probed
    return lo, found, probes


def _read_int(data: bytes, offset: int, width: int) -> int:
    return int.from_bytes(data[offset : offset + width], "big")


def _write_int(out: bytearray, value: int, width: int) -> None:
    if value < 0 or value >= 1 << (8 * width):
        raise CodecError(f"integer {value} does not fit {width} bytes")
    out.extend(value.to_bytes(width, "big"))


def encode_header(node: Node) -> bytearray:
    """Common 3-byte header: leaf flag + key count."""
    out = bytearray()
    out.append(1 if node.is_leaf else 0)
    if node.num_keys >= 1 << 16:
        raise CodecError(f"node with {node.num_keys} keys exceeds header width")
    out.extend(node.num_keys.to_bytes(2, "big"))
    return out


def decode_header(data: bytes) -> tuple[bool, int]:
    """Invert :func:`encode_header`; returns ``(is_leaf, num_keys)``."""
    if len(data) < HEADER_BYTES:
        raise CodecError("block too short for node header")
    flag = data[0]
    if flag > 1:
        raise CodecError(f"corrupt leaf flag {flag}")
    return flag == 1, data[1] << 8 | data[2]


class PlainNodeView:
    """Eager view over a plaintext node (decoding is free)."""

    def __init__(self, node: Node) -> None:
        self._node = node
        self.node_id = node.node_id
        self.is_leaf = node.is_leaf
        self.num_keys = node.num_keys

    def key_at(self, i: int) -> int:
        return self._node.keys[i]

    def stored_key_at(self, i: int) -> int:
        return self._node.keys[i]

    locate = locate_by_key_at

    def value_at(self, i: int) -> int:
        return self._node.values[i]

    def child_at(self, i: int) -> int:
        return self._node.children[i]

    def to_node(self) -> Node:
        # A fresh copy: callers mutate the node they get back, and the
        # view must keep describing the bytes it was decoded from -- a
        # later key_at/child_at/edit on the same view would otherwise see
        # the first caller's half-applied changes, with num_keys still
        # the decoded count.
        return Node(
            node_id=self._node.node_id,
            is_leaf=self._node.is_leaf,
            keys=list(self._node.keys),
            values=list(self._node.values),
            children=list(self._node.children),
        )

    def edit(self) -> Node:
        return self.to_node()


class PlainNodeCodec:
    """Cleartext node layout: header, keys, values, children.

    Fixed integer widths keep the layout block-computable; the widths
    bound the largest representable key and block id.
    """

    def __init__(self, key_bytes: int = 8, pointer_bytes: int = 4) -> None:
        if key_bytes < 1 or pointer_bytes < 1:
            raise CodecError("field widths must be positive")
        self.key_bytes = key_bytes
        self.pointer_bytes = pointer_bytes

    def encode(self, node: Node) -> bytes:
        node.check()
        out = encode_header(node)
        for key in node.keys:
            _write_int(out, key, self.key_bytes)
        for value in node.values:
            _write_int(out, value + 1, self.pointer_bytes)
        if not node.is_leaf:
            for child in node.children:
                _write_int(out, child + 1, self.pointer_bytes)
        return bytes(out)

    def decode(self, node_id: int, data: bytes) -> PlainNodeView:
        is_leaf, n = decode_header(data)
        offset = HEADER_BYTES
        keys = [_read_int(data, offset + i * self.key_bytes, self.key_bytes) for i in range(n)]
        offset += n * self.key_bytes
        values = [
            _read_int(data, offset + i * self.pointer_bytes, self.pointer_bytes) - 1
            for i in range(n)
        ]
        offset += n * self.pointer_bytes
        children: list[int] = []
        if not is_leaf:
            children = [
                _read_int(data, offset + i * self.pointer_bytes, self.pointer_bytes) - 1
                for i in range(n + 1)
            ]
            if any(c == _NULL - 1 for c in children):
                raise CodecError(f"node {node_id} has a null tree pointer")
        node = Node(node_id=node_id, is_leaf=is_leaf, keys=keys, values=values, children=children)
        return PlainNodeView(node)

    def node_overhead_bytes(self, num_keys: int, is_leaf: bool) -> int:
        size = HEADER_BYTES + num_keys * (self.key_bytes + self.pointer_bytes)
        if not is_leaf:
            size += (num_keys + 1) * self.pointer_bytes
        return size
