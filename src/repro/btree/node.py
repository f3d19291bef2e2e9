"""In-memory representation of one B-Tree node block.

Following the paper's §3 (and Elmasri & Navathe), a node block consists of
triplets ``(k_i, a_i, p_i)``: search key, data pointer and tree pointer.
We store them column-wise -- ``keys``, ``values`` (data pointers) and
``children`` (tree pointers) -- which makes the structural algorithms read
like any textbook B-Tree while the codecs reassemble triplets for disk.

``children[i]`` is the subtree holding keys less than ``keys[i]``;
``children[-1]`` is the paper's *"one tree pointer which does not have an
accompanying [search key] and data pointer"*.

A node taken for rewriting with ``NodeView.edit()`` may hold, in
``values`` and ``children``, codec-specific stand-ins for pointers it
has not decrypted; the structural algorithms only move them, and the
codec's ``encode`` resolves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import BTreeError


@dataclass
class Node:
    """One node block: parallel arrays of keys, data pointers, children."""

    node_id: int
    is_leaf: bool
    keys: list[int] = field(default_factory=list)
    values: list[int] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    @property
    def num_keys(self) -> int:
        return len(self.keys)

    def check(self) -> None:
        """Validate the node's internal consistency.

        Keys must be strictly increasing, values parallel to keys, and an
        internal node must have exactly one more child than keys.
        """
        if len(self.values) != len(self.keys):
            raise BTreeError(
                f"node {self.node_id}: {len(self.values)} values for "
                f"{len(self.keys)} keys"
            )
        if self.is_leaf:
            if self.children:
                raise BTreeError(f"leaf {self.node_id} has children")
        elif len(self.children) != len(self.keys) + 1:
            raise BTreeError(
                f"node {self.node_id}: {len(self.children)} children for "
                f"{len(self.keys)} keys"
            )
        for left, right in zip(self.keys, self.keys[1:]):
            if left >= right:
                raise BTreeError(
                    f"node {self.node_id}: keys not strictly increasing "
                    f"({left} >= {right})"
                )

    def triplets(self) -> list[tuple[int, int, int | None]]:
        """The node as paper-style triplets ``(k_i, a_i, p_i)``.

        For triplet ``i`` the tree pointer is ``children[i]`` (the subtree
        *left* of ``k_i``); ``children[-1]`` is the unaccompanied pointer.
        Leaves yield ``None`` tree pointers.
        """
        out = []
        for i, (k, a) in enumerate(zip(self.keys, self.values)):
            p = None if self.is_leaf else self.children[i]
            out.append((k, a, p))
        return out
