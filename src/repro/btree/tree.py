"""Disk-based B-Tree with pluggable node codecs.

The structural algorithms are the classical ones (Bayer & McCreight 1972;
minimum-degree formulation): preemptive-split insertion, the full
borrow/merge deletion, point search and range search.  All node access
goes through the codec's lazy :class:`~repro.btree.codec.NodeView`, so
whatever cryptography the codec imposes is paid exactly where the paper
says it is paid:

* *routing* (descending the tree) touches keys via ``key_at`` and one
  tree pointer via ``child_at`` per node, for searches and for inserts
  and deletes alike; occupancy checks read only ``num_keys``;
* *mutation* (leaf updates, splits, borrows, merges) takes only the nodes
  it rewrites through ``edit`` and re-encodes them via ``encode``.  An
  edit leaves pointers in whatever form the codec chooses: under the
  paper's layout they stay sealed, so ``encode`` decrypts and
  re-encrypts only the triplets the write creates, changes or moves to
  another block (codecs with keys inside the cipher, or no cipher, hand
  over plain ints).

Every descent runs a node visit's binary search as one call to the
view's ``locate``, which returns the lower-bound index, the key found
there and the probes spent; the paper's layout implements it straight
over its stored bytes, other views loop over ``key_at``.  Read descents
(:meth:`BTree.search`, :meth:`BTree.range_search`) add the probe and
visit counts up in locals and book them in :class:`TreeCounters` once
per operation -- in a ``finally``, so a descent that raises (an absent
key, a cryptogram bound to another block) books exactly the work it
did.  The counts equal per-probe booking; only their cost changes.  (A
stored key whose inversion raises ends its visit uncompared: the view
books the inversion, the tree no probe of that visit.)

Nothing caches plaintext nodes across operations -- the paper's model
charges every node visit its decryption cost.  Node reads go through
:meth:`~repro.storage.pager.Pager.read_decoded`, which decodes the
block on every call; the pager below caches only the block's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.btree.codec import NodeCodec, NodeView
from repro.btree.node import Node
from repro.counters import ThreadSafeCounters
from repro.exceptions import BTreeError, DuplicateKeyError, KeyNotFoundError
from repro.storage.pager import Pager


class TreeCounters(ThreadSafeCounters):
    """Structural operation counts (cryptographic counts live in codecs).

    ``comparisons`` counts key probes: each binary-search probe plus the
    equality check at the index found, on searches, inserts and deletes.

    Thread-safe (per-thread accumulation, merged reads): concurrent
    readers descend the tree in parallel, and lost increments would
    under-report traversal work.
    """

    _FIELDS = ("comparisons", "nodes_visited", "splits", "merges", "borrows")


@dataclass
class BTree:
    """A B-Tree of minimum degree ``t`` (max ``2t - 1`` keys per node)."""

    pager: Pager
    codec: NodeCodec
    min_degree: int = 16
    counters: TreeCounters = field(default_factory=TreeCounters)

    def __post_init__(self) -> None:
        if self.min_degree < 2:
            raise BTreeError(f"minimum degree must be >= 2, got {self.min_degree}")
        self.size = 0
        self._free: list[int] = []
        #: Set by every node write; a caller clears it to learn whether
        #: an operation that raised had written anything before it did.
        self.wrote_node = False
        root = Node(node_id=self._allocate(), is_leaf=True)
        self.root_id = root.node_id
        self._write(root)

    @classmethod
    def attach(
        cls,
        pager: Pager,
        codec: NodeCodec,
        root_id: int,
        min_degree: int,
    ) -> "BTree":
        """Reopen an existing tree from its blocks (no new root written).

        The caller supplies the root block id and geometry (in a full
        database these live in a superblock); the key count is recovered
        by walking the tree.  Raises :class:`BTreeError` if the on-disk
        structure fails the invariant check.
        """
        tree = cls.__new__(cls)
        tree.pager = pager
        tree.codec = codec
        tree.min_degree = min_degree
        tree.counters = TreeCounters()
        tree._free = []
        tree.wrote_node = False
        tree.root_id = root_id
        tree.size = 0
        tree.size = sum(1 for _ in tree.items())
        tree.check_invariants()
        return tree

    # -- plumbing ------------------------------------------------------------

    @property
    def max_keys(self) -> int:
        return 2 * self.min_degree - 1

    @property
    def min_keys(self) -> int:
        return self.min_degree - 1

    def _allocate(self) -> int:
        if self._free:
            return self._free.pop()
        return self.pager.allocate()

    def _release(self, node_id: int) -> None:
        self._free.append(node_id)
        self.pager.invalidate(node_id)

    def _view(self, node_id: int) -> NodeView:
        self.counters.bump("nodes_visited")
        return self.pager.read_decoded(node_id, self.codec.decode)

    def _node(self, node_id: int) -> Node:
        """Fully decoded plaintext node (inspection only, never written)."""
        return self._view(node_id).to_node()

    def _write(self, node: Node) -> None:
        self.wrote_node = True
        self.pager.write(node.node_id, self.codec.encode(node))

    # -- search ----------------------------------------------------------

    def _find(self, view: NodeView, key: int) -> tuple[int, bool]:
        """Lower-bound index of ``key`` in ``view``, and whether it is there.

        One :meth:`~repro.btree.codec.NodeView.locate` call -- the
        paper's "binary search-and-decrypt" for lazy codecs -- plus the
        equality check, a probe of its own whose key the search already
        holds.  Used by the write descents.
        """
        idx, found, probes = view.locate(key)
        if found is not None:
            probes += 1
        self.counters.bump("comparisons", probes)
        return idx, found == key

    def search(self, key: int) -> int:
        """Return the data pointer stored under ``key``.

        Raises :class:`KeyNotFoundError` when absent.  One ``locate``
        per visited node; the probe and visit tallies stay in locals,
        booked once when the descent ends -- however it ends, so a
        descent that raises half way still books the work it did.
        """
        read = self.pager.read_decoded
        decode = self.codec.decode
        node_id = self.root_id
        visits = probes = 0
        try:
            while True:
                visits += 1
                view = read(node_id, decode)
                idx, found, spent = view.locate(key)
                probes += spent
                if found is not None:
                    # the equality check is a probe of its own, on the
                    # key the search already holds
                    probes += 1
                    if found == key:
                        return view.value_at(idx)
                if view.is_leaf:
                    raise KeyNotFoundError(key)
                node_id = view.child_at(idx)
        finally:
            counters = self.counters
            counters.bump("nodes_visited", visits)
            counters.bump("comparisons", probes)

    def contains(self, key: int) -> bool:
        """Membership test."""
        try:
            self.search(key)
        except KeyNotFoundError:
            return False
        return True

    def range_search(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """All ``(key, data pointer)`` pairs with ``lo <= key <= hi``.

        Range searches are the paper's motivating query class: they work
        here because triplet *positions* are independent of the disguise
        (§4.1: "we do not place triplets in node blocks based on the value
        of the disguised search key").
        """
        if lo > hi:
            return []
        out: list[tuple[int, int]] = []
        tally = [0, 0]  # node visits, probes
        try:
            self._range_into(self.root_id, lo, hi, out, tally)
        finally:
            counters = self.counters
            counters.bump("nodes_visited", tally[0])
            counters.bump("comparisons", tally[1])
        return out

    def _range_into(
        self, node_id: int, lo: int, hi: int, out: list[tuple[int, int]], tally: list[int]
    ) -> None:
        """Append the subtree's matches; add its visits and probes to ``tally``."""
        probes = 0
        tally[0] += 1
        try:
            view = self.pager.read_decoded(node_id, self.codec.decode)
            i, _, probes = view.locate(lo)
            key_at = view.key_at
            n = view.num_keys
            leaf = view.is_leaf
            while True:
                if not leaf:
                    self._range_into(view.child_at(i), lo, hi, out, tally)
                if i < n:
                    key = key_at(i)
                    probes += 1
                    if key <= hi:
                        out.append((key, view.value_at(i)))
                        i += 1
                        continue
                break
        finally:
            tally[1] += probes

    def items(self) -> Iterator[tuple[int, int]]:
        """In-order iteration over every ``(key, data pointer)`` pair."""
        yield from self._items_of(self.root_id)

    def _items_of(self, node_id: int) -> Iterator[tuple[int, int]]:
        view = self._view(node_id)
        for i in range(view.num_keys):
            if not view.is_leaf:
                yield from self._items_of(view.child_at(i))
            yield (view.key_at(i), view.value_at(i))
        if not view.is_leaf:
            yield from self._items_of(view.child_at(view.num_keys))

    def min_key(self) -> int | None:
        """The smallest key, via the leftmost edge walk (O(height))."""
        return self._edge_key(leftmost=True)

    def max_key(self) -> int | None:
        """The largest key, via the rightmost edge walk (O(height))."""
        return self._edge_key(leftmost=False)

    def _edge_key(self, leftmost: bool) -> int | None:
        node_id = self.root_id
        while True:
            view = self._view(node_id)
            if view.num_keys == 0:
                return None  # only a root can be empty
            if view.is_leaf:
                return view.key_at(0 if leftmost else view.num_keys - 1)
            node_id = view.child_at(0 if leftmost else view.num_keys)

    # -- state snapshots (transaction support) ---------------------------

    def snapshot_state(self) -> tuple[int, int, list[int]]:
        """Capture the metadata a rollback must restore.

        Node *contents* are not copied: a caller pairing this with a
        write-back pager keeps uncommitted pages dirty and discards
        them, so only the root id, key count and free list need saving.
        """
        return (self.root_id, self.size, list(self._free))

    def restore_state(self, state: tuple[int, int, list[int]]) -> None:
        """Reinstate metadata captured by :meth:`snapshot_state`."""
        root_id, size, free = state
        self.root_id = root_id
        self.size = size
        self._free = list(free)

    # -- bulk loading ----------------------------------------------------

    def bulk_load(self, items) -> None:
        """Build the tree bottom-up from ``(key, value)`` pairs.

        The classical packed build: leaves are filled to ``2t - 1`` keys
        left to right, one pair between consecutive leaves is promoted as
        a separator, and the procedure repeats on the separators until a
        single root remains.  Every node block is encoded and written
        exactly once, so both the cipher-operation and the disk-write
        cost are linear in the number of *nodes* rather than the number
        of per-key root-to-leaf descents -- the fast path benchmark C7
        measures against sequential insertion.

        The tree must be empty; ``items`` may arrive in any order but
        keys must be distinct.  Validation happens before any block is
        touched, so a rejected load leaves the empty tree usable.

        Raises :class:`BTreeError` if the tree already holds keys and
        :class:`DuplicateKeyError` on a repeated key.
        """
        pairs = sorted(items, key=lambda kv: kv[0])
        for (left, _), (right, _) in zip(pairs, pairs[1:]):
            if left == right:
                raise DuplicateKeyError(right)
        if self.size:
            raise BTreeError("bulk_load requires an empty tree")
        if not pairs:
            return
        self._release(self.root_id)
        entries = pairs
        level_children: list[int] | None = None  # None while building leaves
        while True:
            groups, separators = self._chunk_level(entries)
            ids: list[int] = []
            child_cursor = 0
            for group in groups:
                node = Node(
                    node_id=self._allocate(), is_leaf=level_children is None
                )
                node.keys = [k for k, _ in group]
                node.values = [v for _, v in group]
                if level_children is not None:
                    node.children = level_children[
                        child_cursor : child_cursor + len(group) + 1
                    ]
                    child_cursor += len(group) + 1
                self._write(node)
                ids.append(node.node_id)
            if len(ids) == 1:
                self.root_id = ids[0]
                break
            entries = separators
            level_children = ids
        self.size = len(pairs)

    def _chunk_level(
        self, entries: list[tuple[int, int]]
    ) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int]]]:
        """Split one level's pairs into per-node groups plus separators.

        Greedy packing to ``max_keys`` per node can leave the final node
        underfull (fewer than ``t - 1`` keys); when it does, the tail is
        rebalanced with its left neighbour through their separator so
        every non-root node satisfies the occupancy invariant.
        """
        fill = self.max_keys
        groups: list[list[tuple[int, int]]] = []
        separators: list[tuple[int, int]] = []
        start, n = 0, len(entries)
        while n - start > fill:
            groups.append(entries[start : start + fill])
            separators.append(entries[start + fill])
            start += fill + 1
        groups.append(entries[start:])
        if len(groups) > 1 and len(groups[-1]) < self.min_keys:
            merged = groups[-2] + [separators[-1]] + groups[-1]
            split = len(merged) - self.min_keys - 1
            groups[-2] = merged[:split]
            separators[-1] = merged[split]
            groups[-1] = merged[split + 1 :]
        return groups, separators

    # -- insertion -------------------------------------------------------

    def insert(self, key: int, value: int) -> None:
        """Insert ``key`` with data pointer ``value``.

        Raises :class:`DuplicateKeyError` if the key is present.
        """
        root = self._view(self.root_id)
        if root.num_keys == self.max_keys:
            new_root = Node(
                node_id=self._allocate(), is_leaf=False, children=[root.node_id]
            )
            self._split_child(new_root, 0, root)
            self.root_id = new_root.node_id
            root = self._view(self.root_id)
        self._insert_nonfull(root, key, value)
        self.size += 1

    def _insert_nonfull(self, view: NodeView, key: int, value: int) -> None:
        while True:
            idx, present = self._find(view, key)
            if present:
                raise DuplicateKeyError(key)
            if view.is_leaf:
                node = view.edit()
                node.keys.insert(idx, key)
                node.values.insert(idx, value)
                self._write(node)
                return
            child = self._view(view.child_at(idx))
            if child.num_keys == self.max_keys:
                parent = view.edit()
                sibling_id = self._split_child(parent, idx, child)
                separator = parent.keys[idx]
                if key == separator:
                    raise DuplicateKeyError(key)
                child = self._view(sibling_id if key > separator else child.node_id)
            view = child

    def _split_child(self, parent: Node, idx: int, child_view: NodeView) -> int:
        """Split a full child around its median; returns the new sibling's id.

        The sibling occupies a fresh block -- the event §3 worries about,
        since under per-page keys every migrated triplet must be
        re-enciphered under the new block's key.
        """
        t = self.min_degree
        child = child_view.edit()
        sibling = Node(node_id=self._allocate(), is_leaf=child.is_leaf)
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        median_key = child.keys[t - 1]
        median_value = child.values[t - 1]
        child.keys = child.keys[: t - 1]
        child.values = child.values[: t - 1]
        parent.keys.insert(idx, median_key)
        parent.values.insert(idx, median_value)
        parent.children.insert(idx + 1, sibling.node_id)
        self.counters.bump("splits")
        self._write(child)
        self._write(sibling)
        self._write(parent)
        return sibling.node_id

    # -- deletion --------------------------------------------------------

    def delete(self, key: int) -> int:
        """Remove ``key`` and return its data pointer, in one descent.

        Raises :class:`KeyNotFoundError` when absent, found out at a leaf
        after the descent's borrows and merges: they keep every key, and
        a root they empty collapses however the descent ends.
        """
        try:
            value = self._delete_from(self._view(self.root_id), key)
        finally:
            root = self._view(self.root_id)
            if root.num_keys == 0 and not root.is_leaf:
                old_root_id = self.root_id
                self.root_id = root.child_at(0)
                self._release(old_root_id)
        self.size -= 1
        return value

    def _delete_from(self, view: NodeView, key: int) -> int:
        idx, present = self._find(view, key)
        if not present:
            if view.is_leaf:
                raise KeyNotFoundError(key)
            return self._delete_from(self._ensure_child_capacity(view, idx), key)
        if not view.is_leaf:
            return self._delete_internal(view, idx, key)
        value = view.value_at(idx)
        node = view.edit()
        del node.keys[idx], node.values[idx]
        self._write(node)
        return value

    def _delete_internal(self, view: NodeView, idx: int, key: int) -> int:
        """Delete ``key == view.key_at(idx)`` from an internal node (CLRS)."""
        t = self.min_degree
        left = self._view(view.child_at(idx))
        value = view.value_at(idx)  # the triplet child_at just decrypted
        if left.num_keys >= t:
            self._replace_and_descend(view, idx, left, self._max_pair(left))
            return value
        right = self._view(view.child_at(idx + 1))
        if right.num_keys >= t:
            self._replace_and_descend(view, idx, right, self._min_pair(right))
            return value
        self._merge_children(view, idx, left, right)
        self._delete_from(self._view(left.node_id), key)
        return value

    def _replace_and_descend(
        self, view: NodeView, idx: int, child: NodeView, pair: tuple[int, int]
    ) -> None:
        """Overwrite separator ``idx`` with ``pair``, then delete it below."""
        node = view.edit()
        node.keys[idx], node.values[idx] = pair
        self._write(node)
        self._delete_from(child, pair[0])

    def _max_pair(self, view: NodeView) -> tuple[int, int]:
        while not view.is_leaf:
            view = self._view(view.child_at(view.num_keys))
        last = view.num_keys - 1
        return view.key_at(last), view.value_at(last)

    def _min_pair(self, view: NodeView) -> tuple[int, int]:
        while not view.is_leaf:
            view = self._view(view.child_at(0))
        return view.key_at(0), view.value_at(0)

    def _merge_children(
        self, parent_view: NodeView, idx: int, left_view: NodeView, right_view: NodeView
    ) -> None:
        """Fold separator ``idx`` and the right sibling into the left child."""
        parent, left, right = parent_view.edit(), left_view.edit(), right_view.edit()
        left.keys.append(parent.keys.pop(idx))
        left.values.append(parent.values.pop(idx))
        left.keys.extend(right.keys)
        left.values.extend(right.values)
        left.children.extend(right.children)
        parent.children.pop(idx + 1)
        self.counters.bump("merges")
        self._write(left)
        self._write(parent)
        self._release(right.node_id)

    def _ensure_child_capacity(self, view: NodeView, idx: int) -> NodeView:
        """Guarantee child ``idx`` has at least ``t`` keys; return its view.

        Borrows from a rich sibling or merges with a poor one, and
        returns a view of the child to descend into (the left sibling
        after merging into it).  An untouched child is not read twice.
        """
        t = self.min_degree
        child = self._view(view.child_at(idx))
        if child.num_keys >= t:
            return child
        left = self._view(view.child_at(idx - 1)) if idx > 0 else None
        if left is not None and left.num_keys >= t:
            # rotate right: separator moves down, sibling max moves up
            parent, kid, sibling = view.edit(), child.edit(), left.edit()
            kid.keys.insert(0, parent.keys[idx - 1])
            kid.values.insert(0, parent.values[idx - 1])
            parent.keys[idx - 1] = sibling.keys.pop()
            parent.values[idx - 1] = sibling.values.pop()
            if not kid.is_leaf:
                kid.children.insert(0, sibling.children.pop())
            self._write_borrow(sibling, kid, parent)
            return self._view(kid.node_id)
        right = self._view(view.child_at(idx + 1)) if idx < view.num_keys else None
        if right is not None and right.num_keys >= t:
            # rotate left: separator moves down, sibling min moves up
            parent, kid, sibling = view.edit(), child.edit(), right.edit()
            kid.keys.append(parent.keys[idx])
            kid.values.append(parent.values[idx])
            parent.keys[idx] = sibling.keys.pop(0)
            parent.values[idx] = sibling.values.pop(0)
            if not kid.is_leaf:
                kid.children.append(sibling.children.pop(0))
            self._write_borrow(sibling, kid, parent)
            return self._view(kid.node_id)
        if left is not None:
            self._merge_children(view, idx - 1, left, child)
            return self._view(left.node_id)
        assert right is not None  # a non-root node has a sibling
        self._merge_children(view, idx, child, right)
        return self._view(child.node_id)

    def _write_borrow(self, sibling: Node, child: Node, parent: Node) -> None:
        self.counters.bump("borrows")
        self._write(sibling)
        self._write(child)
        self._write(parent)

    # -- structure inspection ----------------------------------------------

    def height(self) -> int:
        """Number of node levels (1 for a lone leaf root)."""
        levels = 1
        node_id = self.root_id
        while True:
            view = self._view(node_id)
            if view.is_leaf:
                return levels
            node_id = view.child_at(0)
            levels += 1

    def node_ids(self) -> list[int]:
        """Every live node block id, in BFS order from the root."""
        out = []
        frontier = [self.root_id]
        while frontier:
            node_id = frontier.pop(0)
            out.append(node_id)
            view = self._view(node_id)
            if not view.is_leaf:
                frontier.extend(view.child_at(i) for i in range(view.num_keys + 1))
        return out

    def check_invariants(self) -> None:
        """Verify every B-Tree invariant; raises :class:`BTreeError`.

        Checks key ordering and separation, occupancy bounds, child
        counts, uniform leaf depth and the recorded size.
        """
        leaf_depths: set[int] = set()
        count = self._check_subtree(self.root_id, None, None, 0, leaf_depths, True)
        if len(leaf_depths) > 1:
            raise BTreeError(f"leaves at multiple depths: {sorted(leaf_depths)}")
        if count != self.size:
            raise BTreeError(f"size {self.size} != counted keys {count}")

    def _check_subtree(
        self,
        node_id: int,
        lo: int | None,
        hi: int | None,
        depth: int,
        leaf_depths: set[int],
        is_root: bool,
    ) -> int:
        node = self._node(node_id)
        node.check()
        if is_root and not node.is_leaf and node.num_keys == 0:
            raise BTreeError(f"root {node_id} is an internal node with no keys")
        if not is_root and node.num_keys < self.min_keys:
            raise BTreeError(
                f"node {node_id} underfull: {node.num_keys} < {self.min_keys}"
            )
        if node.num_keys > self.max_keys:
            raise BTreeError(
                f"node {node_id} overfull: {node.num_keys} > {self.max_keys}"
            )
        for key in node.keys:
            if (lo is not None and key <= lo) or (hi is not None and key >= hi):
                raise BTreeError(
                    f"key {key} in node {node_id} violates bounds ({lo}, {hi})"
                )
        if node.is_leaf:
            leaf_depths.add(depth)
            return node.num_keys
        count = node.num_keys
        bounds = [lo, *node.keys, hi]
        for i, child_id in enumerate(node.children):
            count += self._check_subtree(
                child_id, bounds[i], bounds[i + 1], depth + 1, leaf_depths, False
            )
        return count
