"""Disk-based B-Tree with pluggable node codecs.

The structural algorithms are the classical ones (Bayer & McCreight 1972;
minimum-degree formulation), reorganising bottom-up: a write descends
once, edits the leaf, then splits, borrows or merges back up its path
only where a node overflows or underflows.  A duplicate insert or an
absent delete raises before anything is edited.  All node access goes
through the codec's lazy :class:`~repro.btree.codec.NodeView`, so
whatever cryptography the codec imposes is paid exactly where the paper
says it is paid:

* *routing* (descending the tree) touches keys via ``key_at`` and one
  tree pointer via ``child_at`` per node, for searches and for inserts
  and deletes alike; occupancy checks read only ``num_keys``;
* *mutation* (leaf updates, splits, borrows, merges) takes only the nodes
  it rewrites through ``edit``, once each, and writes each block once
  when the operation is done.  An edit leaves pointers in whatever form
  the codec chooses: under the paper's layout they stay sealed, so
  ``encode`` decrypts and re-encrypts only the triplets the write
  creates, changes or moves to another block (codecs with keys inside
  the cipher, or no cipher, hand over plain ints).

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

#: A write's descent: ``(view, index)`` per visited node, root first.
Path = list[tuple[NodeView, int]]


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

    # -- mutation --------------------------------------------------------

    def _descend(self, key: int) -> tuple[Path, bool]:
        """One descent for ``key``: its :data:`Path`, and whether it found ``key``.

        Each index is ``key``'s lower bound in its node: the child taken
        below, or ``key``'s slot in the last node, which holds ``key``
        or is a leaf.  The views live only as long as the operation.
        """
        path: Path = []
        view = self._view(self.root_id)
        while True:
            idx, present = self._find(view, key)
            path.append((view, idx))
            if present or view.is_leaf:
                return path, present
            view = self._view(view.child_at(idx))

    def insertion_path(self, key: int) -> Path:
        """The descent :meth:`insert_along` takes; nothing is written.

        Raises :class:`DuplicateKeyError` if ``key`` is present, so a
        caller can check a key and allocate its value's storage with one
        descent.
        """
        path, present = self._descend(key)
        if present:
            raise DuplicateKeyError(key)
        return path

    def insert(self, key: int, value: int) -> None:
        """Insert ``key`` with data pointer ``value``; see :meth:`insertion_path`."""
        self.insert_along(self.insertion_path(key), key, value)

    def insert_along(self, path: Path, key: int, value: int) -> None:
        """Finish an insert from its :meth:`insertion_path` (consumed).

        The leaf takes the pair; then, while a node holds ``2t`` keys,
        it splits: ``t - 1`` keys stay, the median moves up into the
        parent and ``t`` keys go to a fresh sibling -- the event §3
        worries about, since under per-page keys every migrated triplet
        must be re-enciphered under the new block's key.  The root grows
        a level only when it splits itself.
        """
        t = self.min_degree
        view, idx = path.pop()
        node = view.edit()
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        edits = {node.node_id: node}
        root_id = self.root_id
        while node.num_keys > self.max_keys:
            sibling = Node(
                node_id=self._allocate(),
                is_leaf=node.is_leaf,
                keys=node.keys[t:],
                values=node.values[t:],
                children=node.children[t:],
            )
            median = node.keys[t - 1], node.values[t - 1]
            del node.keys[t - 1 :], node.values[t - 1 :], node.children[t:]
            edits[sibling.node_id] = sibling
            self.counters.bump("splits")
            if path:
                view, idx = path.pop()
                parent = view.edit()
            else:
                parent = Node(node_id=self._allocate(), is_leaf=False, children=[node.node_id])
                root_id, idx = parent.node_id, 0
            parent.keys.insert(idx, median[0])
            parent.values.insert(idx, median[1])
            parent.children.insert(idx + 1, sibling.node_id)
            edits[parent.node_id] = parent
            node = parent
        self._write_edits(edits)
        self.root_id = root_id
        self.size += 1

    def delete(self, key: int) -> int:
        """Remove ``key`` and return its data pointer, in one descent.

        Raises :class:`KeyNotFoundError` when absent, before anything is
        written.  An internal key gives way to its predecessor, the last
        pair of its left subtree's rightmost leaf.  Then, while a node
        holds fewer than ``t - 1`` keys, it borrows from a sibling that
        can spare one (the left first) and stops, or else merges with a
        sibling and passes the shortfall to its parent.  A root emptied
        by a merge collapses onto the merged node.
        """
        path, present = self._descend(key)
        if not present:
            raise KeyNotFoundError(key)
        view, idx = path[-1]
        value = view.value_at(idx)
        edits: dict[int, Node] = {}
        if not view.is_leaf:
            leaf = self._view(view.child_at(idx))
            while not leaf.is_leaf:
                path.append((leaf, leaf.num_keys))
                leaf = self._view(leaf.child_at(leaf.num_keys))
            last = leaf.num_keys - 1
            path.append((leaf, last))
            holder = self._edit(edits, view)
            holder.keys[idx], holder.values[idx] = leaf.key_at(last), leaf.value_at(last)
        view, idx = path.pop()
        node = self._edit(edits, view)
        del node.keys[idx], node.values[idx]
        survivor = node
        while path and node.num_keys < self.min_keys:
            view, idx = path.pop()
            parent = self._edit(edits, view)
            left = self._view(view.child_at(idx - 1)) if idx > 0 else None
            if left is not None and left.num_keys > self.min_keys:
                # rotate right: separator moves down, sibling max moves up
                sibling = self._edit(edits, left)
                node.keys.insert(0, parent.keys[idx - 1])
                node.values.insert(0, parent.values[idx - 1])
                parent.keys[idx - 1] = sibling.keys.pop()
                parent.values[idx - 1] = sibling.values.pop()
                if not node.is_leaf:
                    node.children.insert(0, sibling.children.pop())
                self.counters.bump("borrows")
                break
            right = self._view(view.child_at(idx + 1)) if idx < parent.num_keys else None
            if right is not None and right.num_keys > self.min_keys:
                # rotate left: separator moves down, sibling min moves up
                sibling = self._edit(edits, right)
                node.keys.append(parent.keys[idx])
                node.values.append(parent.values[idx])
                parent.keys[idx] = sibling.keys.pop(0)
                parent.values[idx] = sibling.values.pop(0)
                if not node.is_leaf:
                    node.children.append(sibling.children.pop(0))
                self.counters.bump("borrows")
                break
            if left is not None:
                survivor = self._merge(edits, parent, idx - 1, self._edit(edits, left), node)
            else:
                assert right is not None  # a non-root node has a sibling
                survivor = self._merge(edits, parent, idx, node, self._edit(edits, right))
            node = parent
        collapsed = not node.keys and not node.is_leaf  # only the root gets here
        if collapsed:
            del edits[node.node_id]
        self._write_edits(edits)
        if collapsed:
            self.root_id = survivor.node_id
            self._release(node.node_id)
        self.size -= 1
        return value

    def _merge(
        self, edits: dict[int, Node], parent: Node, idx: int, left: Node, right: Node
    ) -> Node:
        """Fold separator ``idx`` and ``right`` into ``left``; free ``right``."""
        left.keys.append(parent.keys.pop(idx))
        left.values.append(parent.values.pop(idx))
        left.keys.extend(right.keys)
        left.values.extend(right.values)
        left.children.extend(right.children)
        del parent.children[idx + 1]
        self.counters.bump("merges")
        edits.pop(right.node_id, None)
        self._release(right.node_id)
        return left

    @staticmethod
    def _edit(edits: dict[int, Node], view: NodeView) -> Node:
        """The operation's one editable copy of ``view``'s node."""
        node = edits.get(view.node_id)
        if node is None:
            node = edits[view.node_id] = view.edit()
        return node

    def _write_edits(self, edits: dict[int, Node]) -> None:
        """Encode every node an operation edited, then write each block once
        (so a node that fails to encode leaves every block as it was)."""
        encode = self.codec.encode
        blocks = [(node_id, encode(node)) for node_id, node in edits.items()]
        for node_id, data in blocks:
            self.pager.write(node_id, data)

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
