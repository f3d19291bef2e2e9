"""B-Tree structural mechanics over the plain codec."""

from __future__ import annotations

import random

import pytest

from repro.btree.codec import PlainNodeCodec
from repro.btree.node import Node
from repro.btree.tree import BTree
from repro.exceptions import BTreeError, DuplicateKeyError, KeyNotFoundError
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Pager


def make_tree(min_degree: int = 2, block_size: int = 512, cache: int = 8) -> BTree:
    disk = SimulatedDisk(block_size=block_size)
    return BTree(
        pager=Pager(disk, cache_blocks=cache),
        codec=PlainNodeCodec(key_bytes=4, pointer_bytes=4),
        min_degree=min_degree,
    )


class TestInsertSearch:
    def test_single_key(self):
        tree = make_tree()
        tree.insert(5, 50)
        assert tree.search(5) == 50
        assert len([*tree.items()]) == 1

    def test_many_keys_random_order(self):
        tree = make_tree(min_degree=3)
        keys = random.Random(1).sample(range(1000), 300)
        for k in keys:
            tree.insert(k, k * 10)
        tree.check_invariants()
        for k in keys:
            assert tree.search(k) == k * 10

    def test_sequential_insert(self):
        tree = make_tree(min_degree=2)
        for k in range(100):
            tree.insert(k, k)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(100))

    def test_reverse_insert(self):
        tree = make_tree(min_degree=2)
        for k in reversed(range(100)):
            tree.insert(k, k)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(100))

    def test_duplicate_rejected(self):
        tree = make_tree()
        tree.insert(5, 50)
        with pytest.raises(DuplicateKeyError):
            tree.insert(5, 51)
        # duplicates deeper in a multi-level tree
        for k in range(50):
            if k != 5:
                tree.insert(k, k)
        with pytest.raises(DuplicateKeyError):
            tree.insert(30, 0)

    def test_missing_key(self):
        tree = make_tree()
        tree.insert(1, 1)
        with pytest.raises(KeyNotFoundError):
            tree.search(2)
        assert not tree.contains(2)
        assert tree.contains(1)

    def test_root_split_grows_height(self):
        tree = make_tree(min_degree=2)
        heights = set()
        for k in range(30):
            tree.insert(k, k)
            heights.add(tree.height())
        assert max(heights) > 1


class TestDelete:
    def test_delete_leaf_key(self):
        tree = make_tree()
        tree.insert(1, 10)
        tree.delete(1)
        assert not tree.contains(1)
        assert tree.size == 0

    def test_delete_missing_raises(self):
        tree = make_tree()
        tree.insert(1, 10)
        with pytest.raises(KeyNotFoundError):
            tree.delete(2)

    @pytest.mark.parametrize(
        "inserted, deleted",
        [((10, 20, 30, 40), (40,)), (range(0, 100, 10), (90, 80))],
        ids=["height-2", "height-3"],
    )
    def test_missing_key_delete_changes_nothing(self, inserted, deleted):
        """The root holds one key over two minimal children, and so does
        every node on the path to 15.  The descent finds 15 missing
        before it edits anything: no merge, no block written, and the
        height and every block stay as they were."""
        tree = make_tree(min_degree=2)
        for k in inserted:
            tree.insert(k, k)
        for k in deleted:
            tree.delete(k)
        root = tree._node(tree.root_id)
        assert len(root.keys) == 1
        assert all(len(tree._node(c).keys) == 1 for c in root.children)
        size, items, height = tree.size, [*tree.items()], tree.height()
        blocks = {i: tree.pager.read(i) for i in tree.node_ids()}
        writes = tree.pager.stats.write_requests
        reshaped = tree.counters.merges + tree.counters.borrows
        with pytest.raises(KeyNotFoundError):
            tree.delete(15)
        assert tree.size == size
        assert [*tree.items()] == items
        assert tree.height() == height
        assert {i: tree.pager.read(i) for i in tree.node_ids()} == blocks
        assert tree.pager.stats.write_requests == writes
        assert tree.counters.merges + tree.counters.borrows == reshaped
        tree.check_invariants()

    def test_invariants_reject_an_empty_internal_root(self):
        tree = make_tree(min_degree=2)
        for k in range(10):
            tree.insert(k, k)
        hollow = Node(node_id=tree._allocate(), is_leaf=False, children=[tree.root_id])
        tree._write(hollow)
        tree.root_id = hollow.node_id
        with pytest.raises(BTreeError, match="no keys"):
            tree.check_invariants()

    def test_delete_all_random_order(self):
        tree = make_tree(min_degree=2)
        rng = random.Random(7)
        keys = rng.sample(range(500), 200)
        for k in keys:
            tree.insert(k, k * 10)
        rng.shuffle(keys)
        for i, k in enumerate(keys):
            # leaf hits, separator replacements and merges all hand
            # back the removed key's pointer
            assert tree.delete(k) == k * 10
            if i % 20 == 0:
                tree.check_invariants()
        assert tree.size == 0
        assert [*tree.items()] == []

    def test_delete_internal_keys(self):
        """Delete keys that sit in internal nodes (predecessor/successor
        replacement paths)."""
        tree = make_tree(min_degree=2)
        for k in range(50):
            tree.insert(k, k)
        # root and internal separators for t=2 trees
        root_keys = list(tree._node(tree.root_id).keys)
        for k in root_keys:
            tree.delete(k)
            tree.check_invariants()
            assert not tree.contains(k)

    def test_height_shrinks(self):
        tree = make_tree(min_degree=2)
        for k in range(100):
            tree.insert(k, k)
        tall = tree.height()
        for k in range(95):
            tree.delete(k)
        tree.check_invariants()
        assert tree.height() < tall

    def test_interleaved_insert_delete(self):
        tree = make_tree(min_degree=3)
        rng = random.Random(3)
        present: set[int] = set()
        for _ in range(800):
            if present and rng.random() < 0.4:
                k = rng.choice(sorted(present))
                tree.delete(k)
                present.discard(k)
            else:
                k = rng.randrange(10000)
                if k not in present:
                    tree.insert(k, k)
                    present.add(k)
        tree.check_invariants()
        assert sorted(present) == [k for k, _ in tree.items()]


class TestRangeSearch:
    @pytest.fixture
    def populated(self):
        tree = make_tree(min_degree=2)
        for k in range(0, 200, 3):
            tree.insert(k, k * 2)
        return tree

    def test_full_range(self, populated):
        result = populated.range_search(0, 199)
        assert [k for k, _ in result] == list(range(0, 200, 3))

    def test_partial_range(self, populated):
        result = populated.range_search(50, 100)
        assert [k for k, _ in result] == [k for k in range(0, 200, 3) if 50 <= k <= 100]

    def test_values_carried(self, populated):
        assert populated.range_search(6, 6) == [(6, 12)]

    def test_empty_range(self, populated):
        assert populated.range_search(100, 50) == []
        assert populated.range_search(1, 2) == []

    def test_range_beyond_keys(self, populated):
        assert populated.range_search(500, 600) == []


class TestStructure:
    def test_min_degree_validated(self):
        with pytest.raises(BTreeError):
            make_tree(min_degree=1)

    def test_node_ids_bfs(self):
        tree = make_tree(min_degree=2)
        for k in range(50):
            tree.insert(k, k)
        ids = tree.node_ids()
        assert ids[0] == tree.root_id
        assert len(ids) == len(set(ids))

    def test_freed_blocks_reused(self):
        tree = make_tree(min_degree=2)
        for k in range(100):
            tree.insert(k, k)
        peak = tree.pager.disk.num_blocks
        for k in range(100):
            tree.delete(k)
        for k in range(100):
            tree.insert(k, k)
        # block reuse keeps allocation bounded
        assert tree.pager.disk.num_blocks <= peak + 2

    def test_counters_track_operations(self):
        tree = make_tree(min_degree=2)
        for k in range(50):
            tree.insert(k, k)
        assert tree.counters.splits > 0
        tree.counters.reset()
        tree.search(25)
        assert tree.counters.nodes_visited >= 1
        assert tree.counters.comparisons >= 1
