"""Tests for shortcut objects (Definitions 1 and 2)."""

import pytest

from repro.core.shortcut import GeneralShortcut, TreeRestrictedShortcut
from repro.errors import ShortcutError
from repro.graphs.partitions import Partition
from repro.graphs.spanning_trees import SpanningTree


@pytest.fixture
def line_tree():
    # Path 0-1-2-3-4 rooted at 0.
    return SpanningTree(0, [-1, 0, 1, 2, 3])


@pytest.fixture
def two_parts():
    return Partition(5, [[1, 2], [3, 4]])


def test_construction_and_subgraphs(line_tree, two_parts):
    s = TreeRestrictedShortcut(line_tree, two_parts, [[(0, 1)], [(2, 3)]])
    assert s.size == 2
    assert s.subgraph(0) == frozenset({(0, 1)})
    assert s.subgraph(1) == frozenset({(2, 3)})


def test_rejects_non_tree_edge(line_tree, two_parts):
    with pytest.raises(ShortcutError):
        TreeRestrictedShortcut(line_tree, two_parts, [[(0, 2)], []])


def test_rejects_wrong_subgraph_count(line_tree, two_parts):
    with pytest.raises(ShortcutError):
        TreeRestrictedShortcut(line_tree, two_parts, [[]])


def test_edge_map(line_tree, two_parts):
    s = TreeRestrictedShortcut(
        line_tree, two_parts, [[(1, 2), (2, 3)], [(2, 3)]]
    )
    assert s.edge_map[(2, 3)] == frozenset({0, 1})
    assert s.parts_using(2, 1) == frozenset({0})
    assert s.parts_using(3, 4) == frozenset()


def test_from_edge_map_roundtrip(line_tree, two_parts):
    edge_map = {(0, 1): [0], (2, 3): [0, 1]}
    s = TreeRestrictedShortcut.from_edge_map(line_tree, two_parts, edge_map)
    assert s.subgraph(0) == frozenset({(0, 1), (2, 3)})
    assert s.subgraph(1) == frozenset({(2, 3)})


def test_from_edge_map_bad_part(line_tree, two_parts):
    with pytest.raises(ShortcutError):
        TreeRestrictedShortcut.from_edge_map(line_tree, two_parts, {(0, 1): [5]})


def test_empty_shortcut(line_tree, two_parts):
    s = TreeRestrictedShortcut.empty(line_tree, two_parts)
    assert all(not s.subgraph(i) for i in range(2))


def test_restricted_to(line_tree, two_parts):
    s = TreeRestrictedShortcut(line_tree, two_parts, [[(0, 1)], [(2, 3)]])
    r = s.restricted_to([1])
    assert r.subgraph(0) == frozenset()
    assert r.subgraph(1) == frozenset({(2, 3)})


def test_merged_with(line_tree, two_parts):
    a = TreeRestrictedShortcut(line_tree, two_parts, [[(0, 1)], []])
    b = TreeRestrictedShortcut(line_tree, two_parts, [[(1, 2)], [(3, 4)]])
    merged = a.merged_with(b)
    assert merged.subgraph(0) == frozenset({(0, 1), (1, 2)})
    assert merged.subgraph(1) == frozenset({(3, 4)})


def test_merged_with_wrong_partition(line_tree, two_parts):
    other_parts = Partition(5, [[1], [3]])
    a = TreeRestrictedShortcut.empty(line_tree, two_parts)
    b = TreeRestrictedShortcut.empty(line_tree, other_parts)
    with pytest.raises(ShortcutError):
        a.merged_with(b)


def test_as_general(line_tree, two_parts):
    s = TreeRestrictedShortcut(line_tree, two_parts, [[(0, 1)], []])
    g = s.as_general()
    assert isinstance(g, GeneralShortcut)
    assert g.subgraph(0) == frozenset({(0, 1)})


def test_general_shortcut_allows_non_tree_edges(two_parts):
    g = GeneralShortcut(two_parts, [[(0, 4)], []])
    assert g.subgraph(0) == frozenset({(0, 4)})


def test_validate_in(grid6, grid6_tree, grid6_voronoi):
    s = TreeRestrictedShortcut.empty(grid6_tree, grid6_voronoi)
    s.validate_in(grid6)  # must not raise


def test_edge_orientation_normalised(line_tree, two_parts):
    s = TreeRestrictedShortcut(line_tree, two_parts, [[(1, 0)], []])
    assert (0, 1) in s.subgraph(0)


def test_restricted_and_merged_equal_the_validating_constructor():
    """The unvalidated fast paths build exactly what ``__init__`` builds
    from the same subgraphs, on real kernel output."""
    from repro.core.core_fast import core_fast
    from repro.core.core_slow import core_slow
    from repro.graphs import generators, partitions

    topology = generators.grid(6, 6)
    tree = SpanningTree.bfs(topology, 0)
    partition = partitions.voronoi(topology, 6, seed=3)
    slow = core_slow(topology, tree, partition, 1, mode="direct").shortcut
    fast = core_fast(topology, tree, partition, 2, 7, mode="direct").shortcut
    keep = {0, 2, 5}
    restricted = slow.restricted_to(keep)
    expected = TreeRestrictedShortcut(
        tree,
        partition,
        [slow.subgraph(i) if i in keep else () for i in range(partition.size)],
    )
    assert restricted.subgraphs == expected.subgraphs
    assert restricted.edge_map == expected.edge_map
    merged = restricted.merged_with(fast)
    expected = TreeRestrictedShortcut(
        tree,
        partition,
        [
            list(restricted.subgraph(i)) + list(fast.subgraph(i))
            for i in range(partition.size)
        ],
    )
    assert merged.subgraphs == expected.subgraphs
    assert merged.edge_map == expected.edge_map
    assert merged.tree is tree and merged.partition is partition
