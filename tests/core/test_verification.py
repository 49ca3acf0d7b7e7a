"""Tests for the Verification subroutine (Lemmas 3 and 6)."""

from repro.congest.trace import RoundLedger
from repro.core import quality
from repro.core.core_slow import core_slow
from repro.core.existence import best_certified, empty_shortcut
from repro.core.verification import verification


def test_finds_exactly_the_good_parts(grid6, grid6_tree, grid6_voronoi):
    point = best_certified(grid6_tree, grid6_voronoi)
    outcome = core_slow(grid6, grid6_tree, grid6_voronoi, point.congestion)
    truth = quality.block_counts(outcome.shortcut)
    for b_limit in (1, 2, 3):
        verdict = verification(grid6, outcome.shortcut, b_limit, seed=1)
        expected = frozenset(
            i for i, count in enumerate(truth) if count <= b_limit
        )
        assert verdict.good_parts == expected


def test_counts_reported(grid6, grid6_tree, grid6_voronoi):
    point = best_certified(grid6_tree, grid6_voronoi)
    outcome = core_slow(grid6, grid6_tree, grid6_voronoi, point.congestion)
    truth = quality.block_counts(outcome.shortcut)
    b_max = max(truth)
    verdict = verification(grid6, outcome.shortcut, b_max, seed=2)
    for i, count in enumerate(truth):
        assert verdict.counts[i] == count


def test_consider_filter(grid6, grid6_tree, grid6_voronoi):
    point = best_certified(grid6_tree, grid6_voronoi)
    outcome = core_slow(grid6, grid6_tree, grid6_voronoi, point.congestion)
    truth = quality.block_counts(outcome.shortcut)
    b_max = max(truth)
    verdict = verification(
        grid6, outcome.shortcut, b_max, consider={0, 1}, seed=3
    )
    assert verdict.good_parts <= {0, 1}


def test_empty_shortcut_counts_part_sizes(grid6, grid6_tree, grid6_voronoi):
    shortcut = empty_shortcut(grid6_tree, grid6_voronoi)
    sizes = [len(grid6_voronoi.members(i)) for i in range(grid6_voronoi.size)]
    b_limit = max(sizes)
    verdict = verification(grid6, shortcut, b_limit, seed=4)
    assert verdict.good_parts == frozenset(range(grid6_voronoi.size))
    for i, size in enumerate(sizes):
        assert verdict.counts[i] == size


def test_round_cost_scales_with_limit(grid6, grid6_tree, grid6_voronoi):
    point = best_certified(grid6_tree, grid6_voronoi)
    outcome = core_slow(grid6, grid6_tree, grid6_voronoi, point.congestion)
    costs = []
    for b_limit in (1, 4):
        ledger = RoundLedger()
        verification(grid6, outcome.shortcut, b_limit, seed=5, ledger=ledger)
        costs.append(ledger.total_rounds)
    assert costs[0] < costs[1]  # more supersteps for larger limits


def test_singleton_parts(grid6, grid6_tree):
    from repro.graphs.partitions import singletons

    partition = singletons(grid6)
    shortcut = empty_shortcut(grid6_tree, partition)
    verdict = verification(grid6, shortcut, 1, seed=6)
    assert verdict.good_parts == frozenset(range(36))


def test_direct_counts_survive_alternating_partitions(grid6, grid6_tree):
    """Two partitions take turns on one topology: the per-partition
    structure cache must never serve one partition's components (or
    internal edge count) to the other."""
    from repro.core.construct_fast import part_internal_edges, part_structure
    from repro.graphs.partitions import Partition, voronoi

    connected = voronoi(grid6, 6, seed=3)
    # Alternating columns of each half: every part is three separate
    # strips, and node 35 is uncovered.
    labels = [v % 2 + (0 if v < 18 else 2) for v in range(36)]
    labels[35] = -1
    split = Partition.from_labels(labels)
    assert not any(part_structure(grid6, split).connected)
    assert all(part_structure(grid6, connected).connected)
    cases = []
    for partition in (connected, split):
        outcome = core_slow(grid6, grid6_tree, partition, 1, mode="direct")
        internal = sum(
            1
            for u, v in grid6.edges
            if partition.labels[u] == partition.labels[v] >= 0
        )
        expected = verification(grid6, outcome.shortcut, 4, mode="simulate").counts
        cases.append((partition, outcome.shortcut, 2 * internal, expected))
    for _round in range(3):
        for partition, shortcut, internal, expected in cases:
            assert part_internal_edges(grid6, partition) == internal
            counts = verification(grid6, shortcut, 4, mode="direct").counts
            assert counts == expected


def test_direct_counts_reset_between_disconnected_parts():
    """Part 0 is split ({0, 1} and {8}) and its blocks reach the
    non-members 3, 4 and 7; no union-find link that leaves may survive
    into part 1 ({3} and {7}), whose H_1 touches the same nodes."""
    from repro.core.shortcut import TreeRestrictedShortcut
    from repro.graphs import generators
    from repro.graphs.partitions import Partition
    from repro.graphs.spanning_trees import SpanningTree

    topology = generators.grid(3, 3)
    tree = SpanningTree.bfs(topology, 0)
    partition = Partition.from_labels([0, 0, -1, 1, -1, -1, -1, 1, 0])
    shortcut = TreeRestrictedShortcut(
        tree,
        partition,
        [[(0, 3), (1, 4), (4, 7)], [(0, 1), (1, 2), (1, 4), (3, 6)]],
    )
    for mode in ("simulate", "direct"):
        assert verification(topology, shortcut, 2, mode=mode).counts == {0: 1, 1: 1}
