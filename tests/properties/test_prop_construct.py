"""Property-based tests for the direct construction kernels.

Direct-mode FindShortcut must satisfy the Theorem 3 invariants on
arbitrary instances from the paper's graph classes — random planar
grids/Delaunay triangulations, bounded-treewidth k-trees, and
bounded-genus chains — and must stay bit-for-bit interchangeable with
simulate mode wherever we spot-check it.
"""

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import quality
from repro.core.construct_fast import verification_counts_direct
from repro.core.core_slow import core_slow
from repro.core.existence import best_certified
from repro.core.find_shortcut import find_shortcut
from repro.core.shortcut import TreeRestrictedShortcut
from repro.core.verification import verification
from repro.graphs import generators, partitions
from repro.graphs.spanning_trees import SpanningTree

settings.register_profile(
    "repro-construct",
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-construct")


# The delaunay family needs the optional geometry extra (numpy + scipy).
_FAMILIES = ["grid", "ktree", "genus"] + (
    ["delaunay"] if generators.geometry_available() else []
)


@st.composite
def instances(draw):
    """One random instance from the planar/treewidth/genus families."""
    family = draw(st.sampled_from(_FAMILIES))
    seed = draw(st.integers(0, 400))
    if family == "grid":
        side = draw(st.integers(3, 6))
        topology = generators.grid(side, side)
    elif family == "delaunay":
        topology = generators.delaunay(draw(st.integers(12, 36)), seed % 7)
    elif family == "ktree":
        topology = generators.k_tree(
            draw(st.integers(10, 28)), draw(st.integers(2, 3)), seed % 11
        )
    else:
        topology = generators.genus_chain(
            draw(st.integers(1, 2)), 3, draw(st.integers(3, 5))
        )
    n_parts = draw(st.integers(1, max(1, topology.n // 3)))
    partition = partitions.voronoi(topology, n_parts, seed=seed)
    tree = SpanningTree.bfs(topology, 0)
    return topology, tree, partition


@given(instances(), st.integers(0, 50))
def test_direct_find_shortcut_theorem3_invariants(instance, seed):
    topology, tree, partition = instance
    point = best_certified(tree, partition)
    result = find_shortcut(
        topology, tree, partition, point.congestion, point.block,
        seed=seed, mode="direct",
    )
    # Block parameter <= 3b on every part.
    counts = quality.block_counts(result.shortcut)
    assert all(count <= 3 * point.block for count in counts)
    # Congestion <= the accumulated per-iteration bound (8c each for
    # the CoreFast sampling cap).
    measured = quality.shortcut_congestion(result.shortcut)
    assert measured <= 8 * point.congestion * result.iterations
    # Monotone shrinking `remaining`: each iteration freezes a fresh,
    # disjoint set of parts and together they cover the partition.
    seen = set()
    for good in result.good_history:
        assert not (good & seen)
        seen |= good
    assert seen == set(range(partition.size))


@given(instances(), st.integers(0, 50))
def test_direct_matches_simulate_on_random_instances(instance, seed):
    topology, tree, partition = instance
    point = best_certified(tree, partition)
    results = {
        mode: find_shortcut(
            topology, tree, partition, point.congestion, point.block,
            seed=seed, mode=mode,
        )
        for mode in ("simulate", "direct")
    }
    assert (
        results["direct"].shortcut.edge_map
        == results["simulate"].shortcut.edge_map
    )
    assert results["direct"].good_history == results["simulate"].good_history
    assert results["direct"].iterations == results["simulate"].iterations


@given(instances(), st.integers(1, 10), st.integers(1, 6))
def test_direct_verification_counts_match_truth(instance, c, b_limit):
    """The union-find verdicts agree with the quality layer's block
    counts on connected parts: a part is good iff its true count fits."""
    topology, tree, partition = instance
    outcome = core_slow(topology, tree, partition, c)
    counts = verification_counts_direct(topology, outcome.shortcut, b_limit)
    truth = quality.block_counts(outcome.shortcut)
    for index in range(partition.size):
        if truth[index] <= b_limit:
            assert counts[index] == truth[index]
        else:
            assert counts[index] is None
    # And the full verification outcome is mode-independent.
    verdicts = {
        mode: verification(topology, outcome.shortcut, b_limit, mode=mode)
        for mode in ("simulate", "direct")
    }
    assert verdicts["direct"].counts == verdicts["simulate"].counts
    assert verdicts["direct"].good_parts == verdicts["simulate"].good_parts


@st.composite
def labelled_shortcuts(draw):
    """A random shortcut over an arbitrary label partition.

    Parts may be disconnected, nodes may be uncovered (label ``-1``),
    and each ``H_i`` is a random set of tree edges, so the components
    of one part can hold different numbers of blocks.
    """
    if draw(st.booleans()):
        side = draw(st.integers(3, 5))
        topology = generators.grid(side, side)
    else:
        topology = generators.k_tree(
            draw(st.integers(8, 20)), 2, draw(st.integers(0, 10))
        )
    # Seeded draws cover the mixed cases far better than shrink-biased
    # per-node draws, which favour one label and near-empty H_i.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_labels = draw(st.integers(1, 5))
    uncovered = draw(st.sampled_from([0.0, 0.25]))
    labels = [
        -1 if rng.random() < uncovered else rng.randrange(n_labels)
        for _ in range(topology.n)
    ]
    partition = partitions.Partition.from_labels(labels)
    tree = SpanningTree.bfs(topology, 0)
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    subgraphs = [
        [edge for edge in sorted(tree.edges) if rng.random() < density]
        for _ in range(partition.size)
    ]
    return topology, TreeRestrictedShortcut(tree, partition, subgraphs)


@settings(max_examples=60)
@given(labelled_shortcuts(), st.integers(1, 6))
def test_direct_verification_counts_equal_simulated_on_any_partition(
    case, b_limit
):
    topology, shortcut = case
    counts = {
        mode: verification(topology, shortcut, b_limit, mode=mode).counts
        for mode in ("simulate", "direct")
    }
    assert counts["direct"] == counts["simulate"]
