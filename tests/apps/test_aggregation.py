"""Tests for partwise aggregation primitives."""

import pytest

from repro.apps.aggregation import (
    aggregate_max,
    aggregate_min,
    aggregate_sum,
    exchange_labels,
    min_outgoing_edges,
)
from repro.core import quality
from repro.core.core_slow import core_slow
from repro.core.existence import best_certified
from repro.core.partwise import PartwiseEngine


@pytest.fixture
def setup(grid6, grid6_tree, grid6_voronoi):
    point = best_certified(grid6_tree, grid6_voronoi)
    outcome = core_slow(grid6, grid6_tree, grid6_voronoi, point.congestion)
    engine = PartwiseEngine(grid6, outcome.shortcut, seed=3)
    b = max(1, quality.block_parameter(outcome.shortcut))
    return grid6, grid6_voronoi, engine, b


def test_exchange_labels_symmetric(grid6):
    labels = {v: v % 4 for v in grid6.nodes}
    neighbor_labels = exchange_labels(grid6, labels)
    for v in grid6.nodes:
        for w in grid6.neighbors(v):
            assert neighbor_labels[v][w] == labels[w]


def test_exchange_labels_none_as_placeholder(grid6):
    labels = {v: (None if v == 0 else 1) for v in grid6.nodes}
    neighbor_labels = exchange_labels(grid6, labels)
    assert neighbor_labels[1][0] is None


def test_aggregate_min(setup):
    _t, partition, engine, b = setup
    values = {v: 100 - v for v in engine.block_of}
    out = aggregate_min(engine, values, b)
    for i in range(partition.size):
        expected = min(100 - v for v in partition.members(i))
        assert all(out[v] == expected for v in partition.members(i))


def test_aggregate_max(setup):
    _t, partition, engine, b = setup
    values = {v: v for v in engine.block_of}
    out = aggregate_max(engine, values, b)
    for i in range(partition.size):
        expected = max(partition.members(i))
        assert all(out[v] == expected for v in partition.members(i))


def test_aggregate_sum(setup):
    _t, partition, engine, b = setup
    values = {v: 2 for v in engine.block_of}
    out = aggregate_sum(engine, values, b)
    for i in range(partition.size):
        expected = 2 * len(partition.members(i))
        assert all(out[v] == expected for v in partition.members(i))


def test_min_outgoing_edges_correct(setup):
    topology, partition, engine, b = setup
    weighted = topology.with_weights(
        {edge: 1 + (edge[0] * 7 + edge[1] * 13) % 97 for edge in topology.edges}
    )
    out, _nbr = min_outgoing_edges(weighted, engine, b)
    for i in range(partition.size):
        members = partition.members(i)
        candidates = []
        for u in members:
            for w in weighted.neighbors(u):
                if partition.part_of(w) != i:
                    candidates.append((weighted.weight(u, w), u, w))
        expected = min(candidates)
        for v in members:
            assert out[v] == expected


def test_min_outgoing_none_for_spanning_part(grid6, grid6_tree):
    from repro.graphs.partitions import whole

    partition = whole(grid6)
    from repro.core.existence import best_certified
    from repro.core.core_slow import core_slow

    point = best_certified(grid6_tree, partition)
    outcome = core_slow(grid6, grid6_tree, partition, point.congestion)
    engine = PartwiseEngine(grid6, outcome.shortcut, seed=4)
    out, _nbr = min_outgoing_edges(grid6, engine, 1)
    assert all(value is None for value in out.values())


def test_min_outgoing_respects_custom_labels(setup):
    topology, partition, engine, b = setup
    # Pretend two parts merged: same label -> edges between them are
    # no longer outgoing.
    labels = {v: partition.part_of(v) for v in topology.nodes}
    merged = {v: (0 if labels[v] in (0, 1) else labels[v]) for v in topology.nodes}
    out, _nbr = min_outgoing_edges(topology, engine, b, labels=merged)
    for v in engine.block_of:
        edge = out[v]
        if edge is not None:
            _w, a, bnode = edge
            assert merged[a] != merged[bnode]


@pytest.mark.parametrize("backend", ["simulate", "direct"])
def test_ranked_candidate_scan_equals_brute_force(grid6, grid6_tree, backend):
    """Each node's candidate — its first neighbour in ``(weight, id)``
    order heard with another label — equals the brute-force minimum of
    ``encode_edge_candidate`` over every such neighbour.  Weights
    repeat (1..3), some labels are ``None``, and weighted twins of one
    topology (which share its kernel cache) each get their own
    ranking."""
    import random

    from repro.apps.encoding import encode_edge_candidate
    from repro.core.shortcut import TreeRestrictedShortcut
    from repro.graphs.partitions import voronoi

    partition = voronoi(grid6, 6, seed=3)
    engine_shortcut = TreeRestrictedShortcut.empty(grid6_tree, partition)
    for seed in range(3):
        rng = random.Random(seed)
        weighted = grid6.with_weights({e: rng.randint(1, 3) for e in grid6.edges})
        labels = {v: rng.choice([None, 0, 1, 2]) for v in grid6.nodes}
        engine = PartwiseEngine(weighted, engine_shortcut, seed=1, backend=backend)
        seen = []
        flood = engine.minimum_per_part
        engine.minimum_per_part = lambda values, b: seen.append(values) or flood(values, b)
        min_outgoing_edges(weighted, engine, len(partition.members(0)), labels=labels)
        expected = {}
        for v, own in labels.items():
            if own is None:
                continue
            codes = [
                encode_edge_candidate(weighted.weight(v, w), v, w, weighted.n)
                for w in weighted.neighbors(v)
                if labels[w] != own
            ]
            expected[v] = min(codes, default=None)
        assert seen == [expected]
