"""Tests for connected-components labelling."""

import random

import networkx as nx
import pytest

from repro.apps.connectivity import connected_components
from repro.core.partwise import PartwiseEngine
from repro.errors import GuaranteeViolation
from repro.graphs import generators


def _expected_labels(topology, alive):
    g = nx.Graph()
    g.add_nodes_from(range(topology.n))
    g.add_edges_from(alive)
    labels = {}
    for component in nx.connected_components(g):
        lead = min(component)
        for v in component:
            labels[v] = lead
    return labels


@pytest.mark.parametrize("use_shortcuts", [True, False])
def test_matches_networkx(grid6, use_shortcuts):
    rng = random.Random(3)
    alive = [e for e in grid6.edges if rng.random() < 0.5]
    result = connected_components(
        grid6, alive, use_shortcuts=use_shortcuts, seed=1
    )
    assert result.labels == _expected_labels(grid6, alive)


def test_all_edges_alive_single_component(grid6):
    result = connected_components(grid6, grid6.edges, seed=2)
    assert result.components == 1
    assert set(result.labels.values()) == {0}


def test_no_edges_alive_all_singletons(grid6):
    result = connected_components(grid6, [], seed=3)
    assert result.components == grid6.n
    assert all(result.labels[v] == v for v in grid6.nodes)


def test_component_count(grid6):
    rng = random.Random(9)
    alive = [e for e in grid6.edges if rng.random() < 0.3]
    result = connected_components(grid6, alive, seed=4)
    g = nx.Graph()
    g.add_nodes_from(range(grid6.n))
    g.add_edges_from(alive)
    assert result.components == nx.number_connected_components(g)


def test_variants_agree(torus5):
    rng = random.Random(5)
    alive = [e for e in torus5.edges if rng.random() < 0.4]
    with_shortcut = connected_components(torus5, alive, use_shortcuts=True, seed=6)
    without = connected_components(torus5, alive, use_shortcuts=False, seed=6)
    assert with_shortcut.labels == without.labels


def test_block_overcount_violates_theorem3(grid6, monkeypatch):
    """Each shortcut phase checks its blocks per part against ``3b``."""
    real = PartwiseEngine.blocks_per_part

    def over_counting(engine):
        counts = real(engine)
        counts[0] += 10**9
        return counts

    monkeypatch.setattr(PartwiseEngine, "blocks_per_part", over_counting)
    with pytest.raises(GuaranteeViolation, match="Theorem 3"):
        connected_components(grid6, grid6.edges, seed=2)
