"""Property-based tests for the partwise engine (Theorem 2 / Lemma 3).

The engine's distributed outputs are compared against centralized
oracles on randomly generated shortcuts — including degenerate ones
(empty subgraphs, partial coverage) that unit tests don't reach.  Every
oracle property runs on both backends; a differential property holds
the direct backend's memoized block steps to the simulated ones.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import quality
from repro.core.existence import greedy_capped_shortcut
from repro.congest.trace import RoundLedger
from repro.core.partwise import PartwiseEngine
from repro.core.partwise_fast import BACKENDS
from repro.core.quality_fast import block_components
from repro.graphs import generators, partitions
from repro.graphs.spanning_trees import SpanningTree

settings.register_profile(
    "repro-partwise",
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-partwise")


@st.composite
def engine_instances(draw):
    side = draw(st.integers(3, 6))
    topology = generators.grid(side, side)
    tree = SpanningTree.bfs(topology, draw(st.integers(0, topology.n - 1)))
    n_parts = draw(st.integers(1, max(1, topology.n // 4)))
    partition = partitions.voronoi(
        topology, n_parts, seed=draw(st.integers(0, 300))
    )
    cap = draw(st.integers(0, 10))
    shortcut, _ = greedy_capped_shortcut(tree, partition, cap)
    return topology, partition, shortcut


def engines(topology, shortcut, seed):
    """One fresh engine per backend over the same shortcut."""
    for backend in BACKENDS:
        yield PartwiseEngine(topology, shortcut, seed=seed, backend=backend)


@given(engine_instances())
def test_leader_election_matches_oracle(instance):
    topology, partition, shortcut = instance
    bound = max(1, quality.block_parameter(shortcut))
    for engine in engines(topology, shortcut, seed=1):
        leaders, knowledge = engine.elect_leaders(bound)
        for i in range(partition.size):
            assert leaders[i] == min(partition.members(i))
            for v in partition.members(i):
                assert knowledge[v] == leaders[i]


@given(engine_instances())
def test_count_blocks_matches_oracle(instance):
    topology, partition, shortcut = instance
    truth = quality.block_counts(shortcut)
    bound = max(1, max(truth))
    for engine in engines(topology, shortcut, seed=2):
        counts, _verdict = engine.count_blocks(bound)
        for i in range(partition.size):
            assert counts[i] == truth[i]


@given(engine_instances(), st.integers(1, 4))
def test_count_blocks_limit_semantics(instance, b_limit):
    topology, partition, shortcut = instance
    truth = quality.block_counts(shortcut)
    for engine in engines(topology, shortcut, seed=3):
        counts, _verdict = engine.count_blocks(b_limit)
        for i in range(partition.size):
            if truth[i] <= b_limit:
                assert counts[i] == truth[i]
            else:
                assert counts[i] is None


@given(engine_instances())
def test_minimum_per_part_matches_oracle(instance):
    topology, partition, shortcut = instance
    bound = max(1, quality.block_parameter(shortcut))
    for engine in engines(topology, shortcut, seed=4):
        values = {v: (v * 17) % 101 for v in engine.block_of}
        out = engine.minimum_per_part(values, bound)
        for i in range(partition.size):
            expected = min((v * 17) % 101 for v in partition.members(i))
            for v in partition.members(i):
                assert out[v] == expected


@st.composite
def block_steps(draw):
    """1-6 block steps: a combine op and a member -> value-or-None map.

    Each step draws which members carry values: none, every member of
    one block, or a random subset of all members.
    """
    topology, partition, shortcut = draw(engine_instances())
    members = sorted(v for i in range(partition.size) for v in partition.members(i))
    blocks = [
        sorted(block.nodes & partition.members(i))
        for i in range(partition.size)
        for block in block_components(shortcut, i)
    ]
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        combine = draw(st.sampled_from(["min", "max", "sum"]))
        shape = draw(st.sampled_from(["none", "one", "random"]))
        if shape == "none":
            live = set()
        elif shape == "one":
            live = set(draw(st.sampled_from(blocks)))
        else:
            live = {v for v in members if draw(st.booleans())}
        values = {
            v: draw(st.integers(-50, 50)) if v in live else None for v in members
        }
        steps.append((combine, values))
    return topology, shortcut, steps


@given(block_steps())
def test_direct_block_steps_equal_simulated(instance):
    topology, shortcut, steps = instance
    runs = []
    for backend in BACKENDS:
        ledger = RoundLedger()
        engine = PartwiseEngine(
            topology, shortcut, seed=5, ledger=ledger, backend=backend
        )
        outputs = [engine.block_aggregate(values, combine) for combine, values in steps]
        records = [(r.name, r.rounds, r.messages) for r in ledger.records]
        runs.append((outputs, records))
    assert runs[0] == runs[1]
