"""Property-based tests for the partwise engine (Theorem 2 / Lemma 3).

The engine's distributed outputs are compared against centralized
oracles on randomly generated shortcuts — including degenerate ones
(empty subgraphs, partial coverage) that unit tests don't reach.  Every
oracle property runs on both backends; differential properties hold
the direct backend's memoized block steps, its block-supergraph flood
and its per-link Lemma 2 replays to the simulated ones.
"""

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.congest.topology import Topology
from repro.core import partwise_fast, quality
from repro.core.existence import greedy_capped_shortcut
from repro.congest.trace import RoundLedger
from repro.core.partwise import PartwiseEngine
from repro.core.partwise_fast import BACKENDS
from repro.core.quality_fast import block_components
from repro.core.shortcut import TreeRestrictedShortcut
from repro.core.tree_routing import (
    SubtreeTask,
    broadcast,
    convergecast,
    make_task,
    task_edge_congestion,
)
from repro.graphs import generators, partitions
from repro.graphs.partitions import Partition
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


@st.composite
def flood_cases(draw):
    """A shortcut, an iteration count from 0 to one past the block
    parameter (so unconverged floods are covered) and member values:
    all ``None``, one injector per part, or a random subset."""
    topology, partition, shortcut = draw(engine_instances())
    bound = max(1, quality.block_parameter(shortcut))
    iterations = draw(st.integers(0, bound + 1))
    members = sorted(v for i in range(partition.size) for v in partition.members(i))
    shape = draw(st.sampled_from(["none", "injectors", "random"]))
    if shape == "none":
        values = {v: None for v in members}
    elif shape == "injectors":
        values = {
            draw(st.sampled_from(sorted(partition.members(i)))): draw(
                st.integers(-50, 50)
            )
            for i in range(partition.size)
        }
    else:
        values = {v: draw(st.integers(-50, 50)) for v in members if draw(st.booleans())}
    return topology, shortcut, iterations, values


@given(flood_cases())
def test_direct_flood_equals_simulated(case):
    topology, shortcut, iterations, values = case
    leader_values = {v: value for v, value in values.items() if value is not None}
    runs = []
    for backend in BACKENDS:
        ledger = RoundLedger()
        engine = PartwiseEngine(
            topology, shortcut, seed=6, ledger=ledger, backend=backend
        )
        leaders, knowledge = engine.elect_leaders(iterations)
        outputs = [
            list(engine.minimum_per_part(values, iterations).items()),
            leaders,
            list(knowledge.items()),
            list(engine.broadcast_from_leaders(leader_values, iterations).items()),
        ]
        records = [(r.name, r.rounds, r.messages) for r in ledger.records]
        runs.append((outputs, records))
    assert runs[0] == runs[1]


ROUTING_FAMILIES = ["grid", "torus"] + (
    ["delaunay"] if generators.geometry_available() else []
)


def random_subtree(tree, root, size, rng):
    """A connected subtree of ``tree`` rooted at ``root``, grown to at
    most ``size`` nodes by adding random tree children."""
    nodes = {root}
    frontier = list(tree.children(root))
    while frontier and len(nodes) < size:
        v = frontier.pop(rng.randrange(len(frontier)))
        nodes.add(v)
        frontier.extend(tree.children(v))
    return nodes


@st.composite
def subtree_families(draw):
    """1-24 random connected subtrees of a BFS tree with distinct
    ``(tid, root)`` keys.  The first task is the whole tree; the second
    is rooted at one of its relays (a member with a task child, other
    than the root), the third is a singleton, and the rest mix these
    kinds with random-size subtrees, so overlaps are the rule."""
    family = draw(st.sampled_from(ROUTING_FAMILIES))
    side = draw(st.integers(3, 7))
    if family == "delaunay":
        topology = generators.delaunay(side * side, seed=draw(st.integers(0, 99)))
    else:
        topology = getattr(generators, family)(side, side)
    tree = SpanningTree.bfs(topology, draw(st.integers(0, topology.n - 1)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    tasks = {}
    kinds = ["large", "relay", "singleton", "random"]
    for index in range(draw(st.integers(1, 24))):
        kind = kinds[index] if index < 3 else rng.choice(kinds)
        root = tree.root if index == 0 else rng.randrange(topology.n)
        if kind == "relay":
            host = next(iter(tasks.values()))
            relays = [
                v
                for v in host.nodes
                if v != host.root and any(c in host.nodes for c in tree.children(v))
            ]
            root = rng.choice(relays) if relays else root
        size = {"large": topology.n, "singleton": 1}.get(
            kind, rng.randint(1, topology.n)
        )
        task = make_task(tree, rng.randrange(4), random_subtree(tree, root, size, rng))
        tasks.setdefault(task.key, task)
    return topology, tree, list(tasks.values())


@given(subtree_families())
def test_lemma2_replays_equal_simulated_routing(instance):
    topology, tree, tasks = instance
    _values, cc_run = convergecast(topology, tree, tasks, {}, "min")
    _delivered, bc_run = broadcast(topology, tree, tasks, {t.key: 1 for t in tasks})
    assert partwise_fast.convergecast_cost(tree, tasks) == (
        cc_run.rounds,
        cc_run.messages,
    )
    assert partwise_fast.broadcast_cost(tree, tasks) == (bc_run.rounds, bc_run.messages)


def test_lemma2_replays_queue_on_contended_links():
    """A path 0-1-2-3 rooted at 0 with six chains of lengths 0-2 hanging
    off node 3, and six tasks: task ``k`` runs from root ``k % 3`` down
    the path and chain ``k``.  The link between 2 and 3 carries all six
    tasks in both directions, released in different rounds (upward by
    chain length, downward by root distance), so tasks queue behind
    higher-priority ones: both passes take longer than the tallest
    task's height, the uncontended time."""
    lengths = [0, 1, 1, 2, 0, 2]
    edges = [(0, 1), (1, 2), (2, 3)]
    chains = []
    next_id = 4
    for length in lengths:
        chain = list(range(next_id, next_id + length))
        next_id += length
        edges += list(zip([3] + chain, chain))
        chains.append(chain)
    topology = Topology(next_id, edges)
    tree = SpanningTree.bfs(topology, 0)
    tasks = [
        make_task(tree, k, set(range(k % 3, 4)) | set(chain))
        for k, chain in enumerate(chains)
    ]
    tallest = max(max(tree.depth(v) for v in t.nodes) - t.root_depth for t in tasks)
    _values, cc_run = convergecast(topology, tree, tasks, {}, "min")
    _delivered, bc_run = broadcast(topology, tree, tasks, {t.key: 1 for t in tasks})
    assert partwise_fast.convergecast_cost(tree, tasks) == (
        cc_run.rounds,
        cc_run.messages,
    )
    assert partwise_fast.broadcast_cost(tree, tasks) == (bc_run.rounds, bc_run.messages)
    assert cc_run.rounds > tallest and bc_run.rounds > tallest


@st.composite
def walk_shortcuts(draw):
    """Random ``H_i ⊆ E_T`` over BFS trees of grid, torus and delaunay:
    per-node labels (disconnected parts, uncovered nodes, one forced
    singleton part), and each ``H_i`` empty, a random edge subset
    (components that miss ``P_i`` included) or drawn from a pool every
    part shares."""
    family = draw(st.sampled_from(ROUTING_FAMILIES))
    side = draw(st.integers(3, 6))
    if family == "delaunay":
        topology = generators.delaunay(side * side, seed=draw(st.integers(0, 99)))
    else:
        topology = getattr(generators, family)(side, side)
    tree = SpanningTree.bfs(topology, draw(st.integers(0, topology.n - 1)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    n_parts = rng.randint(1, max(1, topology.n // 3))
    labels = [rng.randrange(-1, n_parts) for _ in topology.nodes]
    labels[rng.randrange(topology.n)] = n_parts  # a singleton part
    partition = Partition.from_labels(labels)
    tree_edges = sorted(tree.edges)
    pool = rng.sample(tree_edges, min(len(tree_edges), 5))
    subgraphs = []
    for _ in range(partition.size):
        shape = rng.choice(["empty", "random", "shared"])
        if shape == "random":
            subgraphs.append(rng.sample(tree_edges, rng.randint(1, len(tree_edges))))
        else:
            subgraphs.append(pool if shape == "shared" else [])
    shortcut = TreeRestrictedShortcut(tree, partition, subgraphs)
    return topology, shortcut, rng.randrange(2**16)


@given(walk_shortcuts())
def test_engine_setup_equals_reference_blocks(case):
    """The engine's one-walk set-up: blocks, block_of and tasks (in
    order) equal the per-part reference block components, its Lemma 2
    ``c`` equals ``task_edge_congestion``, and its presorted replays
    equal ``convergecast_cost``/``broadcast_cost`` on the whole task set
    and on a random subset."""
    topology, shortcut, subset_seed = case
    partition, tree = shortcut.partition, shortcut.tree
    engine = PartwiseEngine(topology, shortcut, backend="direct")
    reference = [
        block
        for index in range(partition.size)
        for block in quality.block_components(shortcut, index)
    ]
    assert engine.blocks == reference
    assert engine.block_of == {
        v: block
        for block in reference
        for v in block.nodes
        if partition.labels[v] == block.part
    }
    assert list(engine.tasks.items()) == [
        (
            (block.part, block.root),
            SubtreeTask(block.part, block.root, block.root_depth, block.nodes),
        )
        for block in reference
    ]
    assert engine._congestion == task_edge_congestion(tree, engine.tasks.values())
    rng = random.Random(subset_seed)
    subset = [entry for entry in engine._schedule if rng.random() < 0.5]
    for chosen in (engine._schedule, subset):
        tasks = [task for _p, _b, task, _nodes in chosen]
        schedule = [entry[2:] for entry in chosen]
        assert partwise_fast.replay_schedule(tree, schedule, upward=True) == (
            partwise_fast.convergecast_cost(tree, tasks)
        )
        assert partwise_fast.replay_schedule(tree, schedule, upward=False) == (
            partwise_fast.broadcast_cost(tree, tasks)
        )
