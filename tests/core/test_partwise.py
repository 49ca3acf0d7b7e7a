"""Tests for the Theorem 2 / Lemma 3 partwise engine."""

import pytest

from repro.congest.trace import RoundLedger
from repro.core import quality
from repro.core.core_slow import core_slow
from repro.core.existence import best_certified
from repro.core.partwise import PartwiseEngine
from repro.errors import GuaranteeViolation


@pytest.fixture
def engine_setup(grid6, grid6_tree, grid6_voronoi):
    point = best_certified(grid6_tree, grid6_voronoi)
    outcome = core_slow(grid6, grid6_tree, grid6_voronoi, point.congestion, seed=3)
    ledger = RoundLedger()
    engine = PartwiseEngine(grid6, outcome.shortcut, seed=3, ledger=ledger)
    b = max(1, quality.block_parameter(outcome.shortcut))
    return grid6, grid6_voronoi, outcome.shortcut, engine, b, ledger


def test_every_member_has_a_block(engine_setup):
    _t, partition, _s, engine, _b, _l = engine_setup
    for i in range(partition.size):
        for v in partition.members(i):
            assert v in engine.block_of
            assert engine.block_of[v].part == i


def test_block_aggregate_min(engine_setup):
    topology, partition, shortcut, engine, _b, _l = engine_setup
    values = {v: v for v in engine.block_of}
    out = engine.block_aggregate(values, "min")
    for v, block in engine.block_of.items():
        members = block.nodes & partition.members(block.part)
        assert out[v] == min(members)


def test_block_aggregate_sum(engine_setup):
    topology, partition, _s, engine, _b, _l = engine_setup
    values = {v: 1 for v in engine.block_of}
    out = engine.block_aggregate(values, "sum")
    for v, block in engine.block_of.items():
        members = block.nodes & partition.members(block.part)
        assert out[v] == len(members)


def test_exchange_round_trip(engine_setup):
    topology, partition, _s, engine, _b, _l = engine_setup
    payloads = {v: (v,) for v in engine.block_of}
    received = engine.exchange(payloads)
    for v in engine.block_of:
        got = {sender for sender, _payload in received[v]}
        expected = set(engine.part_neighbors[v])
        assert got == expected


def test_minimum_per_part(engine_setup):
    _t, partition, _s, engine, b, _l = engine_setup
    values = {v: v * 3 for v in engine.block_of}
    out = engine.minimum_per_part(values, b)
    for i in range(partition.size):
        expected = min(v * 3 for v in partition.members(i))
        for v in partition.members(i):
            assert out[v] == expected


def test_elect_leaders(engine_setup):
    _t, partition, _s, engine, b, _l = engine_setup
    leaders, knowledge = engine.elect_leaders(b)
    for i in range(partition.size):
        assert leaders[i] == min(partition.members(i))
        for v in partition.members(i):
            assert knowledge[v] == leaders[i]


def test_broadcast_from_leaders(engine_setup):
    _t, partition, _s, engine, b, _l = engine_setup
    injections = {min(partition.members(i)): 900 + i for i in range(partition.size)}
    out = engine.broadcast_from_leaders(injections, b)
    for i in range(partition.size):
        for v in partition.members(i):
            assert out[v] == 900 + i


def test_count_blocks_exact(engine_setup):
    _t, partition, shortcut, engine, b, _l = engine_setup
    counts, verdict = engine.count_blocks(b)
    truth = quality.block_counts(shortcut)
    for i in range(partition.size):
        assert counts[i] == truth[i]
        for v in partition.members(i):
            assert verdict.get(v) == truth[i]


def test_count_blocks_limit_rejects(engine_setup):
    _t, partition, shortcut, engine, _b, _l = engine_setup
    truth = quality.block_counts(shortcut)
    counts, _verdict = engine.count_blocks(1)
    for i in range(partition.size):
        assert counts[i] == (truth[i] if truth[i] <= 1 else None)


def test_count_blocks_zero_limit(engine_setup):
    _t, partition, _s, engine, _b, _l = engine_setup
    counts, _verdict = engine.count_blocks(0)
    assert all(count is None for count in counts.values())


def test_ledger_records_costs(engine_setup):
    _t, _p, _s, engine, b, ledger = engine_setup
    before = ledger.total_rounds
    engine.elect_leaders(b)
    assert ledger.total_rounds > before


def test_check_block_bound(engine_setup):
    _t, partition, shortcut, engine, b, _l = engine_setup
    assert engine.blocks_per_part() == dict(enumerate(quality.block_counts(shortcut)))
    engine.check_block_bound(b)
    with pytest.raises(GuaranteeViolation, match="Theorem 3"):
        engine.check_block_bound(b - 1)


def test_part_neighbor_scan_is_hoisted_across_engines(engine_setup):
    """The label-dependent neighbor scan is computed once per
    (topology, partition) and shared by every engine over it — while
    each engine still charges its own discovery round."""
    topology, _p, shortcut, engine, _b, _l = engine_setup
    from repro.congest.trace import RoundLedger

    ledger = RoundLedger()
    second = PartwiseEngine(topology, shortcut, seed=99, ledger=ledger)
    assert second.part_neighbors is engine.part_neighbors
    assert [r.name for r in ledger.records] == ["partwise/neighbor-discovery"]


def test_empty_shortcut_engine(grid6, grid6_tree, grid6_voronoi):
    """With H_i = empty, every node is a singleton block; the engine
    must still work (supergraph = the part itself)."""
    from repro.core.shortcut import TreeRestrictedShortcut

    shortcut = TreeRestrictedShortcut.empty(grid6_tree, grid6_voronoi)
    engine = PartwiseEngine(grid6, shortcut, seed=5)
    # Supergraph diameter can be as large as the part diameter.
    iterations = max(
        grid6_voronoi.part_diameters(grid6)
    ) + 1
    leaders, _ = engine.elect_leaders(iterations)
    for i in range(grid6_voronoi.size):
        assert leaders[i] == min(grid6_voronoi.members(i))


def test_direct_engine_replays_each_schedule_once(engine_setup, monkeypatch):
    """Lemma 2's schedule ignores the values, so a direct engine replays
    the convergecast once and each distinct broadcast task set once.

    The direct flood works on blocks and never calls
    ``block_aggregate``: its block steps are read off the ledger's
    ``partwise/broadcast#k`` records and its replayed task sets off the
    ``replay_schedule`` spy.  The per-step active sets come from a
    simulated engine, whose ``block_aggregate`` runs every step."""
    from repro.core import partwise_fast

    topology, partition, shortcut, _engine, b, _l = engine_setup
    real_broadcast = partwise_fast.broadcast_cost
    real_replay = partwise_fast.replay_schedule
    replays = {"convergecast": [], "broadcast": []}

    def spy(tree, schedule, upward):
        log = replays["convergecast" if upward else "broadcast"]
        log.append(frozenset(task.key for task, _members in schedule))
        return real_replay(tree, schedule, upward)

    monkeypatch.setattr(partwise_fast, "replay_schedule", spy)
    ledgers = {"simulate": RoundLedger(), "direct": RoundLedger()}
    engines = {
        backend: PartwiseEngine(
            topology, shortcut, seed=3, ledger=ledger, backend=backend
        )
        for backend, ledger in ledgers.items()
    }
    simulated = engines["simulate"]
    active_sets = []
    step = simulated.block_aggregate

    def observed(values, combine="min"):
        out = step(values, combine)
        active_sets.append(
            frozenset(
                (simulated.block_of[v].part, simulated.block_of[v].root)
                for v, value in out.items()
                if value is not None
            )
        )
        return out

    simulated.block_aggregate = observed
    # A value injected in part 0 alone keeps the other parts' blocks
    # idle; the second call has every block active from the start.
    for engine in engines.values():
        engine.minimum_per_part({min(partition.members(0)): 7}, b + 3)
        engine.minimum_per_part({v: v for v in engine.block_of}, b + 3)
    assert replays["convergecast"] == [frozenset(engines["direct"].tasks)]
    steps = [
        r for r in ledgers["direct"].records if r.name.startswith("partwise/broadcast#")
    ]
    assert len(steps) == len(active_sets) == 2 * (b + 4)
    assert len(replays["broadcast"]) == len(set(active_sets)) < len(active_sets)
    assert set(replays["broadcast"]) == set(active_sets)
    tasks = engines["direct"].tasks
    for record, active in zip(steps, active_sets):
        cost = real_broadcast(shortcut.tree, [tasks[k] for k in active])
        assert (record.rounds, record.messages) == cost
