"""Deterministic routing on families of subtrees (Lemma 2).

Given a depth-``D`` tree ``T`` and a family of subtrees such that every
tree edge lies in at most ``c`` subtrees, Lemma 2 gives a simple
deterministic pipelined schedule performing a convergecast or broadcast
on *all* subtrees in ``O(D + c)`` rounds: when several messages contend
for an edge, forward the one whose subtree root has the smallest depth,
breaking ties by subtree id.

These two node programs are the communication workhorse of the whole
paper: block components of a tree-restricted shortcut are subtrees of
``T``, so every part-parallel primitive (Theorem 2) and the final
routing step of CoreFast reduce to them.

A subtree task is identified on the wire by ``(tid, root)`` — two
O(log n)-bit integers — and every participating node locally knows its
children within the task and the root's depth, matching the paper's
"distributed representation" (Section 4.1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine import EngineLike
from repro.congest.simulator import RunResult, Simulator
from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.errors import ShortcutError
from repro.graphs.csr import tree_arrays
from repro.graphs.spanning_trees import SpanningTree

TaskKey = Tuple[int, int]  # (tid, root)

CC_TOKEN = "cc"
BC_TOKEN = "bc"


@dataclass(frozen=True)
class SubtreeTask:
    """One subtree of ``T`` taking part in a routing operation."""

    tid: int
    root: int
    root_depth: int
    nodes: FrozenSet[int]

    @property
    def key(self) -> TaskKey:
        return (self.tid, self.root)

    @property
    def priority(self) -> Tuple[int, int, int]:
        """Lemma 2 forwarding priority: root depth, then task id."""
        return (self.root_depth, self.tid, self.root)


def make_task(tree: SpanningTree, tid: int, nodes: Iterable[int]) -> SubtreeTask:
    """Validate that ``nodes`` induce a subtree of ``T`` and wrap them.

    The root is the unique minimum-depth node; every other member's
    tree parent must also be a member.
    """
    node_set = frozenset(nodes)
    if not node_set:
        raise ShortcutError("a subtree task needs at least one node")
    arrays = tree_arrays(tree)
    parent, depth = arrays.parent, arrays.depth
    root = min(node_set, key=lambda v: (depth[v], v))
    for v in node_set:
        if v != root and parent[v] not in node_set:
            raise ShortcutError(
                f"task {tid}: nodes do not form a connected subtree "
                f"(node {v}'s parent is missing)"
            )
    return SubtreeTask(tid=tid, root=root, root_depth=depth[root], nodes=node_set)


def task_edge_congestion(tree: SpanningTree, tasks: Iterable[SubtreeTask]) -> int:
    """Max number of tasks sharing one tree edge (Lemma 2's ``c``)."""
    load: Dict[Tuple[int, int], int] = {}
    for task in tasks:
        for v in task.nodes:
            if v == task.root:
                continue
            edge = tree.parent_edge(v)
            load[edge] = load.get(edge, 0) + 1
    return max(load.values()) if load else 0


def _combine(op: str, left: Optional[int], right: Optional[int]) -> Optional[int]:
    if left is None:
        return right
    if right is None:
        return left
    if op == "min":
        return left if left <= right else right
    if op == "max":
        return left if left >= right else right
    if op == "sum":
        return left + right
    raise ShortcutError(f"unknown combine op {op!r}")


class SubtreeConvergecastAlgorithm(NodeAlgorithm):
    """Pipelined convergecast on all subtrees at once (Lemma 2).

    Per-node inputs (installed via ``inputs``):

    * ``tree_parent`` — the node's parent in ``T`` (``None`` at the
      tree root);
    * ``cc_tasks`` — mapping ``(tid, root) -> (root_depth, n_children,
      is_root, value)`` describing the tasks the node participates in
      (``value`` may be ``None`` for relay-only members).

    Outputs: ``cc_results`` — at each task root, the combined value.
    """

    name = "subtree-convergecast"

    def __init__(self, inputs, combine: str):
        super().__init__(inputs)
        self.combine = combine

    def on_start(self, node) -> None:
        state = node.state
        state.cc_acc = {}
        state.cc_pending = {}
        state.cc_results = {}
        state.cc_heap = []
        for key, (root_depth, n_children, is_root, value) in state.cc_tasks.items():
            state.cc_acc[key] = value
            state.cc_pending[key] = n_children
            if n_children == 0:
                self._finish(node, key, root_depth, is_root)
        self._pump(node)

    def on_round(self, node, messages) -> None:
        state = node.state
        for _sender, payload in messages:
            _tag, tid, root, value = payload
            key = (tid, root)
            root_depth, _n_children, is_root, _own = state.cc_tasks[key]
            state.cc_acc[key] = _combine(self.combine, state.cc_acc[key], value)
            state.cc_pending[key] -= 1
            if state.cc_pending[key] == 0:
                self._finish(node, key, root_depth, is_root)
        self._pump(node)

    def _finish(self, node, key: TaskKey, root_depth: int, is_root: bool) -> None:
        state = node.state
        if is_root:
            state.cc_results[key] = state.cc_acc[key]
        else:
            heapq.heappush(state.cc_heap, (root_depth, key[0], key[1]))

    def _pump(self, node) -> None:
        state = node.state
        if state.cc_heap:
            _depth, tid, root = heapq.heappop(state.cc_heap)
            value = state.cc_acc[(tid, root)]
            node.send(state.tree_parent, (CC_TOKEN, tid, root, value))
            if state.cc_heap:
                node.wake_after(1)


class SubtreeBroadcastAlgorithm(NodeAlgorithm):
    """Pipelined broadcast on all subtrees at once (Lemma 2, downward).

    Per-node inputs:

    * ``bc_tasks`` — mapping ``(tid, root) -> (root_depth, children,
      initial_value)`` where ``children`` is the tuple of the node's
      task children and ``initial_value`` is the broadcast value at the
      task root (``None`` elsewhere).

    Outputs: ``bc_received`` — at every participant, the task's value.
    """

    name = "subtree-broadcast"

    def __init__(self, inputs):
        super().__init__(inputs)

    def on_start(self, node) -> None:
        state = node.state
        state.bc_received = {}
        state.bc_queues = {}
        for key, (root_depth, children, value) in state.bc_tasks.items():
            if value is not None:
                state.bc_received[key] = value
                self._enqueue(node, key, root_depth, children, value)
        self._pump(node)

    def on_round(self, node, messages) -> None:
        state = node.state
        for _sender, payload in messages:
            _tag, tid, root, value = payload
            key = (tid, root)
            root_depth, children, _initial = state.bc_tasks[key]
            if key not in state.bc_received:
                state.bc_received[key] = value
                self._enqueue(node, key, root_depth, children, value)
        self._pump(node)

    def _enqueue(self, node, key, root_depth, children, value) -> None:
        for child in children:
            queue = node.state.bc_queues.setdefault(child, [])
            heapq.heappush(queue, (root_depth, key[0], key[1], value))

    def _pump(self, node) -> None:
        more = False
        for child, queue in node.state.bc_queues.items():
            if queue:
                root_depth, tid, root, value = heapq.heappop(queue)
                node.send(child, (BC_TOKEN, tid, root, value))
                if queue:
                    more = True
        if more:
            node.wake_after(1)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


def _task_children(
    tree: SpanningTree, task: SubtreeTask
) -> Dict[int, Tuple[int, ...]]:
    children: Dict[int, List[int]] = {v: [] for v in task.nodes}
    for v in task.nodes:
        if v != task.root:
            children[tree.parent(v)].append(v)
    return {v: tuple(sorted(c)) for v, c in children.items()}


def convergecast(
    topology: Topology,
    tree: SpanningTree,
    tasks: Iterable[SubtreeTask],
    values: Mapping[TaskKey, Mapping[int, int]],
    combine: str = "min",
    *,
    seed: int = 0,
    ledger: Optional[RoundLedger] = None,
    phase_name: str = "subtree-convergecast",
    engine: EngineLike = None,
) -> Tuple[Dict[TaskKey, Optional[int]], RunResult]:
    """Run Lemma 2 convergecast over ``tasks``.

    ``values[key][v]`` is node ``v``'s contribution to task ``key``
    (nodes without an entry relay but contribute nothing).  Returns the
    per-task combined values (as computed at the task roots) and the
    simulation result.
    """
    inputs: Dict[int, Dict] = {}
    task_list = list(tasks)
    for task in task_list:
        children = _task_children(tree, task)
        task_values = values.get(task.key, {})
        for v in task.nodes:
            entry = inputs.setdefault(
                v, {"tree_parent": tree.parent(v), "cc_tasks": {}}
            )
            entry["cc_tasks"][task.key] = (
                task.root_depth,
                len(children[v]),
                v == task.root,
                task_values.get(v),
            )
    for v in topology.nodes:
        inputs.setdefault(v, {"tree_parent": tree.parent(v), "cc_tasks": {}})
    algorithm = SubtreeConvergecastAlgorithm(inputs, combine)
    result = Simulator(topology, algorithm, seed=seed, engine=engine).run()
    combined: Dict[TaskKey, Optional[int]] = {}
    for task in task_list:
        combined[task.key] = result.states[task.root].cc_results[task.key]
    if ledger is not None:
        ledger.charge(phase_name, result.rounds, result.messages)
    return combined, result


def broadcast(
    topology: Topology,
    tree: SpanningTree,
    tasks: Iterable[SubtreeTask],
    root_values: Mapping[TaskKey, int],
    *,
    seed: int = 0,
    ledger: Optional[RoundLedger] = None,
    phase_name: str = "subtree-broadcast",
    engine: EngineLike = None,
) -> Tuple[Dict[TaskKey, Dict[int, int]], RunResult]:
    """Run Lemma 2 broadcast over ``tasks``.

    ``root_values[key]`` is injected at the task root and delivered to
    every member.  Returns per-task delivery maps and the simulation
    result.
    """
    inputs: Dict[int, Dict] = {}
    task_list = list(tasks)
    for task in task_list:
        children = _task_children(tree, task)
        for v in task.nodes:
            entry = inputs.setdefault(v, {"bc_tasks": {}})
            entry["bc_tasks"][task.key] = (
                task.root_depth,
                children[v],
                root_values.get(task.key) if v == task.root else None,
            )
    for v in topology.nodes:
        inputs.setdefault(v, {"bc_tasks": {}})
    algorithm = SubtreeBroadcastAlgorithm(inputs)
    result = Simulator(topology, algorithm, seed=seed, engine=engine).run()
    delivered: Dict[TaskKey, Dict[int, int]] = {}
    for task in task_list:
        delivered[task.key] = {
            v: result.states[v].bc_received[task.key] for v in task.nodes
        }
    if ledger is not None:
        ledger.charge(phase_name, result.rounds, result.messages)
    return delivered, result
