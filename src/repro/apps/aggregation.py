"""Partwise aggregation on top of tree-restricted shortcuts.

The primitives distributed optimization algorithms actually call
(Section 1.2: "compute a (typically simple) function for each of the
parts in isolation"): per-part minimum / maximum / sum, and the
Borůvka workhorse — the minimum-weight outgoing edge of every part —
each in ``O(b (D + c))`` rounds via Theorem 2 routing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.apps.encoding import decode_edge_candidate, encode_edge_candidate
from repro.congest.algorithm import NodeAlgorithm
from repro.congest.engine import EngineLike
from repro.congest.simulator import Simulator
from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.core.partwise import PartwiseEngine
from repro.core.shortcut import TreeRestrictedShortcut

LABEL_TOKEN = "lbl"


class NeighborLabelExchangeAlgorithm(NodeAlgorithm):
    """One round: every node learns every neighbor's label.

    Per-node inputs: ``label`` (any small int, or ``None`` to send a
    ``-1`` placeholder).  Outputs: ``neighbor_labels`` — mapping
    neighbor -> label.
    """

    name = "neighbor-label-exchange"

    def on_start(self, node) -> None:
        node.state.neighbor_labels = {}
        label = node.state.label
        node.broadcast((LABEL_TOKEN, -1 if label is None else label))

    def on_round(self, node, messages) -> None:
        for sender, payload in messages:
            value = payload[1]
            node.state.neighbor_labels[sender] = None if value == -1 else value


def exchange_labels(
    topology: Topology,
    labels: Dict[int, Optional[int]],
    *,
    seed: int = 0,
    ledger: Optional[RoundLedger] = None,
    engine: EngineLike = None,
    backend: Optional[str] = None,
) -> Dict[int, Dict[int, Optional[int]]]:
    """Run one neighbor-label exchange round over all edges.

    ``backend="direct"`` skips the simulation: the exchange is one
    broadcast round of exactly ``2m`` messages, so the direct twin
    reads the labels off the CSR arrays and charges the identical cost.
    """
    from repro.core.partwise_fast import neighbor_labels_direct, resolve_backend

    if resolve_backend(backend) == "direct":
        neighbor_labels, rounds, messages = neighbor_labels_direct(topology, labels)
        if ledger is not None:
            ledger.charge("label-exchange", rounds, messages)
        return neighbor_labels
    inputs = {v: {"label": labels.get(v)} for v in topology.nodes}
    result = Simulator(
        topology, NeighborLabelExchangeAlgorithm(inputs), seed=seed,
        engine=engine,
    ).run()
    if ledger is not None:
        ledger.charge("label-exchange", result.rounds, result.messages)
    return {v: result.states[v].neighbor_labels for v in topology.nodes}


def aggregate_min(
    engine: PartwiseEngine, values: Dict[int, Optional[int]], b_bound: int
) -> Dict[int, Optional[int]]:
    """Per-part minimum, known to every part member (Theorem 2 ii+iii)."""
    return engine.minimum_per_part(values, b_bound)


def aggregate_max(
    engine: PartwiseEngine, values: Dict[int, Optional[int]], b_bound: int
) -> Dict[int, Optional[int]]:
    """Per-part maximum (negate-and-min through the same machinery)."""
    shifted = {
        v: (-values[v] if values.get(v) is not None else None) for v in values
    }
    result = engine.minimum_per_part(shifted, b_bound)
    return {v: (-r if r is not None else None) for v, r in result.items()}


def aggregate_sum(
    engine: PartwiseEngine, values: Dict[int, Optional[int]], b_bound: int
) -> Dict[int, Optional[int]]:
    """Per-part sum, delivered to the part's supergraph-BFS root.

    Uses the Lemma 3 pipeline with caller values instead of unit block
    counts; the per-part totals are then re-broadcast by the count
    protocol's verdict stage.
    """
    per_part, _verdict = engine.count_blocks(b_bound, values=values)
    out: Dict[int, Optional[int]] = {}
    for v in engine.block_of:
        part = engine.partition.part_of(v)
        out[v] = per_part.get(part)
    return out


def ranked_neighbors(topology: Topology) -> List[List[int]]:
    """Each node's neighbour ids sorted by ``(weight, id)``, cached per
    weight map: weighted twins share one kernel cache, not weights."""
    entry = topology._kernels.get("ranked_neighbors")
    if entry is None or entry[0] is not topology._weights:
        ranked = [
            sorted(topology.neighbors(v), key=lambda w, v=v: (topology.weight(v, w), w))
            for v in topology.nodes
        ]
        entry = topology._kernels["ranked_neighbors"] = (topology._weights, ranked)
    return entry[1]


def min_outgoing_edges(
    topology: Topology,
    engine: PartwiseEngine,
    b_bound: int,
    *,
    labels: Optional[Dict[int, Optional[int]]] = None,
    seed: int = 0,
) -> Tuple[
    Dict[int, Optional[Tuple[int, int, int]]],
    Dict[int, Dict[int, Optional[int]]],
]:
    """Minimum-weight outgoing edge of every part (Borůvka's primitive).

    Every node learns its part's globally minimum ``(weight, u, v)``
    outgoing edge (``None`` if the part has no outgoing edge — e.g. it
    spans the whole graph).  ``labels`` defaults to part ids.  Weight
    ties are broken by the lexicographic ``(u, v)`` encoding so the
    answer is unique.

    Returns ``(per-node minimum edge, per-node neighbor labels)`` — the
    neighbor labels come from the exchange round and are reused by
    Borůvka's merge logic.
    """
    partition = engine.partition
    if labels is None:
        labels = {v: partition.part_of(v) for v in topology.nodes}
    neighbor_labels = exchange_labels(
        topology, labels, seed=seed, ledger=engine.ledger,
        backend=engine.backend,
    )
    # For a fixed v, (weight, id) order is the order of the encoded
    # candidates: the first neighbour heard in another part wins.
    ranked, weight, n = ranked_neighbors(topology), topology.weight, topology.n
    candidates: Dict[int, Optional[int]] = {}
    for v in topology.nodes:
        own = labels.get(v)
        if own is None:
            continue
        heard = neighbor_labels[v]
        best: Optional[int] = None
        for w in ranked[v]:
            if heard.get(w) != own:
                best = encode_edge_candidate(weight(v, w), v, w, n)
                break
        candidates[v] = best
    flooded = engine.minimum_per_part(candidates, b_bound)
    decoded: Dict[Optional[int], Optional[Tuple[int, int, int]]] = {None: None}
    out: Dict[int, Optional[Tuple[int, int, int]]] = {}
    for v in engine.block_of:
        code = flooded.get(v)
        if code not in decoded:  # one decode per part
            decoded[code] = decode_edge_candidate(code, n)
        out[v] = decoded[code]
    return out, neighbor_labels
