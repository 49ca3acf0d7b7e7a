"""Connected-components labelling over a designated edge subset.

The "connectivity verification" application from the Ω̃(√n + D) lower
bound literature: given a subset of *alive* edges, label every node
with the minimum node id of its alive-component.  The components are
connected subgraphs of ``G``, so they are valid parts — and merging
them Borůvka-style rides on exactly the same shortcut primitives as
the MST (minus the weights).

Both variants are provided: shortcut-accelerated (per-phase
FindShortcut + Theorem 2 aggregation) and intra-fragment-only (the
baseline whose cost scales with component diameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.apps.aggregation import exchange_labels, min_outgoing_edges
from repro.apps.encoding import decode_edge_candidate, encode_edge_candidate
from repro.apps.fragment_comm import fragment_aggregate
from repro.congest.engine import engine_parameter
from repro.congest.randomness import coin, mix
from repro.congest.topology import Edge, Topology, canonical_edge
from repro.congest.trace import RoundLedger
from repro.core.doubling import find_shortcut_doubling
from repro.core.partwise import PartwiseEngine
from repro.core.partwise_fast import (
    backend_parameter,
    bfs_and_shared_randomness,
    get_default_backend,
)
from repro.errors import ReproError
from repro.graphs.partitions import Partition

MERGE_COIN_SALT = 0xC0C0


@dataclass(frozen=True)
class ConnectivityResult:
    """Per-node component labels plus round accounting.

    ``components`` counts the *alive* components (the answer);
    ``graph_components`` counts the connected components of the
    underlying topology itself — ``1`` for the ordinary connected case.
    On a disconnected topology the algorithm runs independently inside
    every graph component (disjoint CONGEST networks execute
    concurrently), so the ledger and phase count are the slowest
    component's — the makespan.
    """

    labels: Dict[int, int]
    components: int
    phases: int
    ledger: RoundLedger
    graph_components: int = 1

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def _alive_set(alive_edges: Iterable[Tuple[int, int]]) -> FrozenSet[Edge]:
    return frozenset(canonical_edge(u, v) for u, v in alive_edges)


def _min_alive_candidates(
    topology: Topology,
    labels: Dict[int, int],
    alive: FrozenSet[Edge],
    neighbor_labels,
) -> Dict[int, Optional[int]]:
    candidates: Dict[int, Optional[int]] = {}
    for v in topology.nodes:
        best = None
        for w in topology.neighbors(v):
            if canonical_edge(v, w) not in alive:
                continue
            if neighbor_labels[v].get(w) == labels[v]:
                continue
            code = encode_edge_candidate(0, v, w, topology.n)
            if best is None or code < best:
                best = code
        candidates[v] = best
    return candidates


@engine_parameter
@backend_parameter
def connected_components(
    topology: Topology,
    alive_edges: Iterable[Tuple[int, int]],
    *,
    use_shortcuts: bool = True,
    seed: int = 0,
    max_phases: Optional[int] = None,
    construct_mode: Optional[str] = None,
) -> ConnectivityResult:
    """Label the components of the alive subgraph.

    With ``use_shortcuts`` the per-phase fragment aggregation runs over
    tree-restricted shortcuts (Appendix A doubling, no parameter
    knowledge); otherwise it floods within fragments only.
    ``construct_mode`` selects the construction kernels for the
    doubling searches; the ``backend=`` keyword (injected by
    :func:`~repro.core.partwise_fast.backend_parameter`) selects the
    simulate/direct partwise backend for every aggregation.

    A disconnected topology is first-class: the labelling runs per
    graph component and the result carries ``graph_components`` (see
    :class:`ConnectivityResult`).
    """
    n = topology.n
    backend = get_default_backend()
    alive = _alive_set(alive_edges)
    if not topology.is_connected:
        return _components_per_piece(
            topology,
            alive,
            use_shortcuts=use_shortcuts,
            seed=seed,
            max_phases=max_phases,
            construct_mode=construct_mode,
        )
    if max_phases is None:
        max_phases = 8 * max(1, math.ceil(math.log2(n + 1))) + 8
    ledger = RoundLedger()
    tree, shared_seed = bfs_and_shared_randomness(topology, seed, ledger, backend)

    labels = {v: v for v in topology.nodes}
    phase = 0
    while True:
        phase += 1
        if phase > max_phases:
            raise ReproError(f"components did not converge in {max_phases} phases")
        neighbor_labels = exchange_labels(
            topology, labels, seed=mix(seed, phase, 1), ledger=ledger,
            backend=backend,
        )
        candidates = _min_alive_candidates(topology, labels, alive, neighbor_labels)
        if use_shortcuts:
            partition = Partition.from_labels([labels[v] for v in topology.nodes])
            outcome = find_shortcut_doubling(
                topology, tree, partition,
                seed=mix(seed, phase, 2),
                shared_seed=mix(shared_seed, phase),
                ledger=ledger,
                mode=construct_mode,
            )
            engine = PartwiseEngine(
                topology, outcome.result.shortcut,
                seed=mix(seed, phase, 3), ledger=ledger,
            )
            b_bound = 3 * outcome.result.b
            engine.check_block_bound(b_bound)
            minima = engine.minimum_per_part(candidates, b_bound)
        else:
            minima = fragment_aggregate(
                topology, labels, candidates, "min",
                seed=mix(seed, phase, 4), ledger=ledger,
                phase_name=f"components#{phase}/min",
                backend=backend,
            )

        injections: Dict[int, Optional[int]] = {}
        merges = 0
        for v in topology.nodes:
            code = minima.get(v)
            if code is None:
                continue
            _zero, u, w = decode_edge_candidate(code, n)
            if u != v:
                continue
            own_label = labels[u]
            other_label = neighbor_labels[u].get(w)
            own_head = coin(shared_seed, own_label, MERGE_COIN_SALT, phase) < 0.5
            other_head = coin(shared_seed, other_label, MERGE_COIN_SALT, phase) < 0.5
            if not own_head and other_head:
                injections[u] = other_label
                merges += 1
        if merges == 0 and all(minima.get(v) is None for v in topology.nodes):
            phase -= 1
            break
        if use_shortcuts:
            adopted = engine.broadcast_from_leaders(injections, b_bound)
        else:
            adopted = fragment_aggregate(
                topology, labels, injections, "min",
                seed=mix(seed, phase, 5), ledger=ledger,
                phase_name=f"components#{phase}/adopt",
                backend=backend,
            )
        for v in topology.nodes:
            new_label = adopted.get(v)
            if new_label is not None:
                labels[v] = new_label
        ledger.charge_phase("components/termination-check", 2 * tree.height + 1)

    # Canonicalise: every component label becomes its minimum node id.
    canonical: Dict[int, int] = {}
    if use_shortcuts:
        partition = Partition.from_labels([labels[v] for v in topology.nodes])
        outcome = find_shortcut_doubling(
            topology, tree, partition,
            seed=mix(seed, 7777), shared_seed=shared_seed, ledger=ledger,
            mode=construct_mode,
        )
        engine = PartwiseEngine(
            topology, outcome.result.shortcut,
            seed=mix(seed, 7778), ledger=ledger,
        )
        engine.check_block_bound(3 * outcome.result.b)
        minima = engine.minimum_per_part(
            {v: v for v in topology.nodes}, 3 * outcome.result.b
        )
        canonical = {v: minima[v] for v in topology.nodes}
    else:
        minima = fragment_aggregate(
            topology, labels, {v: v for v in topology.nodes}, "min",
            seed=mix(seed, 7779), ledger=ledger,
            phase_name="components/canonicalise",
            backend=backend,
        )
        canonical = {v: minima[v] for v in topology.nodes}
    return ConnectivityResult(
        labels=canonical,
        components=len(set(canonical.values())),
        phases=phase,
        ledger=ledger,
    )


def _components_per_piece(
    topology: Topology,
    alive: FrozenSet[Edge],
    *,
    use_shortcuts: bool,
    seed: int,
    max_phases: Optional[int],
    construct_mode: Optional[str],
) -> ConnectivityResult:
    """Components labelling on a disconnected topology.

    Each graph component is a disjoint CONGEST network; the labelling
    runs independently (and conceptually concurrently) inside each one,
    with alive edges and the resulting minimum-id labels mapped through
    the component's local-to-global node table.  The mapping preserves
    label semantics because it is monotone: a component's local minimum
    maps to the global minimum of the same alive-component.  The merged
    ledger/phase count is the slowest component's — the makespan.
    """
    from repro.congest.topology import component_subtopologies

    labels: Dict[int, int] = {}
    total = 0
    slowest: Optional[ConnectivityResult] = None
    pieces = component_subtopologies(topology)
    for index, (sub, nodes) in enumerate(pieces):
        if sub.n <= 1:
            labels[nodes[0]] = nodes[0]
            total += 1
            continue
        local = {v: i for i, v in enumerate(nodes)}
        sub_alive = [
            (local[u], local[v]) for u, v in alive if u in local
        ]
        result = connected_components(
            sub,
            sub_alive,
            use_shortcuts=use_shortcuts,
            seed=mix(seed, index),
            max_phases=max_phases,
            construct_mode=construct_mode,
        )
        for v, label in result.labels.items():
            labels[nodes[v]] = nodes[label]
        total += result.components
        if slowest is None or result.rounds > slowest.rounds:
            slowest = result
    return ConnectivityResult(
        labels=labels,
        components=total,
        phases=slowest.phases if slowest is not None else 0,
        ledger=slowest.ledger if slowest is not None else RoundLedger(),
        graph_components=len(pieces),
    )
