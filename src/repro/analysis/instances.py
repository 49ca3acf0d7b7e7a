"""Content-addressed instance cache for the experiment grids.

The ``run_eXX`` runners walk grids whose cells repeat the same handful
of (topology, spanning tree, partition) triples — and, with
process-parallel fan-out, used to pickle whole ``Topology`` objects to
every worker.  This module replaces both costs with *specs*:

* an :class:`InstanceSpec` is a small frozen value naming a registered
  builder family plus its parameters (weights, partition, BFS root) —
  cheap to hash, compare, and pickle;
* :func:`hydrate` turns a spec into a fully-built :class:`Instance`
  through a **per-process content-addressed cache**: equal specs return
  the *same* hydrated object, and the underlying topology / tree are
  themselves cached one level down, so two specs sharing a topology
  (e.g. ``grid/voronoi`` and ``grid/rows``) build it once.

Workers therefore receive a compact spec in their task payload and
hydrate it locally — the first task on each worker process builds the
instance through the array-native fast paths
(:meth:`Topology.from_arrays` generators,
:func:`repro.graphs.csr.bfs_spanning_tree`,
:meth:`Partition.from_dense_labels`), and every later task on that
worker is a dictionary hit.  The differential suite
(``tests/graphs/test_fastpath_equivalence.py``,
``tests/analysis/test_instances.py``) pins hydrated instances exactly
equal to reference-constructed ones.

Builders are registered by name so specs stay picklable and
content-addressable; register new families with
:func:`register_topology`, :func:`register_partition`, and
:func:`register_weights`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.congest.topology import Topology
from repro.errors import ReproError
from repro.graphs import generators, partitions, weights as weight_mod
from repro.graphs.csr import bfs_spanning_tree
from repro.graphs.hard_instances import peleg_rubinovich
from repro.graphs.spanning_trees import SpanningTree

Params = Tuple[object, ...]


@dataclass(frozen=True)
class InstanceSpec:
    """A content-addressed description of one experiment instance.

    Attributes
    ----------
    family:
        Registered topology builder name (``"grid"``, ``"torus"``,
        ``"hub"``, ``"genus_chain"``, ``"k_tree"``,
        ``"peleg_rubinovich"``, ``"delaunay"``, ...).
    params:
        Positional arguments of the topology builder.
    weights:
        Optional ``(name, *args)`` of a registered weight assignment
        applied to the topology (``("unique", seed)``,
        ``("hub_adversarial", n_cycle, seed)``).
    partition:
        Optional ``(name, *args)`` of a registered partition builder
        run against the (weighted) topology.
    tree_root:
        Root of the BFS spanning tree built for the instance.
    """

    family: str
    params: Params
    weights: Optional[Params] = None
    partition: Optional[Params] = None
    tree_root: int = 0


@dataclass(frozen=True)
class Instance:
    """A hydrated spec: the structures every runner consumes."""

    spec: InstanceSpec
    topology: Topology
    tree: SpanningTree
    partition: Optional[partitions.Partition]


# ----------------------------------------------------------------------
# Builder registries (names keep specs picklable and content-addressed)
# ----------------------------------------------------------------------

TOPOLOGY_BUILDERS: Dict[str, Callable[..., Topology]] = {}
PARTITION_BUILDERS: Dict[str, Callable[..., partitions.Partition]] = {}
WEIGHT_BUILDERS: Dict[str, Callable[..., Topology]] = {}


def register_topology(name: str, builder: Callable[..., Topology]) -> None:
    """Register a topology builder usable as a spec ``family``."""
    TOPOLOGY_BUILDERS[name] = builder


def register_partition(
    name: str, builder: Callable[..., partitions.Partition]
) -> None:
    """Register a partition builder; it receives ``(topology, *args)``."""
    PARTITION_BUILDERS[name] = builder


def register_weights(name: str, builder: Callable[..., Topology]) -> None:
    """Register a weight assignment; it receives ``(topology, *args)``
    and returns the weighted twin."""
    WEIGHT_BUILDERS[name] = builder


register_topology("grid", generators.grid)
register_topology("torus", generators.torus)
register_topology("genus_chain", generators.genus_chain)
register_topology("hub", generators.cycle_with_hub)
register_topology("k_tree", generators.k_tree)
register_topology("delaunay", generators.delaunay)
register_topology(
    "peleg_rubinovich",
    lambda *params: peleg_rubinovich(*params).topology,
)

register_partition("voronoi", partitions.voronoi)
register_partition("rows", lambda topology, rows, cols: partitions.grid_rows(rows, cols))
register_partition(
    "bands",
    lambda topology, rows, cols, height: partitions.grid_bands(rows, cols, height),
)
register_partition(
    "arcs",
    lambda topology, n, n_parts, extra: partitions.cycle_arcs(
        n, n_parts, extra_nodes=extra
    ),
)
register_partition("singletons", lambda topology: partitions.singletons(topology))

register_weights("unique", weight_mod.weighted)
register_weights("hub_adversarial", weight_mod.hub_adversarial_weights)


# ----------------------------------------------------------------------
# Reference twins (differential baseline for E18 and the test suite)
# ----------------------------------------------------------------------

_REFERENCE_TOPOLOGIES: Dict[str, Callable[..., Topology]] = {
    "grid": lambda *p: generators.grid(*p, fast=False),
    "torus": lambda *p: generators.torus(*p, fast=False),
    "genus_chain": lambda *p: generators.genus_chain(*p, fast=False),
    "hub": lambda *p: generators.cycle_with_hub(*p, fast=False),
    "k_tree": lambda *p: generators.k_tree(*p, fast=False),
    "peleg_rubinovich": lambda *p: peleg_rubinovich(*p, fast=False).topology,
}

_REFERENCE_PARTITIONS: Dict[str, Callable[..., partitions.Partition]] = {
    "voronoi": lambda topology, *a: partitions.voronoi(topology, *a, fast=False),
    "rows": lambda topology, rows, cols: partitions.grid_rows(rows, cols, fast=False),
    "bands": lambda topology, rows, cols, height: partitions.grid_bands(
        rows, cols, height, fast=False
    ),
    "arcs": lambda topology, n, n_parts, extra: partitions.cycle_arcs(
        n, n_parts, extra_nodes=extra, fast=False
    ),
    "singletons": lambda topology: partitions.Partition(
        topology.n, [[v] for v in topology.nodes]
    ),
}

_REFERENCE_WEIGHTS: Dict[str, Callable[..., Dict]] = {
    "unique": weight_mod.unique_random_weights,
}


def _check_partition_size(partition: partitions.Partition, topology: Topology):
    """A partition must label every node of its topology (else a 422)."""
    labelled = len(partition.labels)
    if labelled != topology.n:
        raise ReproError(f"partition labels {labelled} of {topology.n} nodes")


def reference_instance(spec: InstanceSpec) -> Instance:
    """Build a spec through the **reference** constructors, uncached.

    The differential twin of :func:`hydrate`: the validating
    ``Topology`` constructor (full canonicalise/sort/dedup, eager
    weight validation), ``SpanningTree.bfs``, and the list-of-parts
    ``Partition`` path.  E18 times this pipeline against the fast one
    and audits that both produce ``==``-identical structures; specs
    whose family or partition has no reference twin raise
    :class:`ReproError`.
    """
    try:
        topology = _REFERENCE_TOPOLOGIES[spec.family](*spec.params)
    except KeyError:
        raise ReproError(
            f"no reference twin for instance family {spec.family!r}"
        ) from None
    if spec.weights is not None:
        name, *args = spec.weights
        try:
            weight_dict = _REFERENCE_WEIGHTS[name](topology, *args)
        except KeyError:
            raise ReproError(
                f"no reference twin for weight assignment {name!r}"
            ) from None
        topology = Topology(topology.n, topology.edges, weights=weight_dict)
    tree = SpanningTree.bfs(topology, spec.tree_root)
    partition = None
    if spec.partition is not None:
        name, *args = spec.partition
        try:
            partition = _REFERENCE_PARTITIONS[name](topology, *args)
        except KeyError:
            raise ReproError(
                f"no reference twin for partition builder {name!r}"
            ) from None
        _check_partition_size(partition, topology)
    return Instance(spec=spec, topology=topology, tree=tree, partition=partition)


# ----------------------------------------------------------------------
# The per-process cache
# ----------------------------------------------------------------------

# The experiment grids revisit a handful of specs, but a long-lived
# process (the shortcut service) sees an open-ended stream of them, so
# each cache is LRU-bounded: a hit refreshes recency, an insert past
# the bound evicts the least recently used entry and counts it.
CACHE_MAX_ENTRIES = 128


class _BoundedLRU:
    """Per-process LRU mapping with an eviction counter."""

    def __init__(self, max_entries: int = CACHE_MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        if key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.evictions = 0


# Two levels: topologies (with weights applied) keyed by their builder
# coordinates so specs differing only in partition/root share them, and
# full instances keyed by the spec.  Per-process module globals — worker
# processes each hydrate once, the parent never re-ships objects.
_TOPOLOGY_CACHE: _BoundedLRU = _BoundedLRU()
_TREE_CACHE: _BoundedLRU = _BoundedLRU()
_INSTANCE_CACHE: _BoundedLRU = _BoundedLRU()


def clear_instance_cache() -> None:
    """Drop every cached topology, tree, and instance (test isolation).

    Also resets the eviction counters.
    """
    _TOPOLOGY_CACHE.clear()
    _TREE_CACHE.clear()
    _INSTANCE_CACHE.clear()


def instance_cache_info() -> Dict[str, int]:
    """Current cache sizes and eviction counts, for benchmarks and tests."""
    return {
        "topologies": len(_TOPOLOGY_CACHE),
        "trees": len(_TREE_CACHE),
        "instances": len(_INSTANCE_CACHE),
        "topology_evictions": _TOPOLOGY_CACHE.evictions,
        "tree_evictions": _TREE_CACHE.evictions,
        "instance_evictions": _INSTANCE_CACHE.evictions,
        "max_entries": _TOPOLOGY_CACHE.max_entries,
    }


def build_topology(spec: InstanceSpec) -> Topology:
    """Build (or fetch) the spec's weighted topology."""
    key = (spec.family, spec.params, spec.weights)
    topology = _TOPOLOGY_CACHE.get(key)
    if topology is None:
        try:
            builder = TOPOLOGY_BUILDERS[spec.family]
        except KeyError:
            raise ReproError(
                f"unknown instance family {spec.family!r}; registered: "
                f"{sorted(TOPOLOGY_BUILDERS)}"
            ) from None
        topology = builder(*spec.params)
        if spec.weights is not None:
            name, *args = spec.weights
            try:
                weight_builder = WEIGHT_BUILDERS[name]
            except KeyError:
                raise ReproError(
                    f"unknown weight assignment {name!r}; registered: "
                    f"{sorted(WEIGHT_BUILDERS)}"
                ) from None
            topology = weight_builder(topology, *args)
        _TOPOLOGY_CACHE[key] = topology
    return topology


def hydrate(spec: InstanceSpec) -> Instance:
    """The hydrated instance of a spec (per-process, content-addressed).

    Equal specs return the identical :class:`Instance` object; the
    topology and BFS tree are shared across specs that agree on the
    relevant coordinates.
    """
    instance = _INSTANCE_CACHE.get(spec)
    if instance is not None:
        return instance
    topology = build_topology(spec)
    tree_key = (spec.family, spec.params, spec.weights, spec.tree_root)
    tree = _TREE_CACHE.get(tree_key)
    if tree is None:
        tree = bfs_spanning_tree(topology, spec.tree_root)
        _TREE_CACHE[tree_key] = tree
    partition = None
    if spec.partition is not None:
        name, *args = spec.partition
        try:
            partition_builder = PARTITION_BUILDERS[name]
        except KeyError:
            raise ReproError(
                f"unknown partition builder {name!r}; registered: "
                f"{sorted(PARTITION_BUILDERS)}"
            ) from None
        partition = partition_builder(topology, *args)
        _check_partition_size(partition, topology)
    instance = Instance(
        spec=spec, topology=topology, tree=tree, partition=partition
    )
    _INSTANCE_CACHE[spec] = instance
    return instance
