"""The benchmark's workloads, their seeded inputs and their output checks.

Every workload drives a public entry point of the program from one
process: the in-process broker ``ShortcutService.handle`` (the call the
HTTP handler makes) or ``repair_vs_rebuild_batch``.  Inputs come only
from the workload seed; the program sees nothing but the generated
specs.  Specs follow the repo's family tables: grid and torus with a
``voronoi`` partition, the hub cycle with ``arcs`` that include the hub
node, delaunay with ``voronoi``, and ``unique`` weights.

All loops are closed: a client sends its next request only after the
previous reply.  Output checks run after the timed loop.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

FAMILIES = ("grid", "torus", "hub", "delaunay")
HUB_PARTS = 8
HUB_SPOKE_EVERY = 8
# ru_maxrss is read once this many operations have completed, so the
# figure does not grow with how many requests a faster program fits in.
RSS_AFTER_OPS = 16
# A single-client run sends at least this many whole cycles however slow
# the host, so its tail (ten samples beyond it) stays above its median.
MIN_CYCLES = 6


@dataclass
class Op:
    """One timed operation and what its output check needs."""

    kind: str
    family: str
    seconds: float
    status: int
    units: int = 1
    spec: object = None
    result: object = None
    error: str = ""
    extra: object = None
    warm: bool = False


def spec_for(family: str, side: int, weight_seed: int, rng: random.Random):
    """A family-table spec with about ``side * side`` nodes.

    The partition seed and the delaunay point set are drawn from
    ``rng``; ``weight_seed`` gives each spec its own content address.
    """
    from repro.analysis.instances import InstanceSpec

    n = side * side
    weights = ("unique", weight_seed)
    part_seed = rng.randrange(1, 1 << 20)
    if family == "hub":
        cycle = n - 1
        spokes = min(HUB_SPOKE_EVERY, cycle)
        parts = min(HUB_PARTS, max(2, cycle // 4))
        return InstanceSpec(
            "hub", (cycle, spokes), weights=weights, partition=("arcs", cycle, parts, 1)
        )
    if family == "delaunay":
        return InstanceSpec(
            "delaunay",
            (n, rng.randrange(1, 1 << 20)),
            weights=weights,
            partition=("voronoi", side, part_seed),
        )
    return InstanceSpec(
        family, (side, side), weights=weights, partition=("voronoi", side, part_seed)
    )


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Output checks (pure functions of one response, so tests can feed them
# a corrupted copy)
# ----------------------------------------------------------------------


def check_theorem3(payload: Dict) -> Optional[str]:
    """Theorem 3: the constructed shortcut has block parameter <= 3b."""
    if payload["block_parameter"] > 3 * payload["b"]:
        return (
            f"block parameter {payload['block_parameter']} exceeds "
            f"3b = {3 * payload['b']}"
        )
    return None


def shortcut_anchor(spec, params: Dict) -> Dict:
    """The differential anchor of a ``shortcut`` response.

    The operation rerun on the reference-built instance; delaunay has
    no reference twin, so its anchor reruns on the hydrated instance.
    """
    from repro.analysis.instances import hydrate, reference_instance
    from repro.service.server import OPERATIONS

    instance = hydrate(spec) if spec.family == "delaunay" else reference_instance(spec)
    return OPERATIONS["shortcut"](instance, dict(params))


def check_mst(spec, payload: Dict) -> Optional[str]:
    """The MST weight and edge set equal Kruskal's; edges = n - components."""
    from repro.analysis.instances import hydrate
    from repro.apps.mst import kruskal_reference
    from repro.service.store import canonical_json

    topology = hydrate(spec).topology
    edges, weight = kruskal_reference(topology)
    if payload["weight"] != weight:
        return f"MST weight {payload['weight']} != Kruskal {weight}"
    if payload["n_edges"] != topology.n - payload["components"]:
        return (
            f"{payload['n_edges']} MST edges on n={topology.n} with "
            f"{payload['components']} components"
        )
    digest = hashlib.sha256(canonical_json(sorted(edges))).hexdigest()
    if payload["edges_sha256"] != digest:
        return "MST edge set differs from Kruskal's"
    return None


def comparison_fields(pair) -> Tuple:
    """What a repair-vs-rebuild pair must share with its loop twin."""
    sides = []
    for side in (pair.repair, pair.rebuild):
        sides.append(
            (
                side.trials,
                side.shortcut.subgraphs,
                side.ledger,
                side.frozen_parts,
                side.part_origin,
                side.tree_rebuilt,
            )
        )
    return tuple(sides) + (pair.rounds_speedup,)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Setup, a closed-loop run, and the output checks of one workload."""

    name = ""
    # The per-workload names of the end-to-end figures, for the report.
    headline = ""
    rate_name = ""
    report_unit = "ms"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))
        self.rss_mb: Optional[float] = None
        self._counter = 0

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def fresh_seed(self) -> int:
        self._counter += 1
        return self.seed * 1_000_003 + self._counter

    # -- measurement -------------------------------------------------------

    def run(
        self, seconds: float, tracer=None, max_ops: Optional[int] = None,
        min_cycles: int = MIN_CYCLES,
    ) -> Tuple[List[Op], float]:
        """Run the closed loop; returns the operations and the loop's wall time.

        The loop stops after ``max_ops`` operations if given, else once
        ``seconds`` have passed and, on single-client workloads, at
        least ``min_cycles`` whole cycles are done.
        """
        raise NotImplementedError

    def latency_ops(self, ops: Sequence[Op]) -> List[Op]:
        return list(ops)

    def throughput(self, ops: Sequence[Op], wall: float) -> float:
        """Work units per busy second of the single client."""
        return sum(op.units for op in ops) / sum(op.seconds for op in ops)

    def check(self, ops: Sequence[Op]) -> List[str]:
        """Failure reasons, one per failed operation."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------

    def _timed(self, tracer, kind: str, family: str, call: Callable[[], Op]) -> Op:
        span = None
        if tracer is not None:
            span = tracer.open("op", new_request=True, tags={"kind": kind, "family": family})
        start = time.perf_counter()
        try:
            op = call()
        except Exception as error:  # noqa: BLE001 - a raising call is a failed operation
            op = Op(kind, family, 0.0, -1, error=f"{type(error).__name__}: {error}")
        op.seconds = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        return op

    def _note_rss(self, done: int) -> None:
        if self.rss_mb is None and done >= RSS_AFTER_OPS:
            self.rss_mb = max_rss_mb()

    def _cycles(self, seconds, tracer, max_ops, min_cycles, kind, prepare) -> Tuple[List[Op], float]:
        """Whole cycles over the families until the time is up.

        Each cycle sends one operation per family, so every run has the
        same family mix.  ``prepare(family)`` builds the inputs outside
        the timed region and returns the call to time.
        """
        ops: List[Op] = []
        start = time.perf_counter()
        deadline = start + seconds
        cycles = 0
        while True:
            for family in FAMILIES:
                ops.append(self._timed(tracer, kind, family, prepare(family)))
                self._note_rss(len(ops))
            cycles += 1
            if max_ops is not None:
                if len(ops) >= max_ops:
                    break
            elif time.perf_counter() >= deadline and cycles >= min_cycles:
                break
        return ops, time.perf_counter() - start


class ServiceWorkload(Workload):
    """A workload that drives the in-process broker over a fresh store."""

    op_name = "shortcut"
    warmup_side = 6

    def setup(self) -> None:
        from repro.service.server import ShortcutService
        from repro.service.store import PersistentStore

        self.store = PersistentStore(self.root / "store")
        self.service = ShortcutService(self.store, workers=2)
        for family in FAMILIES:
            response = self.request(
                self.op_name, spec_for(family, self.warmup_side, self.fresh_seed(), self.rng)
            )
            if response.status != 200:
                raise RuntimeError(f"warm-up {family} request failed: {response.body}")

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
        super().close()

    def request(self, op: str, spec):
        from repro.service.client import spec_to_json

        return self.service.handle(op, {"spec": spec_to_json(spec)})

    def _op(self, kind: str, family: str, spec) -> Op:
        response = self.request(self.op_name, spec)
        return Op(kind, family, 0.0, response.status, spec=spec,
                  result=response.body.get("result"),
                  error="" if response.ok else str(response.body),
                  warm=bool(response.body.get("warm")))


class ColdShortcut(ServiceWorkload):
    """Cold ``shortcut`` requests; every request has a fresh address."""

    side = 0
    anchor_samples = 0

    def run(self, seconds, tracer=None, max_ops=None, min_cycles=MIN_CYCLES):
        def prepare(family):
            spec = spec_for(family, self.side, self.fresh_seed(), self.rng)
            return lambda: self._op("shortcut", family, spec)

        return self._cycles(seconds, tracer, max_ops, min_cycles, "shortcut", prepare)

    def check(self, ops):
        from repro.service.server import PARAM_DEFAULTS

        reasons = []
        pick = random.Random(f"anchor/{self.seed}")
        anchored = set(pick.sample(range(len(ops)), min(self.anchor_samples, len(ops))))
        for index, op in enumerate(ops):
            reason = _status_reason(op)
            if reason is None and op.warm:
                reason = "a fresh address came back warm"
            if reason is None:
                reason = check_theorem3(op.result)
            if reason is None and index in anchored:
                if shortcut_anchor(op.spec, PARAM_DEFAULTS) != op.result:
                    reason = "differs from the differential anchor"
            if reason is not None:
                reasons.append(f"{op.family} #{index}: {reason}")
        return reasons


class ColdShortcutSmall(ColdShortcut):
    name = "cold-shortcut-small"
    headline = "shortcut_small"
    rate_name = "shortcut_small_per_s"
    side = 16  # n ~ 256, below the vector-ladder crossover
    anchor_samples = 8


class ColdShortcutLarge(ColdShortcut):
    name = "cold-shortcut-large"
    headline = "shortcut_large"
    rate_name = "shortcut_large_per_s"
    side = 64  # n ~ 4096, above the vector-ladder crossover
    anchor_samples = 2


class ColdMst(ServiceWorkload):
    """Cold ``mst`` requests on distinct weighted specs at n ~ 256."""

    name = "cold-mst"
    headline = "mst"
    rate_name = "mst_per_s"
    op_name = "mst"
    side = 16

    def run(self, seconds, tracer=None, max_ops=None, min_cycles=MIN_CYCLES):
        def prepare(family):
            spec = spec_for(family, self.side, self.fresh_seed(), self.rng)
            return lambda: self._op("mst", family, spec)

        return self._cycles(seconds, tracer, max_ops, min_cycles, "mst", prepare)

    def check(self, ops):
        reasons = []
        for index, op in enumerate(ops):
            reason = _status_reason(op)
            if reason is None and op.warm:
                reason = "a fresh address came back warm"
            if reason is None:
                reason = check_mst(op.spec, op.result)
            if reason is not None:
                reasons.append(f"{op.family} #{index}: {reason}")
        return reasons


class WarmMixed(ServiceWorkload):
    """Two clients: repeat reads over a working set twice the store's
    in-memory LRU, and one request in ten a fresh tiny cold write."""

    name = "warm-mixed"
    headline = "warm_read"
    rate_name = "warm_rps"
    report_unit = "us"
    tiny_side = 4
    write_fraction = 0.1
    clients = 2
    rss_after_ops = 2000

    def setup(self) -> None:
        super().setup()
        self.working = [
            spec_for(FAMILIES[i % len(FAMILIES)], self.tiny_side, self.fresh_seed(), self.rng)
            for i in range(2 * self.store.memory_entries)
        ]
        # Weight seeds above every working-set seed: each write has a
        # fresh address.  (next() on a count is atomic under the GIL.)
        self.write_seeds = itertools.count(self.fresh_seed() + (1 << 40))
        self.expected: List[Dict] = []
        for spec in self.working:
            response = self.request("shortcut", spec)
            if response.status != 200:
                raise RuntimeError(f"store pre-fill failed: {response.body}")
            self.expected.append(response.body["result"])

    def run(self, seconds, tracer=None, max_ops=None, min_cycles=MIN_CYCLES):
        per_client: List[List[Op]] = [[] for _ in range(self.clients)]
        seeds = [self.rng.randrange(1 << 30) for _ in range(self.clients)]
        done = [0]
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = start + seconds

        def client(index: int) -> None:
            rng = random.Random(seeds[index])
            ops = per_client[index]
            while True:
                if max_ops is not None:
                    if len(ops) >= max_ops // self.clients:
                        return
                elif time.perf_counter() >= deadline:
                    return
                if rng.random() < self.write_fraction:
                    family = FAMILIES[rng.randrange(len(FAMILIES))]
                    spec = spec_for(family, self.tiny_side, next(self.write_seeds), rng)
                    op = self._timed(tracer, "write", family, lambda: self._op("write", family, spec))
                else:
                    slot = rng.randrange(len(self.working))
                    spec = self.working[slot]
                    op = self._timed(tracer, "read", spec.family, lambda: self._op("read", spec.family, spec))
                    op.extra = slot
                ops.append(op)
                with lock:
                    done[0] += 1
                    if self.rss_mb is None and done[0] >= self.rss_after_ops:
                        self.rss_mb = max_rss_mb()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        stuck = [thread for thread in threads if thread.is_alive()]
        if stuck:
            raise RuntimeError(f"{len(stuck)} client thread(s) did not finish")
        wall = time.perf_counter() - start
        return [op for ops in per_client for op in ops], wall

    def latency_ops(self, ops):
        return [op for op in ops if op.kind == "read"]

    def throughput(self, ops, wall):
        return len(ops) / wall

    def check(self, ops):
        reasons = []
        for index, op in enumerate(ops):
            reason = _status_reason(op)
            if reason is None and op.kind == "read":
                if op.result != self.expected[op.extra]:
                    reason = "warm hit differs from the payload the key returned cold"
            elif reason is None:
                if op.warm:
                    reason = "a fresh address came back warm"
                else:
                    reason = check_theorem3(op.result)
            if reason is not None:
                reasons.append(f"{op.kind} {op.family} #{index}: {reason}")
        return reasons


class FailureSweep(Workload):
    """``repair_vs_rebuild_batch(batch="vector")`` over seeded failure sets."""

    name = "failure-sweep"
    headline = "sweep"
    rate_name = "sweep_scenarios_per_s"
    side = 24  # n ~ 576
    sets_per_call = 8
    twin_every = 4
    construction_seed = 19

    def setup(self) -> None:
        import repro.failures.batch_sweep as batch_sweep
        from repro.analysis.instances import hydrate
        from repro.core.doubling import find_shortcut_doubling
        from repro.failures import srlg_groups

        self.instances = {}
        for family in FAMILIES:
            spec = spec_for(family, self.side, self.fresh_seed(), self.rng)
            instance = hydrate(spec)
            topology = instance.topology
            old = find_shortcut_doubling(
                topology, instance.tree, instance.partition,
                seed=self.construction_seed, mode="direct",
            )
            if family == "hub":
                groups = srlg_groups(topology, "hub", n_cycle=spec.params[0], spoke_every=spec.params[1])
            elif family in ("grid", "torus"):
                groups = srlg_groups(topology, family, rows=self.side, cols=self.side)
            else:
                # Delaunay has no generator structure; the node-incidence
                # fallback always isolates a node, so it gets Bernoulli only.
                groups = None
            self.instances[family] = (topology, old, groups)
            batch_sweep.repair_vs_rebuild_batch(
                topology, old, self.failure_sets(family, 1),
                seed=self.construction_seed, mode="direct", batch="vector",
            )

    def failure_sets(self, family: str, count: int) -> List[Tuple]:
        """``count`` seeded failure sets whose survivor stays connected."""
        from repro.failures import sample_bernoulli, sample_srlg

        topology, _old, groups = self.instances[family]
        sets = []
        attempt = 0
        while len(sets) < count:
            draw = self.rng.randrange(1 << 30)
            if groups is not None and attempt % 2:
                scenario = sample_srlg(topology, groups, 1, min(0.5, 1.0 / len(groups)), seed=draw)[0]
            else:
                scenario = sample_bernoulli(topology, 1, min(0.25, 1.5 / topology.m), seed=draw)[0]
            attempt += 1
            if topology.delete_edges(scenario.edges).is_connected:
                sets.append(scenario.edges)
        return sets

    def run(self, seconds, tracer=None, max_ops=None, min_cycles=MIN_CYCLES):
        import repro.failures.batch_sweep as batch_sweep

        def prepare(family):
            topology, old, _groups = self.instances[family]
            sets = self.failure_sets(family, self.sets_per_call)

            def call():
                pairs = batch_sweep.repair_vs_rebuild_batch(
                    topology, old, sets,
                    seed=self.construction_seed, mode="direct", batch="vector",
                )
                return Op("sweep", family, 0.0, 200, units=len(sets), result=pairs, extra=sets)

            return call

        return self._cycles(seconds, tracer, max_ops, min_cycles, "sweep", prepare)

    def check(self, ops):
        import repro.failures.batch_sweep as batch_sweep

        reasons = []
        pick = random.Random(f"twin/{self.seed}")
        for index, op in enumerate(ops):
            reason = _status_reason(op)
            if reason is None and len(op.result) != op.units:
                reason = f"{len(op.result)} comparisons for {op.units} failure sets"
            if reason is None and index % self.twin_every == 0:
                slot = pick.randrange(op.units)
                topology, old, _groups = self.instances[op.family]
                (twin,) = batch_sweep.repair_vs_rebuild_batch(
                    topology, old, [op.extra[slot]],
                    seed=self.construction_seed, mode="direct", batch="loop",
                )
                if comparison_fields(twin) != comparison_fields(op.result[slot]):
                    reason = f"failure set {slot} differs from its loop twin"
            if reason is not None:
                reasons.append(f"{op.family} #{index}: {reason}")
        return reasons


def _status_reason(op: Op) -> Optional[str]:
    if op.status == -1:
        return f"raised {op.error}"
    if op.status != 200:
        return f"status {op.status}: {op.error}"
    return None


WORKLOADS = {
    cls.name: cls
    for cls in (ColdShortcutSmall, ColdShortcutLarge, ColdMst, WarmMixed, FailureSweep)
}
