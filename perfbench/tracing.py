"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces a layer's public function with a wrapper at
the place its caller looks it up (a module attribute or a class
attribute), records one :class:`Span` per call, and puts every
original back on :meth:`Tracer.restore`.  Nothing under ``src/`` is
edited: the program runs unchanged with the tracer off.

Spans carry a name, start, end, parent and request id and stay in
memory until the run writes them out.  Work the broker hands to its
compute pool runs on another thread; the pool-side span is linked to
its request through the store key the broker computed for it.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    thread: int
    tags: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions; restores them on demand."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._originals: List[Tuple[object, str, object]] = []
        # store key -> (request id, span id) of the broker call that
        # computed it, so the pool thread's compute span finds its parent
        self._links: Dict[str, Tuple[Optional[int], Optional[int]]] = {}

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self,
        name: str,
        *,
        tags: Optional[Dict] = None,
        parent: Optional[Tuple[Optional[int], Optional[int]]] = None,
        new_request: bool = False,
    ) -> Span:
        stack = self._stack()
        if parent is not None:
            request, parent_id = parent
        elif stack:
            request, parent_id = stack[-1].request, stack[-1].id
        else:
            request, parent_id = None, None
        if new_request:
            request = next(self._requests)
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent_id,
            request=request,
            thread=threading.get_ident(),
            tags=dict(tags or {}),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def current(self) -> Tuple[Optional[int], Optional[int]]:
        stack = self._stack()
        return (stack[-1].request, stack[-1].id) if stack else (None, None)

    def link(self, key: str) -> None:
        """Remember that the current span is the one asking for ``key``."""
        with self._lock:
            self._links[key] = self.current()

    def linked(self, key: str) -> Optional[Tuple[Optional[int], Optional[int]]]:
        with self._lock:
            return self._links.pop(key, None)

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Optional[str],
        *,
        tags: Optional[Callable[[tuple, dict], Dict]] = None,
        before: Optional[Callable[[], object]] = None,
        after: Optional[Callable[..., None]] = None,
        parent: Optional[Callable[[tuple, dict], Optional[Tuple]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name=None`` records no span and only runs ``after``.  ``after``
        receives ``(span, args, kwargs, result, state)`` where ``state``
        is what ``before`` returned.  ``parent`` maps the call's
        arguments to an explicit ``(request, parent span)`` pair.
        """
        raw = vars(owner)[attr]
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before() if before is not None else None
            span = None
            if name is not None:
                explicit = parent(args, kwargs) if parent is not None else None
                span = tracer.open(
                    name,
                    tags=tags(args, kwargs) if tags is not None else None,
                    parent=explicit,
                )
            try:
                result = original(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result, state)
            return result

        self._originals.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path, header: Dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            "thread": span.thread,
                            "tags": span.tags,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# The layers the benchmark wraps
# ----------------------------------------------------------------------


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Each function is wrapped where its caller looks it up: the broker
    calls ``hydrate`` and ``find_shortcut_doubling`` through the
    ``repro.service.server`` module, the doubling search calls
    ``find_shortcut`` through ``repro.core.doubling``, and so on.
    """
    import repro.core.batch as core_batch
    import repro.core.doubling as doubling
    import repro.core.quality as quality
    import repro.apps.mst as mst
    import repro.failures.batch_sweep as batch_sweep
    import repro.service.server as server
    from repro.analysis.instances import instance_cache_info
    from repro.core.partwise import PartwiseEngine
    from repro.service.server import ShortcutService
    from repro.service.store import PersistentStore

    # Inside the repro.core package the name ``find_shortcut`` is the
    # function, which shadows the submodule of the same name.
    find_shortcut_module = sys.modules["repro.core.find_shortcut"]

    def cache_size():
        info = instance_cache_info()
        return info["instances"] + info["instance_evictions"]

    def hydrate_after(span, args, kwargs, result, before_size):
        span.tags["hit"] = cache_size() == before_size

    def construct_after(span, args, kwargs, result, state):
        span.tags.update(
            rungs=len(result.trials),
            failed_rungs=sum(1 for trial in result.trials if not trial.succeeded),
            iterations=sum(trial.iterations for trial in result.trials),
            rounds=result.rounds,
        )

    def mst_after(span, args, kwargs, result, state):
        span.tags.update(phases=result.phases, rounds=result.rounds)

    def sweep_after(span, args, kwargs, result, state):
        span.tags["speedups"] = [pair.rounds_speedup for pair in result]

    def key_after(span, args, kwargs, result, state):
        tracer.link(result)

    tracer.wrap(ShortcutService, "handle", "broker.handle")
    tracer.wrap(server, "spec_key", None, after=key_after)
    tracer.wrap(
        ShortcutService,
        "_compute",
        "broker.compute",
        parent=lambda args, kwargs: tracer.linked(args[1]),
    )
    tracer.wrap(server, "hydrate", "instances.hydrate", before=cache_size, after=hydrate_after)
    tracer.wrap(server, "find_shortcut_doubling", "construct", after=construct_after)
    tracer.wrap(
        doubling,
        "find_shortcut",
        "construct.rung",
        tags=lambda args, kwargs: {"c": args[3], "b": args[4]},
    )
    tracer.wrap(find_shortcut_module, "core_fast", "construct.core_fast")
    tracer.wrap(find_shortcut_module, "verification", "construct.verification")
    tracer.wrap(quality, "measure", "quality.measure")
    tracer.wrap(PersistentStore, "get", "store.get")
    tracer.wrap(PersistentStore, "put", "store.put")
    tracer.wrap(server, "minimum_spanning_tree", "mst", after=mst_after)
    tracer.wrap(mst, "find_shortcut_doubling", "mst.construct")
    tracer.wrap(mst, "min_outgoing_edges", "apps.min_outgoing")
    tracer.wrap(PartwiseEngine, "broadcast_from_leaders", "partwise.broadcast")
    tracer.wrap(batch_sweep, "repair_vs_rebuild_batch", "failures.sweep", after=sweep_after)
    tracer.wrap(batch_sweep, "prepare_repair", "failures.prepare")
    tracer.wrap(batch_sweep, "prepare_rebuild", "failures.prepare")
    tracer.wrap(core_batch, "find_shortcut_doubling_batch", "batch.ladder")
    tracer.wrap(batch_sweep, "finish_search", "failures.finish")
    tracer.wrap(batch_sweep, "assert_valid", "failures.finish")


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def busy(spans: List[Span], name: str) -> float:
    """Total duration of ``name`` spans not nested in another ``name`` span."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += span.duration
    return total


def broker_times(spans: List[Span]) -> Tuple[float, float]:
    """``(self, wait)`` seconds of the broker's ``handle`` spans.

    Self time is a handle span's duration minus what its children
    cover.  The part of that uncovered time that lies between the store
    miss and the pool thread starting the computation, or between the
    computation ending and ``handle`` returning, is the hand-off wait;
    the rest is the broker's own work.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    self_total = wait_total = 0.0
    for span in spans:
        if span.name != "broker.handle":
            continue
        kids = children.get(span.id, [])
        uncovered = span.duration - covered(
            ((kid.start, kid.end) for kid in kids), span.start, span.end
        )
        wait = 0.0
        for kid in kids:
            if kid.name != "broker.compute":
                continue
            before = [k.end for k in kids if k.thread == span.thread and k.end <= kid.start]
            wait += kid.start - max(before, default=span.start)
            wait += max(0.0, span.end - kid.end)
        self_total += uncovered - wait
        wait_total += wait
    return self_total, wait_total


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

# Layer spans whose busy time is reported as a share of the time the
# clients spent in operations.
BUSY_SHARES = {
    "instances.hydrate.busy_share": "instances.hydrate",
    "construct.busy_share": "construct",
    "construct.rung.busy_share": "construct.rung",
    "construct.core_fast.busy_share": "construct.core_fast",
    "construct.verification.busy_share": "construct.verification",
    "quality.measure.busy_share": "quality.measure",
    "store.get.busy_share": "store.get",
    "store.put.busy_share": "store.put",
    "mst.construct.busy_share": "mst.construct",
    "apps.min_outgoing.busy_share": "apps.min_outgoing",
    "partwise.broadcast.busy_share": "partwise.broadcast",
    "failures.prepare.busy_share": "failures.prepare",
    "batch.ladder.busy_share": "batch.ladder",
    "failures.finish.busy_share": "failures.finish",
}

CALL_COUNTS = {
    "broker.requests": "broker.handle",
    "instances.hydrate.calls": "instances.hydrate",
    "construct.calls": "construct",
    "quality.measure.calls": "quality.measure",
    "store.get.calls": "store.get",
    "store.put.calls": "store.put",
}


def layer_metrics(spans: List[Span], store_delta: Optional[Dict[str, int]]) -> Dict[str, Dict]:
    """Every per-layer metric of one traced run.

    Shares are percent of the summed operation time of all clients
    (the ``op`` spans), so they read the same on one client or two.
    Counts come from the wrapped calls and their results; the store's
    come from its own ``StoreStats`` over the traced phase.
    """

    def entry(value, unit):
        return {"value": value, "unit": unit}

    def share(seconds):
        return entry(100.0 * seconds / op_time if op_time else 0.0, "%")

    def tag_sum(name, tag):
        return sum(span.tags.get(tag, 0) for span in spans if span.name == name)

    op_time = sum(span.duration for span in spans if span.name == "op")
    counts = {}
    for span in spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    metrics: Dict[str, Dict] = {}
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = entry(counts.get(name, 0), "count")
    broker_self, broker_wait = broker_times(spans)
    metrics["broker.self_share"] = share(broker_self)
    metrics["broker.wait_share"] = share(broker_wait)
    for metric, name in BUSY_SHARES.items():
        metrics[metric] = share(busy(spans, name))

    hydrates = [span for span in spans if span.name == "instances.hydrate"]
    hits = sum(1 for span in hydrates if span.tags.get("hit"))
    metrics["instances.hydrate.hit_ratio"] = entry(hits / len(hydrates) if hydrates else 0.0, "ratio")
    rungs = tag_sum("construct", "rungs")
    metrics["construct.rungs"] = entry(rungs, "count")
    metrics["construct.failed_rung_ratio"] = entry(
        tag_sum("construct", "failed_rungs") / rungs if rungs else 0.0, "ratio"
    )
    metrics["construct.iterations"] = entry(tag_sum("construct", "iterations"), "count")
    metrics["construct.rounds"] = entry(tag_sum("construct", "rounds"), "rounds")
    metrics["mst.phases"] = entry(tag_sum("mst", "phases"), "count")
    metrics["mst.rounds"] = entry(tag_sum("mst", "rounds"), "rounds")

    speedups = sorted(
        value
        for span in spans
        if span.name == "failures.sweep"
        for value in span.tags.get("speedups", ())
    )
    metrics["failures.repair_rounds_speedup"] = entry(
        statistics.median(speedups) if speedups else 0.0, "x"
    )

    delta = store_delta or {}
    gets = delta.get("hits_memory", 0) + delta.get("hits_disk", 0) + delta.get("misses", 0)
    metrics["store.memory_hit_ratio"] = entry(delta.get("hits_memory", 0) / gets if gets else 0.0, "ratio")
    metrics["store.disk_hits"] = entry(delta.get("hits_disk", 0), "count")
    metrics["store.quarantined"] = entry(delta.get("quarantined", 0), "count")
    metrics["store.io_errors"] = entry(delta.get("io_errors", 0), "count")
    metrics["trace.spans"] = entry(len(spans), "count")
    return metrics
