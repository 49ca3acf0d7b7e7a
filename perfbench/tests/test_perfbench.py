"""The benchmark's own tests: tracing, the tail rule, the output checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure
from perfbench.tracing import Tracer, busy, broker_times, covered, install_layers
from perfbench.workloads import (
    FAMILIES,
    ColdMst,
    ColdShortcutSmall,
    FailureSweep,
    check_mst,
    check_theorem3,
    comparison_fields,
    shortcut_anchor,
)

ROOT = Path(__file__).resolve().parents[2]


# -- the tail rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "count, rank, percentile",
    [(80, 70, 87.5), (40, 30, 75.0), (11, 1, 100.0 / 11), (100, 90, 90.0)],
)
def test_tail_is_the_sample_with_ten_beyond_it(count, rank, percentile):
    values = [float(v) for v in range(count, 0, -1)]  # unsorted on purpose
    value, pct, samples = measure.tail(values)
    assert value == float(rank)
    assert sum(1 for v in values if v > value) == 10
    assert pct == pytest.approx(percentile)
    assert samples == count


@pytest.mark.parametrize("count, rank", [(200, 180), (1000, 900), (101, 90)])
def test_tail_stops_at_the_cap_when_more_samples_lie_beyond(count, rank):
    values = [float(v) for v in range(1, count + 1)]
    value, pct, _ = measure.tail(values)
    assert value == float(rank)
    assert pct == pytest.approx(100.0 * rank / count)
    assert pct <= measure.TAIL_CAP
    assert sum(1 for v in values if v > value) >= 10


def test_tail_of_ten_or_fewer_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# -- span arithmetic --------------------------------------------------------


def test_covered_clips_and_merges_intervals():
    assert covered([(0, 2), (1, 3), (5, 7)], 1, 6) == pytest.approx(3.0)
    assert covered([], 0, 1) == 0.0


def test_busy_counts_nested_same_name_spans_once():
    tracer = Tracer()
    outer = tracer.open("layer")
    inner = tracer.open("layer")
    tracer.close(inner)
    tracer.close(outer)
    assert busy(tracer.spans, "layer") == pytest.approx(outer.duration)


# -- the wrappers -----------------------------------------------------------


def test_wrappers_restore_every_original():
    import repro.analysis.instances as instances
    import repro.service.server as server

    tracer = Tracer()
    install_layers(tracer)
    wrapped = list(tracer._originals)
    try:
        assert len(wrapped) >= 20
        for owner, attr, raw in wrapped:
            assert vars(owner)[attr] is not raw
        assert server.hydrate is not instances.hydrate
    finally:
        tracer.restore()
    for owner, attr, raw in wrapped:
        assert vars(owner)[attr] is raw
    assert server.hydrate is instances.hydrate
    assert not tracer._originals


def test_wrapped_broker_links_pool_work_to_its_request(tmp_path):
    workload = ColdShortcutSmall(3, tmp_path)
    workload.setup()
    tracer = Tracer()
    try:
        install_layers(tracer)
        try:
            ops, _ = workload.run(60, tracer=tracer, max_ops=4)
        finally:
            tracer.restore()
    finally:
        workload.close()
    assert all(op.status == 200 for op in ops)
    by_id = {span.id: span for span in tracer.spans}
    computes = [span for span in tracer.spans if span.name == "broker.compute"]
    assert len(computes) == 4
    for span in computes:
        assert by_id[span.parent].name == "broker.handle"
        assert span.request == by_id[span.parent].request is not None
    construct = [span for span in tracer.spans if span.name == "construct"]
    assert all(by_id[span.parent].name == "broker.compute" for span in construct)
    self_s, wait_s = broker_times(tracer.spans)
    assert self_s >= 0 and wait_s > 0


# -- the output checks ------------------------------------------------------


@pytest.fixture(scope="module")
def shortcut_ops(tmp_path_factory):
    workload = ColdShortcutSmall(5, tmp_path_factory.mktemp("shortcut"))
    workload.setup()
    try:
        ops, _ = workload.run(60, max_ops=len(FAMILIES))
        yield workload, ops
    finally:
        workload.close()


def test_checks_pass_real_shortcut_responses(shortcut_ops):
    workload, ops = shortcut_ops
    assert workload.check(ops) == []


def test_checks_catch_a_corrupted_shortcut_payload(shortcut_ops):
    from repro.service.server import PARAM_DEFAULTS

    workload, ops = shortcut_ops
    op = ops[0]
    broken = copy.deepcopy(op.result)
    broken["block_parameter"] = 3 * broken["b"] + 1
    assert check_theorem3(op.result) is None
    assert check_theorem3(broken) is not None

    drifted = copy.deepcopy(op.result)
    drifted["congestion"] += 1
    anchor = shortcut_anchor(op.spec, PARAM_DEFAULTS)
    assert anchor == op.result
    assert anchor != drifted

    corrupted = [copy.copy(o) for o in ops]
    corrupted[1].result = dict(corrupted[1].result, block_parameter=99 * corrupted[1].result["b"])
    assert len(workload.check(corrupted)) == 1
    assert ops[1].result["block_parameter"] <= 3 * ops[1].result["b"]


def test_checks_count_non_200_as_failed(shortcut_ops):
    workload, ops = shortcut_ops
    refused = [copy.copy(o) for o in ops]
    refused[0].status = 500
    assert len(workload.check(refused)) == 1


def test_mst_check_catches_a_corrupted_payload(tmp_path):
    workload = ColdMst(7, tmp_path)
    workload.setup()
    try:
        ops, _ = workload.run(60, max_ops=1)
    finally:
        workload.close()
    op = ops[0]
    assert check_mst(op.spec, op.result) is None
    for field, delta in (("weight", 1), ("n_edges", -1)):
        broken = copy.deepcopy(op.result)
        broken[field] += delta
        assert check_mst(op.spec, broken) is not None
    broken = copy.deepcopy(op.result)
    broken["edges_sha256"] = "0" * 64
    assert check_mst(op.spec, broken) is not None


# -- tracing changes no result ----------------------------------------------


@pytest.mark.parametrize("cls, max_ops", [(ColdShortcutSmall, 8), (FailureSweep, 4)])
def test_traced_and_untraced_runs_give_identical_results(tmp_path, cls, max_ops):
    results = []
    for traced in (False, True):
        workload = cls(11, tmp_path / str(traced))
        workload.setup()
        tracer = Tracer()
        try:
            if traced:
                install_layers(tracer)
            try:
                ops, _ = workload.run(60, tracer=tracer if traced else None, max_ops=max_ops)
            finally:
                tracer.restore()
            assert workload.check(ops) == []
        finally:
            workload.close()
        if cls is FailureSweep:
            results.append([[comparison_fields(pair) for pair in op.result] for op in ops])
        else:
            results.append([(op.spec, op.result) for op in ops])
        assert bool(tracer.spans) == traced
    assert results[0] == results[1]


# -- the command line -------------------------------------------------------


def test_run_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-mst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
