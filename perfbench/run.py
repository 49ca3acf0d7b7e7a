"""Request-path benchmark: cold shortcut and MST requests, warm store
traffic, and the failure sweep.

Run from the repository root::

    python3 perfbench/run.py --workload cold-shortcut-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see ``perfbench/README.md``).  The
lines before it are a readable report with the machine label.  The exit
code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
# One set-up in this process plus this many in fresh interpreters; the
# reported set-up time is the median.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 150
# A traced run runs untraced (U) and traced (T) slices in this order;
# both kinds sit at the same mean position, so a steady drift of the
# host over the run falls on both alike.
TRACE_ORDER = "UTTUTUUT"

sys.path.insert(0, str(ROOT))

from perfbench import measure  # noqa: E402
from perfbench.workloads import FAMILIES, WORKLOADS, max_rss_mb  # noqa: E402


class Unrunnable(Exception):
    """The checkout does not hold the program."""


def program_source() -> Path:
    """The program's source tree, which must be in the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise Unrunnable(f"no program source under {src}")
    return src


def import_program() -> None:
    src = program_source()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # repro.analysis first: importing repro.service before it hits the
    # package's circular import.
    import repro.analysis.instances  # noqa: F401
    import repro.service.server  # noqa: F401


def timed_setup(name: str, seed: int):
    """Import the program and set the workload up; returns it and the seconds."""
    start = time.perf_counter()
    import_program()
    workload = WORKLOADS[name](seed, WORKDIR)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    return workload, time.perf_counter() - start


def setup_in_child(name: str, seed: int) -> float:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def summarize(workload, ops, wall):
    """End-to-end figures of one run."""
    timed = workload.latency_ops(ops)
    seconds = [op.seconds for op in timed]
    tail_value, tail_pct, count = measure.tail(seconds)
    far_value, far_pct, _ = measure.tail(seconds, cap=100.0)
    return {
        "far_s": far_value,
        "far_pct": far_pct,
        "p50_s": statistics.median(seconds),
        "tail_s": tail_value,
        "tail_pct": tail_pct,
        "samples": count,
        "throughput": workload.throughput(ops, wall),
    }


def family_p50_ms(workload, ops):
    timed = workload.latency_ops(ops)
    return {
        family: 1000.0 * statistics.median([op.seconds for op in timed if op.family == family])
        for family in FAMILIES
        if any(op.family == family for op in timed)
    }


def report_lines(workload, figures, reasons, ops, label):
    """The readable report, with the workload's own metric names."""
    head, unit, rate = workload.headline, workload.report_unit, workload.rate_name
    scale = {"ms": 1e3, "us": 1e6}[unit]
    lines = [f"machine: {json.dumps(label, sort_keys=True)}"]
    lines.append(
        f"{head}_p50_{unit:<3} {figures['p50_s'] * scale:12.3f} {unit}"
    )
    lines.append(
        f"{head}_tail_{unit:<2} {figures['tail_s'] * scale:12.3f} {unit}  "
        f"(p{figures['tail_pct']:.1f} of {figures['samples']}; "
        f"uncapped p{figures['far_pct']:.2f} reads {figures['far_s'] * scale:.3f})"
    )
    lines.append(f"{rate} {figures['throughput']:12.2f} 1/s")
    for family, value in sorted(family_p50_ms(workload, ops).items()):
        lines.append(f"  {family:<9} p50 {value:10.3f} ms")
    lines.append(
        f"failed_frac {len(reasons) / max(1, len(ops)):.4f} ({len(reasons)}/{len(ops)})"
    )
    for reason in reasons[:20]:
        lines.append(f"  FAILED {reason}")
    return lines


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args):
    setups = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
    workload, own = timed_setup(args.workload, args.seed)
    setups.append(own)
    try:
        spin = measure.host_spin_ms()
        ops, wall = workload.run(args.seconds)
        spin = (spin + measure.host_spin_ms()) / 2
        reasons = workload.check(ops)
        figures = summarize(workload, ops, wall)
        rss = workload.rss_mb if workload.rss_mb is not None else max_rss_mb()
        label = measure.machine_label(str(workload.root))
    finally:
        workload.close()
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace 0"]
    lines += report_lines(workload, figures, reasons, ops, label)
    lines.append(f"peak_rss_mb {rss:.1f} MB")
    lines.append(f"host_spin_ms {spin:.3f} ms  (a fixed Python loop; shows host drift)")
    lines.append(
        f"setup_s {statistics.median(setups):.3f} s  (median of {[round(s, 3) for s in setups]})"
    )
    metrics = {
        "p50_ms": metric(1000.0 * figures["p50_s"], "ms"),
        "tail_ms": metric(1000.0 * figures["tail_s"], "ms"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return lines, ops, reasons, metrics


def run_traced(args):
    """Untraced and traced slices in the ``TRACE_ORDER``; the per-layer
    metrics come from the traced slices and the tracing overhead from
    comparing the two kinds."""
    from perfbench.tracing import Tracer, install_layers, layer_metrics

    workload, _setup = timed_setup(args.workload, args.seed)
    tracer = Tracer()
    plain_ops, traced_ops = [], []
    plain_wall = traced_wall = 0.0
    store = getattr(workload, "store", None)
    store_delta = {} if store is not None else None
    try:
        spin = measure.host_spin_ms()
        # Each slice sends at least one whole cycle of requests.
        slice_s = args.seconds / len(TRACE_ORDER)
        for kind in TRACE_ORDER:
            if kind == "U":
                ops, wall = workload.run(slice_s, min_cycles=1)
                plain_ops += ops
                plain_wall += wall
                continue
            before = store.stats.as_dict() if store is not None else None
            install_layers(tracer)
            try:
                ops, wall = workload.run(slice_s, tracer=tracer, min_cycles=1)
            finally:
                tracer.restore()
            traced_ops += ops
            traced_wall += wall
            if store is not None:
                for key, value in store.stats.as_dict().items():
                    store_delta[key] = store_delta.get(key, 0) + value - before[key]
        spin = (spin + measure.host_spin_ms()) / 2
        ops = plain_ops + traced_ops
        reasons = workload.check(ops)
        plain = summarize(workload, plain_ops, plain_wall)
        traced = summarize(workload, traced_ops, traced_wall)
        label = measure.machine_label(str(workload.root))
    finally:
        workload.close()
    metrics = layer_metrics(tracer.spans, store_delta)
    per_family = family_p50_ms(workload, plain_ops)
    for family in FAMILIES:
        metrics[f"family.{family}.p50_ms"] = metric(per_family.get(family, 0.0), "ms")
    metrics["host.spin_ms"] = metric(spin, "ms")
    metrics["trace.overhead_pct"] = metric(
        100.0 * (traced["p50_s"] / plain["p50_s"] - 1.0), "%"
    )
    WORKDIR.mkdir(exist_ok=True)
    trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(
        trace_path,
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds / 2, "machine": label},
    )
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace 1"]
    lines.append("untraced slices:")
    lines += report_lines(workload, plain, [], plain_ops, label)
    lines.append("traced slices:")
    lines += report_lines(workload, traced, reasons, traced_ops, label)[1:]
    lines.append(f"tracing overhead on p50: {metrics['trace.overhead_pct']['value']:+.1f}%")
    lines.append(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    for name, entry in metrics.items():
        lines.append(f"  {name:<38} {entry['value']:14.4f} {entry['unit']}")
    return lines, ops, reasons, metrics


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and exit")
    args = parser.parse_args(argv)
    try:
        program_source()
        if args.workload == "all":
            return run_all(args)
        if args.setup_only:
            workload, seconds = timed_setup(args.workload, args.seed)
            workload.close()
            print(json.dumps({"setup_s": seconds}))
            return 0
        runner = run_traced if args.trace else run_untraced
        lines, ops, reasons, metrics = runner(args)
    except Unrunnable as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not reasons,
        "attempted": len(ops),
        "failed": len(reasons),
        "metrics": metrics,
    }))
    return 0 if not reasons else 1


if __name__ == "__main__":
    sys.exit(main())
