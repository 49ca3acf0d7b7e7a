"""Order statistics and the machine label every result carries."""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from typing import Dict, List, Sequence, Tuple

TAIL_BEYOND = 10
# Past p90 the figure on a shared two-core host is set by a handful of
# scheduler and collector stalls per run, not by the program; a capped
# percentile keeps run-to-run spread within the benchmark's bounds.
TAIL_CAP = 90.0


def tail(values: Sequence[float], cap: float = TAIL_CAP) -> Tuple[float, float, int]:
    """The highest percentile, up to ``cap``, with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``.  With ``N`` sorted
    samples that is the ``r``-th smallest (1-based) for
    ``r = min(N - 10, floor(cap * N / 100))``, at percentile
    ``100 * r / N``.  Ten or fewer samples have no such percentile; the
    largest sample stands in and is labelled ``p100``.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, count
    rank = min(count - TAIL_BEYOND, math.floor(cap * count / 100.0))
    return ordered[rank - 1], 100.0 * rank / count, count


def host_spin_ms(rounds: int = 9) -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Timings on a shared host drift with the host's load over minutes;
    this figure, taken beside every run, shows how fast the host was.
    """
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        samples.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(samples)


def machine_label(store_root: str) -> Dict[str, object]:
    """CPU model, core count, interpreter and library versions, store fs.

    Absolute numbers compare only against results with the same label.
    """
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "store_fs": _filesystem_of(store_root),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _filesystem_of(path: str) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            mounts: List[List[str]] = [line.split() for line in handle]
    except OSError:
        return kind
    for fields in mounts:
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, fields[2]
    return kind
