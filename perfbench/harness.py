"""Statistics, checks, environment capture and result output shared by
the three workloads.

Everything here is plain Python with no dependency on the program under
test, so ``test_harness.py`` can pin the definitions the metrics rest on:
nearest-rank percentiles, fastest repeats, failure accounting, latency
timed from the due time, and self-time subtraction.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def fastest_round(times) -> tuple[float, float]:
    """Closed-loop figures from rounds that repeat the same jobs.

    ``times[j]`` holds every timing of the round's ``j``-th job (a job
    that never completed has none and is left out; its run fails its
    checks).  Each job's cost is its fastest repeat: on a shared host,
    other guests' load only ever adds time, so the fastest of identical
    runs is the steadiest estimate of the job's own cost, the choice
    ``timeit`` makes.  Returns the jobs per second of one round at those
    costs, and their geometric mean in seconds, the typical job time
    with every job weighted alike however long it is."""
    best = [min(t) for t in times if t]
    if not best:
        return 0.0, 0.0
    return (len(best) / sum(best),
            math.exp(sum(math.log(b) for b in best) / len(best)))


@dataclass
class Ledger:
    """Attempted/failed accounting behind ``failed_share``.

    Every job or request is recorded exactly once as it settles; a job
    that raised, a request that was refused, expired, was cancelled or
    errored, all count as failed.
    """

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)

    def record(self, ok: bool, reason: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            key = reason or "failed"
            self.reasons[key] = self.reasons.get(key, 0) + 1

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def latencies_from_due(due: list[float], done: list[float | None]) -> list:
    """Per-request latency measured from when each request was due to be
    sent, so a stalled generator's lateness is charged to the requests
    it delayed.  ``None`` in ``done`` (never completed) is skipped; the
    ledger counts those as failed."""
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [end - start for start, end in zip(due, done) if end is not None]


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    direct children (``parents[i]`` is the index of span ``i``'s parent,
    or -1).  Overlapping children are merged, so the covered part is
    never counted twice, and children are clipped to their parent."""
    n = len(starts)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        reach = lo
        for i in sorted(kids, key=lambda k: starts[k]):
            s = max(starts[i], reach)
            e = min(ends[i], hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


def digest(obj) -> str:
    """Short structural digest of an output summary (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_loop_ms(reps: int = 15) -> float:
    """Median time of a fixed pure-Python loop that touches no program
    code.  A host-speed diagnostic only: no metric is ever rescaled by
    it."""
    samples = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t)
    return statistics.median(samples) * 1e3


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KB);
    with ``include_children``, the larger of this process's and its
    largest waited-for child's."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _blas_threads() -> int | None:
    import ctypes
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = os.listdir(libs)
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libs, name))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    """Host and library description printed with every run."""
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
        blas_cfg = blas.get("openblas configuration", "")
    except (TypeError, KeyError):  # numpy without show_config dicts
        blas_desc, blas_cfg = "unknown", ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_desc,
        "blas_config": blas_cfg,
        "blas_threads": _blas_threads(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "seed": seed,
    }


class Checks:
    """Named correctness checks; a failed one is reported by name."""

    def __init__(self) -> None:
        self.passed: list[str] = []
        self.failed: list[tuple[str, str]] = []

    def check(self, ok: bool, name: str, detail: str = "") -> None:
        if ok:
            if name not in self.passed:
                self.passed.append(name)
        else:
            self.failed.append((name, detail))

    @property
    def ok(self) -> bool:
        return not self.failed


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    """What one workload invocation measured and checked."""

    workload: str
    seed: int
    traced: bool
    ledger: Ledger
    checks: Checks
    metrics: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    notes: list[str] = field(default_factory=list)
    env: dict = field(default_factory=dict)
    host_ms: tuple[float, float] = (0.0, 0.0)


def print_report(result: RunResult, stream=sys.stdout) -> None:
    """Human-readable report; the JSON result line follows it."""
    w = stream.write
    mode = "traced" if result.traced else "untraced"
    w(f"== workload {result.workload} seed {result.seed} ({mode})\n")
    for key, value in result.env.items():
        w(f"env {key}: {value}\n")
    before, after = result.host_ms
    w(f"host reference loop: {before:.2f} ms before, {after:.2f} ms after "
      f"(diagnostic only)\n")
    for line in result.notes:
        w(f"note {line}\n")
    w(f"{'metric':<34} {'value':>14} {'unit':<6} samples\n")
    for name, m in result.metrics.items():
        w(f"{name:<34} {m.value:>14.6g} {m.unit:<6} {m.samples}\n")
    if result.layers:
        w(f"{'per-layer metric':<34} {'value':>14} {'unit':<6} samples\n")
        for name, m in result.layers.items():
            w(f"{name:<34} {m.value:>14.6g} {m.unit:<6} {m.samples}\n")
    for name, count in result.work.items():
        w(f"work {name}: {count}\n")
    w(f"output digest: {result.digest}\n")
    led = result.ledger
    w(f"attempted {led.attempted}, failed {led.failed} "
      f"(failed_share {led.failed_share:.6g})"
      + (f" {led.reasons}" if led.reasons else "") + "\n")
    for name in result.checks.passed:
        w(f"check ok: {name}\n")
    for name, detail in result.checks.failed:
        w(f"CHECK FAILED: {name}: {detail}\n")


def result_line(result: RunResult, names: list[str]) -> str:
    """The final JSON line: ``correct``/``attempted``/``failed`` and the
    listed metrics (end-to-end ones untraced, per-layer ones traced)."""
    source = result.layers if result.traced else result.metrics
    metrics = {}
    for name in names:
        m = source[name]
        metrics[name] = {"value": m.value, "unit": m.unit}
    return json.dumps({
        "correct": result.checks.ok,
        "attempted": result.ledger.attempted,
        "failed": result.ledger.failed,
        "metrics": metrics,
    })
