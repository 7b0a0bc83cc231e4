#!/usr/bin/env python3
"""Repository benchmark: the ``sizing``, ``backend`` and ``serve`` workloads.

Run from the repository root; the program is imported from ``src/``::

    python3 perfbench/run.py --workload sizing --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, see below

One workload invocation builds its inputs from ``--seed``, sets up
(imports, inputs, fleet, one untimed warm-up job per job kind), measures
for ``--seconds``, checks every output, and prints a report followed by
one JSON line: ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` lists -- the end-to-end ones with ``--trace 0``, the
per-layer ones with ``--trace 1``.  A failed check is named on the
report, sets ``correct`` to false and makes the exit code 1.

Without ``--workload`` every workload runs twice, untraced and then
traced, each in its own fresh process, and the tracing overhead (traced
minus untraced median latency) is printed last.

Seeds: 1 is the default, 7 is held out for checking that a change's
gain is not tuned to the default.  See NOTES.md for why each workload
and metric was chosen.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sizing", "backend", "serve")
DEFAULT_SEED = 1

#: The JSON line reports one shared set of end-to-end metrics for every
#: workload; each maps to the workload's own metric of the same kind.
COMMON_METRICS = {
    "throughput_per_s": {"sizing": "jobs_per_s_fastest",
                         "backend": "jobs_per_s_fastest",
                         "serve": "throughput_rps_fastest"},
    "latency_ms": {"sizing": "job_ms_fastest", "backend": "job_ms_fastest",
                   "serve": "latency_p50_ms_fastest"},
    "setup_s": {w: "setup_s" for w in WORKLOADS},
    "peak_rss_mb": {w: "peak_rss_mb" for w in WORKLOADS},
}


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_program() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    warnings.simplefilter("ignore", DeprecationWarning)
    import repro  # noqa: F401  -- fails fast when the source tree is absent


def closed_loop(workload, seconds: float, rec, result) -> None:
    """Closed loop that repeats one round of jobs, the same every round.

    The round holds one job of each kind, with inputs built from the
    workload seed.  Untraced, it starts rounds until ``seconds`` have
    passed and finishes the round it is in, so every job is repeated
    equally often; each job's cost is then its fastest repeat
    (:func:`harness.fastest_round`).  It always runs at least one round.
    Traced, it runs a fixed number of rounds derived from ``seconds``
    and the workload's nominal round time, so two traced runs at one
    seed do the same jobs and their counts and digests repeat exactly.
    """
    from harness import Metric, digest, fastest_round, peak_rss_mb
    from harness import reference_loop_ms
    for kind in workload.kinds:
        workload.run_job(kind, workload.warm_job(kind))
    result.metrics["setup_s"] = Metric(time.perf_counter() - T0, "s", 1)
    before = reference_loop_ms()
    jobs = workload.round_jobs()
    n = len(jobs)
    rounds = max(1, round(seconds / workload.round_s))
    times: list[list[float]] = [[] for _ in jobs]
    outputs: list[set] = [set() for _ in jobs]
    latencies: list[float] = []
    summaries = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while (i < rounds * n) if rec is not None \
            else (i == 0 or i % n or time.perf_counter() < deadline):
        kind, spec = jobs[i % n]
        if rec is not None:
            rec.job_id = i
        t = time.perf_counter()
        try:
            out = workload.run_job(kind, spec)
        except Exception as exc:  # counted and checked, not fatal
            traceback.print_exc()
            result.ledger.record(False, f"{kind}: {type(exc).__name__}")
            result.checks.check(False, "jobs_complete",
                                f"{kind} {spec}: {exc!r}")
            summaries.append((kind, spec, None, 0.0))
        else:
            seconds_taken = time.perf_counter() - t
            latencies.append(seconds_taken)
            times[i % n].append(seconds_taken)
            workload.record(kind, spec, out, seconds_taken)
            result.ledger.record(True)
            summary = workload.summary(kind, out)
            outputs[i % n].add(digest(summary))
            summaries.append((kind, spec, summary, seconds_taken))
        i += 1
    phase_s = time.perf_counter() - start
    if rec is not None:
        rec.job_id = -1
    after = reference_loop_ms()
    result.host_ms = (before, after)
    per_s, job_s = fastest_round(times)
    result.metrics["jobs_per_s_fastest"] = Metric(per_s, "1/s",
                                                  len(latencies))
    result.metrics["job_ms_fastest"] = Metric(job_s * 1e3, "ms",
                                              len(latencies))
    result.metrics.update(workload.metrics(latencies, phase_s))
    result.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    for (kind, spec), seen in zip(jobs, outputs):
        result.checks.check(len(seen) <= 1, "repeats_give_same_output",
                            f"{kind} {spec}: {len(seen)} distinct outputs")
    workload.check(result.checks)
    result.work = workload.work()
    result.digest = digest([row[:3] for row in summaries])
    for n_job, (kind, spec, summary, seconds_taken) in enumerate(summaries):
        result.notes.append(f"job {n_job} {kind} {spec}: {digest(summary)} "
                            f"{seconds_taken * 1e3:.1f} ms")
    for (kind, spec), taken in zip(jobs, times):
        if taken:
            result.notes.append(
                f"fastest {kind} {spec}: {min(taken) * 1e3:.1f} ms of "
                f"{len(taken)} repeats (slowest {max(taken) * 1e3:.1f} ms)")
    result.layers.update(workload.layer_extras())
    result.layers["useful_share"] = Metric(
        1.0 - result.ledger.failed_share, "ratio", result.ledger.attempted)
    result.layers["trace.p50_ms"] = result.metrics["job_p50_ms"]


def serve_run(seed: int, seconds: float, result) -> None:
    from harness import Metric, peak_rss_mb, reference_loop_ms
    from work_serve import ServeWorkload
    os.makedirs(OUT, exist_ok=True)
    store = os.path.join(OUT, f"store-{os.getpid()}")
    shutil.rmtree(store, ignore_errors=True)
    workload = ServeWorkload(seed, store)
    try:
        workload.start()
        result.metrics["setup_s"] = Metric(time.perf_counter() - T0, "s", 1)
        before = reference_loop_ms()
        workload.run(seconds)
        workload.settle()
    finally:
        workload.router.close()
    rss = peak_rss_mb(include_children=True)   # shards joined by close()
    after = reference_loop_ms()
    result.host_ms = (before, after)
    result.ledger = workload.ledger
    result.metrics.update(workload.metrics())
    result.notes.append(workload.burst_note())
    result.metrics["peak_rss_mb"] = Metric(rss, "MB", 3)
    try:
        t = time.perf_counter()
        workload.check(result.checks)
        result.notes.append(f"{workload.replay_note()}, "
                            f"{time.perf_counter() - t:.1f} s")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    result.work = workload.work()
    result.digest = workload.outputs_digest()
    result.layers.update(workload.layer_metrics())
    result.layers["useful_share"] = Metric(
        1.0 - result.ledger.failed_share, "ratio", result.ledger.attempted)
    result.layers["trace.p50_ms"] = result.metrics["latency_p50_ms"]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    _import_program()
    from harness import Checks, Ledger, Metric, RunResult, environment
    from harness import print_report, result_line
    spec = _bench_spec()
    result = RunResult(workload=name, seed=seed, traced=traced,
                       ledger=Ledger(), checks=Checks(),
                       env=environment(seed))
    rec = None
    if traced and name != "serve":
        import spans
        rec = spans.SpanRecorder()
        spans.install(rec)
    if name == "serve":
        serve_run(seed, seconds, result)
    elif name == "sizing":
        from work_sizing import SizingWorkload
        closed_loop(SizingWorkload(seed), seconds, rec, result)
    else:
        from work_backend import BackendWorkload
        closed_loop(BackendWorkload(seed), seconds, rec, result)
    result.metrics["failed_share"] = Metric(
        result.ledger.failed_share, "ratio", result.ledger.attempted)
    if traced:
        if rec is not None:
            import spans
            result.layers.update(spans.layer_metrics(rec))
            os.makedirs(OUT, exist_ok=True)
            rec.write(os.path.join(OUT, f"spans-{name}.npz"))
            result.layers["trace.spans"] = Metric(len(rec), "count", 1)
        for metric in spec["per_layer"]:
            result.layers.setdefault(
                metric["name"], Metric(0, metric["unit"], 0))
        names = [m["name"] for m in spec["per_layer"]]
    else:
        result.layers.clear()   # per-layer metrics come from traced runs
        for common, own in COMMON_METRICS.items():
            result.metrics[common] = result.metrics[own[name]]
        names = [m["name"] for m in spec["end_to_end"]]
    print_report(result)
    print(result_line(result, names), flush=True)
    return 0 if result.checks.ok else 1


def _job_lines(text: str) -> dict[int, tuple[str, float]]:
    """``job <n> ...: <digest> <ms> ms`` report lines -> {n: (digest, ms)}."""
    jobs = {}
    for line in text.splitlines():
        if line.startswith("note job "):
            words = line.split()
            jobs[int(words[2])] = (words[-3], float(words[-2]))
    return jobs


def _report_value(text: str, name: str) -> float:
    """The value of metric ``name`` in a report's metric table."""
    for line in text.splitlines():
        words = line.split()
        if words and words[0] == name:
            return float(words[1])
    raise KeyError(name)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process.

    The tracing overhead is compared on the same work: for the closed
    loops, the jobs both runs did (which must also give the same
    outputs); for serve, the identical open-loop requests.
    """
    status = 0
    overhead = []
    for name in WORKLOADS:
        last = {}
        text = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            status = status or proc.returncode
            text[trace] = proc.stdout
            lines = proc.stdout.strip().splitlines()
            last[trace] = json.loads(lines[-1]) if lines else None
        if not (last[0] and last[1]):
            continue
        plain_jobs, traced_jobs = _job_lines(text[0]), _job_lines(text[1])
        common = sorted(set(plain_jobs) & set(traced_jobs))
        if common:
            changed = [n for n in common
                       if plain_jobs[n][0] != traced_jobs[n][0]]
            if changed:
                print(f"CHECK FAILED: tracing changed {name} job outputs: "
                      f"{changed}")
                status = 1
            plain = sum(plain_jobs[n][1] for n in common)
            traced = sum(traced_jobs[n][1] for n in common)
            basis = f"total of the {len(common)} jobs both runs did"
        else:
            plain = _report_value(text[0], "latency_p50_ms")
            traced = last[1]["metrics"]["trace.p50_ms"]["value"]
            basis = "open-loop median latency"
        overhead.append((name, plain, traced, basis))
    print("== tracing overhead (traced minus untraced, same work)")
    for name, plain, traced, basis in overhead:
        print(f"{name:<8} untraced {plain:10.1f} ms  traced {traced:10.1f} ms"
              f"  overhead {(traced - plain) / plain:+.1%} ({basis})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
