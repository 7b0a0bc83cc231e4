"""``serve``: many tenants' traffic through a 2-shard fleet.

A :class:`ShardRouter` with two shard processes (this host's core
count) serves two registered workloads over a fresh :class:`SharedStore`
directory: ``topogen_workload()`` over a fixed sample of generated
structures, and ``macro_workload()``.  About 90% of requests are topogen
points with seeded random sizes, about 10% are 32x32 macro points, and
one in three repeats an earlier point, so cross-shard cache hits happen.

The run is five segments, each of two phases:

* an open loop: one generator thread sends at a fixed rate, hard-coded
  well below the fleet's measured saturation throughput, each request
  timed from when it was due to be sent;
* a closed-loop burst of 320 requests with 32 kept in flight, measuring
  saturation throughput.  The bursts' requests do not depend on the
  workload seed.

The gated figures are the fastest segment's: the lowest open-loop
median latency and the fastest burst.

Shard processes are never wrapped by the tracer; the per-layer numbers
come from generator-side timing and the fleet's public ``report()``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from collections import deque

from harness import (
    Ledger,
    Metric,
    digest,
    latencies_from_due,
    percentile,
)

#: Open-loop send rate (requests/s).  The fleet saturated at 110-130
#: requests/s on uncached points of this mix on a 2-vCPU Xeon host;
#: 45/s keeps the open loop well below saturation even when the host
#: slows down, and still sends over 1,000 requests in 22.5 s.
OPEN_RATE = 45.0
OPEN_SHARE = 0.75         # of --seconds, spread over the segments
#: The run is this many segments, each an open-loop stretch followed by
#: a burst, so both phases sample the host's speed across the whole run.
SEGMENTS = 5
BURST_WINDOW = 32         # requests in flight during a burst
#: Requests per burst: ten times the requests in flight, so filling and
#: draining the pipeline is a small part of a burst.
BURST_REQUESTS = 320
#: The bursts' request stream does not depend on the workload seed, so
#: burst ``k`` sends the same points in every run: throughput is the
#: fastest burst, and a burst's cost depends on its mix (a macro point
#: costs many topogen points, a repeat almost nothing).  A string seed
#: never gives the stream of an integer seed.
BURST_STREAM_SEED = "burst"
#: The structure sample is fixed; the seed drives the request stream.
#: Sim cost differs between structures, and an 8-structure sample drawn
#: per seed moved the open-loop median latency by 40% between seeds.
STRUCTURE_SEED = 0
STRUCTURES = 8
MACRO_SHARE = 0.1
REPEAT_SHARE = 1.0 / 3.0
SIZE_SPREAD = 0.4         # sizes are default * exp(U(-s, s)), clipped
MACRO_ARRAY = {"rows": 32, "cols": 32, "strap_every": 8}
REPLAY_WORKERS = 2
#: The batch kernel and the scalar path agree to this relative
#: tolerance (the repository's batched-vs-scalar conformance bound).
KERNEL_RTOL = 1e-9


def build_workloads():
    """The two registered workloads; rebuilt identically by replay
    workers."""
    from repro.macro import macro_workload
    from repro.synthesis.compose.generator import (
        generate_topologies,
        validate_topology,
    )
    from repro.synthesis.compose.workload import topogen_workload
    topologies = [t for t in generate_topologies(seed=STRUCTURE_SEED,
                                                      sample=STRUCTURES)
                  if validate_topology(t).ok]
    return topologies, [topogen_workload(topologies), macro_workload()]


class PointStream:
    """Deterministic request stream: the same seed, the same points."""

    def __init__(self, seed: int, topologies):
        self.rng = random.Random(seed)
        self.topologies = topologies
        self.seen: list[tuple[str, dict]] = []

    def _topogen_point(self) -> dict:
        topo = self.rng.choice(self.topologies)
        defaults = topo.default_sizes()
        sizes = dict(defaults)
        for name, (lo, hi) in sorted(topo.space.variables.items()):
            value = defaults[name] * math.exp(
                self.rng.uniform(-SIZE_SPREAD, SIZE_SPREAD))
            sizes[name] = min(max(value, lo), hi)
        return {"structure": topo.structure_id, "sizes": sizes}

    def _macro_point(self) -> dict:
        r = self.rng
        return {"array": dict(MACRO_ARRAY),
                "mesh": {"h_rails": r.randint(2, 4),
                         "v_rails": r.randint(2, 4),
                         "h_width_nm": r.choice((3000, 4000, 5000, 6000)),
                         "v_width_nm": r.choice((3000, 4000, 5000, 6000))}}

    def next(self) -> tuple[str, dict]:
        if self.seen and self.rng.random() < REPEAT_SHARE:
            return self.rng.choice(self.seen)
        if self.rng.random() < MACRO_SHARE:
            item = ("macro", self._macro_point())
        else:
            item = ("topogen", self._topogen_point())
        self.seen.append(item)
        return item


class Tracker:
    """Due, sent and done times plus outcomes for every request of one
    phase.  Only the phase's sending thread appends; completion callbacks
    (fleet reader threads) write only their own pre-allocated slot."""

    def __init__(self) -> None:
        self.items: list[tuple[str, dict]] = []
        self.due: list[float] = []
        self.sent: list[float] = []
        self.submit_s: list[float] = []
        self.done: list[float | None] = []
        self.handles: list = []

    def send(self, router, item, due: float) -> None:
        """Submit one request; a refused one keeps ``None`` as handle."""
        from repro.serve import RejectedError
        i = len(self.items)
        self.items.append(item)
        self.due.append(due)
        self.done.append(None)
        t = time.perf_counter()
        try:
            handle = router.submit(item[0], item[1], client=f"tenant{i % 8}")
        except RejectedError:
            handle = None
        self.submit_s.append(time.perf_counter() - t)
        self.sent.append(t)
        self.handles.append(handle)
        if handle is not None:
            handle.add_done_callback(lambda h, i=i: self._settled(i))

    def _settled(self, i: int) -> None:
        self.done[i] = time.perf_counter()


class ServeWorkload:
    def __init__(self, seed: int, store_dir: str):
        from repro.engine import EngineConfig, ServeConfig
        from repro.serve import ShardRouter
        self.store_dir = store_dir
        self.topologies, workloads = build_workloads()
        self.stream = PointStream(seed, self.topologies)
        self.burst_stream = PointStream(BURST_STREAM_SEED, self.topologies)
        config = EngineConfig(
            executor="serial", cache=True,
            serve=ServeConfig(shards=2, shared_store_dir=store_dir,
                              max_batch=32, max_wait_ms=10.0,
                              max_queue_depth=4096))
        self.router = ShardRouter(config)
        for wl in workloads:
            self.router.register(wl)
        self.ledger = Ledger()
        self.open = Tracker()
        self.burst = Tracker()
        self.segments: list[tuple[int, int]] = []   # open-loop index ranges
        self.burst_s: list[float] = []
        self.report: dict = {}
        self.replay_summary: dict = {}
        self.warm_requests = 0

    # -- phases ------------------------------------------------------
    def start(self) -> None:
        """Spawn the fleet and run one untimed request per workload."""
        self.router.start()
        topo = self.topologies[0]
        warm = [self.router.submit("topogen", {
                    "structure": topo.structure_id,
                    "sizes": topo.default_sizes()}),
                self.router.submit("macro", {
                    "array": dict(MACRO_ARRAY),
                    "mesh": {"h_rails": 2, "v_rails": 2,
                             "h_width_nm": 3000, "v_width_nm": 3000}})]
        for handle in warm:
            handle.result(timeout=120)
        self.warm_requests = len(warm)

    def run(self, seconds: float) -> None:
        """``SEGMENTS`` times: an open-loop stretch at ``OPEN_RATE``, then
        a burst of ``BURST_REQUESTS``.  Every count is fixed by
        ``seconds``, so two runs at one seed send the same requests."""
        per_segment = max(1, round(OPEN_RATE * seconds * OPEN_SHARE
                                   / SEGMENTS))
        for _ in range(SEGMENTS):
            first = len(self.open.items)
            self.run_open_loop(per_segment)
            self.segments.append((first, len(self.open.items)))
            self.burst_s.append(self.run_burst(BURST_REQUESTS))

    def run_open_loop(self, n: int) -> None:
        """Send ``n`` requests at ``OPEN_RATE`` from one generator thread,
        then wait for all of them."""
        items = [self.stream.next() for _ in range(n)]
        t0 = time.perf_counter() + 0.05

        def generate() -> None:
            for i, item in enumerate(items):
                due = t0 + i / OPEN_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.open.send(self.router, item, due)

        thread = threading.Thread(target=generate, name="open-loop")
        thread.start()
        thread.join()
        self._wait(self.open)

    def run_burst(self, n: int) -> float:
        """Closed loop with ``BURST_WINDOW`` requests in flight until
        ``n`` have been sent; returns the seconds from the first send to
        the last completion."""
        first = len(self.burst.items)
        start = time.perf_counter()
        inflight: deque = deque()
        while True:
            while len(inflight) < BURST_WINDOW and \
                    len(self.burst.items) - first < n:
                self.burst.send(self.router, self.burst_stream.next(),
                                time.perf_counter())
                inflight.append(self.burst.handles[-1])
            if not inflight:
                break
            handle = inflight.popleft()
            if handle is not None:
                handle.exception(timeout=120)   # wait; outcome read later
        done = [t for t in self.burst.done[first:] if t is not None]
        return (max(done) if done else time.perf_counter()) - start

    @staticmethod
    def _wait(tracker: Tracker) -> None:
        for handle in tracker.handles:
            if handle is not None:
                handle.exception(timeout=120)   # wait; outcome read later

    def settle(self) -> None:
        """Fold both phases into the ledger, fetch the fleet report and
        shut the fleet down."""
        from repro.engine.faults import is_failure
        for tracker in (self.open, self.burst):
            for handle in tracker.handles:
                if handle is None:
                    self.ledger.record(False, "rejected")
                elif handle.outcome != "completed":
                    self.ledger.record(False, handle.outcome)
                else:
                    value = handle.result(timeout=0)
                    bad = is_failure(value) or value == {}
                    self.ledger.record(not bad, "evaluation failed")
        self.report = self.router.report()
        self.router.close()

    # -- results -----------------------------------------------------
    def outputs_digest(self) -> str:
        """Digest of every request's result, in request order.  Floats
        are rounded to 10 significant digits: whether a point runs
        through the batch kernel or the scalar path depends on timing,
        and the two differ in the last bits."""
        def rounded(value):
            if isinstance(value, float):
                return float(f"{value:.10g}")
            if isinstance(value, dict):
                return {k: rounded(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [rounded(v) for v in value]
            return value
        out = []
        for tracker in (self.open, self.burst):
            for item, handle in zip(tracker.items, tracker.handles):
                if handle is None or handle.outcome != "completed":
                    out.append(None)
                else:
                    out.append(rounded(handle.result(timeout=0)))
        return digest(out)

    def check(self, checks) -> None:
        serve = self.report["serve"]
        checks.check(serve["requests"] == serve["admitted"]
                     + serve["rejected"],
                     "serve_requests_eq_admitted_plus_rejected", f"{serve}")
        settled = (serve["completed"] + serve["expired"]
                   + serve["cancelled"] + serve["errored"])
        checks.check(serve["admitted"] == settled,
                     "serve_admitted_eq_settled", f"{serve}")
        for lane in ("completed", "expired", "cancelled", "errored"):
            total = sum(s[lane] for s in serve["shards"])
            checks.check(total == serve[lane], "serve_shard_sums",
                         f"{lane}: shards {total} != fleet {serve[lane]}")
        sent = (self.warm_requests + len(self.open.items)
                + len(self.burst.items))
        checks.check(serve["requests"] == sent, "serve_requests_counted",
                     f"fleet saw {serve['requests']}, generator sent {sent}")
        rep = self.replay_summary = replay_log(self.router.request_log,
                                               self.store_dir)
        checks.check(not rep["mismatched"], "serve_replay_digests",
                     f"{rep['mismatched'][:3]}")

    def work(self) -> dict:
        """Exact counts (every phase sends a fixed number of requests, so
        these repeat at one seed).  Replay counts are not among them:
        which points ran batched depends on timing."""
        return {"requests": len(self.open.items) + len(self.burst.items),
                "open_loop_requests": len(self.open.items),
                "completed": self.report["serve"]["completed"]}

    def replay_note(self) -> str:
        rep = self.replay_summary
        return (f"replay: {rep.get('covered', 0)} completed requests, "
                f"{rep.get('replayed', 0)} distinct replayed, "
                f"{rep.get('kernel_mismatches', 0)} batch-kernel "
                f"last-bit mismatches")

    def metrics(self) -> dict[str, Metric]:
        """Plain figures over the whole run, and the fastest segment's:
        the lowest of the open-loop segments' median latencies and the
        requests per second of the fastest burst, so a stall during some
        segments does not move them (as :func:`harness.fastest_round`
        does for the closed loops)."""
        lat = latencies_from_due(self.open.due, self.open.done)
        n = len(lat)
        medians = []
        for a, b in self.segments:
            part = latencies_from_due(self.open.due[a:b], self.open.done[a:b])
            if part:
                medians.append(percentile(part, 50))
        sent = BURST_REQUESTS * len(self.burst_s)
        ms = 1e3
        return {
            "latency_p50_ms": Metric(percentile(lat, 50) * ms, "ms", n),
            "latency_p99_ms": Metric(percentile(lat, 99) * ms, "ms", n),
            "latency_p50_ms_fastest": Metric(min(medians) * ms, "ms", n),
            "throughput_rps": Metric(sent / sum(self.burst_s), "1/s", sent),
            "throughput_rps_fastest": Metric(
                BURST_REQUESTS / min(self.burst_s), "1/s", sent),
        }

    def burst_note(self) -> str:
        times = ", ".join(f"{t * 1e3:.0f}" for t in self.burst_s)
        return f"bursts of {BURST_REQUESTS} requests: {times} ms"

    def layer_metrics(self) -> dict[str, Metric]:
        serve = self.report["serve"]
        kernel = self.report["kernel"]
        cache = self.report["cache"] or {}
        submit = self.open.submit_s + self.burst.submit_s
        late = [s - d for s, d in zip(self.open.sent, self.open.due)]
        points = kernel["batched_points"] + kernel["scalar_points"]
        completed = serve["completed"]
        ms = 1e3
        return {
            "serve.submit.p50_us": Metric(
                percentile(submit, 50) * 1e6, "us", len(submit)),
            "serve.shard_latency_p50_ms": Metric(
                (serve["latency_p50_s"] or 0.0) * ms, "ms", completed),
            "serve.shard_latency_p99_ms": Metric(
                (serve["latency_p99_s"] or 0.0) * ms, "ms", completed),
            "serve.mean_batch_size": Metric(
                serve["mean_batch_size"] or 0.0, "count", serve["batches"]),
            "serve.cache.hit_rate": Metric(
                cache.get("hit_rate", 0.0), "ratio",
                cache.get("hits", 0) + cache.get("misses", 0)),
            "serve.kernel.batched_share": Metric(
                kernel["batched_points"] / points if points else 0.0,
                "ratio", points),
            "serve.rejected": Metric(serve["rejected"], "count",
                                     serve["requests"]),
            "serve.expired": Metric(serve["expired"], "count",
                                    serve["admitted"]),
            "serve.errored": Metric(serve["errored"], "count",
                                    serve["admitted"]),
            "serve.gen.late_ms_max": Metric(max(late) * ms, "ms", len(late)),
            "serve.gen.late_ms_p99": Metric(
                percentile(late, 99) * ms, "ms", len(late)),
            "serve.replay.kernel_mismatches": Metric(
                self.replay_summary.get("kernel_mismatches", 0), "count",
                self.replay_summary.get("replayed", 0)),
        }


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

def replay_log(request_log: list[dict], scratch_dir: str) -> dict:
    """Replay every completed request with :func:`repro.serve.replay`.

    Records that repeat one (workload, point, recorded digest) are
    replayed once: the workloads are deterministic, so the repeat's
    replay would be the same call with the same expected digest.  The
    unique records are split over ``REPLAY_WORKERS`` worker processes
    (this file run as a script), each handed its records as a JSON file
    in ``scratch_dir`` and waited for.
    """
    from repro.engine.cache import canonical_key
    unique: dict[str, dict] = {}
    covered = 0
    for record in request_log:
        if record.get("outcome") != "completed":
            continue
        covered += 1
        key = canonical_key(record["workload"], record["point"],
                            record["result_digest"])
        unique.setdefault(key, record)
    records = [unique[k] for k in sorted(unique)]
    workers = []
    for i in range(REPLAY_WORKERS):
        path = os.path.join(scratch_dir, f"replay-{i}.json")
        with open(path, "w") as fh:
            json.dump(records[i::REPLAY_WORKERS], fh)
        workers.append(subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path],
            stdout=subprocess.PIPE, text=True))
    results = []
    for proc in workers:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"replay worker exited {proc.returncode}")
        results.append(json.loads(out))
    summary = {"covered": covered, "replayed": 0, "matched": 0,
               "kernel_mismatches": 0, "mismatched": []}
    for res in results:
        for key in ("replayed", "matched", "kernel_mismatches"):
            summary[key] += res[key]
        summary["mismatched"].extend(res["mismatched"])
    return summary


def replay_part(records: list[dict]) -> dict:
    """Replay worker.  A digest mismatch passes only when it is the
    batch kernel's known last-bits difference from the scalar path: the
    point re-run through the workload's batcher reproduces the recorded
    digest exactly, and the scalar result agrees with it to
    ``KERNEL_RTOL``.  Such mismatches are counted, not hidden."""
    import warnings
    warnings.simplefilter("ignore", DeprecationWarning)
    from repro.serve import replay
    from repro.serve.replay import result_digest
    _, workloads = build_workloads()
    by_name = {wl.name: wl for wl in workloads}
    report = replay(records, by_name)
    by_seq = {r["seq"]: r for r in records}
    kernel = 0
    real = []
    for miss in report.mismatched:
        record = by_seq[miss["seq"]]
        wl = by_name[miss["workload"]]
        point = record["point"]
        batched = None
        if wl.batcher is not None:
            batched = wl.batcher.evaluate([point, point])[0]
        scalar = wl.fn(point)
        if batched is not None and \
                result_digest(batched) == record["result_digest"] and \
                _close(batched, scalar):
            kernel += 1
        else:
            real.append(miss)
    return {"replayed": report.replayed, "matched": report.matched,
            "kernel_mismatches": kernel, "mismatched": real}


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=KERNEL_RTOL, abs_tol=0.0)
    return a == b


if __name__ == "__main__":
    # Replay worker: python3 work_serve.py <records.json>; prints a JSON
    # summary on stdout.
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    with open(sys.argv[1]) as fh:
        print(json.dumps(replay_part(json.load(fh))))
