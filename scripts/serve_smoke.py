#!/usr/bin/env python
"""Boot the serving layer and gate the zero-silent-drops contract for CI.

Starts a :class:`repro.serve.Broker` (``--shards 1``, the default) or a
:class:`repro.serve.ShardRouter` fleet (``--shards N``) over
thread-executor engines, exposes it through the asyncio HTTP front door,
and drives a mixed-priority workload through the typed
:class:`repro.serve.ServeClient`: an interactive client issuing small
blocking requests over HTTP while a batch client saturates the queue
in-process (plus a deliberately over-quota session and a cancelled
request, so the rejection paths fire).  The gate then fails loudly
unless:

* ``GET /healthz`` answers ``ok`` while the load is running;
* the engine report validates (``check_report``, report schema v7);
* the serve accounting invariant holds exactly — zero silent drops,
  fleet-wide::

      requests == admitted + rejected
      admitted == completed + expired + cancelled + errored

  and, when sharded, the per-shard breakdown sums to the fleet totals;
* every admitted-and-not-cancelled request produced a result;
* a serial :func:`repro.serve.replay` of the recorded request stream
  reproduces every completed result digest — the shard count changed
  *where* requests ran, never *what* they computed.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py --out run-artifacts
    PYTHONPATH=src python scripts/serve_smoke.py --shards 4
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.engine import (
    EngineConfig,
    SchemaError,
    ServeConfig,
    check_report,
)
from repro.serve import (
    Broker,
    RejectedError,
    ServeClient,
    Session,
    ShardRouter,
    Workload,
    make_async_server,
    replay,
)


def _fail(message: str) -> None:
    print(f"SERVE SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def _simulate(point: dict) -> dict:
    # A stand-in simulator call: a few ms of blocking latency, then a
    # deterministic result (what replay re-checks).
    time.sleep(0.002)
    x = float(point["x"])
    return {"y": x * x, "stage": point.get("stage", 0)}


def _simulate_key(point: dict) -> str:
    return f"sim:{point['x']}:{point.get('stage', 0)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="optional directory for requests.jsonl")
    parser.add_argument("--shards", type=int, default=1,
                        help="fleet width; 1 = single broker (default)")
    parser.add_argument("--interactive-requests", type=int, default=12)
    parser.add_argument("--batch-requests", type=int, default=64)
    args = parser.parse_args(argv)
    sharded = args.shards > 1

    store_dir = None
    if sharded:
        base = args.out if args.out is not None else \
            Path(tempfile.mkdtemp(prefix="serve-smoke-"))
        store_dir = str(Path(base) / "shared-store")
    config = EngineConfig(
        executor="thread", workers=16, cache=True, trace=not sharded,
        serve=ServeConfig(max_batch=16, max_wait_ms=5.0,
                          max_queue_depth=512, shards=args.shards,
                          shared_store_dir=store_dir,
                          synthesize_workload="simulate"))
    workload = Workload("simulate", _simulate, key_fn=_simulate_key)
    backend = ShardRouter(config) if sharded else Broker.from_config(config)
    backend.register(workload)

    http_results: list[dict] = []
    http_errors: list[str] = []

    with backend, make_async_server(backend) as server:
        url = server.url
        client = ServeClient(url, client="designer")

        def interactive_client() -> None:
            for i in range(args.interactive_requests):
                try:
                    http_results.append(client.evaluate(
                        "simulate", {"x": i}, priority="interactive"))
                except Exception as exc:
                    http_errors.append(f"interactive #{i}: {exc!r}")

        sweeper = Session(backend, "sweeper", priority="batch")
        sweeper.map("simulate", [{"x": i % 16, "stage": i // 16}
                                 for i in range(args.batch_requests)])

        thread = threading.Thread(target=interactive_client)
        thread.start()

        health = client.healthz()
        if health.get("status") != "ok":
            _fail(f"/healthz under load: {health}")

        # One of everything the accounting must absorb loudly:
        over_quota = Session(backend, "greedy", quota=1)
        over_quota.submit("simulate", {"x": 1})
        try:
            over_quota.submit("simulate", {"x": 2})
            _fail("quota breach was not rejected")
        except RejectedError:
            pass
        victim = backend.submit("simulate", {"x": 999}, client="fickle")
        victim.cancel()

        thread.join()
        for handle in sweeper.results(timeout=60):
            handle.result(timeout=60)
        for handle in over_quota.handles:
            handle.result(timeout=60)
        try:
            victim.result(timeout=60)
        except Exception:
            pass  # cancelled (counted), or completed if dispatch won

        metrics = client.metrics()
        if metrics.get("schema_version") is None:
            _fail(f"/metrics did not return a report: {metrics}")
        client.close()

    if http_errors:
        _fail("; ".join(http_errors))
    expected = [{"y": float(i * i), "stage": 0}
                for i in range(args.interactive_requests)]
    if http_results != expected:
        _fail(f"interactive results wrong: {http_results[:3]}...")

    report = backend.report()
    try:
        check_report(report)
    except SchemaError as exc:
        _fail(f"engine report drifted: {exc}")
    serve = report["serve"]
    if serve["requests"] != serve["admitted"] + serve["rejected"]:
        _fail(f"silent drop at admission: {serve}")
    settled = (serve["completed"] + serve["expired"] + serve["cancelled"]
               + serve["errored"])
    if serve["admitted"] != settled:
        _fail(f"admitted request unaccounted for: {serve}")
    if serve["errored"]:
        _fail(f"dispatcher-side engine errors under smoke load: {serve}")
    if serve["rejected"] < 1:
        _fail(f"smoke load failed to exercise rejection: {serve}")
    want = (args.interactive_requests + args.batch_requests + 1)
    if sharded:
        # Fleet cancellation is best-effort (the cancel races dispatch
        # across a process boundary): the victim settles as cancelled
        # *or* completed — either way it is accounted, never dropped.
        if serve["completed"] not in (want, want + 1):
            _fail(f"completed {serve['completed']} != expected "
                  f"{want} (+1)")
        if len(serve["shards"]) != args.shards:
            _fail(f"expected {args.shards} shard entries: {serve}")
        for lane in ("completed", "expired", "cancelled", "errored"):
            total = sum(s[lane] for s in serve["shards"])
            if total != serve[lane]:
                _fail(f"per-shard {lane} {total} != fleet {serve[lane]}")
    else:
        if serve["cancelled"] < 1:
            _fail(f"smoke load failed to exercise cancellation: {serve}")
        if serve["completed"] != want:
            _fail(f"completed {serve['completed']} != expected {want}")

    rep = replay(backend.request_log, backend.workloads)
    if not rep.ok:
        _fail(f"replay diverged: {rep.as_dict()}")
    if args.out is not None:
        backend.write_request_trace(args.out / "requests.jsonl")

    mbs = serve["mean_batch_size"]
    print(f"healthz under load: ok ({url}, shards={args.shards})")
    print(f"serve: {json.dumps(serve, sort_keys=True)}")
    print(f"accounting: requests={serve['requests']} = "
          f"admitted {serve['admitted']} + rejected {serve['rejected']}; "
          f"admitted = completed {serve['completed']} + expired "
          f"{serve['expired']} + cancelled {serve['cancelled']} "
          f"+ errored {serve['errored']}")
    print(f"batching: {serve['batches']} batches, mean size {mbs:.1f}, "
          f"p99 latency {serve['latency_p99_s'] * 1e3:.0f} ms")
    if sharded:
        spread = {s["shard"]: s["completed"] for s in serve["shards"]}
        print(f"shards: completed by shard {spread}, "
              f"restarts {sum(s['restarts'] for s in serve['shards'])}")
    print(f"replay: {rep.replayed} replayed, {rep.matched} matched")
    print("SERVE SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
