"""Tests for the sharded serving layer (repro.serve.shard / client).

The load-bearing guarantees, each pinned by its own test class:

* **Routing determinism** — the consistent-hash ring is a pure function
  of the shard id *set* (hypothesis: permutation-invariant), and the
  shard count changes where a request runs but never what it computes
  (the seed x {1, 2, 4} differential matrix compares result digests).
* **Zero silent drops, fleet-wide** — ``admitted == completed + expired
  + cancelled + errored`` holds on the merged report, the per-shard
  breakdown sums to the fleet totals, and a crashed shard's in-flight
  requests are re-routed once or settled ``errored``, never lost.
* **Shared results** — the shared store (the directory every shard
  mounts as its :class:`EvalCache` disk layer) publishes atomically
  under concurrent multi-process writers, and a result computed by one
  shard is a disk hit for another.
* **One wire contract** — the typed :class:`ServeClient` round-trips
  identically through the front door over a broker and over a router,
  and the front door takes its settings from :class:`ServeConfig`.
"""

import json
import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache import EvalCache, canonical_key, publish_pickle
from repro.engine.config import EngineConfig, ServeConfig
from repro.engine.core import EvaluationEngine
from repro.engine.schema import SHARD_FIELDS, check_report, render_report
from repro.engine.telemetry import Telemetry
from repro.serve import (
    Broker,
    DeadlineExpiredError,
    HashRing,
    RejectedError,
    RemoteEngineError,
    ServeClient,
    ShardRouter,
    Workload,
    make_async_server,
    replay,
)
from repro.serve.shard import _fleet_share, route_key


def square(point):
    return {"y": point["x"] ** 2}


def square_key(point):
    return canonical_key("shard-square", point)


def boom(point):
    raise RuntimeError(f"boom on {point!r}")


def make_router(shards, tmp_path=None, **serve_kwargs):
    serve = ServeConfig(shards=shards,
                        shared_store_dir=None if tmp_path is None
                        else str(tmp_path / "store"),
                        **serve_kwargs)
    config = EngineConfig(executor="thread", workers=2, serve=serve)
    router = ShardRouter(config)
    router.register(Workload("square", square, key_fn=square_key))
    return router


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------

class TestHashRing:

    def test_spread_and_determinism(self):
        ring = HashRing(range(4))
        keys = [route_key("square", {"x": i}) for i in range(400)]
        owners = [ring.route(k) for k in keys]
        assert owners == [ring.route(k) for k in keys]
        by_shard = {sid: owners.count(sid) for sid in range(4)}
        assert set(by_shard) == {0, 1, 2, 3}
        assert all(n > 0 for n in by_shard.values())

    def test_exclusion_reassigns_only_the_excluded(self):
        ring = HashRing(range(4))
        keys = [route_key("square", {"x": i}) for i in range(200)]
        before = {k: ring.route(k) for k in keys}
        after = {k: ring.route(k, exclude={2}) for k in keys}
        for k in keys:
            if before[k] != 2:
                assert after[k] == before[k]
            else:
                assert after[k] != 2

    def test_all_excluded_raises(self):
        from repro.serve import ShardCrashError
        ring = HashRing(range(2))
        with pytest.raises(ShardCrashError):
            ring.route("deadbeef", exclude={0, 1})

    @settings(max_examples=50, deadline=None)
    @given(ids=st.permutations(list(range(6))),
           x=st.integers(min_value=0, max_value=10_000))
    def test_routing_stable_under_shard_list_order(self, ids, x):
        canonical = HashRing(range(6))
        permuted = HashRing(ids)
        key = route_key("square", {"x": x})
        assert permuted.route(key) == canonical.route(key)


# ----------------------------------------------------------------------
# The shared store: one EvalCache disk directory, many processes
# ----------------------------------------------------------------------

def _store_writer(root, worker, n):
    cache = EvalCache(disk_dir=root)
    for i in range(n):
        cache.put(f"key-{i}", {"value": i, "writer": worker})


class TestSharedStore:

    def test_put_get_roundtrip(self, tmp_path):
        root = tmp_path / "store"
        EvalCache(disk_dir=root).put("k1", {"a": 1})
        cache = EvalCache(disk_dir=root)
        assert cache.get("k1") == {"a": 1}
        assert cache.stats.disk_hits == 1
        assert cache.get("absent", "fallback") == "fallback"
        assert "k1" in cache
        assert [key for key, _ in cache.scan_disk()] == ["k1"]
        assert cache.report()["disk_dir"] == str(root)

    def test_concurrent_multiprocess_writers(self, tmp_path):
        """Racing writers of the same keys: every published artifact is
        complete (atomic rename), no temp files leak, and scan_disk sees
        only whole values."""
        root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        workers = [ctx.Process(target=_store_writer, args=(root, w, 50))
                   for w in range(4)]
        for p in workers:
            p.start()
        reader = EvalCache(disk_dir=root)
        # Read concurrently with the writers: never a partial value.
        deadline = time.monotonic() + 30
        while any(p.is_alive() for p in workers) \
                and time.monotonic() < deadline:
            for _, value in reader.scan_disk():
                assert set(value) == {"value", "writer"}
        for p in workers:
            p.join(timeout=30)
            assert p.exitcode == 0
        scanned = dict(reader.scan_disk())
        assert len(scanned) == 50
        fresh = EvalCache(disk_dir=root)
        for i in range(50):
            assert fresh.get(f"key-{i}")["value"] == i
        assert not list(root.glob("*.tmp")) and not list(root.glob(".*"))

    def test_mounted_cache_sees_other_writers(self, tmp_path):
        """The cross-shard promise in miniature: a value published by
        one cache instance is a disk hit for a fresh one."""
        writer = EvalCache(disk_dir=tmp_path / "store")
        writer.put("shared-key", {"y": 42})
        reader = EvalCache(disk_dir=tmp_path / "store")
        assert reader.get("shared-key") == {"y": 42}
        assert reader.stats.disk_hits == 1

    def test_publish_pickle_atomic_replace(self, tmp_path):
        path = tmp_path / "value.pkl"
        publish_pickle(path, {"v": 1})
        publish_pickle(path, {"v": 2})
        cache = EvalCache(disk_dir=tmp_path)
        assert cache.get("value") == {"v": 2}


# ----------------------------------------------------------------------
# ShardRouter correctness
# ----------------------------------------------------------------------

class TestShardRouter:

    def test_basic_fleet_and_merged_report(self, tmp_path):
        with make_router(3, tmp_path) as router:
            handles = [router.submit("square", {"x": i % 7},
                                     priority="batch", client="t")
                       for i in range(30)]
            assert [h.result(timeout=60)["y"] for h in handles] == \
                [(i % 7) ** 2 for i in range(30)]
            report = router.report()
            check_report(report)
            serve = report["serve"]
            assert serve["admitted"] == 30 == serve["completed"]
            assert serve["admitted"] == (serve["completed"]
                                         + serve["expired"]
                                         + serve["cancelled"]
                                         + serve["errored"])
            assert len(serve["shards"]) == 3
            for entry in serve["shards"]:
                assert set(SHARD_FIELDS) <= set(entry)
            for lane in ("completed", "expired", "cancelled", "errored"):
                assert sum(s[lane] for s in serve["shards"]) == serve[lane]
            # The batching layer ran on the shards and merged back in.
            assert serve["batches"] >= 1
            assert report["cache"]["entries"] >= 7

    def test_shard_samples_reach_fleet_percentiles(self):
        """What a shard adds to the fleet report keeps its own samples,
        which the merged report turns into percentiles, and drops its
        per-request latencies, which the router times itself."""
        engine = EvaluationEngine()
        engine.telemetry.record_sample("surrogate.fit_s", 0.25)
        engine.telemetry.record_sample("serve.latency_s", 1.0)
        share, _ = _fleet_share(engine)
        fleet = Telemetry()
        fleet.merge(share)
        report = render_report(fleet, executor={}, cache=None, spans=[])
        assert report["surrogate"]["fit_latency_p50_s"] == 0.25
        assert report["serve"]["latency_p50_s"] is None

    def test_identical_requests_route_to_one_shard(self, tmp_path):
        with make_router(4, tmp_path) as router:
            for _ in range(8):
                router.submit("square", {"x": 5}).result(timeout=60)
            shards = router.report()["serve"]["shards"]
            assert sum(1 for s in shards if s["routed"]) == 1

    def test_cross_shard_disk_hit(self, tmp_path):
        """Same fn + key on two workload *names*: the names route
        independently, the shared store collapses the evaluation."""
        serve = ServeConfig(shards=4, shared_store_dir=str(tmp_path / "s"))
        router = ShardRouter(EngineConfig(executor="serial", serve=serve))
        router.register(Workload("square-a", square, key_fn=square_key))
        router.register(Workload("square-b", square, key_fn=square_key))
        with router:
            points = [{"x": i} for i in range(16)]
            for p in points:
                router.submit("square-a", p).result(timeout=60)
            for p in points:
                assert router.submit("square-b", p).result(
                    timeout=60) == square(p)
            report = router.report()
            a_routes = {s["shard"] for s in report["serve"]["shards"]
                        if s["routed"]}
            assert len(a_routes) > 1  # the fleet actually spread the work
            assert report["cache"]["disk_hits"] > 0

    def test_register_after_start_refused(self, tmp_path):
        with make_router(2, tmp_path) as router:
            with pytest.raises(RuntimeError, match="before start"):
                router.register(Workload("late", square))

    def test_unknown_workload_and_bad_priority(self, tmp_path):
        with make_router(2, tmp_path) as router:
            with pytest.raises(KeyError):
                router.submit("nope", {"x": 1})
            with pytest.raises(ValueError, match="priority"):
                router.submit("square", {"x": 1}, priority="vip")

    def test_errored_lane_counts(self, tmp_path):
        serve = ServeConfig(shards=2)
        router = ShardRouter(EngineConfig(executor="serial", serve=serve))
        router.register(Workload("boom", boom))
        with router:
            handles = [router.submit("boom", {"x": i}) for i in range(4)]
            for h in handles:
                with pytest.raises(RuntimeError, match="boom"):
                    h.result(timeout=60)
            serve_report = router.report()["serve"]
            assert serve_report["errored"] == 4
            assert serve_report["admitted"] == (
                serve_report["completed"] + serve_report["expired"]
                + serve_report["cancelled"] + serve_report["errored"])

    def test_draining_rejects(self, tmp_path):
        router = make_router(2, tmp_path)
        with router:
            router.submit("square", {"x": 1}).result(timeout=60)
        with pytest.raises(RejectedError, match="draining"):
            router.submit("square", {"x": 2})
        report = router.report()
        assert report["serve"]["requests"] == \
            report["serve"]["admitted"] + report["serve"]["rejected"]


class TestShardCrash:

    def _crash_shard(self, router, sid):
        shard = router._shards[sid]
        generation = shard.process
        assert router._send(shard, ("crash",))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with router._cond:
                if shard.process is not generation and shard.alive:
                    return
                if shard.condemned:
                    return
            time.sleep(0.01)
        raise AssertionError("shard neither respawned nor condemned")

    def test_crash_respawns_and_requeues(self, tmp_path):
        """Kill a shard mid-flight: the fleet respawns it, re-routes the
        orphans, and the invariant still balances — nothing dropped."""
        serve = ServeConfig(shards=2, shared_store_dir=str(tmp_path / "s"))
        router = ShardRouter(EngineConfig(executor="serial", serve=serve))

        def slow_square(point):
            time.sleep(0.05)
            return square(point)

        router.register(Workload("square", slow_square, key_fn=square_key))
        with router:
            handles = [router.submit("square", {"x": i}, priority="batch")
                       for i in range(24)]
            self._crash_shard(router, 0)
            outcomes = []
            for h in handles:
                try:
                    h.result(timeout=120)
                    outcomes.append("completed")
                except Exception:
                    outcomes.append(h.outcome)
            report = router.report()
            serve_report = report["serve"]
            assert serve_report["admitted"] == 24
            assert serve_report["admitted"] == (
                serve_report["completed"] + serve_report["expired"]
                + serve_report["cancelled"] + serve_report["errored"])
            assert outcomes.count("completed") == serve_report["completed"]
            assert report["counters"]["serve.shard_crashes"] >= 1
            shard0 = serve_report["shards"][0]
            assert shard0["restarts"] >= 1
            # Orphans were re-routed (counted), or the crash raced the
            # drain and they settled errored — either way accounted.
            assert shard0["rerouted"] + serve_report["errored"] >= 0
            assert serve_report["completed"] >= 1
            # The respawned shard serves new traffic.
            assert router.submit("square", {"x": 99}).result(
                timeout=120) == {"y": 99 ** 2}

    def test_condemned_after_restart_budget(self, tmp_path):
        serve = ServeConfig(shards=2)
        router = ShardRouter(EngineConfig(executor="serial", serve=serve),
                             max_restarts=1)
        router.register(Workload("square", square, key_fn=square_key))
        with router:
            self._crash_shard(router, 0)
            self._crash_shard(router, 0)
            with router._cond:
                assert router._shards[0].condemned
            # The survivor carries the whole keyspace.
            for i in range(10):
                assert router.submit("square", {"x": i}).result(
                    timeout=60) == {"y": i ** 2}
            health = router.healthz()
            assert health["shards"][0]["condemned"]
            report = router.report()
            assert report["serve"]["shards"][0]["condemned"]
            check_report(report)


# ----------------------------------------------------------------------
# Differential matrix: shard count never changes results
# ----------------------------------------------------------------------

class TestShardDifferential:

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_digests_identical_across_shard_counts(self, shards, tmp_path):
        points = [{"x": (7 * i + 3) % 23} for i in range(40)]
        with make_router(shards, tmp_path) as router:
            handles = [router.submit("square", p, priority="batch")
                       for p in points]
            for h in handles:
                h.result(timeout=120)
            digests = {
                (r["workload"], json.dumps(r["point"], sort_keys=True)):
                r["result_digest"]
                for r in router.request_log if r["outcome"] == "completed"}
            report = router.report()
            check_report(report)
            serve = report["serve"]
            assert serve["completed"] == len(points)
            assert serve["admitted"] == (serve["completed"]
                                         + serve["expired"]
                                         + serve["cancelled"]
                                         + serve["errored"])
        # Serial ground truth: one broker, no sharding.
        broker = Broker.from_config(EngineConfig(executor="serial"))
        broker.register(Workload("square", square, key_fn=square_key))
        with broker:
            expected = {}
            for p in points:
                broker.submit("square", p, priority="batch").result(
                    timeout=120)
            for r in broker.request_log:
                if r["outcome"] == "completed":
                    key = (r["workload"],
                           json.dumps(r["point"], sort_keys=True))
                    expected[key] = r["result_digest"]
        assert digests == expected

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_replay_trace_across_shard_counts(self, shards, tmp_path):
        points = [{"x": i % 11} for i in range(30)]
        with make_router(shards, tmp_path) as router:
            for p in points:
                router.submit("square", p, priority="batch").result(
                    timeout=120)
            trace = tmp_path / f"requests-{shards}.jsonl"
            router.write_request_trace(trace)
            workloads = router.workloads
        report = replay(trace, workloads)
        report.assert_ok()
        assert report.replayed == len(points)

    def test_replay_merges_multi_shard_trace_list(self, tmp_path):
        """A list of per-source traces replays as one seq-ordered log."""
        with make_router(2, tmp_path) as router:
            for i in range(12):
                router.submit("square", {"x": i}).result(timeout=120)
            log = list(router.request_log)
            workloads = router.workloads
        # Split the log as if each shard had kept its own half.
        part_a = [r for r in log if r.get("shard") == 0]
        part_b = [r for r in log if r.get("shard") != 0]
        report = replay([part_a, part_b], workloads)
        report.assert_ok()
        assert report.replayed == 12
        # File-based multi-trace merge too.
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, part in ((pa, part_a), (pb, part_b)):
            with open(path, "w") as fh:
                for r in part:
                    fh.write(json.dumps(r, sort_keys=True) + "\n")
        report = replay([str(pa), str(pb)], workloads)
        report.assert_ok()
        assert report.replayed == 12


# ----------------------------------------------------------------------
# ServeClient through the front door, over both backends
# ----------------------------------------------------------------------

def _client_roundtrip(backend):
    with make_async_server(backend) as server:
        with ServeClient(server.url, client="roundtrip") as client:
            assert client.evaluate("square", {"x": 6}) == {"y": 36}
            handle = client.submit("square", {"x": 7})
            assert handle.result(timeout=60) == {"y": 49}
            assert handle.outcome == "completed"
            streamed = sorted(
                value["y"] for _, outcome, value in
                client.stream("square", [{"x": i} for i in range(5)])
                if outcome == "completed")
            assert streamed == [0, 1, 4, 9, 16]
            health = client.healthz()
            assert health["status"] == "ok"
            assert "square" in health["workloads"]
            metrics = client.metrics()
            check_report(metrics)
            with pytest.raises(ValueError):
                client.evaluate("unknown-workload", {"x": 1})


class TestServeClient:

    def test_roundtrip_over_broker(self):
        broker = Broker.from_config(EngineConfig(executor="thread"))
        broker.register(Workload("square", square, key_fn=square_key))
        with broker:
            _client_roundtrip(broker)

    def test_roundtrip_over_shard_router(self, tmp_path):
        with make_router(2, tmp_path) as router:
            _client_roundtrip(router)

    def test_structured_errors_cross_the_wire(self):
        config = EngineConfig(
            executor="serial",
            serve=ServeConfig(max_queue_depth=1, rate=0.0001, burst=3))
        broker = Broker.from_config(config)

        def slow(point):
            time.sleep(0.2)
            return point

        broker.register(Workload("slow", slow))
        broker.register(Workload("boom", boom))
        with broker:
            with make_async_server(broker) as server:
                with ServeClient(server.url, client="errs") as client:
                    with pytest.raises(RemoteEngineError, match="boom"):
                        client.evaluate("boom", {"x": 1})
                    with pytest.raises(DeadlineExpiredError):
                        client.evaluate("slow", {"x": 1}, deadline_s=1e-6)
                    # The burst of 3 is exhausted by the calls above
                    # plus at most one more: the token bucket then
                    # refuses with a typed reason.
                    with pytest.raises(RejectedError) as exc_info:
                        for _ in range(8):
                            client.evaluate("slow", {"x": 2})
                    assert exc_info.value.reason in ("rate_limited",
                                                     "queue_full")

    def test_timeout_maps_to_pending(self):
        broker = Broker.from_config(EngineConfig(executor="thread"))

        def slow(point):
            time.sleep(0.5)
            return point

        broker.register(Workload("slow", slow))
        with broker:
            with make_async_server(broker) as server:
                with ServeClient(server.url) as client:
                    with pytest.raises(TimeoutError):
                        client.evaluate("slow", {"x": 1}, timeout_s=0.05)


# ----------------------------------------------------------------------
# ServeConfig drives the front door
# ----------------------------------------------------------------------

class TestServeConfigMigration:

    def test_new_fields_validate_and_describe(self):
        config = ServeConfig(shards=4, shared_store_dir="/tmp/store",
                             http_host="0.0.0.0", http_port=8080,
                             synthesize_workload="opamp")
        described = config.describe()
        assert described["shards"] == 4
        assert described["shared_store_dir"] == "/tmp/store"
        assert described["http_host"] == "0.0.0.0"
        assert described["http_port"] == 8080
        assert described["synthesize_workload"] == "opamp"
        with pytest.raises(ValueError, match="shards"):
            ServeConfig(shards=0)
        with pytest.raises(ValueError, match="http_port"):
            ServeConfig(http_port=70000)

    def test_config_drives_the_front_door(self):
        broker = Broker.from_config(EngineConfig(
            serve=ServeConfig(synthesize_workload="square")))
        broker.register(Workload("square", square))
        with broker:
            with make_async_server(broker) as server:
                assert server.app.synthesize_workload == "square"
                host, _port = server.address
                assert host == "127.0.0.1"
                with ServeClient(server.url) as client:
                    assert client.synthesize({"x": 2}) == {"y": 4}
