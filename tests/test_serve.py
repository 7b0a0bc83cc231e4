"""Tests for the serving layer: admission, deadlines, batching, fairness.

The deterministic tests drive a *paused* broker (constructed but not
started) with an injectable fake clock, so deadline expiry and
rate-limit refill are exact, not sleep-based; the broker is only started
once the queue state under test is in place.  Fake-clock configs always
use ``max_wait_ms=0`` — a batch window that waits on a frozen clock
would never close.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import (
    MANIFEST_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    EngineConfig,
    EvaluationEngine,
    ServeConfig,
    build_manifest,
    check_report,
    validate_manifest,
)
from repro.serve import (
    Broker,
    DeadlineExpiredError,
    RejectedError,
    RequestCancelledError,
    Session,
    TokenBucket,
    Workload,
    make_async_server,
    replay,
    result_digest,
)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def square(point):
    return {"y": point["x"] ** 2}


def make_broker(serve: ServeConfig | None = None, clock=None,
                **engine_kwargs) -> Broker:
    engine = EvaluationEngine.from_config(EngineConfig(**engine_kwargs))
    kwargs = {"clock": clock} if clock is not None else {}
    broker = Broker(engine, config=serve, owns_engine=True, **kwargs)
    broker.register(Workload("square", square))
    return broker


def serve_section(broker: Broker) -> dict:
    report = broker.report()
    check_report(report)
    return report["serve"]


def assert_accounting(serve: dict) -> None:
    """The zero-silent-drops invariant, with queues drained."""
    assert serve["requests"] == serve["admitted"] + serve["rejected"]
    assert serve["admitted"] == (serve["completed"] + serve["expired"]
                                 + serve["cancelled"] + serve["errored"])


# ----------------------------------------------------------------------
# Token bucket / admission primitives
# ----------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False]
        clock.advance(0.5)  # one token back at 2/s
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.advance(100.0)
        assert [bucket.try_take() for _ in range(3)] == [True, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


# ----------------------------------------------------------------------
# Admission: queue bounds, rate limits, draining
# ----------------------------------------------------------------------

class TestAdmission:
    def test_queue_full_rejects_explicitly(self):
        broker = make_broker(ServeConfig(max_queue_depth=2, max_wait_ms=0))
        try:
            broker.submit("square", {"x": 1})
            broker.submit("square", {"x": 2})
            with pytest.raises(RejectedError) as exc_info:
                broker.submit("square", {"x": 3})
            assert exc_info.value.reason == "queue_full"
            serve = serve_section(broker)
            assert serve["requests"] == 3
            assert serve["admitted"] == 2
            assert serve["rejected"] == 1
        finally:
            broker.close()
        assert_accounting(serve_section(broker))

    def test_queue_bound_is_per_priority_class(self):
        broker = make_broker(ServeConfig(max_queue_depth=1, max_wait_ms=0))
        try:
            broker.submit("square", {"x": 1}, priority="interactive")
            # The batch queue is bounded independently.
            broker.submit("square", {"x": 2}, priority="batch")
            with pytest.raises(RejectedError):
                broker.submit("square", {"x": 3}, priority="batch")
        finally:
            broker.close()

    def test_rate_limit_per_client(self):
        clock = FakeClock()
        broker = make_broker(
            ServeConfig(rate=1.0, burst=2, max_wait_ms=0), clock=clock)
        try:
            broker.submit("square", {"x": 1}, client="alice")
            broker.submit("square", {"x": 2}, client="alice")
            with pytest.raises(RejectedError) as exc_info:
                broker.submit("square", {"x": 3}, client="alice")
            assert exc_info.value.reason == "rate_limited"
            # Other clients are unharmed...
            broker.submit("square", {"x": 4}, client="bob")
            # ...and alice recovers as her bucket refills.
            clock.advance(1.0)
            broker.submit("square", {"x": 5}, client="alice")
        finally:
            broker.close(drain=False)
        serve = serve_section(broker)
        assert serve["rejected"] == 1
        assert_accounting(serve)

    def test_draining_broker_rejects(self):
        broker = make_broker(ServeConfig(max_wait_ms=0))
        broker.start()
        broker.close()
        with pytest.raises(RejectedError) as exc_info:
            broker.submit("square", {"x": 1})
        assert exc_info.value.reason == "draining"

    def test_unknown_workload_and_bad_priority(self):
        broker = make_broker()
        try:
            with pytest.raises(KeyError):
                broker.submit("nope", {"x": 1})
            with pytest.raises(ValueError):
                broker.submit("square", {"x": 1}, priority="urgent")
        finally:
            broker.close()


# ----------------------------------------------------------------------
# Deadlines and cancellation
# ----------------------------------------------------------------------

class TestDeadlines:
    def test_expiry_mid_queue(self):
        clock = FakeClock()
        broker = make_broker(ServeConfig(max_wait_ms=0), clock=clock)
        handle = broker.submit("square", {"x": 1}, deadline_s=0.5)
        clock.advance(1.0)  # deadline passes while queued, pre-dispatch
        broker.start()
        with pytest.raises(DeadlineExpiredError):
            handle.result(timeout=5)
        assert handle.outcome == "expired"
        broker.close()
        serve = serve_section(broker)
        assert serve["expired"] == 1 and serve["completed"] == 0
        assert_accounting(serve)

    def test_expiry_at_batch_assembly(self):
        clock = FakeClock()
        broker = make_broker(
            ServeConfig(max_wait_ms=0, max_batch=8), clock=clock)
        alive = broker.submit("square", {"x": 1})
        doomed = broker.submit("square", {"x": 2}, deadline_s=0.5)
        clock.advance(1.0)
        broker.start()
        # The live request is dequeued first and still dispatches; the
        # expired one is dropped while the same batch assembles.
        assert alive.result(timeout=5) == {"y": 1}
        with pytest.raises(DeadlineExpiredError):
            doomed.result(timeout=5)
        broker.close()
        serve = serve_section(broker)
        assert serve["completed"] == 1 and serve["expired"] == 1
        assert serve["batched"] == 1  # the expired one never took a slot
        assert_accounting(serve)

    def test_default_deadline_from_config(self):
        clock = FakeClock()
        broker = make_broker(
            ServeConfig(max_wait_ms=0, default_deadline_s=0.25), clock=clock)
        handle = broker.submit("square", {"x": 1})
        clock.advance(0.5)
        broker.start()
        with pytest.raises(DeadlineExpiredError):
            handle.result(timeout=5)
        broker.close()


class TestCancellation:
    def test_cancel_while_queued(self):
        broker = make_broker(ServeConfig(max_wait_ms=0))
        handle = broker.submit("square", {"x": 1})
        assert handle.cancel() is True
        assert handle.cancel() is False  # already terminal
        with pytest.raises(RequestCancelledError):
            handle.result(timeout=5)
        broker.start()
        broker.close()
        serve = serve_section(broker)
        assert serve["cancelled"] == 1 and serve["completed"] == 0
        assert_accounting(serve)

    def test_cancel_races_dispatch(self):
        """A cancel during execution of an earlier batch still wins for a
        queued request; a cancel after dispatch claimed it loses."""
        release = threading.Event()
        entered = threading.Event()

        def slow(point):
            entered.set()
            release.wait(timeout=10)
            return {"y": point["x"]}

        broker = make_broker(ServeConfig(max_wait_ms=0, max_batch=1))
        broker.register(Workload("slow", slow))
        broker.start()
        first = broker.submit("slow", {"x": 1})
        assert entered.wait(timeout=5)
        assert first.cancel() is False  # claimed by the dispatcher
        second = broker.submit("slow", {"x": 2})
        assert second.cancel() is True  # still queued behind the batch
        release.set()
        assert first.result(timeout=5) == {"y": 1}
        with pytest.raises(RequestCancelledError):
            second.result(timeout=5)
        broker.close()
        assert_accounting(serve_section(broker))

    def test_cancel_loses_once_coalesced_into_open_batch(self):
        """A request drained into an open batch window is claimed at
        drain time, so a racing cancel loses — it must not settle the
        request as cancelled while the batch also completes it."""
        clock = FakeClock()
        # The frozen fake clock keeps the batch window open forever; the
        # batch only closes when max_batch is reached, which makes the
        # open-window state deterministic to observe.
        broker = make_broker(
            ServeConfig(max_wait_ms=1000.0, max_batch=3), clock=clock)
        broker.start()
        first = broker.submit("square", {"x": 1})
        second = broker.submit("square", {"x": 2})
        deadline = time.monotonic() + 5.0
        while not second._request.claimed:
            assert time.monotonic() < deadline, \
                "dispatcher never drained the second request"
            time.sleep(0.005)
        assert second.cancel() is False  # claimed inside the open window
        third = broker.submit("square", {"x": 3})  # closes the batch
        assert [h.result(timeout=5)["y"]
                for h in (first, second, third)] == [1, 4, 9]
        broker.close()
        serve = serve_section(broker)
        assert serve["completed"] == 3 and serve["cancelled"] == 0
        assert serve["batches"] == 1 and serve["batched"] == 3
        assert_accounting(serve)

    def test_close_without_drain_cancels_loudly(self):
        broker = make_broker(ServeConfig(max_wait_ms=0))
        handles = [broker.submit("square", {"x": i}) for i in range(3)]
        broker.close(drain=False)
        for handle in handles:
            with pytest.raises(RequestCancelledError):
                handle.result(timeout=5)
        serve = serve_section(broker)
        assert serve["cancelled"] == 3
        assert_accounting(serve)


# ----------------------------------------------------------------------
# Dispatcher-side engine errors
# ----------------------------------------------------------------------

class TestEngineErrors:
    def test_engine_exception_fails_batch_as_errored(self):
        """``map_evaluate`` raising (no retry policy installed) fails
        every request of that batch in the distinct ``errored`` lane —
        not ``cancelled`` — and the dispatcher survives to serve the
        next batch."""
        def boom(point):
            raise RuntimeError("simulator exploded")

        broker = make_broker(ServeConfig(max_wait_ms=0, max_batch=4))
        broker.register(Workload("boom", boom))
        broker.start()
        doomed = [broker.submit("boom", {"x": i}) for i in range(2)]
        ok = broker.submit("square", {"x": 3})
        assert ok.result(timeout=5) == {"y": 9}
        for handle in doomed:
            with pytest.raises(RuntimeError, match="simulator exploded"):
                handle.result(timeout=5)
            assert handle.outcome == "errored"
        broker.close()
        serve = serve_section(broker)
        assert serve["errored"] == 2
        assert serve["cancelled"] == 0 and serve["completed"] == 1
        assert_accounting(serve)
        outcomes = {r["seq"]: r["outcome"] for r in broker.request_log}
        assert sorted(outcomes.values()) == [
            "completed", "errored", "errored"]
        # The request log is replayable: errored records are skipped.
        rep = replay(broker.request_log, broker.workloads)
        rep.assert_ok()
        assert rep.skipped == 2 and rep.replayed == 1


# ----------------------------------------------------------------------
# Batching and fairness
# ----------------------------------------------------------------------

class TestBatching:
    def test_queued_requests_coalesce_into_one_engine_batch(self):
        broker = make_broker(ServeConfig(max_wait_ms=0, max_batch=16))
        handles = [broker.submit("square", {"x": i}) for i in range(6)]
        broker.start()
        assert [h.result(timeout=5)["y"] for h in handles] == [
            i * i for i in range(6)]
        broker.close()
        serve = serve_section(broker)
        assert serve["batches"] == 1
        assert serve["batched"] == 6
        assert serve["mean_batch_size"] == 6.0
        assert serve["batch_size_hist"] == {"6": 1}
        assert serve["latency_p50_s"] is not None
        assert_accounting(serve)

    def test_max_batch_splits(self):
        broker = make_broker(ServeConfig(max_wait_ms=0, max_batch=4))
        handles = [broker.submit("square", {"x": i}) for i in range(10)]
        broker.start()
        for handle in handles:
            handle.result(timeout=5)
        broker.close()
        serve = serve_section(broker)
        assert serve["batches"] == 3
        assert serve["batch_size_hist"] == {"4": 2, "2": 1}

    def test_incompatible_workloads_never_share_a_batch(self):
        broker = make_broker(ServeConfig(max_wait_ms=0, max_batch=16))
        broker.register(Workload("cube", lambda p: {"y": p["x"] ** 3}))
        hs = [broker.submit("square", {"x": 2}),
              broker.submit("cube", {"x": 2}),
              broker.submit("square", {"x": 3})]
        broker.start()
        assert [h.result(timeout=5)["y"] for h in hs] == [4, 8, 9]
        broker.close()
        assert serve_section(broker)["batches"] == 2

    def test_identical_points_dedup_through_engine_cache(self):
        broker = make_broker(
            ServeConfig(max_wait_ms=0, max_batch=16), cache=True)
        wl = Workload("keyed", square,
                      key_fn=lambda p: f"keyed:{p['x']}")
        broker.register(wl)
        handles = [broker.submit("keyed", {"x": 7}) for _ in range(5)]
        broker.start()
        assert all(h.result(timeout=5) == {"y": 49} for h in handles)
        broker.close()
        report = broker.report()
        # One evaluation served five requests: batch dedup + cache.
        assert report["counters"].get("engine.evaluations", 0) == 1
        assert report["serve"]["completed"] == 5


class TestFairness:
    def test_interactive_burst_prevents_mutual_starvation(self):
        """With both classes saturated, interactive leads but batch-class
        work is served every ``interactive_burst`` dispatches."""
        broker = make_broker(ServeConfig(
            max_wait_ms=0, max_batch=1, interactive_burst=2))
        bulk = [broker.submit("square", {"x": i}, client="sweeper",
                              priority="batch") for i in range(6)]
        inter = [broker.submit("square", {"x": 10 + i}, client="designer")
                 for i in range(4)]
        broker.start()
        broker.close()  # drains everything
        for handle in bulk + inter:
            assert handle.result(timeout=5)["y"] is not None
        order = [(r["priority"], r["seq"]) for r in broker.request_log
                 if r["outcome"] == "completed"]
        priorities = [p for p, _ in order]
        # Interactive jumps the 6 already-queued batch requests...
        assert priorities[0] == "interactive"
        # ...but batch gets a slot within every interactive_burst+1 window
        # while interactive work remains, and nothing is lost.
        assert priorities[2] == "batch"
        assert sorted(priorities) == ["batch"] * 6 + ["interactive"] * 4
        # FIFO within each class.
        for cls in ("interactive", "batch"):
            seqs = [s for p, s in order if p == cls]
            assert seqs == sorted(seqs)
        assert_accounting(serve_section(broker))

    def test_two_clients_both_finish_under_saturation(self):
        broker = make_broker(
            ServeConfig(max_wait_ms=0, max_batch=2, interactive_burst=2))
        sweeper = Session(broker, "sweeper", priority="batch")
        designer = Session(broker, "designer", priority="interactive")
        sweeper.map("square", [{"x": i} for i in range(12)])
        designer.map("square", [{"x": i} for i in range(3)])
        broker.start()
        done = [h for h in designer.results(timeout=5)]
        assert all(h.outcome == "completed" for h in done)
        broker.close()
        serve = serve_section(broker)
        assert serve["completed"] == 15
        assert_accounting(serve)


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------

class TestSession:
    def test_quota_exceeded_is_counted_rejection(self):
        broker = make_broker(ServeConfig(max_wait_ms=0))
        session = Session(broker, "alice", quota=2)
        broker.start()
        session.submit("square", {"x": 1})
        session.submit("square", {"x": 2})
        with pytest.raises(RejectedError) as exc_info:
            session.submit("square", {"x": 3})
        assert exc_info.value.reason == "quota_exceeded"
        list(session.results(timeout=5))
        broker.close()
        serve = serve_section(broker)
        assert serve["requests"] == 3
        assert serve["rejected"] == 1
        assert_accounting(serve)

    def test_streaming_results_completion_order(self):
        broker = make_broker(ServeConfig(max_wait_ms=0, max_batch=1))
        session = Session(broker, "alice")
        session.map("square", [{"x": i} for i in range(5)])
        broker.start()
        seen = [h.result(timeout=5)["y"] for h in session.results(timeout=5)]
        assert sorted(seen) == [0, 1, 4, 9, 16]
        broker.close()

    def test_exit_with_error_cancels_pending(self):
        broker = make_broker(ServeConfig(max_wait_ms=0))
        with pytest.raises(RuntimeError, match="client bug"):
            with Session(broker, "alice") as session:
                session.submit("square", {"x": 1})
                raise RuntimeError("client bug")
        broker.start()
        broker.close()
        serve = serve_section(broker)
        assert serve["cancelled"] == 1
        assert_accounting(serve)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

class TestReplay:
    def run_traffic(self, tmp_path):
        broker = make_broker(ServeConfig(max_wait_ms=0, max_batch=4))
        with broker:
            handles = [broker.submit("square", {"x": i}) for i in range(8)]
            for handle in handles:
                handle.result(timeout=5)
        path = tmp_path / "requests.jsonl"
        broker.write_request_trace(path)
        return broker, path

    def test_replay_from_disk_matches(self, tmp_path):
        broker, path = self.run_traffic(tmp_path)
        report = replay(path, {"square": square})
        report.assert_ok()
        assert report.replayed == 8 and report.matched == 8

    def test_replay_through_engine_matches(self, tmp_path):
        broker, path = self.run_traffic(tmp_path)
        engine = EvaluationEngine()
        try:
            replay(path, broker.workloads, engine=engine).assert_ok()
        finally:
            engine.close()

    def test_replay_detects_divergence(self, tmp_path):
        _, path = self.run_traffic(tmp_path)
        report = replay(path, {"square": lambda p: {"y": p["x"] ** 2 + 1}})
        assert not report.ok
        assert len(report.mismatched) == 8
        with pytest.raises(AssertionError, match="replay diverged"):
            report.assert_ok()

    def test_result_digest_ignores_failure_wallclock(self):
        from repro.engine import EvalFailure
        a = EvalFailure("ConvergenceError", "boom", elapsed_s=0.1)
        b = EvalFailure("ConvergenceError", "boom", elapsed_s=9.9)
        assert result_digest(a) == result_digest(b)
        assert result_digest(a) != result_digest(
            EvalFailure("ConvergenceError", "other"))


# ----------------------------------------------------------------------
# HTTP front door
# ----------------------------------------------------------------------

class SlowReportBroker(Broker):
    """A backend whose report() takes as long as a slow shard fleet's."""

    report_delay_s = 2.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reporting = threading.Event()

    def report(self) -> dict:
        self.reporting.set()
        time.sleep(self.report_delay_s)
        return super().report()


def raw_exchange(url: str, request: bytes) -> bytes:
    """Send raw bytes to the front door; everything it answers."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestHttp:
    def request(self, url, body=None):
        if body is None:
            req = urllib.request.Request(url)
        else:
            req = urllib.request.Request(
                url, data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_facade_end_to_end(self):
        broker = make_broker(ServeConfig(max_wait_ms=0,
                                         synthesize_workload="square"))
        with broker, make_async_server(broker) as server:
            status, out = self.request(
                server.url + "/evaluate",
                {"workload": "square", "point": {"x": 5}, "client": "web"})
            assert status == 200 and out["result"] == {"y": 25}
            status, out = self.request(
                server.url + "/synthesize", {"point": {"x": 3}})
            assert status == 200 and out["result"] == {"y": 9}
            status, health = self.request(server.url + "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["queues"] == {"interactive": 0, "batch": 0}
            status, metrics = self.request(server.url + "/metrics")
            assert status == 200
            check_report(metrics)
            assert metrics["serve"]["completed"] == 2

    def test_facade_error_mapping(self):
        broker = make_broker(ServeConfig(max_wait_ms=0, max_queue_depth=1))
        with make_async_server(broker) as server:  # broker NOT started
            status, _ = self.request(server.url + "/nope")
            assert status == 404
            status, out = self.request(server.url + "/evaluate",
                                       {"point": {"x": 1}})
            assert status == 400
            status, out = self.request(
                server.url + "/evaluate",
                {"workload": "missing", "point": {"x": 1}})
            assert status == 400
            # Fill the queue, then watch backpressure surface as 429.
            broker.submit("square", {"x": 1})
            status, out = self.request(
                server.url + "/evaluate",
                {"workload": "square", "point": {"x": 2}})
            assert status == 429 and out["reason"] == "queue_full"
        broker.close()

    def test_unbounded_wait_is_capped_server_side(self):
        """No timeout_s and no deadline anywhere: the handler thread is
        released by the ``http_max_wait_s`` ceiling, 504 pending."""
        broker = make_broker(
            ServeConfig(max_wait_ms=0, http_max_wait_s=0.2))
        try:
            with make_async_server(broker) as server:  # not started:
                status, out = self.request(      # the request never runs
                    server.url + "/evaluate",
                    {"workload": "square", "point": {"x": 1}})
                assert status == 504 and out["outcome"] == "pending"
        finally:
            broker.close()

    def test_engine_error_maps_to_500(self):
        def boom(point):
            raise RuntimeError("simulator exploded")

        broker = make_broker(ServeConfig(max_wait_ms=0))
        broker.register(Workload("boom", boom))
        with broker, make_async_server(broker) as server:
            status, out = self.request(
                server.url + "/evaluate",
                {"workload": "boom", "point": {"x": 1}})
            assert status == 500 and out["outcome"] == "errored"
            assert "simulator exploded" in out["error"]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_a_400(self, length):
        broker = make_broker(ServeConfig(max_wait_ms=0))
        with broker, make_async_server(broker) as server:
            reply = raw_exchange(server.url, (
                f"POST /evaluate HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {length}\r\n\r\n").encode())
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert "Content-Length" in json.loads(body)["error"]
            # The front door still serves the next connection.
            status, out = self.request(
                server.url + "/evaluate",
                {"workload": "square", "point": {"x": 4}})
            assert status == 200 and out["result"] == {"y": 16}

    def test_slow_metrics_does_not_stall_evaluate(self):
        """A GET waits on the backend off the event loop: a concurrent
        /evaluate answers while /metrics is still being assembled."""
        engine = EvaluationEngine.from_config(EngineConfig())
        broker = SlowReportBroker(engine, config=ServeConfig(max_wait_ms=0),
                                  owns_engine=True)
        broker.register(Workload("square", square))
        done: dict[str, float] = {}

        def get_metrics(url):
            status, _ = self.request(url + "/metrics")
            assert status == 200
            done["metrics"] = time.monotonic()

        with broker, make_async_server(broker) as server:
            getter = threading.Thread(target=get_metrics, args=(server.url,))
            getter.start()
            assert broker.reporting.wait(timeout=10)
            status, out = self.request(
                server.url + "/evaluate",
                {"workload": "square", "point": {"x": 3}})
            done["evaluate"] = time.monotonic()
            getter.join(timeout=30)
        assert not getter.is_alive() and "metrics" in done
        assert status == 200 and out["result"] == {"y": 9}
        assert done["evaluate"] < done["metrics"]


# ----------------------------------------------------------------------
# Schemas: report v4 and manifest v3 carry the serve story
# ----------------------------------------------------------------------

class TestSchemas:
    def test_report_v4_has_serve_section(self):
        engine = EvaluationEngine()
        try:
            report = engine.report()
            assert report["schema_version"] == REPORT_SCHEMA_VERSION == 9
            check_report(report)
            assert report["serve"]["requests"] == 0
            assert report["serve"]["latency_p50_s"] is None
        finally:
            engine.close()

    def test_manifest_v3_rolls_up_serve(self):
        config = EngineConfig(trace=True,
                              serve=ServeConfig(max_wait_ms=0, max_batch=4))
        engine = EvaluationEngine.from_config(config)
        broker = Broker(engine, config=config.serve, owns_engine=True)
        broker.register(Workload("square", square))
        with broker:
            handles = [broker.submit("square", {"x": i}) for i in range(5)]
            for handle in handles:
                handle.result(timeout=5)
        manifest = build_manifest("serve_session", engine, seed=1,
                                  config=config)
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION == 8
        validate_manifest(manifest)
        rollups = manifest["rollups"]
        assert rollups["serve_requests"] == 5
        assert rollups["serve_rejected"] == 0
        assert rollups["serve_batches"] == 2
        assert rollups["serve_mean_batch_size"] == 2.5
        # Serve traffic is traced: the batch spans made it in.
        def walk(span):
            yield span["name"]
            for child in span.get("children", []):
                yield from walk(child)
        names = {name for root in manifest["report"].get("spans", [])
                 for name in walk(root)}
        assert "serve.batch" in names and "serve.request" in names

    def test_serve_request_span_end_events_match_span_tree(self):
        """The ``span_end`` events and the span tree agree on every
        serve.request phase duration (the spans are recorded pre-timed,
        so the event log must not report the ~0 enter/exit time)."""
        config = EngineConfig(trace=True,
                              serve=ServeConfig(max_wait_ms=0, max_batch=4))
        engine = EvaluationEngine.from_config(config)
        broker = Broker(engine, config=config.serve, owns_engine=True)
        broker.register(Workload("square", square))
        with broker:
            for handle in [broker.submit("square", {"x": i})
                           for i in range(4)]:
                handle.result(timeout=5)
        tree: dict[str, list] = {}
        for root in engine.tracer.roots:
            for span in root.walk():
                tree.setdefault(span.path, []).append(span.duration_s)
        events: dict[str, list] = {}
        for record in engine.tracer.events:
            if (record["kind"] == "span_end"
                    and record["span"].startswith("serve.request")):
                events.setdefault(record["span"], []).append(
                    record["duration_s"])
        assert set(events) == {
            "serve.request", "serve.request/queue_wait",
            "serve.request/batch_wait", "serve.request/execute"}
        for path, durations in events.items():
            assert sorted(durations) == sorted(tree[path])
        # The latencies are the real request latencies, not enter/exit.
        assert any(d > 0 for d in events["serve.request"])
