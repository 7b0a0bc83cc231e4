"""The request broker: priority queues, dispatcher thread, batched dispatch.

This is the front door the ROADMAP's "serves heavy traffic" goal needs:
concurrent clients submit evaluation requests, the broker admits or
rejects them (:mod:`repro.serve.admission`), queues them per priority
class (``interactive`` ahead of ``batch``, with an anti-starvation
credit so bulk clients still progress), and a single dispatcher thread
drains the queues through the dynamic micro-batcher
(:mod:`repro.serve.batching`) into one
:meth:`~repro.engine.core.EvaluationEngine.map_evaluate` call per batch.
Caching, deduplication, fault injection, retries and tracing are all
inherited from the engine unchanged — the broker adds *when* and *with
whom* a request runs, never *how*.

Lifecycle of a request::

    submit ──admission──► queued ──dequeue──► batched ──execute──► done
       │rejected              │expired/cancelled (skipped at dequeue
       ▼                      ▼  and at batch-assembly time)
    RejectedError          waiter woken with the matching error

Every transition is counted (``serve.requests``, ``serve.admitted``,
``serve.rejected``, ``serve.expired``, ``serve.cancelled``,
``serve.errored``, ``serve.completed``, ``serve.batches``,
``serve.batched``, ``serve.batch_size.<n>``) and per-request latencies
are sampled into the engine telemetry, so ``engine.report()["serve"]``
— report schema v4 — states the whole story, percentiles included.
Nothing is ever silently dropped:
``admitted == completed + expired + cancelled + errored`` once the
queues drain (``errored`` is the dispatcher-side failure lane: the
engine call itself raised, and every request of that batch was failed
with the raising exception).

Threading model: client threads touch only ``submit``/``cancel`` (which
take the broker lock) and handle waits; the dispatcher thread is the
only one that runs the engine, bumps engine counters, and touches the
tracer — so an engine with a :class:`~repro.engine.trace.Tracer` records
a ``serve.batch`` span per dispatch with ``serve.request`` child spans
(queue-wait / batch-wait / execute phases) without any cross-thread
tracer access.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.config import EngineConfig, ServeConfig
from repro.engine.core import EvaluationEngine
from repro.serve.admission import (
    PRIORITY_CLASSES,
    AdmissionLedger,
    DeadlineExpiredError,
    RequestCancelledError,
)
from repro.serve.batching import MicroBatcher
from repro.serve.replay import result_digest


@dataclass(frozen=True)
class Workload:
    """A named evaluation the service offers.

    ``fn`` is the pure point → result mapping the engine executes;
    ``key_fn`` (optional) maps a point to its content-addressed cache
    key, exactly as :meth:`EvaluationEngine.map_evaluate` expects —
    with it, identical requests from different clients collapse onto one
    evaluation.  Two requests are batchable iff they name the same
    workload, which is what guarantees one ``fn`` per engine batch.
    """

    name: str
    fn: Callable[[Any], Any]
    key_fn: Callable[[Any], str] | None = None


class ResultHandle:
    """A waitable slot for one request's outcome.

    ``result(timeout)`` blocks until the request completes (returning
    the evaluation result, :class:`~repro.engine.faults.EvalFailure`
    included — failures are values), or raises the terminal error:
    :class:`DeadlineExpiredError`, :class:`RequestCancelledError`, the
    engine-side exception for an ``"errored"`` batch, or
    ``TimeoutError`` if the wait itself runs out (the request stays
    in flight).  ``outcome`` is one of ``"pending"``, ``"completed"``,
    ``"expired"``, ``"cancelled"``, ``"errored"``.
    """

    def __init__(self, broker: "Broker", request: "_Request"):
        self._broker = broker
        self._request = request
        self._event = threading.Event()
        self._value: Any = None
        self._exc: BaseException | None = None
        self._callbacks: list[Callable[["ResultHandle"], None]] = []
        self.outcome = "pending"

    # -- client side ---------------------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def cancel(self) -> bool:
        """Cancel if still queued; False once dispatch claimed it."""
        return self._broker._cancel(self._request)

    def result(self, timeout: float | None = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError("request still in flight")
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError("request still in flight")
        return self._exc

    def add_done_callback(self, fn: Callable[["ResultHandle"], None]) -> None:
        """Run ``fn(handle)`` once the request reaches a terminal state.

        Callbacks fire under the broker lock (or immediately, in the
        caller's thread, if already done) — keep them cheap, e.g. a
        queue put; sessions use this for completion-order streaming.
        """
        with self._broker._cond:
            if self._event.is_set():
                pending = False
            else:
                self._callbacks.append(fn)
                pending = True
        if not pending:
            fn(self)

    # -- broker side (lock held) ---------------------------------------
    def _complete(self, value: Any) -> None:
        self.outcome = "completed"
        self._value = value
        self._event.set()
        self._run_callbacks()

    def _fail(self, outcome: str, exc: BaseException) -> None:
        self.outcome = outcome
        self._exc = exc
        self._event.set()
        self._run_callbacks()

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


@dataclass
class _Request:
    """Internal queued-request record; timestamps are broker-clock."""

    seq: int
    workload: Workload
    point: Any
    client: str
    priority: str
    deadline: float | None          # absolute, broker clock
    deadline_s: float | None        # relative, as submitted (for the trace)
    t_submit: float
    handle: ResultHandle = field(init=False)
    t_dequeue: float | None = None
    claimed: bool = False
    cancelled: bool = False


class Broker:
    """Multi-tenant, batched synthesis-as-a-service over one engine.

    Parameters
    ----------
    engine:
        The shared :class:`EvaluationEngine` every batch runs through.
    config:
        :class:`~repro.engine.config.ServeConfig` knobs (batching,
        admission, fairness); defaults apply when omitted.
    clock:
        Injectable monotonic clock — deadline and batching tests drive
        time explicitly instead of sleeping.
    record_trace:
        Keep a structured request log (point, outcome, result digest)
        for :func:`repro.serve.replay` — bounded only by the run, so
        long-lived production brokers may switch it off.
    """

    def __init__(self, engine: EvaluationEngine,
                 config: ServeConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 record_trace: bool = True,
                 owns_engine: bool = False):
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.clock = clock
        self._owns_engine = owns_engine
        self._batcher = MicroBatcher(self.config, clock)
        self._workloads: dict[str, Workload] = {}
        self._queues: dict[str, list[_Request]] = {
            cls: [] for cls in PRIORITY_CLASSES}
        self._cond = threading.Condition()
        self._ledger = AdmissionLedger(self.config, engine.telemetry,
                                       self._cond, clock, record_trace)
        # The ledger's public surface, under the broker's own names.
        self.request_log = self._ledger.request_log
        self.count_client_reject = self._ledger.count_client_reject
        self.write_request_trace = self._ledger.write_request_trace
        self._seq = 0
        self._consecutive_interactive = 0
        self._stopped = False
        self._drain_on_stop = True
        self._thread: threading.Thread | None = None
        self._t0 = clock()
        # Surrogate corpus sidecar: with a corpus_dir configured, every
        # completed keyed request appends its cache key → point mapping,
        # making served traffic harvestable as surrogate training data
        # (repro.surrogate.harvest_cache).  Dispatcher thread only.
        self._corpus_index = None
        if self.config.corpus_dir is not None:
            from pathlib import Path

            from repro.surrogate.corpus import CorpusIndex
            self._corpus_index = CorpusIndex(
                Path(self.config.corpus_dir) / "corpus_index.jsonl")

    @classmethod
    def from_config(cls, config: EngineConfig | None = None,
                    **kwargs) -> "Broker":
        """Build engine and broker in one step; the broker owns the engine.

        The serve knobs come from ``config.serve``; ``"thread"`` is the
        natural executor for blocking workloads behind a service.
        """
        config = config if config is not None else EngineConfig()
        engine = EvaluationEngine.from_config(config)
        return cls(engine, config=config.serve, owns_engine=True, **kwargs)

    # -- registry ------------------------------------------------------
    def register(self, workload: Workload) -> Workload:
        if workload.name in self._workloads:
            raise ValueError(f"workload {workload.name!r} already registered")
        self._workloads[workload.name] = workload
        return workload

    @property
    def workloads(self) -> dict[str, Workload]:
        return dict(self._workloads)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Broker":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="serve-dispatcher", daemon=True)
            self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting; drain (default) or cancel queued requests."""
        with self._cond:
            self._stopped = True
            self._drain_on_stop = drain
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._cond:
            # Whatever is still queued (drain=False, or no dispatcher
            # ever ran): cancelled loudly, never silently dropped.
            for queue in self._queues.values():
                for req in queue:
                    self._dispose(req, "cancelled")
                queue.clear()
        if self._corpus_index is not None:
            self._corpus_index.close()
            self._corpus_index = None
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "Broker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------
    def submit(self, workload: str | Workload, point: Any, *,
               client: str = "anon", priority: str = "interactive",
               deadline_s: float | None = None) -> ResultHandle:
        """Admit one request; returns a handle or raises RejectedError.

        ``priority`` must be one of :data:`PRIORITY_CLASSES`;
        ``deadline_s`` (relative) defaults to the config's
        ``default_deadline_s``.  Rejection is synchronous — a rejected
        request never occupies queue space.
        """
        wl, deadline_s = self._ledger.resolve(
            workload, priority, deadline_s, self._workloads, self.register)
        with self._cond:
            now = self.clock()
            self._ledger.admit(
                client, wl.name, priority, len(self._queues[priority]),
                "broker is shutting down" if self._stopped else None)
            self._seq += 1
            req = _Request(
                seq=self._seq, workload=wl, point=point, client=client,
                priority=priority,
                deadline=(now + deadline_s) if deadline_s is not None
                else None,
                deadline_s=deadline_s, t_submit=now)
            req.handle = ResultHandle(self, req)
            self._queues[priority].append(req)
            self._cond.notify_all()
            return req.handle

    def _cancel(self, req: _Request) -> bool:
        with self._cond:
            if req.claimed or req.handle.done():
                return False
            req.cancelled = True
            self._dispose(req, "cancelled")
            # Leave the request in its queue; assembly's ready() check
            # discards already-disposed entries without re-counting.
            self._cond.notify_all()
            return True

    # -- introspection -------------------------------------------------
    def queue_depths(self) -> dict[str, int]:
        with self._cond:
            return {cls: len(q) for cls, q in self._queues.items()}

    def report(self) -> dict:
        """The engine's versioned report — ``serve`` section included."""
        return self.engine.report()

    def healthz(self) -> dict:
        depths = self.queue_depths()
        return {
            "status": "draining" if self._stopped else "ok",
            "uptime_s": self.clock() - self._t0,
            "queues": depths,
            "workloads": sorted(self._workloads),
        }

    # -- dispatcher ----------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and not self._has_work():
                    self._cond.wait()
                if self._stopped and (not self._drain_on_stop
                                      or not self._has_work()):
                    return
                cls = self._pick_class()
                first = self._pop_ready(cls)
                if first is None:
                    continue
                self._claim(first)
                batch = self._batcher.assemble(
                    self._cond, self._queues[cls], first,
                    compatible=lambda a, b: a.workload is b.workload,
                    ready=self._ready,
                    on_drop=lambda r, _where: self._claim_drop(r),
                    on_add=self._claim)
                t_assembled = self.clock()
            self._execute(batch, t_assembled)

    def _has_work(self) -> bool:
        return any(self._queues.values())

    def _pick_class(self) -> str:
        """Strict interactive priority with an anti-starvation credit.

        After ``interactive_burst`` consecutive interactive batches with
        batch-class work waiting, one batch-class batch is served — a
        saturating interactive client cannot starve bulk traffic, and
        vice versa strict priority keeps interactive latency flat under
        a saturating batch client.
        """
        interactive = self._queues["interactive"]
        bulk = self._queues["batch"]
        if interactive and bulk:
            if self._consecutive_interactive >= self.config.interactive_burst:
                self._consecutive_interactive = 0
                return "batch"
            self._consecutive_interactive += 1
            return "interactive"
        if interactive:
            self._consecutive_interactive += 1
            return "interactive"
        self._consecutive_interactive = 0
        return "batch"

    def _ready(self, req: _Request) -> bool:
        """Still worth dispatching?  Disposes expired entries as a side
        effect so the caller can drop them (cancelled ones were already
        disposed at cancel time)."""
        if req.cancelled or req.handle.done():
            return False
        if req.deadline is not None and self.clock() > req.deadline:
            self._dispose(req, "expired")
            return False
        return True

    def _pop_ready(self, cls: str) -> _Request | None:
        """Pop the queue head, discarding expired/cancelled entries."""
        queue = self._queues[cls]
        while queue:
            req = queue.pop(0)
            if self._ready(req):
                return req
        return None

    def _claim(self, req: _Request) -> None:
        req.claimed = True
        req.t_dequeue = self.clock()

    def _claim_drop(self, req: _Request) -> None:
        # Dropped at batch-assembly time: _ready already disposed it.
        req.claimed = True

    def _dispose(self, req: _Request, outcome: str) -> None:
        """Terminal non-completion (lock held): count, record, wake."""
        if req.handle.done():
            return
        tele = self.engine.telemetry
        tele.count(f"serve.{outcome}")
        if outcome == "expired":
            exc: BaseException = DeadlineExpiredError(
                f"deadline_s={req.deadline_s} passed in queue "
                f"(client {req.client!r}, workload {req.workload.name!r})")
        else:
            exc = RequestCancelledError(
                f"request cancelled (client {req.client!r}, "
                f"workload {req.workload.name!r})")
        req.handle._fail(outcome, exc)
        self._ledger.record(req, outcome)

    def _execute(self, batch: list[_Request], t_assembled: float) -> None:
        """One engine batch for one workload (dispatcher thread only)."""
        workload = batch[0].workload
        points = [r.point for r in batch]
        tracer = self.engine.tracer
        span_cm = (tracer.span("serve.batch") if tracer is not None
                   else None)
        if span_cm is not None:
            span_cm.__enter__()
        try:
            values = self.engine.map_evaluate(workload.fn, points,
                                              key_fn=workload.key_fn)
        except BaseException as exc:
            # map_evaluate raising (no retry policy installed) must not
            # kill the dispatcher: fail the whole batch loudly — in its
            # own ``errored`` lane, so dispatcher-side failures stay
            # distinguishable from client cancellations in the counters
            # and the request log.
            if span_cm is not None:
                span_cm.__exit__(type(exc), exc, exc.__traceback__)
            with self._cond:
                for req in batch:
                    if req.handle.done():
                        continue  # already settled and counted elsewhere
                    self.engine.telemetry.count("serve.errored")
                    req.handle._fail("errored", exc)
                    self._ledger.record(req, "errored")
            return
        if span_cm is not None:
            span_cm.__exit__(None, None, None)
        t_done = self.clock()
        tele = self.engine.telemetry
        with self._cond:
            tele.count("serve.batches")
            tele.count("serve.batched", len(batch))
            tele.count(f"serve.batch_size.{len(batch)}")
            completed = []
            for req, value in zip(batch, values):
                if req.handle.done():
                    continue  # already settled and counted elsewhere
                tele.count("serve.completed")
                tele.record_sample("serve.latency_s", t_done - req.t_submit)
                req.handle._complete(value)
                self._ledger.record(req, "completed",
                                    result_digest=result_digest(value))
                completed.append(req)
                if (self._corpus_index is not None
                        and workload.key_fn is not None
                        and isinstance(req.point, dict)):
                    try:
                        self._corpus_index.record(
                            workload.key_fn(req.point), req.point)
                    except (TypeError, ValueError):
                        pass  # unkeyable/unserializable point: no record
            if tracer is not None:
                self._trace_requests(tracer, completed, t_assembled, t_done)

    def _trace_requests(self, tracer, batch: list[_Request],
                        t_assembled: float, t_done: float) -> None:
        """One ``serve.request`` span (+ phase children) per request.

        The work already happened inside the ``serve.batch`` span, so
        the spans are recorded *pre-timed*: the durations come from the
        request's timestamps and are handed to ``tracer.span`` up front,
        which makes the ``span_end`` events and the span tree agree on
        every queue-wait / batch-wait / execute phase duration.
        """
        for req in batch:
            t_dequeue = req.t_dequeue if req.t_dequeue is not None \
                else t_assembled
            queue_wait = max(0.0, t_dequeue - req.t_submit)
            batch_wait = max(0.0, t_assembled - t_dequeue)
            execute = max(0.0, t_done - t_assembled)
            latency = max(0.0, t_done - req.t_submit)
            with tracer.span("serve.request", duration_s=latency):
                with tracer.span("queue_wait", duration_s=queue_wait):
                    pass
                with tracer.span("batch_wait", duration_s=batch_wait):
                    pass
                with tracer.span("execute", duration_s=execute):
                    pass
            tracer.event("serve.request", seq=req.seq, client=req.client,
                         workload=req.workload.name, priority=req.priority,
                         status="completed",
                         queue_wait_s=queue_wait,
                         batch_wait_s=batch_wait,
                         execute_s=execute,
                         latency_s=latency)
