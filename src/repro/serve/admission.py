"""Admission control: token buckets, queue bounds, explicit rejection.

A service that accepts every request dies by queueing: latency grows
without bound, deadlines pass silently, and the clients that caused the
overload are the last to notice.  The serving layer therefore refuses
work *at the front door*, loudly, with a structured
:class:`RejectedError` that names the reason — never a silent drop.  The
accounting invariant the smoke tests assert is::

    serve.requests == serve.admitted + serve.rejected
    serve.admitted == serve.completed + serve.expired + serve.cancelled
                      + serve.errored   (once the queues drain)

Two admission gates run at submit time, cheapest first:

* **queue depth** — each priority class's queue is bounded
  (``ServeConfig.max_queue_depth``); a submit against a full queue is
  backpressure, reason ``"queue_full"``;
* **rate limit** — a per-client :class:`TokenBucket`
  (``ServeConfig.rate`` / ``burst``); a client over its sustained rate is
  rejected with reason ``"rate_limited"`` while other clients continue
  unharmed.

Deadlines are the third, time-shifted gate: an admitted request that
outlives ``deadline_s`` is *expired* — skipped at dequeue and at
batch-assembly time by the broker, its waiter woken with
:class:`DeadlineExpiredError`, counted under ``serve.expired``.

:class:`AdmissionLedger` is the one place a request is admitted and
counted: the broker and the shard router each hold one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.engine.config import ServeConfig

#: Priority classes, highest first.  ``interactive`` is what a designer
#: sitting at a tool feels; ``batch`` is sweep/characterization traffic.
PRIORITY_CLASSES = ("interactive", "batch")


class RejectedError(RuntimeError):
    """The service refused a request at admission (backpressure).

    ``reason`` is one of ``"queue_full"``, ``"rate_limited"``,
    ``"quota_exceeded"`` (session-level), or ``"draining"`` (broker
    shutting down).  Clients are expected to back off and retry; the
    request was never queued.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"request rejected ({reason})"
                         + (f": {detail}" if detail else ""))
        self.reason = reason


class DeadlineExpiredError(RuntimeError):
    """An admitted request's deadline passed before it was dispatched."""


class RequestCancelledError(RuntimeError):
    """The client cancelled an admitted request before it was dispatched."""


@dataclass
class TokenBucket:
    """Classic token bucket: sustained ``rate``/s with ``burst`` headroom.

    Refill is computed lazily from the clock at each ``try_take`` — no
    background thread.  The ``clock`` is injectable so tests drive time
    explicitly instead of sleeping.
    """

    rate: float
    burst: float
    clock: Callable[[], float] = time.monotonic
    tokens: float = field(init=False)
    _last: float = field(init=False)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        self.tokens = float(self.burst)
        self._last = self.clock()

    def try_take(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; False means rate-limited."""
        now = self.clock()
        self.tokens = min(float(self.burst),
                          self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class AdmissionController:
    """The broker's front door: queue bounds plus per-client buckets.

    Not thread-safe on its own — :class:`AdmissionLedger` calls
    :meth:`admit` under its owner's lock, which also serializes the
    ``serve.*`` counter updates made around it.
    """

    def __init__(self, config: ServeConfig,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self.clock = clock
        self._buckets: dict[str, TokenBucket] = {}

    def admit(self, client: str, queue_depth: int) -> None:
        """Raise :class:`RejectedError` unless the request may enqueue."""
        if queue_depth >= self.config.max_queue_depth:
            raise RejectedError(
                "queue_full",
                f"queue depth {queue_depth} >= "
                f"max_queue_depth {self.config.max_queue_depth}")
        if self.config.rate is None:
            return
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(rate=self.config.rate,
                                 burst=self.config.burst, clock=self.clock)
            self._buckets[client] = bucket
        if not bucket.try_take():
            raise RejectedError(
                "rate_limited",
                f"client {client!r} exceeded {self.config.rate}/s "
                f"(burst {self.config.burst})")


class AdmissionLedger:
    """Submit-time checks, admission accounting and the request log.

    :class:`~repro.serve.broker.Broker` and
    :class:`~repro.serve.shard.ShardRouter` each hold one.  The ledger
    does what both do around admission: look up the workload, check the
    priority class and apply the default deadline (:meth:`resolve`);
    count ``serve.requests`` / ``admitted`` / ``rejected`` /
    ``rejected.<reason>`` and log every rejection (:meth:`admit`,
    :meth:`count_client_reject`); keep the request log (:meth:`record`,
    :meth:`write_request_trace`).  The owner keeps what differs: the
    depth the queue bound sees and what happens after admission.

    Not thread-safe on its own: :meth:`admit` and :meth:`record` run
    under the owner's ``lock``, which the ledger borrows to take itself
    in :meth:`count_client_reject` and :meth:`write_request_trace`.
    With ``shard_key`` every record names the shard that settled it
    (``None`` for rejections), as the router's log does.
    """

    def __init__(self, config: ServeConfig, telemetry: Any, lock: Any,
                 clock: Callable[[], float] = time.monotonic,
                 record_trace: bool = True, shard_key: bool = False):
        self.config = config
        self.telemetry = telemetry
        self.record_trace = record_trace
        self.request_log: list[dict] = []
        self._lock = lock
        self._admission = AdmissionController(config, clock)
        self._shard_key = shard_key

    def resolve(self, workload: Any, priority: str,
                deadline_s: float | None, workloads: dict,
                register: Callable[[Any], Any]) -> tuple[Any, float | None]:
        """Return ``(workload, deadline_s)`` for one submit.

        ``workload`` is a registered name or a workload object, which is
        registered through ``register`` on first sight.  Raises
        ``KeyError`` for an unknown name and ``ValueError`` for a
        clashing workload or an unknown priority class.
        """
        if isinstance(workload, str):
            wl = workloads.get(workload)
            if wl is None:
                raise KeyError(f"unknown workload {workload!r}")
        else:
            wl = workloads.get(workload.name)
            if wl is None:
                wl = register(workload)
            elif wl is not workload:
                raise ValueError(
                    f"workload name {workload.name!r} already bound to a "
                    f"different workload")
        if priority not in PRIORITY_CLASSES:
            raise ValueError(f"priority must be one of {PRIORITY_CLASSES}, "
                             f"got {priority!r}")
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        return wl, deadline_s

    def admit(self, client: str, workload: str, priority: str, depth: int,
              draining: str | None = None) -> None:
        """Count one request and admit it, or count, log and raise.

        ``depth`` is what the queue bound sees; ``draining`` is the
        detail of a ``"draining"`` refusal while the owner shuts down.
        """
        self.telemetry.count("serve.requests")
        try:
            if draining is not None:
                raise RejectedError("draining", draining)
            self._admission.admit(client, depth)
        except RejectedError as exc:
            self._reject(client, exc.reason, workload, priority=priority)
            raise
        self.telemetry.count("serve.admitted")

    def count_client_reject(self, client: str, reason: str,
                            workload: str | None = None) -> None:
        """Account a client-side rejection (e.g. session quota).

        Keeps the ``requests == admitted + rejected`` invariant honest
        for refusals that never reach ``submit``.
        """
        with self._lock:
            self.telemetry.count("serve.requests")
            self._reject(client, reason, workload)

    def _reject(self, client: str, reason: str, workload: str | None,
                **extra: Any) -> None:
        self.telemetry.count("serve.rejected")
        self.telemetry.count(f"serve.rejected.{reason}")
        self.record(None, "rejected", client=client, workload=workload,
                    reason=reason, **extra)

    def record(self, req: Any, outcome: str,
               result_digest: str | None = None, shard: int | None = None,
               **extra: Any) -> None:
        """Append one request-log record.

        ``req`` is the owner's request record (``seq``, ``client``,
        ``workload``, ``priority``, ``deadline_s``, ``point``), or None
        for a rejection, whose fields come in ``extra``.
        """
        if not self.record_trace:
            return
        if req is None:
            record = {"seq": None, "outcome": outcome,
                      "result_digest": None, **extra}
        else:
            record = {
                "seq": req.seq, "client": req.client,
                # The broker's requests carry the Workload, the
                # router's its name.
                "workload": getattr(req.workload, "name", req.workload),
                "priority": req.priority, "deadline_s": req.deadline_s,
                "point": req.point, "outcome": outcome,
                "result_digest": result_digest,
            }
        if self._shard_key:
            record["shard"] = shard
        self.request_log.append(record)

    def write_request_trace(self, path) -> None:
        """Dump the request log as JSONL for :func:`repro.serve.replay`."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            records = list(self.request_log)
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True, default=repr)
                         + "\n")
