"""Horizontal sharding: a consistent-hash router over broker processes.

One :class:`~repro.serve.broker.Broker` is bounded by one dispatcher
thread and one GIL.  The :class:`ShardRouter` scales the serving layer
*out* instead of up: it consistent-hashes every request by its workload
digest onto one of N shard processes, each running a full private
broker + engine stack, and supervises the fleet the way
:class:`~repro.engine.executor.ParallelExecutor` supervises pool
workers — a crashed shard is respawned (bounded restarts) or condemned,
and its in-flight requests are re-routed once or settled ``errored``,
never dropped.

Design decisions, in order of importance:

* **Routing is a pure function of the request.**  The route key is
  :func:`repro.engine.cache.canonical_key` over ``(workload, point)`` —
  the same canonical encoding the evaluation cache uses — hashed onto a
  ring of virtual nodes built from the *sorted* shard ids.  Identical
  requests land on the same shard (preserving cross-client dedup), and
  the shard count can change *where* a request runs but never *what* it
  computes: the replay gate asserts digest equality across shard counts.
* **The router is the single admission and accounting authority.**
  Admission (queue bounds, per-client rate) runs router-side against
  the fleet-wide in-flight depth; shard brokers run with admission
  effectively disabled so a request admitted by the router is never
  second-guessed (a racing remote rejection settles in the ``errored``
  lane).  Every terminal outcome crosses the router, so the global
  zero-silent-drop invariant ``admitted == completed + expired +
  cancelled + errored`` is enforced from counters that survive any
  shard crash.
* **Shards share results, not memory.**  With
  ``ServeConfig.shared_store_dir`` set, every shard mounts the same
  :class:`~repro.serve.store.SharedStore` directory as its engine's
  disk cache layer — a result computed on shard 2 is a disk hit on
  shard 5, with no coordination beyond atomic write-then-rename
  publishes.

The wire between router and shard is one duplex pipe per shard carrying
plain tuples; results come back with their structural digest so the
request log the router keeps is directly replayable
(:func:`repro.serve.replay`).  Submission is fire-and-forget — no ack
round-trip — which is what keeps the N-shard saturation benchmark
scaling; the pipe is FIFO, so a ``cancel`` can never overtake its
``submit``.

Caveats, stated rather than hidden: a respawned shard starts with fresh
engine counters, so fleet *batching* statistics (``serve.batches``,
cache hit counts) are best-effort under crashes while the *outcome*
accounting is exact; and a re-routed request re-arms its relative
deadline at the new shard.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.engine.cache import EvalCache, canonical_key
from repro.engine.config import EngineConfig, ServeConfig
from repro.engine.schema import render_report
from repro.engine.telemetry import Telemetry
from repro.serve.admission import (
    PRIORITY_CLASSES,
    AdmissionLedger,
    RejectedError,
)
from repro.serve.broker import Broker, ResultHandle, Workload
from repro.serve.replay import result_digest
from repro.serve.store import SharedStore


class ShardCrashError(RuntimeError):
    """A shard process died with this request in flight (post-reroute)."""


def route_key(workload: str, point: Any) -> str:
    """Content digest a request routes by: ``canonical_key`` over the
    workload name and the point, with a ``repr`` fallback for points the
    canonical encoder does not know (routing only needs determinism, not
    canonical equality)."""
    try:
        return canonical_key(workload, point)
    except TypeError:
        return canonical_key(workload, repr(point))


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Built from the *sorted, deduplicated* shard ids, so the mapping is a
    pure function of the id set — permuting the input order cannot move
    a single key (the property the hypothesis test pins).  ``replicas``
    virtual nodes per shard keep the load split within a few percent of
    uniform; removing a shard (``exclude``) reassigns only the keys it
    owned, which is the whole point of consistent hashing: a crash must
    not reshuffle the fleet.
    """

    def __init__(self, shard_ids, replicas: int = 256):
        ids = sorted(set(int(i) for i in shard_ids))
        if not ids:
            raise ValueError("HashRing needs at least one shard id")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shard_ids = ids
        self.replicas = replicas
        self._points = sorted(
            (self._hash(f"shard:{sid}:{r}"), sid)
            for sid in ids for r in range(replicas))
        self._keys = [h for h, _ in self._points]

    @staticmethod
    def _hash(text: str) -> int:
        return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)

    def route(self, digest: str, exclude=frozenset()) -> int:
        """Owning shard id for ``digest``, skipping ``exclude``\\d shards.

        Raises :class:`ShardCrashError` when every shard is excluded —
        the caller settles the request ``errored`` rather than looping.
        """
        pos = bisect.bisect_right(self._keys, self._hash(digest))
        n = len(self._points)
        for i in range(n):
            sid = self._points[(pos + i) % n][1]
            if sid not in exclude:
                return sid
        raise ShardCrashError("no live shards to route to")


# ----------------------------------------------------------------------
# Shard worker process
# ----------------------------------------------------------------------

#: Shard-local counters the router's own (crash-proof) observations
#: replace in the merged fleet report (``serve.rejected*`` too); everything
#: else a shard counts — cache, solver, kernel, batching — is summed in.
_ROUTER_OBSERVED = ("serve.requests", "serve.admitted", "serve.completed",
                    "serve.expired", "serve.cancelled", "serve.errored")


def _fleet_share(engine) -> tuple[Telemetry, dict | None]:
    """What one shard adds to the fleet report: its telemetry without
    what the router observes itself (the outcome counters and the
    per-request latency samples), and its cache statistics.

    Copies are taken with single ``dict``/``list`` calls first: the
    broker's dispatcher thread keeps counting while this runs.
    """
    tele = engine.telemetry
    counters, samples = dict(tele.counters), dict(tele.samples)
    share = Telemetry(
        counters={k: n for k, n in counters.items()
                  if k not in _ROUTER_OBSERVED
                  and not k.startswith("serve.rejected")},
        timers=dict(tele.timers),
        failure_records=list(tele.failure_records),
        samples={k: list(v) for k, v in samples.items()
                 if k != "serve.latency_s"})
    return share, engine.cache.report() if engine.cache is not None else None


def _shard_main(conn, shard_id: int, config: EngineConfig,
                workloads: dict[str, Workload]) -> None:
    """Entry point of one shard process: a broker serving one pipe.

    The main thread reads router messages; ``done`` replies are sent
    from the broker's dispatcher thread via completion callbacks, so a
    lock serializes writes to the pipe.  A result that cannot cross the
    pipe (unpicklable) settles ``errored`` with a transferable
    stand-in exception instead of killing the shard.
    """
    broker = Broker.from_config(config, record_trace=False)
    for wl in workloads.values():
        broker.register(wl)
    broker.start()
    send_lock = threading.Lock()
    handles: dict[int, ResultHandle] = {}

    def send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def send_done(seq: int, outcome: str, payload: Any,
                  digest: str | None) -> None:
        try:
            send(("done", seq, outcome, payload, digest))
        except Exception as exc:
            try:
                send(("done", seq, "errored", RuntimeError(
                    f"shard {shard_id}: result not transferable: "
                    f"{exc!r}"), None))
            except Exception:
                pass  # pipe gone: the router's crash handling takes over

    def on_done(seq: int, handle: ResultHandle) -> None:
        handles.pop(seq, None)
        if handle.outcome == "completed":
            value = handle.result(timeout=0)
            send_done(seq, "completed", value, result_digest(value))
        else:
            send_done(seq, handle.outcome, handle.exception(timeout=0), None)

    closed = False
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "submit":
            _, seq, name, point, client, priority, deadline_s = msg
            try:
                handle = broker.submit(name, point, client=client,
                                       priority=priority,
                                       deadline_s=deadline_s)
            except RejectedError as exc:
                send_done(seq, "rejected", exc, None)
                continue
            except Exception as exc:
                send_done(seq, "errored", exc, None)
                continue
            handles[seq] = handle
            handle.add_done_callback(lambda h, s=seq: on_done(s, h))
        elif kind == "cancel":
            handle = handles.get(msg[1])
            if handle is not None:
                handle.cancel()
        elif kind == "report":
            send(("report", _fleet_share(broker.engine)))
        elif kind == "crash":
            os._exit(13)  # test hook: die without cleanup, like a segfault
        elif kind == "close":
            broker.close(drain=msg[1])
            send(("closed", _fleet_share(broker.engine)))
            closed = True
            break
    if not closed:
        broker.close(drain=False)
    conn.close()


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------

_SHARD_OUTCOMES = ("routed", "rerouted", "completed", "expired",
                   "cancelled", "errored")

@dataclass
class _Shard:
    """Parent-side bookkeeping for one shard process."""

    id: int
    process: Any = None
    conn: Any = None
    reader: threading.Thread | None = None
    alive: bool = False
    condemned: bool = False
    closing: bool = False
    restarts: int = 0
    counters: dict[str, int] = field(default_factory=lambda: {
        k: 0 for k in _SHARD_OUTCOMES})
    replies: "queue.Queue" = field(default_factory=queue.Queue)
    last_report: tuple[Telemetry, dict | None] | None = None


@dataclass
class _RouterRequest:
    """One in-flight request as the router sees it."""

    seq: int
    workload: str
    point: Any
    client: str
    priority: str
    deadline_s: float | None
    digest: str
    t_submit: float
    shard: int | None = None
    rerouted: bool = False
    handle: ResultHandle = field(init=False)


class ShardRouter:
    """Consistent-hash fleet of broker processes behind one submit surface.

    Drop-in for a :class:`Broker` wherever the front door needs a
    backend: ``register`` / ``start`` / ``submit`` / ``healthz`` /
    ``report`` / ``request_log`` / ``write_request_trace`` / ``close``
    all exist with the same contracts, and ``submit`` returns the same
    :class:`ResultHandle`.  Two deliberate differences: workloads must
    be registered *before* :meth:`start` (shards inherit them at fork
    time), and ``handle.cancel()`` is best-effort — True means the
    cancel was sent, but dispatch on the shard may still win the race,
    in which case the handle completes normally.

    Parameters
    ----------
    config:
        :class:`EngineConfig` for the per-shard engines;
        ``config.serve`` supplies the fleet knobs (``shards``,
        ``shared_store_dir``) and the admission limits the router
        enforces fleet-wide.  Prefer ``cache=True`` over an
        :class:`EvalCache` instance — each shard builds its own cache,
        over the shared store when ``shared_store_dir`` is set.
    shards:
        Override for ``config.serve.shards``.
    max_restarts:
        Crash budget per shard before it is condemned for good.
    """

    def __init__(self, config: EngineConfig | None = None, *,
                 shards: int | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 record_trace: bool = True,
                 max_restarts: int = 2):
        engine_config = config if config is not None else EngineConfig()
        serve = engine_config.serve if engine_config.serve is not None \
            else ServeConfig()
        if shards is not None:
            serve = replace(serve, shards=shards)
        self.config = serve
        self.clock = clock
        self.max_restarts = max_restarts
        # Shards never re-run admission: the router admitted fleet-wide,
        # so the shard queue bound only guards against router bugs (with
        # headroom) and per-client rate limiting stays router-side.  The
        # corpus sidecar is disabled per-shard — it is an append-only
        # single-writer file; harvest the shared store instead.
        shard_serve = replace(serve, shards=1, rate=None,
                              max_queue_depth=2 * serve.max_queue_depth + 64,
                              corpus_dir=None)
        self._shard_config = replace(engine_config, serve=shard_serve)
        self.store: SharedStore | None = None
        if serve.shared_store_dir is not None:
            self.store = SharedStore(serve.shared_store_dir)
            if not isinstance(self._shard_config.cache, EvalCache):
                self._shard_config.cache = True
            self._shard_config.disk_cache_dir = serve.shared_store_dir
        self._shards = [_Shard(id=i) for i in range(serve.shards)]
        self._ring = HashRing(range(serve.shards))
        self._cond = threading.Condition()
        self._telemetry = Telemetry()
        self._ledger = AdmissionLedger(serve, self._telemetry, self._cond,
                                       clock, record_trace, shard_key=True)
        self.request_log = self._ledger.request_log
        self.count_client_reject = self._ledger.count_client_reject
        self.write_request_trace = self._ledger.write_request_trace
        self._workloads: dict[str, Workload] = {}
        self._inflight: dict[int, _RouterRequest] = {}
        self._depths = {cls: 0 for cls in PRIORITY_CLASSES}
        self._seq = 0
        self._started = False
        self._stopped = False
        self._closed = False
        self._t0 = clock()
        self._ask_lock = threading.Lock()

    @classmethod
    def from_config(cls, config: EngineConfig | None = None,
                    **kwargs) -> "ShardRouter":
        """Symmetry with :meth:`Broker.from_config`; the router always
        owns its (per-shard) engines, so this is just the constructor."""
        return cls(config, **kwargs)

    # -- registry ------------------------------------------------------
    def register(self, workload: Workload) -> Workload:
        with self._cond:
            if self._started:
                raise RuntimeError(
                    "register() before start(): shards inherit the "
                    "workload registry at fork time")
            if workload.name in self._workloads:
                raise ValueError(
                    f"workload {workload.name!r} already registered")
            self._workloads[workload.name] = workload
            return workload

    @property
    def workloads(self) -> dict[str, Workload]:
        return dict(self._workloads)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ShardRouter":
        with self._cond:
            if not self._started:
                self._started = True
                for shard in self._shards:
                    self._spawn(shard)
        return self

    def close(self, drain: bool = True) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._stopped = True
            live = []
            for shard in self._shards:
                shard.closing = True
                if self._send(shard, ("close", bool(drain))):
                    live.append(shard)
        for shard in live:
            try:
                kind, report = shard.replies.get(timeout=60)
                if kind == "closed":
                    shard.last_report = report
            except queue.Empty:
                pass
            if shard.process is not None:
                shard.process.join(timeout=10)
                if shard.process.is_alive():
                    shard.process.terminate()
                    shard.process.join(timeout=10)
            if shard.conn is not None:
                shard.conn.close()
            if shard.reader is not None:
                shard.reader.join(timeout=10)
        with self._cond:
            # Anything not settled by the drain (condemned shards,
            # drain=False stragglers): cancelled loudly, never dropped.
            for rec in list(self._inflight.values()):
                self._settle_local(rec, "cancelled", RuntimeError(
                    "router closed with request in flight"))

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------
    def submit(self, workload: str | Workload, point: Any, *,
               client: str = "anon", priority: str = "interactive",
               deadline_s: float | None = None) -> ResultHandle:
        """Admit and route one request; same contract as
        :meth:`Broker.submit` (fleet-wide admission, consistent-hash
        placement).  Registering a new workload here raises once
        started."""
        wl, deadline_s = self._ledger.resolve(
            workload, priority, deadline_s, self._workloads, self.register)
        name = wl.name
        digest = route_key(name, point)
        with self._cond:
            if not self._started:
                raise RuntimeError("ShardRouter.submit() before start()")
            self._ledger.admit(
                client, name, priority, self._inflight_depth(priority),
                "router is shutting down" if self._stopped else None)
            self._seq += 1
            rec = _RouterRequest(
                seq=self._seq, workload=name, point=point, client=client,
                priority=priority, deadline_s=deadline_s, digest=digest,
                t_submit=self.clock())
            rec.handle = ResultHandle(self, rec)
            self._inflight[rec.seq] = rec
            self._depths[priority] += 1
            self._dispatch(rec, exclude=frozenset())
            return rec.handle

    def _cancel(self, rec: _RouterRequest) -> bool:
        """Best-effort cancel: True means the cancel reached the wire."""
        with self._cond:
            if rec.handle.done() or rec.shard is None:
                return False
            return self._send(self._shards[rec.shard], ("cancel", rec.seq))

    # -- introspection -------------------------------------------------
    def queue_depths(self) -> dict[str, int]:
        """Fleet-wide in-flight requests per priority class (the depth
        the router's admission gate bounds)."""
        with self._cond:
            return {cls: self._inflight_depth(cls)
                    for cls in PRIORITY_CLASSES}

    def healthz(self) -> dict:
        with self._cond:
            inflight: dict[int, int] = {s.id: 0 for s in self._shards}
            for rec in self._inflight.values():
                if rec.shard is not None:
                    inflight[rec.shard] = inflight.get(rec.shard, 0) + 1
            return {
                "status": "draining" if self._stopped else "ok",
                "uptime_s": self.clock() - self._t0,
                "queues": {cls: self._inflight_depth(cls)
                           for cls in PRIORITY_CLASSES},
                "workloads": sorted(self._workloads),
                "shards": [{
                    "shard": s.id,
                    "alive": bool(s.alive),
                    "condemned": bool(s.condemned),
                    "restarts": s.restarts,
                    "inflight": inflight.get(s.id, 0),
                } for s in self._shards],
            }

    def report(self) -> dict:
        """Merged fleet report, :func:`check_report`-clean.

        One :class:`Telemetry` merges the router's own (outcome counters
        and latency samples: exact under crashes) with every shard's
        share (:func:`_fleet_share`: cache, solver, kernel, batching
        counters, timers, failures and samples), fetched over the pipe,
        falling back to each shard's last known share when it can no
        longer answer.  ``serve.shards`` carries the per-shard
        breakdown; its outcome columns sum to the fleet totals.
        """
        shares = [self._shard_report(s) for s in self._shards]
        fleet = Telemetry()
        with self._cond:
            fleet.merge(self._telemetry)
            breakdown = [{
                "shard": s.id,
                "condemned": bool(s.condemned),
                "restarts": s.restarts,
                **{k: s.counters[k] for k in _SHARD_OUTCOMES},
            } for s in self._shards]
        caches = []
        for telemetry, cache in filter(None, shares):
            fleet.merge(telemetry)
            if cache is not None:
                caches.append(cache)
        return render_report(fleet, executor={
            "mode": "sharded",
            "shards": len(self._shards),
            "condemned": sum(1 for s in self._shards if s.condemned),
            "restarts": sum(s.restarts for s in self._shards),
        }, cache=self._merge_caches(caches), spans=[], shards=breakdown)

    def _merge_caches(self, caches: list[dict]) -> dict | None:
        if not caches:
            return None
        merged = {k: sum(c.get(k, 0) for c in caches)
                  for k in ("hits", "misses", "evictions", "disk_hits",
                            "failure_rejects", "entries")}
        lookups = merged["hits"] + merged["misses"]
        merged["hit_rate"] = merged["hits"] / lookups if lookups else 0.0
        merged["max_entries"] = sum(c.get("max_entries", 0) for c in caches)
        merged["disk_dir"] = str(self.store.root) if self.store else None
        return merged

    # -- internals: routing and settling (lock held) -------------------
    def _inflight_depth(self, priority: str) -> int:
        # Maintained incrementally at admit/settle: the admission gate
        # sits on the submit hot path, so this must not scan in-flight.
        return self._depths.get(priority, 0)

    def _dispatch(self, rec: _RouterRequest, exclude: frozenset) -> None:
        exclude = frozenset(exclude)
        while True:
            condemned = frozenset(
                s.id for s in self._shards if s.condemned or not s.alive)
            try:
                sid = self._ring.route(rec.digest, exclude | condemned)
            except ShardCrashError as exc:
                self._settle_local(rec, "errored", exc)
                return
            shard = self._shards[sid]
            rec.shard = sid
            if self._send(shard, ("submit", rec.seq, rec.workload,
                                  rec.point, rec.client, rec.priority,
                                  rec.deadline_s)):
                shard.counters["routed"] += 1
                return
            exclude = exclude | {sid}

    def _send(self, shard: _Shard, msg) -> bool:
        if not shard.alive or shard.conn is None:
            return False
        try:
            shard.conn.send(msg)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

    def _settle(self, shard: _Shard, seq: int, outcome: str, payload: Any,
                digest: str | None) -> None:
        """A shard reported a terminal state (reader thread)."""
        with self._cond:
            rec = self._inflight.pop(seq, None)
            if rec is None:
                return
            self._depths[rec.priority] -= 1
            if rec.handle.done():
                return
            if outcome == "completed":
                self._telemetry.count("serve.completed")
                self._telemetry.record_sample(
                    "serve.latency_s", self.clock() - rec.t_submit)
                shard.counters["completed"] += 1
                self._ledger.record(rec, "completed", result_digest=digest,
                                    shard=shard.id)
                rec.handle._complete(payload)
                return
            # "rejected" only happens when a shard second-guesses the
            # router (bounded shard queue as a safety net): the request
            # *was* admitted, so it settles in the errored lane to keep
            # the global invariant exact.
            lane = outcome if outcome in ("expired", "cancelled") \
                else "errored"
            self._telemetry.count(f"serve.{lane}")
            shard.counters[lane] += 1
            exc = payload if isinstance(payload, BaseException) \
                else RuntimeError(f"shard {shard.id}: {payload!r}")
            self._ledger.record(rec, lane, shard=shard.id)
            rec.handle._fail(lane, exc)

    def _settle_local(self, rec: _RouterRequest, lane: str,
                      exc: BaseException) -> None:
        """Router-side terminal state (crash, no live shards, close)."""
        if self._inflight.pop(rec.seq, None) is not None:
            self._depths[rec.priority] -= 1
        if rec.handle.done():
            return
        self._telemetry.count(f"serve.{lane}")
        if rec.shard is not None:
            self._shards[rec.shard].counters[lane] += 1
        self._ledger.record(rec, lane, shard=rec.shard)
        rec.handle._fail(lane, exc)

    # -- internals: supervision ----------------------------------------
    def _spawn(self, shard: _Shard) -> None:
        """(Re)start one shard process (lock held).  Fork start method:
        fast, and the children inherit registered workload closures."""
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_shard_main,
            args=(child_conn, shard.id, self._shard_config,
                  dict(self._workloads)),
            name=f"serve-shard-{shard.id}", daemon=True)
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn
        shard.alive = True
        shard.reader = threading.Thread(
            target=self._reader, args=(shard, parent_conn),
            name=f"serve-shard-{shard.id}-reader", daemon=True)
        shard.reader.start()

    def _reader(self, shard: _Shard, conn) -> None:
        """Per-shard reader: settles ``done`` messages, forwards
        report/closed replies, and triggers crash handling on EOF."""
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "done":
                self._settle(shard, *msg[1:])
            else:
                shard.replies.put(msg)
        self._on_shard_down(shard, conn)

    def _on_shard_down(self, shard: _Shard, conn) -> None:
        """The pipe to a shard died.  Condemn or respawn; re-route its
        in-flight requests once, settle them ``errored`` the second
        time.  Runs on the (old) reader thread."""
        with self._cond:
            if shard.conn is not conn:
                return  # stale reader of an already-respawned shard
            if shard.closing or self._closed:
                return  # orderly shutdown, not a crash
            shard.alive = False
            self._telemetry.count("serve.shard_crashes")
            orphans = [rec for rec in self._inflight.values()
                       if rec.shard == shard.id and not rec.handle.done()]
            if shard.restarts < self.max_restarts:
                shard.restarts += 1
                self._spawn(shard)
            else:
                shard.condemned = True
            for rec in orphans:
                if rec.rerouted:
                    self._settle_local(rec, "errored", ShardCrashError(
                        f"shard {shard.id} crashed twice with request "
                        f"seq={rec.seq} in flight"))
                else:
                    rec.rerouted = True
                    self._telemetry.count("serve.rerouted")
                    shard.counters["rerouted"] += 1
                    self._dispatch(rec, exclude=frozenset())
            self._cond.notify_all()

    def _shard_report(self, shard: _Shard
                      ) -> tuple[Telemetry, dict | None] | None:
        """Fetch a shard's :func:`_fleet_share`, falling back to the
        last one it managed to send before dying."""
        with self._ask_lock:
            with self._cond:
                live = shard.alive and not shard.closing \
                    and self._send(shard, ("report",))
            if live:
                try:
                    kind, report = shard.replies.get(timeout=30)
                    if kind in ("report", "closed"):
                        shard.last_report = report
                except queue.Empty:
                    pass
            return shard.last_report
