"""Batched synthesis-as-a-service over the evaluation engine.

The paper's frontends assume a designer (or a closed resynthesis loop)
driving synthesis interactively while characterization sweeps run in
bulk.  This package is the serving layer that makes one
:class:`~repro.engine.EvaluationEngine` safely shareable across those
tenants: a :class:`Broker` with priority queues and a dispatcher thread,
dynamic micro-batching into ``map_evaluate``
(:class:`~repro.serve.batching.MicroBatcher`), admission control with
token buckets and bounded queues
(:class:`~repro.serve.admission.AdmissionController`), per-request
deadlines and cancellation, client :class:`Session` objects with quotas
and streaming results, one asyncio HTTP front door
(:mod:`repro.serve.http_async`), a typed :class:`ServeClient` over it,
and deterministic :func:`replay` of recorded request streams.

Past one broker, the layer scales *out*: a :class:`ShardRouter`
consistent-hashes requests onto N broker/engine worker processes
(supervised — crashed shards are respawned or condemned, their
in-flight requests re-routed or settled, never dropped) that share
results through one content-addressed disk cache directory
(``ServeConfig.shared_store_dir``).  Every
outcome is counted into the versioned report (``report()["serve"]``,
with a per-shard breakdown under ``serve.shards``) — nothing is ever
silently dropped, fleet-wide.
"""

from repro.engine.config import ServeConfig
from repro.serve.admission import (
    AdmissionController,
    DeadlineExpiredError,
    RejectedError,
    RequestCancelledError,
    TokenBucket,
)
from repro.serve.batching import MicroBatcher
from repro.serve.broker import PRIORITY_CLASSES, Broker, ResultHandle, Workload
from repro.serve.client import ClientHandle, RemoteEngineError, ServeClient
from repro.serve.http_async import (
    AsyncServeServer,
    ServeApp,
    make_async_server,
)
from repro.serve.replay import ReplayReport, replay, result_digest
from repro.serve.session import Session
from repro.serve.shard import HashRing, ShardCrashError, ShardRouter

__all__ = [
    "AdmissionController",
    "AsyncServeServer",
    "Broker",
    "ClientHandle",
    "DeadlineExpiredError",
    "HashRing",
    "MicroBatcher",
    "PRIORITY_CLASSES",
    "RejectedError",
    "RemoteEngineError",
    "ReplayReport",
    "RequestCancelledError",
    "ResultHandle",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "Session",
    "ShardCrashError",
    "ShardRouter",
    "TokenBucket",
    "Workload",
    "make_async_server",
    "replay",
    "result_digest",
]
