"""One typed configuration object for the evaluation engine.

The engine grew its collaborators one PR at a time — executor, cache,
telemetry, retry policy, fault injector, and now a tracer — and every
flow and sizer signature grew a matching kwarg.  :class:`EngineConfig`
consolidates them: build one config, hand it to
:meth:`repro.engine.EvaluationEngine.from_config`,
:func:`repro.flows.design_ota_cell`, :func:`repro.flows.assemble_chip`,
:class:`repro.synthesis.SimulationBasedSizer`,
:class:`repro.synthesis.compose.TopologyFunnel` or
:func:`repro.synthesis.pulse_detector.pulse_detector_flow`.  The first
four also take a live ``engine=`` instead, shared with and owned by the
caller; passing both is a ``ValueError``.

``describe()`` renders the config as a JSON-safe dict, which is what the
run manifest records — a manifest always says exactly how its run was
configured.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.engine.cache import EvalCache
from repro.engine.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.engine.faults import FaultInjector, RetryPolicy
from repro.engine.telemetry import Telemetry
from repro.engine.trace import Tracer


@dataclass(frozen=True)
class ServeConfig:
    """Admission-control and batching knobs for the serving layer.

    Lives here (pure data, no serve imports) so an
    :class:`EngineConfig` can carry the full service shape and a run
    manifest can record it; :class:`repro.serve.Broker` consumes it.

    Parameters
    ----------
    max_batch / max_wait_ms:
        Micro-batcher shape: coalesce up to ``max_batch`` compatible
        requests, waiting at most ``max_wait_ms`` for stragglers after
        the first request of a batch is dequeued.  ``max_wait_ms=0``
        dispatches whatever is already queued without waiting.
    max_queue_depth:
        Bound on each priority class's queue.  A submit beyond it raises
        :class:`repro.serve.RejectedError` — explicit backpressure,
        never a silent drop.
    rate / burst:
        Per-client token-bucket admission: sustained ``rate`` requests/s
        with ``burst`` tokens of headroom.  ``rate=None`` disables
        rate limiting.
    default_deadline_s:
        Deadline applied to requests that do not carry their own;
        ``None`` means no deadline.
    interactive_burst:
        Fairness knob: after this many consecutive ``interactive``
        batches with ``batch``-class work waiting, one ``batch`` batch
        is served — strict-priority latency for interactive traffic
        without starving bulk clients.
    http_max_wait_s:
        Server-side ceiling on how long one HTTP ``/evaluate`` or
        ``/synthesize`` request waits when it carries neither a
        ``timeout_s`` nor any deadline — without it such requests would
        hold their connections (and the front door's parked futures)
        forever.  Hitting the ceiling answers 504 with
        ``outcome="pending"``; the request itself stays in flight.
        ``None`` disables the ceiling.
    corpus_dir:
        Directory in which the broker appends a ``corpus_index.jsonl``
        sidecar mapping each completed request's content-addressed cache
        key to its sizing point.  Together with a disk
        :class:`~repro.engine.cache.EvalCache` layer this makes served
        traffic harvestable as surrogate training data
        (:func:`repro.surrogate.harvest_cache`) — heavy load literally
        grows the corpus that later makes sizing cheaper.  ``None``
        (default) records nothing.
    shards:
        Fleet width for :class:`repro.serve.ShardRouter`: requests are
        consistent-hashed by workload digest onto this many broker/engine
        worker processes.  ``1`` (default) is the single-broker shape —
        a plain :class:`~repro.serve.Broker` ignores the knob.
    shared_store_dir:
        Directory of the cross-shard content-addressed result store:
        every shard's engine mounts it as its disk
        :class:`~repro.engine.cache.EvalCache` layer, so a result
        computed on one shard is a cache hit on every other.
        ``None`` keeps shards' caches private.
    http_host / http_port / synthesize_workload:
        The HTTP front door's settings, read by
        :func:`repro.serve.make_async_server`.  ``http_port=0`` binds an
        ephemeral port; ``synthesize_workload`` names the registered
        workload that ``POST /synthesize`` runs (``None`` answers 404).
    """

    max_batch: int = 16
    max_wait_ms: float = 2.0
    max_queue_depth: int = 256
    rate: float | None = None
    burst: int = 32
    default_deadline_s: float | None = None
    interactive_burst: int = 4
    http_max_wait_s: float | None = 300.0
    corpus_dir: str | None = None
    shards: int = 1
    shared_store_dir: str | None = None
    http_host: str = "127.0.0.1"
    http_port: int = 0
    synthesize_workload: str | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.interactive_burst < 1:
            raise ValueError("interactive_burst must be >= 1")
        if self.http_max_wait_s is not None and self.http_max_wait_s <= 0:
            raise ValueError("http_max_wait_s must be positive (or None)")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0 <= self.http_port <= 65535:
            raise ValueError("http_port must be in [0, 65535]")

    def describe(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SurrogateConfig:
    """Trust-region policy knobs for cache-trained surrogate screening.

    Pure data (no surrogate imports) so an :class:`EngineConfig` can
    carry it and a run manifest can record it;
    :class:`repro.surrogate.SurrogateScreen` consumes it.

    Parameters
    ----------
    simulate_fraction:
        Fraction of each screened batch that is always simulated for
        real — the predicted-best head of the ranking.
    explore_fraction:
        Additional fraction simulated purely for model improvement: the
        highest-``uncertainty`` points of the batch.
    winner_margin:
        Relative margin of the claimed-winner rule: any candidate whose
        *predicted* cost undercuts ``best_real + margin·|best_real|`` is
        promoted to real simulation.  A predicted cost is therefore
        never allowed to become the run's best — winners are always
        verified.
    min_fit:
        Corpus size below which the model is cold and every candidate is
        simulated (the cold-start rule).
    refit_every:
        Number of freshly simulated points between model refits.
    miss_tol:
        Relative prediction error above which a verified point counts as
        a ``surrogate.verify_misses`` miss.
    miss_window / max_miss_rate / fallback_batches:
        The trust-region fallback: when the rolling miss rate over the
        last ``miss_window`` verified points exceeds ``max_miss_rate``,
        screening is suspended for ``fallback_batches`` batches
        (simulate everything, keep training) before being retried.
    length_scale / ridge / max_centers / seed:
        :class:`repro.surrogate.RbfSurrogate` hyper-parameters; ``seed``
        drives the deterministic center subsample, keeping training
        byte-stable.
    max_corpus:
        Bound on retained training records (oldest evicted first).
    corpus_dir:
        Directory for corpus persistence: ``corpus.jsonl`` is loaded on
        start and rewritten at the end of a screened sizing run, and a
        ``corpus_index.jsonl`` sidecar (cache key → sizing) written
        there — by sizing runs or by a serve broker — lets
        :func:`repro.surrogate.harvest_cache` turn a shared disk
        :class:`~repro.engine.cache.EvalCache` into training data.
    """

    simulate_fraction: float = 0.25
    explore_fraction: float = 0.1
    winner_margin: float = 0.05
    min_fit: int = 64
    refit_every: int = 32
    miss_tol: float = 0.2
    miss_window: int = 64
    max_miss_rate: float = 0.3
    fallback_batches: int = 4
    length_scale: float = 0.5
    ridge: float = 1e-6
    max_centers: int = 512
    max_corpus: int = 4096
    seed: int = 0
    corpus_dir: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.simulate_fraction <= 1.0:
            raise ValueError("simulate_fraction must be in (0, 1]")
        if not 0.0 <= self.explore_fraction <= 1.0:
            raise ValueError("explore_fraction must be in [0, 1]")
        if self.winner_margin < 0.0:
            raise ValueError("winner_margin must be >= 0")
        if self.min_fit < 2:
            raise ValueError("min_fit must be >= 2")
        if self.refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if self.miss_tol <= 0.0:
            raise ValueError("miss_tol must be positive")
        if self.miss_window < 1:
            raise ValueError("miss_window must be >= 1")
        if not 0.0 < self.max_miss_rate <= 1.0:
            raise ValueError("max_miss_rate must be in (0, 1]")
        if self.fallback_batches < 1:
            raise ValueError("fallback_batches must be >= 1")
        if self.length_scale <= 0.0:
            raise ValueError("length_scale must be positive")
        if self.ridge <= 0.0:
            raise ValueError("ridge must be positive")
        if self.max_centers < 1:
            raise ValueError("max_centers must be >= 1")
        if self.max_corpus < self.min_fit:
            raise ValueError("max_corpus must be >= min_fit")

    def describe(self) -> dict:
        return asdict(self)


@dataclass
class EngineConfig:
    """Everything an :class:`~repro.engine.core.EvaluationEngine` needs.

    Parameters
    ----------
    executor:
        ``"serial"`` (default), ``"parallel"``, ``"thread"``, or an
        explicit :class:`Executor` instance.  ``workers`` applies to the
        ``"parallel"`` and ``"thread"`` shorthands; ``chunksize`` to
        ``"parallel"`` only.
    cache:
        ``True`` builds a fresh :class:`EvalCache` (``cache_entries``,
        ``disk_cache_dir``); an instance is used as-is; ``False`` runs
        uncached.
    retry_policy / fault_injector / telemetry:
        Installed on the engine: the retry policy and fault injector on
        its executor, where flow stages also read the retry policy.
    trace:
        ``True`` builds a :class:`~repro.engine.trace.Tracer`; an explicit
        ``tracer`` instance wins.  ``trace_dir`` implies ``trace`` and
        additionally makes traced flows write ``manifest.json`` +
        ``trace.jsonl`` there at the end of the run.
    serve / surrogate:
        Optional :class:`ServeConfig` / :class:`SurrogateConfig` blocks.
        ``surrogate`` makes :class:`repro.synthesis.SimulationBasedSizer`
        screen candidate batches through a cache-trained surrogate
        (:mod:`repro.surrogate`) instead of simulating everything.
    """

    executor: Executor | str = "serial"
    workers: int | None = None
    chunksize: int | None = None
    cache: EvalCache | bool = False
    cache_entries: int = 65536
    disk_cache_dir: str | Path | None = None
    telemetry: Telemetry | None = None
    retry_policy: RetryPolicy | None = None
    fault_injector: FaultInjector | None = None
    trace: bool = False
    tracer: Tracer | None = field(default=None, repr=False)
    trace_dir: str | Path | None = None
    serve: ServeConfig | None = None
    surrogate: SurrogateConfig | None = None

    # -- part builders -------------------------------------------------
    def build_executor(self) -> Executor:
        if isinstance(self.executor, Executor):
            return self.executor
        if self.executor == "serial":
            return SerialExecutor()
        if self.executor == "parallel":
            return ParallelExecutor(workers=self.workers,
                                    chunksize=self.chunksize)
        if self.executor == "thread":
            return ThreadExecutor(workers=self.workers)
        raise ValueError(
            f"executor must be 'serial', 'parallel', 'thread' or an "
            f"Executor instance, got {self.executor!r}")

    def build_cache(self) -> EvalCache | None:
        if isinstance(self.cache, EvalCache):
            return self.cache
        if self.cache:
            return EvalCache(max_entries=self.cache_entries,
                             disk_dir=self.disk_cache_dir)
        return None

    def build_tracer(self, telemetry: Telemetry | None = None) -> Tracer | None:
        if self.tracer is not None:
            return self.tracer
        if self.trace or self.trace_dir is not None:
            return Tracer(telemetry)
        return None

    # -- manifest rendering --------------------------------------------
    def describe(self) -> dict:
        """JSON-safe summary of this config, recorded in run manifests."""
        executor = self.executor if isinstance(self.executor, str) \
            else type(self.executor).__name__
        policy = self.retry_policy
        injector = self.fault_injector
        return {
            "executor": executor,
            "workers": self.workers,
            "chunksize": self.chunksize,
            "cache": bool(self.cache),
            "cache_entries": self.cache_entries
            if self.cache is not False else None,
            "disk_cache_dir": str(self.disk_cache_dir)
            if self.disk_cache_dir is not None else None,
            "retry_policy": None if policy is None else {
                "max_attempts": policy.max_attempts,
                "backoff_s": policy.backoff_s,
                "backoff_factor": policy.backoff_factor,
                "timeout_s": policy.timeout_s,
                "jitter": policy.jitter,
                "jitter_seed": policy.jitter_seed,
            },
            "fault_injector": None if injector is None else {
                "rate": injector.rate,
                "seed": injector.seed,
                "kinds": list(injector.kinds),
            },
            "trace": bool(self.trace or self.tracer is not None
                          or self.trace_dir is not None),
            "trace_dir": str(self.trace_dir)
            if self.trace_dir is not None else None,
            "serve": self.serve.describe() if self.serve is not None
            else None,
            "surrogate": self.surrogate.describe()
            if self.surrogate is not None else None,
        }

