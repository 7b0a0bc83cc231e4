"""The evaluation engine: executor + cache + telemetry behind one API.

Every synthesis loop in the toolkit funnels its circuit evaluations
through an :class:`EvaluationEngine`.  The engine checks the
content-addressed cache first, dispatches only the misses to its executor
(serial or process-parallel), stores the new results, and counts
everything.  Because caching and dispatch both live *above* the evaluation
function, the function itself stays a pure ``point → result`` mapping that
can run in a worker process unchanged.

Counter vocabulary (all under ``engine.``):

* ``engine.requests``      — points asked for, hit or miss;
* ``engine.evaluations``   — functions actually executed (cache misses);
* ``engine.cache_hits`` / ``engine.cache_misses`` — lookup outcomes.

The acceptance test for a warm cache is therefore one line: rerun the flow
and assert the ``engine.evaluations`` delta is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine import trace as _trace
from repro.engine.cache import EvalCache
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.faults import is_failure
from repro.engine.schema import render_report
from repro.engine.telemetry import Telemetry
from repro.engine.trace import Tracer


class EvaluationEngine:
    """Cache-aware, executor-backed batch evaluation.

    The canonical construction path is
    ``EvaluationEngine.from_config(EngineConfig(...))``, which also
    installs the resilience layer (retry policy, fault injector) on the
    executor: failing evaluations are retried per the policy and
    whatever still fails comes back as a structured ``EvalFailure``
    (counted under ``failures.*`` and listed in :meth:`report`) instead
    of raising or being silently replaced by a sentinel value.

    Parameters
    ----------
    executor:
        Where misses run; defaults to :class:`SerialExecutor`.
    cache:
        Optional :class:`EvalCache`.  Without it the engine still batches
        and counts, it just never skips work.  Failed evaluations
        (:class:`~repro.engine.faults.EvalFailure` results) are never
        cached — a transient error must not become permanent.
    telemetry:
        Optional shared :class:`Telemetry`; one is created if omitted.
    tracer:
        Optional :class:`~repro.engine.trace.Tracer`.  The tracer is
        rebound to this engine's telemetry (one counter store per run) and
        receives a ``batch`` event per executor dispatch, ``failure`` /
        ``retry`` events from the resilience layer, and the span tree the
        flows build around stages.
    """

    def __init__(self, executor: Executor | None = None,
                 cache: EvalCache | None = None,
                 telemetry: Telemetry | None = None,
                 tracer: Tracer | None = None):
        self.executor = executor or SerialExecutor()
        self.cache = cache
        if telemetry is None:
            telemetry = tracer.telemetry if tracer is not None else Telemetry()
        self.telemetry = telemetry
        self.tracer = tracer
        if tracer is not None:
            # One counter store per engine: span deltas must observe the
            # same counters the engine bumps.
            tracer.telemetry = self.telemetry
        self.config = None

    @classmethod
    def from_config(cls, config=None) -> "EvaluationEngine":
        """Build an engine from an :class:`~repro.engine.config.EngineConfig`.

        The one construction path that wires every collaborator —
        executor, cache, telemetry, resilience layer, tracer.
        """
        from repro.engine.config import EngineConfig
        config = config if config is not None else EngineConfig()
        engine = cls(config.build_executor(), config.build_cache(),
                     config.telemetry, config.build_tracer(config.telemetry))
        if config.retry_policy is not None:
            engine.executor.retry_policy = config.retry_policy
        if config.fault_injector is not None:
            engine.executor.fault_injector = config.fault_injector
        engine.config = config
        return engine

    # -- evaluation ----------------------------------------------------
    def map_evaluate(self, fn: Callable[[Any], Any], points: Sequence[Any],
                     key_fn: Callable[[Any], str] | None = None) -> list:
        """``[fn(p) for p in points]`` with caching and batched dispatch.

        ``key_fn`` maps a point to its content-addressed cache key; when
        omitted (or when there is no cache) every point is evaluated.  The
        key must capture everything ``fn`` depends on — for circuit
        evaluations that is the serialized netlist plus analysis
        parameters (see :func:`repro.engine.cache.canonical_key`).
        Every evaluated point goes through one executor dispatch
        (:meth:`_dispatch`).
        """
        points = list(points)
        tele = self.telemetry
        tele.count("engine.requests", len(points))
        with tele.timer("engine.map_evaluate"):
            if self.cache is None or key_fn is None:
                tele.count("engine.evaluations", len(points))
                return self._dispatch(fn, points, hits=0)
            results: list[Any] = [None] * len(points)
            miss_keys: list[str] = []
            miss_points: list[Any] = []
            key_slot: dict[str, int] = {}
            placements: list[tuple[int, int]] = []  # (result idx, miss slot)
            sentinel = object()
            for i, point in enumerate(points):
                key = key_fn(point)
                value = self.cache.get(key, sentinel)
                if value is not sentinel:
                    results[i] = value
                    continue
                # Dedup identical keys within the batch: duplicates share
                # one dispatched evaluation instead of racing each other.
                slot = key_slot.get(key)
                if slot is None:
                    slot = len(miss_keys)
                    key_slot[key] = slot
                    miss_keys.append(key)
                    miss_points.append(point)
                placements.append((i, slot))
            hits = len(points) - len(miss_keys)
            tele.count("engine.cache_hits", hits)
            tele.count("engine.cache_misses", len(miss_keys))
            tele.count("engine.evaluations", len(miss_keys))
            if miss_keys:
                computed = self._dispatch(fn, miss_points, hits=hits)
                for key, value in zip(miss_keys, computed):
                    if not is_failure(value):
                        # Failures are never cached: the next request for
                        # this key re-evaluates (EvalCache.put would
                        # refuse the record anyway — this keeps the
                        # reject out of the cache stats for normal runs).
                        self.cache.put(key, value)
                for i, slot in placements:
                    results[i] = computed[slot]
            elif self.tracer is not None and points:
                self.tracer.event("batch", points=len(points), hits=hits,
                                  evaluations=0, failures=0, retries=0)
            return results

    def _dispatch(self, fn: Callable[[Any], Any], points: list,
                  hits: int = 0) -> list:
        """Run one executor batch, folding worker metrics into the trace.

        The active tracer is suspended for the duration of the dispatch:
        under a SerialExecutor the evaluation runs in-process and would
        otherwise bump ``analysis.*`` counters that a ParallelExecutor's
        workers (separate processes, no tracer) never could.  Masking the
        tracer here keeps span counter attribution identical across
        executors; the worker-side cost still arrives through
        ``BatchStats`` and is folded in as the ``engine.worker_eval``
        timer and a ``batch`` event.
        """
        tele = self.telemetry
        failures0 = tele.failure_count()
        retries0 = self.executor.retries
        with _trace.suspended():
            values = self._note_failures(self.executor.map_evaluate(fn, points))
        batch = self.executor.last_batch
        if batch.points:
            tele.record_time("engine.worker_eval", batch.worker_s)
        tracer = self.tracer
        if tracer is not None and points:
            failures = tele.failure_count() - failures0
            retries = self.executor.retries - retries0
            tracer.event("batch", points=len(points), hits=hits,
                         evaluations=len(points), failures=failures,
                         retries=retries, worker_s=batch.worker_s,
                         wall_s=batch.wall_s)
            if retries:
                tracer.event("retry", count=retries)
        return values

    def evaluate(self, fn: Callable[[Any], Any], point: Any,
                 key: str | None = None) -> Any:
        """Single-point convenience wrapper over :meth:`map_evaluate`."""
        key_fn = (lambda _p: key) if key is not None else None
        return self.map_evaluate(fn, [point], key_fn=key_fn)[0]

    def keyed(self, key_fn: Callable[[Any], str]) -> "KeyedEngine":
        """Bind a key function, yielding a plain ``map_evaluate`` adapter.

        The result satisfies the batch-evaluation hook protocol the
        optimizers accept (anything with ``map_evaluate(fn, points)``),
        with caching wired in.
        """
        return KeyedEngine(self, key_fn)

    def _note_failures(self, values: list) -> list:
        for value in values:
            if is_failure(value):
                self.telemetry.record_failure(value)
                if self.tracer is not None:
                    self.tracer.event("failure",
                                      exception_type=value.exception_type,
                                      token=value.token,
                                      attempts=value.attempts)
        return values

    # -- reporting / lifecycle ----------------------------------------
    def failure_count(self) -> int:
        return self.telemetry.failure_count()

    def failure_rate(self) -> float:
        """Fraction of executed evaluations that ultimately failed."""
        evals = self.telemetry.get("engine.evaluations")
        return self.failure_count() / evals if evals else 0.0

    def failure_summary(self) -> str | None:
        """One-line human summary of this engine's failures, or None."""
        total = self.failure_count()
        if not total:
            return None
        by_type = self.telemetry.failures_by_type()
        kinds = ", ".join(f"{name}x{n}"
                          for name, n in sorted(by_type.items()))
        retries = self.executor.retries
        return (f"WARNING: {total} evaluation(s) failed "
                f"({kinds}; {retries} retries; "
                f"failure rate {self.failure_rate():.1%})")

    def report(self) -> dict:
        """Versioned run report (see :mod:`repro.engine.schema`).

        Telemetry counters, timers and failures, the executor and cache
        descriptions, the tracer's span tree (``[]`` when the engine runs
        untraced) and one section per :data:`~repro.engine.schema.SECTIONS`
        entry; ``serve.shards`` is ``[]``, since one engine is by
        definition one (unsharded) worker.
        """
        return render_report(
            self.telemetry, executor=self.executor.describe(),
            cache=self.cache.report() if self.cache is not None else None,
            spans=self.tracer.span_tree() if self.tracer is not None else [])

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def flow_engine(engine: EvaluationEngine | None, config,
                caller: str) -> tuple[EvaluationEngine | None, bool]:
    """How a flow entry point gets its engine: ``(engine, owned)``.

    ``engine=`` is shared and stays the caller's to close; ``config=``
    builds an engine that the flow owns and closes.  Passing both is a
    ``ValueError``.
    """
    if engine is not None and config is not None:
        raise ValueError(f"{caller}: pass engine= or config=, not both")
    if config is None:
        return engine, False
    return EvaluationEngine.from_config(config), True


@dataclass
class KeyedEngine:
    """An engine with a pre-bound cache key function.

    Exposes the two-argument ``map_evaluate(fn, points)`` the optimizer
    batch hooks expect, while still routing through the parent engine's
    cache and telemetry.
    """

    engine: EvaluationEngine
    key_fn: Callable[[Any], str]

    def map_evaluate(self, fn: Callable[[Any], Any],
                     points: Sequence[Any]) -> list:
        return self.engine.map_evaluate(fn, points, key_fn=self.key_fn)
