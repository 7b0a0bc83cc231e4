"""Task-graph runner for flow stages (size → place → route → extract → verify).

The cell and chip flows are pipelines of expensive stages with explicit
data dependencies.  Declaring them as a :class:`JobGraph` buys three
things: dependency ordering is checked instead of implied by statement
order, every stage is timed under the engine's telemetry (``stage.<name>``
timers), and stage results are collected in one dict so a failed flow can
report exactly how far it got.

Execution is deterministic: ready jobs run in declaration order.  Stage
bodies remain free to use the engine's executor/cache internally for their
own data parallelism — the graph sequences stages, the engine parallelizes
the evaluations inside them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.engine.faults import RetryPolicy
from repro.engine.trace import span_if

JobFn = Callable[[dict[str, Any]], Any]


class JobGraphError(ValueError):
    """Raised on malformed graphs: duplicates, unknown deps, cycles."""


@dataclass(frozen=True)
class Job:
    name: str
    fn: JobFn
    deps: tuple[str, ...] = ()


@dataclass
class JobGraph:
    """Named jobs with dependencies, executed through an engine."""

    jobs: dict[str, Job] = field(default_factory=dict)

    def add(self, name: str, fn: JobFn,
            deps: Sequence[str] = ()) -> str:
        """Register ``fn`` under ``name``; ``fn`` receives the results dict."""
        if name in self.jobs:
            raise JobGraphError(f"duplicate job {name!r}")
        self.jobs[name] = Job(name, fn, tuple(deps))
        return name

    def order(self) -> list[str]:
        """Topological order, deterministic (declaration order among ready)."""
        for job in self.jobs.values():
            for dep in job.deps:
                if dep not in self.jobs:
                    raise JobGraphError(
                        f"job {job.name!r} depends on unknown job {dep!r}")
        remaining = dict(self.jobs)
        done: set[str] = set()
        ordered: list[str] = []
        while remaining:
            ready = [name for name, job in remaining.items()
                     if all(d in done for d in job.deps)]
            if not ready:
                raise JobGraphError(
                    f"dependency cycle among {sorted(remaining)}")
            for name in ready:
                ordered.append(name)
                done.add(name)
                del remaining[name]
        return ordered

    def run(self, engine=None,
            results: dict[str, Any] | None = None,
            retry_policy: RetryPolicy | None = None) -> dict[str, Any]:
        """Execute all jobs; returns ``{job name: result}``.

        ``engine`` is an optional :class:`repro.engine.EvaluationEngine`
        whose telemetry receives a ``stage.<name>`` timer and a
        ``jobs.completed`` counter per job.  Pre-seeded ``results`` entries
        are visible to job functions (useful for feeding external inputs
        in without a synthetic job).

        ``retry_policy`` grants each stage ``max_attempts`` tries: a stage
        raising a retryable exception (per the policy) is re-run after the
        policy's backoff, counted under ``jobs.retries``.  A fatal
        exception — or a retryable one out of attempts — propagates as
        before, after a ``jobs.failed`` count.  It defaults to the
        engine's policy (``engine.executor.retry_policy``, which
        ``EngineConfig.retry_policy`` installs).

        When the engine carries a :class:`~repro.engine.trace.Tracer`,
        every stage additionally runs inside a span named after the job,
        so per-stage wall time and simulator-call counts land in the run
        manifest.
        """
        results = results if results is not None else {}
        tracer = getattr(engine, "tracer", None) if engine is not None \
            else None
        if retry_policy is None and engine is not None:
            retry_policy = engine.executor.retry_policy
        for name in self.order():
            job = self.jobs[name]
            if engine is not None:
                with span_if(tracer, name), \
                        engine.telemetry.timer(f"stage.{name}"):
                    results[name] = self._run_job(job, results, engine,
                                                  retry_policy)
                engine.telemetry.count("jobs.completed")
            else:
                results[name] = self._run_job(job, results, engine,
                                              retry_policy)
        return results

    @staticmethod
    def _run_job(job: Job, results: dict[str, Any], engine,
                 policy: RetryPolicy | None) -> Any:
        attempts = policy.max_attempts if policy is not None else 1
        for attempt in range(1, attempts + 1):
            try:
                return job.fn(results)
            except Exception as exc:
                retryable = policy is not None and policy.is_retryable(exc)
                tracer = getattr(engine, "tracer", None) \
                    if engine is not None else None
                if retryable and attempt < attempts:
                    if engine is not None:
                        engine.telemetry.count("jobs.retries")
                    if tracer is not None:
                        tracer.event("stage_retry", stage=job.name,
                                     attempt=attempt,
                                     exception_type=type(exc).__name__)
                    # Stage name as jitter token: two flows retrying the
                    # same stage concurrently still sleep identically run
                    # to run, but different stages de-synchronize.
                    delay = policy.delay(attempt, token=job.name)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if engine is not None:
                    engine.telemetry.count("jobs.failed")
                    engine.telemetry.count(f"jobs.failed.{job.name}")
                if tracer is not None:
                    tracer.event("stage_failed", stage=job.name,
                                 exception_type=type(exc).__name__)
                raise
