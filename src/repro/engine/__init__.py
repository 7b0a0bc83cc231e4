"""Parallel, cache-aware evaluation engine shared by all synthesis loops.

The frontends the paper surveys are evaluation-bound: simulation-in-the-
loop sizing, plan execution, and closed-loop resynthesis all spend their
time re-running the circuit simulator.  This package centralizes that
work behind one engine — pluggable executors (serial / process pool), a
content-addressed result cache, per-stage telemetry, a task-graph runner
for the flow pipelines, and a structured tracing layer (hierarchical
spans, JSONL event logs, per-run manifests) with versioned report and
manifest schemas.
"""

from repro.engine.cache import CacheStats, EvalCache, canonical_key
from repro.engine.config import EngineConfig, ServeConfig, SurrogateConfig
from repro.engine.core import BATCH_FALLBACK, EvaluationEngine, KeyedEngine
from repro.engine.executor import (
    BatchStats,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.engine.faults import (
    EvalFailure,
    EvalTimeoutError,
    FaultInjector,
    InjectedFunction,
    RetryPolicy,
    WorkerCrashError,
    is_failure,
    point_token,
)
from repro.engine.jobs import Job, JobGraph, JobGraphError
from repro.engine.schema import (
    MANIFEST_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    SchemaError,
    check_report,
    validate_manifest,
)
from repro.engine.telemetry import Telemetry, TimerStat
from repro.engine.trace import (
    Span,
    Tracer,
    build_manifest,
    current_tracer,
    finish_run,
    manifest_digest,
    span_if,
    strip_volatile,
    write_manifest,
)

__all__ = [
    "BATCH_FALLBACK",
    "BatchStats",
    "CacheStats",
    "EngineConfig",
    "EvalCache",
    "EvalFailure",
    "EvalTimeoutError",
    "EvaluationEngine",
    "Executor",
    "FaultInjector",
    "InjectedFunction",
    "Job",
    "JobGraph",
    "JobGraphError",
    "KeyedEngine",
    "MANIFEST_SCHEMA_VERSION",
    "ParallelExecutor",
    "REPORT_SCHEMA_VERSION",
    "RetryPolicy",
    "SchemaError",
    "SerialExecutor",
    "ServeConfig",
    "Span",
    "SurrogateConfig",
    "Telemetry",
    "ThreadExecutor",
    "TimerStat",
    "Tracer",
    "WorkerCrashError",
    "build_manifest",
    "canonical_key",
    "check_report",
    "current_tracer",
    "finish_run",
    "is_failure",
    "manifest_digest",
    "point_token",
    "span_if",
    "strip_volatile",
    "validate_manifest",
    "write_manifest",
]
