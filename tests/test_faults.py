"""Fault-injection, retry/timeout and differential resilience tests.

The engine's failure model (repro.engine.faults) promises four things:

1. fault schedules are deterministic functions of (seed, point, attempt),
   independent of executor kind and evaluation order;
2. failed evaluations come back as structured EvalFailure records —
   retried per policy, counted in telemetry, never cached, never silently
   swallowed;
3. crashed and hung pool workers are isolated: their pool is condemned
   and the jobs requeued on a fresh one;
4. a seeded synthesis run under an injected fault schedule is
   bit-identical between SerialExecutor and ParallelExecutor, with or
   without faults (the differential matrix).

``REPRO_FAULT_RATE`` (default 0.1) sets the injected fault rate for the
stochastic tests, which is how the CI fault-injection job dials it up.
"""

import os
import time

import pytest

from repro.analysis.dcop import ConvergenceError
from repro.analysis.mna import SingularCircuitError
from repro.circuits.library import five_transistor_ota
from repro.core.specs import Spec, SpecSet
from repro.engine import (
    EngineConfig,
    EvalCache,
    EvalFailure,
    EvalTimeoutError,
    EvaluationEngine,
    FaultInjector,
    JobGraph,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    WorkerCrashError,
    is_failure,
    point_token,
)
from repro.opt.anneal import AnnealSchedule, ContinuousSpace, anneal_continuous
from repro.opt.genetic import FloatGene, GeneticOptimizer
from repro.synthesis.equation_based import DesignSpace
from repro.synthesis.simulation_based import (
    SimulationBasedSizer,
    SimulationEvaluator,
)

FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.1"))


# -- module-level helpers (picklable into worker processes) -------------

def _square(x):
    return x * x


def _raise_type_error(x):
    raise TypeError(f"unexpected bug for {x}")


def _raise_convergence(x):
    raise ConvergenceError("organic non-convergence")


def _sleepy(x):
    time.sleep(x)
    return x


def _crash_once(arg):
    """Hard-kill the worker process on first sight of the marker path."""
    value, marker = arg
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return value * 10


def _hang_once(arg):
    """Hang well past any test timeout on first sight of the marker path."""
    value, marker = arg
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("hung")
        time.sleep(4.0)
    return value * 10


class _FlakyOnce:
    """Fails each point exactly once, then succeeds (serial-only: stateful)."""

    def __init__(self, exc_type=ConvergenceError):
        self.calls = {}
        self.exc_type = exc_type

    def __call__(self, x):
        n = self.calls.get(x, 0)
        self.calls[x] = n + 1
        if n == 0:
            raise self.exc_type(f"flaky first attempt for {x}")
        return x * 2


# ----------------------------------------------------------------------
# FaultInjector determinism
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_schedule_is_deterministic(self):
        inj = FaultInjector(rate=0.3, seed=11)
        tokens = [f"point-{i}" for i in range(500)]
        first = [inj.schedule(t) for t in tokens]
        second = [inj.schedule(t) for t in tokens]
        assert first == second

    def test_rate_is_respected(self):
        inj = FaultInjector(rate=0.25, seed=3)
        fired = sum(inj.schedule(f"t{i}") is not None for i in range(4000))
        assert 0.20 < fired / 4000 < 0.30

    def test_zero_rate_never_fires(self):
        inj = FaultInjector(rate=0.0, seed=1)
        assert all(inj.schedule(f"t{i}") is None for i in range(100))

    def test_attempt_changes_the_draw(self):
        inj = FaultInjector(rate=0.5, seed=5)
        tokens = [f"t{i}" for i in range(200)]
        a1 = [inj.schedule(t, attempt=1) for t in tokens]
        a2 = [inj.schedule(t, attempt=2) for t in tokens]
        assert a1 != a2  # retries get a fresh draw

    def test_kinds_are_drawn_from_the_configured_set(self):
        inj = FaultInjector(rate=1.0, seed=2, kinds=("crash",))
        assert inj.schedule("anything") == "crash"

    def test_wrapped_function_raises_the_scheduled_fault(self):
        inj = FaultInjector(rate=1.0, seed=4, kinds=("convergence",))
        wrapped = inj.wrap(_square)
        with pytest.raises(ConvergenceError, match="injected"):
            wrapped(3)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(rate=0.5, kinds=("gremlins",))

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.2")
        inj = FaultInjector.from_env(seed=9)
        assert inj is not None and inj.rate == 0.2
        monkeypatch.delenv("REPRO_FAULT_RATE")
        assert FaultInjector.from_env() is None

    def test_point_token_stable_for_dicts_and_arrays(self):
        import numpy as np
        assert point_token({"a": 1.0, "b": 2.0}) == \
            point_token({"b": 2.0, "a": 1.0})
        assert point_token(np.array([1.0, 2.0])) == \
            point_token([1.0, 2.0])


# ----------------------------------------------------------------------
# RetryPolicy classification
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_default_transients_are_retryable(self):
        policy = RetryPolicy()
        for exc in (ConvergenceError("x"), SingularCircuitError("x"),
                    WorkerCrashError("x"), EvalTimeoutError("x")):
            assert policy.is_retryable(exc)

    def test_unexpected_errors_are_fatal_by_default(self):
        policy = RetryPolicy()
        assert not policy.is_retryable(TypeError("bug"))
        assert not policy.is_retryable(ZeroDivisionError())

    def test_fatal_overrides_retryable(self):
        policy = RetryPolicy(fatal=(ConvergenceError,))
        assert not policy.is_retryable(ConvergenceError("x"))

    def test_custom_retryable_set(self):
        policy = RetryPolicy(retryable=(ValueError,))
        assert policy.is_retryable(ValueError("x"))
        assert not policy.is_retryable(ConvergenceError("x"))

    def test_backoff_is_geometric(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=3.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.3)
        assert policy.delay(3) == pytest.approx(0.9)

    def test_jitter_is_deterministic_per_token(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=3.0, jitter=0.5,
                             jitter_seed=7)
        # Pure function of (seed, attempt, token): identical across calls,
        # bounded by [base, base * (1 + jitter)).
        for attempt, base in ((1, 0.1), (2, 0.3), (3, 0.9)):
            d = policy.delay(attempt, token="tok-a")
            assert d == policy.delay(attempt, token="tok-a")
            assert base <= d < base * 1.5
        # Distinct tokens de-synchronize; distinct seeds reshuffle.
        assert policy.delay(1, token="tok-a") != \
            policy.delay(1, token="tok-b")
        reseeded = RetryPolicy(backoff_s=0.1, backoff_factor=3.0,
                               jitter=0.5, jitter_seed=8)
        assert policy.delay(1, token="tok-a") != \
            reseeded.delay(1, token="tok-a")

    def test_no_jitter_without_token_or_with_zero_jitter(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=3.0, jitter=0.5)
        assert policy.delay(2) == pytest.approx(0.3)
        flat = RetryPolicy(backoff_s=0.1, backoff_factor=3.0, jitter=0.0)
        assert flat.delay(2, token="tok-a") == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


# ----------------------------------------------------------------------
# Serial executor resilience
# ----------------------------------------------------------------------

class TestSerialResilience:
    def test_no_policy_keeps_raw_semantics(self):
        with pytest.raises(TypeError):
            SerialExecutor().map_evaluate(_raise_type_error, [1])

    def test_retry_clears_transient_failures(self):
        ex = SerialExecutor(retry_policy=RetryPolicy(max_attempts=2))
        out = ex.map_evaluate(_FlakyOnce(), [1, 2, 3])
        assert out == [2, 4, 6]
        assert ex.retries == 3 and ex.failures == 0

    def test_exhausted_retries_yield_eval_failure(self):
        ex = SerialExecutor(retry_policy=RetryPolicy(max_attempts=3))
        out = ex.map_evaluate(_raise_convergence, [7])
        failure = out[0]
        assert is_failure(failure)
        assert failure.exception_type == "ConvergenceError"
        assert failure.attempts == 3 and failure.retryable
        assert failure.token == point_token(7)

    def test_unexpected_error_becomes_failure_not_swallowed(self):
        """The old bare `except Exception` is gone: a bug in the
        evaluation function surfaces as a structured, fatal EvalFailure
        on its first attempt."""
        ex = SerialExecutor(retry_policy=RetryPolicy(max_attempts=3))
        out = ex.map_evaluate(_raise_type_error, [1, 2])
        assert all(is_failure(f) for f in out)
        assert all(f.exception_type == "TypeError" for f in out)
        assert all(f.attempts == 1 and not f.retryable for f in out)

    def test_mixed_batch_keeps_order(self):
        ex = SerialExecutor(
            retry_policy=RetryPolicy(max_attempts=1),
            fault_injector=FaultInjector(rate=0.5, seed=8),
            token_fn=str)
        out = ex.map_evaluate(_square, list(range(40)))
        assert len(out) == 40
        for i, value in enumerate(out):
            if not is_failure(value):
                assert value == i * i

    def test_timeout_records_eval_timeout(self):
        ex = SerialExecutor(
            retry_policy=RetryPolicy(max_attempts=1, timeout_s=0.2))
        out = ex.map_evaluate(_sleepy, [0.0, 0.6])
        assert out[0] == 0.0
        assert is_failure(out[1])
        assert out[1].exception_type == "EvalTimeoutError"

    def test_injector_without_policy_fails_without_retry(self):
        ex = SerialExecutor(
            fault_injector=FaultInjector(rate=1.0, seed=1,
                                         kinds=("convergence",)))
        out = ex.map_evaluate(_square, [5])
        assert is_failure(out[0]) and out[0].attempts == 1

    def test_describe_counts_retries_and_failures(self):
        ex = SerialExecutor(retry_policy=RetryPolicy(max_attempts=2),
                            fault_injector=FaultInjector(
                                rate=1.0, seed=1, kinds=("convergence",)))
        ex.map_evaluate(_square, [1, 2])
        desc = ex.describe()
        assert desc["retries"] == 2 and desc["failures"] == 2


# ----------------------------------------------------------------------
# Parallel executor resilience: crash/hang isolation, requeueing
# ----------------------------------------------------------------------

class TestParallelResilience:
    def test_injected_faults_match_serial_exactly(self):
        policy = RetryPolicy(max_attempts=3)
        inj = FaultInjector(rate=max(FAULT_RATE, 0.05), seed=21)
        serial = SerialExecutor(retry_policy=policy, fault_injector=inj)
        points = list(range(60))
        expected = serial.map_evaluate(_square, points)
        with ParallelExecutor(workers=2, retry_policy=policy,
                              fault_injector=inj) as pooled:
            got = pooled.map_evaluate(_square, points)
        # EvalFailure equality ignores elapsed time, so this compares
        # values and failure records alike.
        assert got == expected
        assert pooled.retries == serial.retries
        assert pooled.failures == serial.failures

    def test_crashed_worker_is_isolated_and_jobs_requeued(self, tmp_path):
        marker = str(tmp_path / "crash-marker")
        policy = RetryPolicy(max_attempts=2)
        with ParallelExecutor(workers=2, retry_policy=policy) as ex:
            points = [(i, marker) for i in range(6)]
            out = ex.map_evaluate(_crash_once, points)
            assert out == [i * 10 for i in range(6)]
            assert ex.pool_restarts >= 1
            assert ex.retries >= 1
            # The pool still works after the restart.
            assert ex.map_evaluate(_square, list(range(8))) == \
                [i * i for i in range(8)]

    def test_crash_without_retry_budget_reports_failures(self, tmp_path):
        marker = str(tmp_path / "crash-once")
        policy = RetryPolicy(max_attempts=1)
        with ParallelExecutor(workers=2, retry_policy=policy) as ex:
            out = ex.map_evaluate(_crash_once, [(i, marker) for i in range(4)])
        assert all(is_failure(f) for f in out)
        assert all(f.exception_type == "WorkerCrashError" for f in out)

    def test_hung_worker_times_out_and_pool_recovers(self, tmp_path):
        marker = str(tmp_path / "hang-marker")
        policy = RetryPolicy(max_attempts=2, timeout_s=1.0)
        with ParallelExecutor(workers=2, retry_policy=policy) as ex:
            out = ex.map_evaluate(_hang_once, [(3, marker)])
            assert out == [30]  # timed out once, requeued, succeeded
            assert ex.pool_restarts >= 1

    def test_unpicklable_function_falls_back_in_resilient_path(self):
        local = 5
        ex = ParallelExecutor(workers=2,
                              retry_policy=RetryPolicy(max_attempts=1))
        out = ex.map_evaluate(lambda x: x + local, [1, 2])
        assert out == [6, 7]
        assert ex.describe()["serial_fallbacks"] >= 1


# ----------------------------------------------------------------------
# Engine integration: counting, caching, reporting
# ----------------------------------------------------------------------

class TestEngineFailureHandling:
    def test_failures_are_never_cached(self):
        cache = EvalCache()
        engine = EvaluationEngine.from_config(EngineConfig(
            cache=cache,
            retry_policy=RetryPolicy(max_attempts=1),
            fault_injector=FaultInjector(rate=1.0, seed=1,
                                         kinds=("convergence",))))
        out = engine.map_evaluate(_square, [1, 2, 3], key_fn=str)
        assert all(is_failure(f) for f in out)
        assert len(cache) == 0
        # Clearing the injector lets the same keys evaluate cleanly —
        # nothing poisonous was memoized.
        engine.executor.fault_injector = None
        assert engine.map_evaluate(_square, [1, 2, 3], key_fn=str) == [1, 4, 9]
        assert len(cache) == 3

    def test_cache_put_refuses_failure_records(self):
        cache = EvalCache()
        cache.put("k", EvalFailure("ConvergenceError", "injected"))
        assert len(cache) == 0
        assert cache.get("k") is None
        assert cache.stats.failure_rejects == 1

    def test_report_counts_failures_by_type(self):
        engine = EvaluationEngine.from_config(EngineConfig(
            retry_policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(rate=1.0, seed=3,
                                         kinds=("singular",))))
        engine.map_evaluate(_square, [1, 2, 3, 4])
        report = engine.report()
        assert report["failures"]["total"] == 4
        assert report["failures"]["by_type"] == {"SingularCircuitError": 4}
        assert len(report["failures"]["records"]) == 4
        record = report["failures"]["records"][0]
        assert record["attempts"] == 2 and record["retryable"]
        assert engine.failure_rate() == pytest.approx(1.0)
        assert "4 evaluation(s) failed" in engine.failure_summary()

    def test_failure_records_are_bounded(self):
        engine = EvaluationEngine.from_config(EngineConfig(
            retry_policy=RetryPolicy(max_attempts=1),
            fault_injector=FaultInjector(rate=1.0, seed=1,
                                         kinds=("crash",))))
        engine.telemetry.max_failure_records = 10
        engine.map_evaluate(_square, list(range(50)))
        report = engine.report()
        assert report["failures"]["total"] == 50
        assert len(report["failures"]["records"]) == 10


# ----------------------------------------------------------------------
# Optimizer degradation: failed candidates get penalty costs
# ----------------------------------------------------------------------

class TestOptimizerDegradation:
    def test_anneal_survives_injected_faults(self):
        space = ContinuousSpace(["x"], [0.1], [10.0])
        ex = SerialExecutor(
            retry_policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(rate=max(FAULT_RATE, 0.05), seed=17))
        result = anneal_continuous(lambda p: (p["x"] - 5.0) ** 2, space,
                                   seed=2, executor=ex)
        assert result.best_cost < 25.0  # still made progress
        assert result.failures == ex.failures  # accurate accounting

    def test_genetic_survives_injected_faults(self):
        genes = [FloatGene("x", 0.1, 100.0)]
        ex = SerialExecutor(
            retry_policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(rate=max(FAULT_RATE, 0.05), seed=23))
        ga = GeneticOptimizer(genes, lambda g: (g["x"] - 7.0) ** 2,
                              population=16, seed=4, executor=ex)
        result = ga.run(generations=12)
        assert result.best_fitness < 100.0
        assert result.failures == ex.failures


# ----------------------------------------------------------------------
# JobGraph stage retries (the flows' resilience layer)
# ----------------------------------------------------------------------

class TestJobGraphRetries:
    def test_transient_stage_failure_is_retried(self):
        attempts = []

        def flaky_stage(_r):
            attempts.append(1)
            if len(attempts) == 1:
                raise ConvergenceError("transient stage wobble")
            return "done"

        engine = EvaluationEngine()
        graph = JobGraph()
        graph.add("wobbly", flaky_stage)
        results = graph.run(engine, retry_policy=RetryPolicy(max_attempts=2))
        assert results["wobbly"] == "done"
        assert len(attempts) == 2
        counters = engine.report()["counters"]
        assert counters["jobs.retries"] == 1
        assert counters["jobs.completed"] == 1

    def test_fatal_stage_failure_propagates(self):
        engine = EvaluationEngine()
        graph = JobGraph()
        graph.add("broken", lambda r: (_ for _ in ()).throw(TypeError("bug")))
        with pytest.raises(TypeError):
            graph.run(engine, retry_policy=RetryPolicy(max_attempts=3))
        counters = engine.report()["counters"]
        assert counters["jobs.failed"] == 1
        assert counters["jobs.failed.broken"] == 1

    def test_stages_take_the_engine_retry_policy(self):
        attempts = []

        def flaky_stage(_r):
            attempts.append(1)
            if len(attempts) == 1:
                raise ConvergenceError("transient stage wobble")
            return "done"

        engine = EvaluationEngine.from_config(
            EngineConfig(retry_policy=RetryPolicy(max_attempts=2)))
        graph = JobGraph()
        graph.add("wobbly", flaky_stage)
        assert graph.run(engine)["wobbly"] == "done"
        assert engine.report()["counters"]["jobs.retries"] == 1

    def test_retryable_failure_out_of_attempts_propagates(self):
        graph = JobGraph()
        graph.add("hopeless",
                  lambda r: (_ for _ in ()).throw(ConvergenceError("always")))
        with pytest.raises(ConvergenceError):
            graph.run(retry_policy=RetryPolicy(max_attempts=2))


# ----------------------------------------------------------------------
# The differential matrix: seed x executor x fault rate (ISSUE satellite)
# ----------------------------------------------------------------------

OTA_SPECS = SpecSet([
    Spec.at_least("gain_db", 40.0),
    Spec.at_least("gbw", 10e6),
    Spec.minimize("power", good=1e-4),
])

OTA_SPACE = DesignSpace(
    variables={"w_in": (5e-6, 500e-6), "w_load": (5e-6, 200e-6),
               "w_tail": (5e-6, 200e-6), "i_bias": (2e-6, 500e-6)},
    fixed={"l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
           "c_load": 2e-12, "vdd": 3.3})

TINY_SCHEDULE = AnnealSchedule(moves_per_temperature=8, cooling=0.7,
                               max_evaluations=64, stop_after_stale=2)


def _run_sizing(executor, fault_rate, seed=7):
    evaluator = SimulationEvaluator(builder=five_transistor_ota,
                                    raise_failures=True)
    injector = FaultInjector(rate=fault_rate, seed=99) if fault_rate else None
    engine = EvaluationEngine.from_config(EngineConfig(
        executor=executor, cache=EvalCache(),
        retry_policy=RetryPolicy(max_attempts=2), fault_injector=injector))
    sizer = SimulationBasedSizer(evaluator, OTA_SPACE, OTA_SPECS,
                                 schedule=TINY_SCHEDULE, seed=seed,
                                 engine=engine, batch_size=4,
                                 max_failure_fraction=0.9)
    result = sizer.run()
    return result, engine


class TestDifferentialMatrix:
    """Same seed x {Serial, Parallel} x {no faults, injected faults} must
    produce identical optimizer trajectories and final sized netlists."""

    @pytest.mark.parametrize("fault_rate", [0.0, FAULT_RATE])
    def test_serial_equals_parallel(self, fault_rate):
        serial_result, serial_engine = _run_sizing(SerialExecutor(),
                                                   fault_rate)
        with ParallelExecutor(workers=2) as pooled:
            parallel_result, parallel_engine = _run_sizing(pooled, fault_rate)
        assert serial_result.history == parallel_result.history
        assert serial_result.sizes == parallel_result.sizes
        assert serial_result.cost == parallel_result.cost
        assert serial_result.performance == parallel_result.performance
        assert serial_result.failures == parallel_result.failures
        s_fail = serial_engine.report()["failures"]
        p_fail = parallel_engine.report()["failures"]
        assert s_fail["total"] == p_fail["total"]
        assert s_fail["by_type"] == p_fail["by_type"]

    def test_faulted_run_completes_and_reports(self):
        rate = max(FAULT_RATE, 0.1)
        result, engine = _run_sizing(SerialExecutor(), rate)
        report = engine.report()
        # The engine's failure count is exactly what the sizer saw.
        assert result.failures == report["failures"]["total"]
        if result.failures:
            assert result.warnings  # warning summary, not an exception
            assert report["failures"]["records"]
        # No failure ever reached the cache.
        assert report["cache"]["failure_rejects"] == 0

    def test_excessive_failure_rate_raises(self):
        with pytest.raises(RuntimeError, match="evaluations to failures"):
            evaluator = SimulationEvaluator(builder=five_transistor_ota,
                                            raise_failures=True)
            engine = EvaluationEngine.from_config(EngineConfig(
                cache=EvalCache(),
                retry_policy=RetryPolicy(max_attempts=1),
                fault_injector=FaultInjector(rate=1.0, seed=5)))
            SimulationBasedSizer(evaluator, OTA_SPACE, OTA_SPECS,
                                 schedule=TINY_SCHEDULE, seed=7,
                                 engine=engine, batch_size=4,
                                 max_failure_fraction=0.2).run()
