"""Tests for the evaluation engine: executors, cache, telemetry, job graph,
and the end-to-end guarantees the synthesis loops rely on — parallel runs
identical to serial ones, and warm-cache reruns doing zero simulator work.
"""

import numpy as np
import pytest

from repro.circuits.library import five_transistor_ota
from repro.core.specs import Spec, SpecSet
from repro.engine import (
    EvalCache,
    EvaluationEngine,
    JobGraph,
    JobGraphError,
    ParallelExecutor,
    SerialExecutor,
    Telemetry,
    canonical_key,
)
from repro.opt.anneal import AnnealSchedule, ContinuousSpace, anneal_continuous
from repro.opt.genetic import FloatGene, GeneticOptimizer
from repro.synthesis.equation_based import DesignSpace
from repro.synthesis.simulation_based import (
    SimulationBasedSizer,
    SimulationEvaluator,
)


def _square(x):
    """Module-level so it pickles into worker processes."""
    return x * x


def _genome_cost(g):
    return (g["x"] - 7.0) ** 2


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

# Small but non-trivial: ~90 evaluations, a couple of seconds of MNA work.
FAST_SCHEDULE = AnnealSchedule(moves_per_temperature=10, cooling=0.7,
                               max_evaluations=120, stop_after_stale=3)


def _sizer(engine, batch_size=4, seed=7):
    evaluator = SimulationEvaluator(builder=five_transistor_ota)
    return SimulationBasedSizer(evaluator, OTA_SPACE, OTA_SPECS,
                                schedule=FAST_SCHEDULE, seed=seed,
                                engine=engine, batch_size=batch_size)


class TestTelemetry:
    def test_counters_accumulate(self):
        t = Telemetry()
        t.count("a")
        t.count("a", 4)
        assert t.get("a") == 5
        assert t.get("missing") == 0

    def test_timer_records_calls_and_time(self):
        t = Telemetry()
        with t.timer("work"):
            pass
        with t.timer("work"):
            pass
        stat = t.timers["work"]
        assert stat.calls == 2
        assert stat.total_s >= 0.0
        assert t.report()["timers"]["work"]["calls"] == 2

    def test_merge(self):
        a, b = Telemetry(), Telemetry()
        a.count("x", 2)
        b.count("x", 3)
        b.record_time("t", 0.5)
        a.merge(b)
        assert a.get("x") == 5
        assert a.timers["t"].total_s == pytest.approx(0.5)


class TestCanonicalKey:
    def test_same_circuit_same_key(self):
        sizes = {"w_in": 5e-5, "i_bias": 5e-5}
        k1 = canonical_key(five_transistor_ota(dict(sizes)))
        k2 = canonical_key(five_transistor_ota(dict(sizes)))
        assert k1 == k2

    def test_different_sizes_different_key(self):
        k1 = canonical_key(five_transistor_ota({"w_in": 5e-5}))
        k2 = canonical_key(five_transistor_ota({"w_in": 6e-5}))
        assert k1 != k2

    def test_dict_order_independent(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key(
            {"b": 2, "a": 1})

    def test_numpy_scalars_normalize_to_python_floats(self):
        assert canonical_key({"w": np.float64(1.5)}) == canonical_key(
            {"w": 1.5})

    def test_part_boundaries_matter(self):
        assert canonical_key("ab", "c") != canonical_key("a", "bc")


class TestEvalCache:
    def test_hit_returns_identical_result(self):
        cache = EvalCache()
        value = {"gain": 123.456789012345, "gbw": 9.87e6}
        cache.put("k", value)
        got = cache.get("k")
        assert got is value  # bit-identical: the stored object itself
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_get_or_compute_runs_once(self):
        cache = EvalCache()
        calls = []
        for _ in range(3):
            out = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert out == 42
        assert len(calls) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = EvalCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a: b is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_disk_layer_survives_new_instance(self, tmp_path):
        c1 = EvalCache(disk_dir=tmp_path)
        c1.put("k", {"gain": 50.0})
        c2 = EvalCache(disk_dir=tmp_path)
        assert c2.get("k") == {"gain": 50.0}
        assert c2.stats.disk_hits == 1

    def test_report_fields(self):
        cache = EvalCache(max_entries=8)
        cache.put("k", 1)
        rep = cache.report()
        assert rep["entries"] == 1 and rep["max_entries"] == 8
        assert 0.0 <= rep["hit_rate"] <= 1.0


class TestExecutors:
    def test_serial_order(self):
        ex = SerialExecutor()
        assert ex.map_evaluate(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        with ParallelExecutor(workers=2) as ex:
            points = list(range(23))
            assert ex.map_evaluate(_square, points) == [p * p for p in points]

    def test_parallel_unpicklable_falls_back(self):
        local = 10
        with ParallelExecutor(workers=2) as ex:
            out = ex.map_evaluate(lambda x: x + local, [1, 2, 3])
        assert out == [11, 12, 13]
        assert ex.describe()["serial_fallbacks"] >= 1

    def test_parallel_empty_batch(self):
        with ParallelExecutor(workers=2) as ex:
            assert ex.map_evaluate(_square, []) == []


class TestEvaluationEngine:
    def test_counters_match_actual_evaluations(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x * 2

        engine = EvaluationEngine(SerialExecutor(), EvalCache())
        out = engine.map_evaluate(fn, [1, 2, 1, 3, 2], key_fn=str)
        assert out == [2, 4, 2, 6, 4]
        counters = engine.report()["counters"]
        assert counters["engine.requests"] == 5
        assert counters["engine.evaluations"] == len(calls) == 3
        assert counters["engine.cache_hits"] == 2
        assert counters["engine.cache_misses"] == 3

    def test_no_cache_evaluates_everything(self):
        engine = EvaluationEngine(SerialExecutor())
        engine.map_evaluate(_square, [1, 1, 1])
        assert engine.report()["counters"]["engine.evaluations"] == 3

    def test_single_point_evaluate_with_key(self):
        engine = EvaluationEngine(SerialExecutor(), EvalCache())
        assert engine.evaluate(_square, 4, key="four") == 16
        assert engine.evaluate(_square, 4, key="four") == 16
        assert engine.report()["counters"]["engine.evaluations"] == 1

    def test_keyed_adapter_routes_through_cache(self):
        engine = EvaluationEngine(SerialExecutor(), EvalCache())
        keyed = engine.keyed(str)
        keyed.map_evaluate(_square, [5, 5, 6])
        assert engine.report()["counters"]["engine.cache_hits"] == 1


class TestJobGraph:
    def test_dependency_order_and_results(self):
        graph = JobGraph()
        graph.add("b", lambda r: r["a"] + 1, deps=("a",))
        graph.add("a", lambda r: 1)
        graph.add("c", lambda r: r["a"] + r["b"], deps=("a", "b"))
        results = graph.run()
        assert results == {"a": 1, "b": 2, "c": 3}

    def test_cycle_detected(self):
        graph = JobGraph()
        graph.add("a", lambda r: 1, deps=("b",))
        graph.add("b", lambda r: 2, deps=("a",))
        with pytest.raises(JobGraphError, match="cycle"):
            graph.run()

    def test_unknown_dep_rejected(self):
        graph = JobGraph()
        graph.add("a", lambda r: 1, deps=("ghost",))
        with pytest.raises(JobGraphError, match="unknown"):
            graph.order()

    def test_duplicate_job_rejected(self):
        graph = JobGraph()
        graph.add("a", lambda r: 1)
        with pytest.raises(JobGraphError, match="duplicate"):
            graph.add("a", lambda r: 2)

    def test_stage_telemetry(self):
        engine = EvaluationEngine()
        graph = JobGraph()
        graph.add("size", lambda r: 1)
        graph.add("verify", lambda r: r["size"], deps=("size",))
        graph.run(engine)
        rep = engine.report()
        assert rep["counters"]["jobs.completed"] == 2
        assert set(rep["timers"]) >= {"stage.size", "stage.verify"}


class TestOptimizerHooks:
    def test_anneal_executor_path_matches_plain(self):
        space = ContinuousSpace(["x", "y"], np.array([0.1, 0.1]),
                                np.array([10.0, 10.0]))

        def cost(p):
            return (p["x"] - 2.0) ** 2 + (p["y"] - 3.0) ** 2

        plain = anneal_continuous(cost, space, seed=3)
        hooked = anneal_continuous(cost, space, seed=3,
                                   executor=SerialExecutor())
        assert np.array_equal(plain.best_state, hooked.best_state)
        assert plain.best_cost == hooked.best_cost
        assert plain.evaluations == hooked.evaluations

    def test_anneal_explicit_rng_reproducible(self):
        space = ContinuousSpace(["x"], np.array([0.1]), np.array([10.0]))

        def run():
            return anneal_continuous(lambda p: (p["x"] - 5) ** 2, space,
                                     rng=np.random.default_rng(11))

        a, b = run(), run()
        assert np.array_equal(a.best_state, b.best_state)
        assert a.best_cost == b.best_cost

    def test_anneal_rejects_bad_batch_size(self):
        from repro.opt.anneal import Annealer
        with pytest.raises(ValueError):
            Annealer(lambda s: 0.0, lambda s, r, f: s, batch_size=0)

    def test_genetic_executor_matches_plain(self):
        genes = [FloatGene("x", 0.1, 100.0)]
        plain = GeneticOptimizer(genes, _genome_cost, population=20,
                                 seed=5).run(generations=15)
        with ParallelExecutor(workers=2) as ex:
            pooled = GeneticOptimizer(genes, _genome_cost, population=20,
                                      seed=5, executor=ex).run(generations=15)
        assert plain.best == pooled.best
        assert plain.best_fitness == pooled.best_fitness
        assert plain.history == pooled.history

    def test_genetic_explicit_rng_reproducible(self):
        genes = [FloatGene("x", 0.1, 100.0)]

        def run():
            return GeneticOptimizer(genes, _genome_cost, population=20,
                                    rng=np.random.default_rng(9)
                                    ).run(generations=10)

        assert run().best == run().best


class TestSizingEndToEnd:
    """The PR's acceptance criteria, verbatim."""

    def test_parallel_sizing_identical_to_serial(self):
        serial_engine = EvaluationEngine(SerialExecutor(), EvalCache())
        serial = _sizer(serial_engine).run()
        with ParallelExecutor(workers=2) as ex:
            parallel_engine = EvaluationEngine(ex, EvalCache())
            parallel = _sizer(parallel_engine).run()
        assert serial.sizes == parallel.sizes
        assert serial.cost == parallel.cost
        assert serial.performance == parallel.performance
        assert serial.evaluations == parallel.evaluations
        assert serial.history == parallel.history
        assert serial.feasible == parallel.feasible

    def test_warm_cache_makes_zero_simulator_calls(self):
        engine = EvaluationEngine(SerialExecutor(), EvalCache())
        first = _sizer(engine).run()
        evals_after_first = engine.report()["counters"]["engine.evaluations"]
        assert evals_after_first > 0
        second = _sizer(engine).run()
        counters = engine.report()["counters"]
        assert counters["engine.evaluations"] == evals_after_first
        assert first.sizes == second.sizes
        assert first.performance == second.performance


class TestFlowTelemetry:
    def test_chip_flow_reports_stage_times(self):
        from repro.flows import assemble_chip
        from repro.msystem import demo_mixed_signal_system
        from repro.opt.anneal import AnnealSchedule

        blocks, nets = demo_mixed_signal_system()
        engine = EvaluationEngine()
        plan = assemble_chip(
            blocks, nets, seed=1, engine=engine,
            floorplan_schedule=AnnealSchedule(moves_per_temperature=40,
                                              cooling=0.8,
                                              max_evaluations=2000))
        assert plan.telemetry is not None
        stages = {"stage.floorplan", "stage.route", "stage.snr",
                  "stage.channels", "stage.power"}
        assert stages <= set(plan.telemetry["timers"])
        assert plan.telemetry["counters"]["jobs.completed"] == 5
        # The same flow without an engine carries no telemetry.
        plain = assemble_chip(
            blocks, nets, seed=1,
            floorplan_schedule=AnnealSchedule(moves_per_temperature=40,
                                              cooling=0.8,
                                              max_evaluations=2000))
        assert plain.telemetry is None
        assert plain.floorplan.area == plan.floorplan.area
