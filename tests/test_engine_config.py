"""EngineConfig / EvaluationEngine.from_config and how flows get engines.

One typed config object carries the executor / cache / retry_policy /
fault_injector / tracer settings.  Every flow entry point takes either a
shared ``engine=`` or a ``config=`` to build an engine it owns; passing
both is an error.
"""

import json

import pytest

from repro.circuits.library import five_transistor_ota
from repro.core.specs import Spec, SpecSet
from repro.engine import (
    EngineConfig,
    EvalCache,
    EvaluationEngine,
    FaultInjector,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    Telemetry,
    Tracer,
)
from repro.flows import assemble_chip, design_ota_cell
from repro.opt.anneal import AnnealSchedule
from repro.synthesis import DesignSpace
from repro.synthesis.compose import TopologyFunnel
from repro.synthesis.simulation_based import (
    SimulationBasedSizer,
    SimulationEvaluator,
)


def _double(x):
    return 2 * x


class TestBuildParts:
    def test_default_is_serial_uncached_untraced(self):
        engine = EvaluationEngine.from_config(EngineConfig())
        assert isinstance(engine.executor, SerialExecutor)
        assert engine.cache is None
        assert engine.tracer is None
        assert engine.config is not None

    def test_parallel_shorthand(self):
        config = EngineConfig(executor="parallel", workers=2, chunksize=3)
        engine = EvaluationEngine.from_config(config)
        try:
            assert isinstance(engine.executor, ParallelExecutor)
            assert engine.executor.workers == 2
            assert engine.map_evaluate(_double, [1, 2, 3]) == [2, 4, 6]
        finally:
            engine.close()

    def test_explicit_executor_instance_used_as_is(self):
        executor = SerialExecutor()
        engine = EvaluationEngine.from_config(EngineConfig(executor=executor))
        assert engine.executor is executor

    def test_unknown_executor_kind_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            EngineConfig(executor="distributed").build_executor()

    def test_cache_true_builds_fresh_cache(self):
        config = EngineConfig(cache=True, cache_entries=7)
        engine = EvaluationEngine.from_config(config)
        assert isinstance(engine.cache, EvalCache)
        assert engine.cache.max_entries == 7

    def test_cache_instance_shared(self):
        cache = EvalCache()
        a = EvaluationEngine.from_config(EngineConfig(cache=cache))
        b = EvaluationEngine.from_config(EngineConfig(cache=cache))
        a.map_evaluate(_double, [5], key_fn=str)
        b.map_evaluate(_double, [5], key_fn=str)
        assert b.report()["counters"]["engine.cache_hits"] == 1

    def test_retry_and_faults_installed_on_executor(self):
        policy = RetryPolicy(max_attempts=3)
        injector = FaultInjector(rate=0.0, seed=1)
        engine = EvaluationEngine.from_config(
            EngineConfig(retry_policy=policy, fault_injector=injector))
        assert engine.executor.retry_policy is policy
        assert engine.executor.fault_injector is injector


class TestTracerWiring:
    def test_trace_true_builds_tracer_sharing_telemetry(self):
        engine = EvaluationEngine.from_config(EngineConfig(trace=True))
        assert isinstance(engine.tracer, Tracer)
        assert engine.tracer.telemetry is engine.telemetry

    def test_explicit_tracer_wins(self):
        tracer = Tracer()
        engine = EvaluationEngine.from_config(EngineConfig(tracer=tracer))
        assert engine.tracer is tracer
        assert tracer.telemetry is engine.telemetry

    def test_trace_dir_implies_trace(self, tmp_path):
        config = EngineConfig(trace_dir=tmp_path)
        engine = EvaluationEngine.from_config(config)
        assert engine.tracer is not None
        assert config.describe()["trace"] is True

    def test_explicit_telemetry_respected(self):
        telemetry = Telemetry()
        engine = EvaluationEngine.from_config(
            EngineConfig(telemetry=telemetry, trace=True))
        assert engine.telemetry is telemetry
        assert engine.tracer.telemetry is telemetry


class TestDescribe:
    def test_describe_is_json_safe(self, tmp_path):
        config = EngineConfig(
            executor="parallel", workers=4, cache=True,
            disk_cache_dir=tmp_path / "cache",
            retry_policy=RetryPolicy(max_attempts=2, timeout_s=1.5),
            fault_injector=FaultInjector(rate=0.2, seed=9),
            trace_dir=tmp_path / "runs")
        desc = config.describe()
        round_tripped = json.loads(json.dumps(desc, sort_keys=True))
        assert round_tripped == desc
        assert desc["executor"] == "parallel"
        assert desc["retry_policy"]["max_attempts"] == 2
        assert desc["fault_injector"]["rate"] == 0.2

    def test_describe_names_executor_instances(self):
        desc = EngineConfig(executor=SerialExecutor()).describe()
        assert desc["executor"] == "SerialExecutor"


class ClosingProbe(SerialExecutor):
    """A serial executor that records whether its engine closed it."""

    closed = False

    def close(self) -> None:
        self.closed = True
        super().close()


OTA_SPACE = DesignSpace(
    variables={"w_in": (5e-6, 500e-6), "i_bias": (2e-6, 500e-6)},
    fixed={"w_load": 20e-6, "w_tail": 20e-6, "l_in": 2e-6,
           "l_load": 2e-6, "l_tail": 2e-6, "c_load": 2e-12, "vdd": 3.3})
OTA_SPECS = SpecSet([Spec.at_least("gain_db", 40.0)])


def _tiny_sizer(**engine_kwargs) -> SimulationBasedSizer:
    return SimulationBasedSizer(
        SimulationEvaluator(builder=five_transistor_ota), OTA_SPACE,
        OTA_SPECS, schedule=AnnealSchedule(
            moves_per_temperature=4, cooling=0.5, max_evaluations=8),
        batch_size=4, **engine_kwargs)


class TestDeprecationShims:
    """What the removed deprecation shims leave behind: one rule for how
    a flow gets its engine, and no warnings."""

    def test_plain_constructor_does_not_warn(self):
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("error", DeprecationWarning)
            EvaluationEngine(cache=EvalCache())

    def test_engine_plus_config_is_an_error(self):
        engine, config = EvaluationEngine(), EngineConfig()
        entry_points = [
            lambda: SimulationBasedSizer(
                SimulationEvaluator(builder=five_transistor_ota),
                OTA_SPACE, OTA_SPECS, engine=engine, config=config),
            lambda: TopologyFunnel(OTA_SPECS, engine=engine, config=config),
            lambda: design_ota_cell(OTA_SPECS, engine=engine, config=config),
            lambda: assemble_chip([], [], engine=engine, config=config),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match="not both"):
                call()

    def test_config_built_engine_is_closed_by_its_owner(self):
        probe = ClosingProbe()
        sizer = _tiny_sizer(config=EngineConfig(executor=probe, cache=True))
        assert sizer.engine.executor is probe
        sizer.run()
        assert probe.closed

    def test_shared_engine_stays_open_and_does_not_warn(self):
        import warnings as _w
        probe = ClosingProbe()
        engine = EvaluationEngine.from_config(EngineConfig(executor=probe))
        with _w.catch_warnings():
            _w.simplefilter("error", DeprecationWarning)
            sizer = _tiny_sizer(engine=engine)
            sizer.run()
        assert sizer.engine is engine and not probe.closed
        assert engine.report()["counters"]["engine.evaluations"] > 0
        engine.close()

    def test_no_engine_no_config_passes_through(self):
        sizer = _tiny_sizer()
        assert sizer.engine is None
        assert sizer.run().evaluations > 0
