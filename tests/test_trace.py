"""Structured tracing, run manifests and the versioned report schema.

The observability layer (repro.engine.trace / schema / config) promises:

1. spans nest along the flow hierarchy, with monotonic durations and
   inclusive telemetry-counter deltas;
2. the *structure* of a trace (names, nesting, order, statuses, counters,
   structural event fields) is a pure function of (seed, config) —
   identical for serial and parallel executors, with and without injected
   faults — while wall-clock fields are stripped by ``strip_volatile``;
3. ``engine.report()`` follows schema v2 and run manifests validate
   against their JSON Schema, with a byte-stable structural digest;
4. ``Telemetry.merge`` is deterministic regardless of merge order.
"""

import json
import os

import pytest

from repro.circuits.library import five_transistor_ota
from repro.core.specs import Spec, SpecSet
from repro.engine import (
    EngineConfig,
    EvalCache,
    EvalFailure,
    EvaluationEngine,
    FaultInjector,
    JobGraph,
    MANIFEST_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    RetryPolicy,
    SchemaError,
    SerialExecutor,
    Telemetry,
    Tracer,
    build_manifest,
    check_report,
    current_tracer,
    manifest_digest,
    strip_volatile,
    validate_manifest,
)
from repro.engine import trace as trace_mod
from repro.engine.schema import (
    REQUIRED_REPORT_KEYS,
    SECTIONS,
    SHARD_FIELDS,
    section_rollups,
)
from repro.opt.anneal import AnnealSchedule
from repro.synthesis.equation_based import DesignSpace
from repro.synthesis.simulation_based import (
    SimulationBasedSizer,
    SimulationEvaluator,
)

FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.1"))


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# Span mechanics
# ----------------------------------------------------------------------

class TestSpans:
    def test_paths_follow_nesting(self):
        tracer = Tracer()
        with tracer.span("flow") as flow:
            with tracer.span("stage") as stage:
                with tracer.span("inner") as inner:
                    pass
        assert flow.path == "flow"
        assert stage.path == "flow/stage"
        assert inner.path == "flow/stage/inner"
        assert [s.path for s in flow.walk()] == \
            ["flow", "flow/stage", "flow/stage/inner"]

    def test_indices_record_global_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [r.index for r in tracer.roots] == [0, 2]
        assert tracer.roots[0].children[0].index == 1

    def test_counter_deltas_are_inclusive(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.count("work", 1)
            with tracer.span("inner") as inner:
                tracer.count("work", 2)
        assert inner.counters == {"work": 2}
        assert outer.counters == {"work": 3}  # child's work included

    def test_error_status_and_reraise(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        span = tracer.roots[0]
        assert span.status == "error"
        assert span.duration_s >= 0.0
        # The stack unwound: a new span is a root again.
        with tracer.span("next"):
            pass
        assert tracer.roots[1].path == "next"

    def test_simulator_calls_sums_engine_and_analysis_counters(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            tracer.count("engine.evaluations", 3)
            tracer.count("analysis.dc", 2)
            tracer.count("analysis.tran", 1)
            tracer.count("unrelated", 9)
        assert span.simulator_calls() == 6

    def test_active_tracer_and_suspension(self):
        tracer = Tracer()
        assert current_tracer() is None
        with tracer.span("s"):
            assert current_tracer() is tracer
            with trace_mod.suspended():
                assert current_tracer() is None
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_events_carry_seq_span_and_structural_fields(self):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.event("custom", points=4, wall_s=0.25)
        kinds = [e["kind"] for e in tracer.events]
        assert kinds == ["span_start", "custom", "span_end"]
        assert [e["seq"] for e in tracer.events] == [0, 1, 2]
        assert tracer.events[1]["span"] == "s"
        stripped = tracer.event_structure()[1]
        assert stripped["points"] == 4
        assert "wall_s" not in stripped and "t_rel" not in stripped

    def test_write_events_is_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.event("e", n=1)
        path = tracer.write_events(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["kind"] for line in lines)


class TestStripVolatile:
    def test_removes_wall_clock_keys_recursively(self):
        obj = {
            "duration_s": 1.2, "worker_s": 0.5, "t_rel": 0.1,
            "timers": {"x": 1}, "counters": {"n": 3},
            "children": [{"wall_s": 0.2, "name": "c"}],
        }
        assert strip_volatile(obj) == {
            "counters": {"n": 3}, "children": [{"name": "c"}],
        }

    def test_preserves_non_dict_values(self):
        assert strip_volatile([1, "a", None]) == [1, "a", None]


# ----------------------------------------------------------------------
# Telemetry.merge determinism (ISSUE satellite)
# ----------------------------------------------------------------------

class TestTelemetryMergeDeterminism:
    @staticmethod
    def _failure(i, exc="ConvergenceError"):
        return EvalFailure(exc, f"failure {i}", token=f"t{i:03d}")

    def test_merge_order_does_not_change_records(self):
        parts = []
        for chunk in ([self._failure(3), self._failure(1)],
                      [self._failure(2, "WorkerCrashError")],
                      [self._failure(0)]):
            t = Telemetry()
            for f in chunk:
                t.record_failure(f)
            parts.append(t)

        merged_ab = Telemetry()
        for t in parts:
            merged_ab.merge(t)
        merged_ba = Telemetry()
        for t in reversed(parts):
            merged_ba.merge(t)
        assert [f.as_dict() for f in merged_ab.failure_records] == \
            [f.as_dict() for f in merged_ba.failure_records]
        assert merged_ab.counters == merged_ba.counters

    def test_merged_records_are_sorted_and_bounded(self):
        a, b = Telemetry(max_failure_records=3), Telemetry()
        for i in (5, 1):
            a.record_failure(self._failure(i))
        for i in (4, 0, 2):
            b.record_failure(self._failure(i))
        a.merge(b)
        tokens = [f.token for f in a.failure_records]
        assert tokens == ["t000", "t001", "t002"]  # sorted, capped at 3
        assert a.failure_count() == 5  # counters still see everything


# ----------------------------------------------------------------------
# Engine integration: schema v2 report, batch/failure events
# ----------------------------------------------------------------------

class TestEngineReportSchema:
    def test_untraced_report_is_schema_v2_with_empty_spans(self):
        engine = EvaluationEngine()
        engine.map_evaluate(_square, [1, 2])
        report = engine.report()
        check_report(report)  # raises on drift
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["spans"] == []

    def test_traced_report_embeds_span_tree(self):
        engine = EvaluationEngine.from_config(
            EngineConfig(cache=True, trace=True))
        with engine.tracer.span("stage"):
            engine.map_evaluate(_square, [1, 2, 2], key_fn=str)
        report = engine.report()
        check_report(report)
        (span,) = report["spans"]
        assert span["name"] == "stage"
        assert span["counters"]["engine.requests"] == 3
        assert span["counters"]["engine.evaluations"] == 2  # deduped
        assert span["duration_s"] >= 0.0

    def test_check_report_rejects_drift(self):
        engine = EvaluationEngine()
        report = engine.report()
        del report["spans"]
        with pytest.raises(SchemaError, match="spans"):
            check_report(report)
        report = engine.report()
        report["schema_version"] = 999
        with pytest.raises(SchemaError, match="schema_version"):
            check_report(report)

    def test_section_keys_and_rollups_are_pinned(self):
        """Every section key, in order, and every manifest rollup name:
        a registry edit that drops or renames one fails here."""
        report = EvaluationEngine().report()
        assert tuple(report) == (
            "counters", "timers", "failures", "schema_version", "executor",
            "cache", "spans", "solver", "serve", "surrogate", "kernel",
            "topogen", "macro")
        assert REQUIRED_REPORT_KEYS == (
            "schema_version", "counters", "timers", "failures", "executor",
            "cache", "spans", "solver", "serve", "surrogate", "kernel",
            "topogen", "macro")
        pinned = {
            "solver": ("factorizations", "dense", "sparse", "solves",
                       "cache_hits", "cache_misses", "hit_rate"),
            "serve": ("requests", "admitted", "rejected", "expired",
                      "cancelled", "errored", "completed", "batches",
                      "batched", "mean_batch_size", "batch_size_hist",
                      "latency_p50_s", "latency_p95_s", "latency_p99_s",
                      "shards"),
            "surrogate": ("fits", "predictions", "screened", "simulated",
                          "sims_avoided", "verify_misses", "fallbacks",
                          "avoid_rate", "fit_latency_p50_s",
                          "predict_latency_p50_s"),
            "kernel": ("groups", "batches", "batched_points",
                       "scalar_points", "member_fallbacks",
                       "group_fallbacks", "fault_exclusions",
                       "mean_batch_points", "batch_latency_p50_s"),
            "topogen": ("generated", "valid", "invalid",
                        "interval_unproven", "symbolic_ranked",
                        "symbolic_fallbacks", "pruned_out", "survivors",
                        "sized", "prune_ratio"),
            "macro": ("tiled", "units", "rails", "detours", "vias",
                      "blockage_violations", "signoffs", "em_violations",
                      "width_rejected", "detour_rate"),
        }
        for section in SECTIONS:
            assert tuple(report[section.name]) == pinned[section.name]
        assert [s.name for s in SECTIONS] == list(pinned)
        assert tuple(SHARD_FIELDS) == (
            "shard", "condemned", "restarts", "routed", "rerouted",
            "completed", "expired", "cancelled", "errored")
        assert tuple(section_rollups(report)) == (
            "solver_factorizations", "solver_solves", "solver_hit_rate",
            "serve_requests", "serve_rejected", "serve_expired",
            "serve_batches", "serve_mean_batch_size", "surrogate_fits",
            "surrogate_predictions", "surrogate_sims_avoided",
            "surrogate_verify_misses", "surrogate_avoid_rate",
            "kernel_batches", "kernel_batched_points",
            "kernel_scalar_points", "kernel_mean_batch_points",
            "serve_shards", "topogen_generated", "topogen_valid",
            "topogen_survivors", "topogen_sized", "topogen_prune_ratio",
            "macro_tiled", "macro_units", "macro_rails", "macro_vias",
            "macro_signoffs", "macro_blockage_violations")

    def test_check_report_rejects_section_drift(self):
        report = EvaluationEngine().report()
        del report["kernel"]["batch_latency_p50_s"]
        with pytest.raises(SchemaError, match="batch_latency_p50_s"):
            check_report(report)
        report = EvaluationEngine().report()
        report["serve"]["shards"] = {}
        with pytest.raises(SchemaError, match="must be a list"):
            check_report(report)
        report["serve"]["shards"] = [{"shard": 0}]
        with pytest.raises(SchemaError, match=r"\[0\] missing keys"):
            check_report(report)

    def test_batch_and_failure_events_are_emitted(self):
        config = EngineConfig(
            trace=True,
            retry_policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(rate=1.0, seed=3,
                                         kinds=("convergence",)))
        engine = EvaluationEngine.from_config(config)
        with engine.tracer.span("s"):
            engine.map_evaluate(_square, [1, 2])
        kinds = [e["kind"] for e in engine.tracer.events]
        assert "batch" in kinds and "failure" in kinds and "retry" in kinds
        batch = next(e for e in engine.tracer.events if e["kind"] == "batch")
        assert batch["points"] == 2 and batch["failures"] == 2
        assert batch["retries"] == 2
        failure = next(e for e in engine.tracer.events
                       if e["kind"] == "failure")
        assert failure["exception_type"] == "ConvergenceError"

    def test_all_hit_batch_is_still_an_event(self):
        engine = EvaluationEngine.from_config(
            EngineConfig(cache=True, trace=True))
        with engine.tracer.span("s"):
            engine.map_evaluate(_square, [4], key_fn=str)
            engine.map_evaluate(_square, [4], key_fn=str)
        batches = [e for e in engine.tracer.events if e["kind"] == "batch"]
        assert [b["evaluations"] for b in batches] == [1, 0]
        assert batches[1]["hits"] == 1

    def test_analysis_counters_suspended_during_dispatch(self):
        """In-process (serial) dispatch must not count analysis.* where
        pool workers could not: span attribution is executor-invariant."""

        def analysis_eval(x):
            assert current_tracer() is None  # suspended inside dispatch
            return x

        engine = EvaluationEngine.from_config(EngineConfig(trace=True))
        with engine.tracer.span("s") as span:
            engine.map_evaluate(analysis_eval, [1, 2])
        assert not any(k.startswith("analysis.") for k in span.counters)

    def test_worker_eval_timer_recorded(self):
        engine = EvaluationEngine.from_config(EngineConfig(trace=True))
        engine.map_evaluate(_square, [1, 2, 3])
        timers = engine.report()["timers"]
        assert timers["engine.worker_eval"]["calls"] == 1
        assert timers["engine.worker_eval"]["total_s"] >= 0.0


# ----------------------------------------------------------------------
# Manifests: build, validate, digest
# ----------------------------------------------------------------------

def _traced_jobgraph_engine():
    engine = EvaluationEngine.from_config(
        EngineConfig(cache=True, trace=True))
    graph = JobGraph()
    graph.add("prepare", lambda r: [1, 2, 3])
    graph.add("evaluate",
              lambda r: engine.map_evaluate(_square, r["prepare"],
                                            key_fn=str),
              deps=("prepare",))
    with engine.tracer.span("toy_flow"):
        graph.run(engine)
    return engine


class TestManifest:
    def test_manifest_validates_against_schema(self):
        engine = _traced_jobgraph_engine()
        config = EngineConfig(cache=True, trace=True)
        manifest = build_manifest("toy_flow", engine, seed=5, config=config)
        validate_manifest(manifest)  # raises on drift
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["run"]["flow"] == "toy_flow"
        assert manifest["run"]["seed"] == 5
        assert manifest["rollups"]["span_count"] == 3
        assert manifest["rollups"]["simulator_calls"] == 3

    def test_manifest_covers_every_stage(self):
        engine = _traced_jobgraph_engine()
        manifest = build_manifest("toy_flow", engine)
        (root,) = manifest["report"]["spans"]
        stage_names = [c["name"] for c in root["children"]]
        assert stage_names == ["prepare", "evaluate"]
        for child in root["children"]:
            assert child["duration_s"] >= 0.0
            assert "counters" in child

    def test_tampered_manifest_is_rejected(self):
        engine = _traced_jobgraph_engine()
        manifest = build_manifest("toy_flow", engine)
        bad = json.loads(json.dumps(manifest))
        del bad["rollups"]["simulator_calls"]
        with pytest.raises(SchemaError, match="simulator_calls"):
            validate_manifest(bad)
        bad = json.loads(json.dumps(manifest))
        bad["report"]["schema_version"] = 1
        with pytest.raises(SchemaError):
            validate_manifest(bad)

    def test_digest_stable_across_reruns(self):
        digests = {manifest_digest(build_manifest(
            "toy_flow", _traced_jobgraph_engine(), seed=5)) for _ in range(2)}
        assert len(digests) == 1

    def test_digest_ignores_wall_clock_but_not_structure(self):
        engine = _traced_jobgraph_engine()
        manifest = build_manifest("toy_flow", engine, seed=5)
        clone = json.loads(json.dumps(manifest))
        clone["rollups"]["wall_s"] = 1e9  # volatile: ignored
        assert manifest_digest(clone) == manifest_digest(manifest)
        clone["rollups"]["simulator_calls"] += 1  # structural: detected
        assert manifest_digest(clone) != manifest_digest(manifest)


# ----------------------------------------------------------------------
# Traced pulse-detector flow (the Table 1 CI artifact path)
# ----------------------------------------------------------------------

QUICK_PD_SCHEDULE = AnnealSchedule(moves_per_temperature=60, cooling=0.8,
                                   max_evaluations=4000)


class TestPulseDetectorFlow:
    def test_manifest_covers_every_stage_and_validates(self, tmp_path):
        from repro.synthesis.pulse_detector import pulse_detector_flow

        run = pulse_detector_flow(
            seed=1, schedule=QUICK_PD_SCHEDULE,
            config=EngineConfig(trace=True, trace_dir=tmp_path))
        validate_manifest(run.manifest)
        check_report(run.report)

        (root,) = run.report["spans"]
        assert root["name"] == "pulse_detector_flow"
        stages = {c["name"] for c in root["children"]}
        assert stages == {"synthesize", "verify", "check"}
        for name in ("synthesize", "verify", "check"):
            assert run.report["timers"][f"stage.{name}"]["total_s"] >= 0.0
        # verify transient-simulates the sized circuit: counted.
        verify = next(c for c in root["children"] if c["name"] == "verify")
        assert verify["counters"]["analysis.tran"] == 1
        assert run.manifest["rollups"]["simulator_calls"] >= 1

        # trace_dir: both artifacts written, both parse, manifest on
        # disk equals the returned one.
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest_digest(on_disk) == manifest_digest(run.manifest)
        events = [json.loads(line) for line in
                  (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert events, "trace.jsonl must hold the event log"
        assert {e["kind"] for e in events} >= {"span_start", "span_end"}


# ----------------------------------------------------------------------
# The differential matrix: seed x executor x fault rate, now for traces
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


def _traced_sizing(executor_kind, fault_rate, seed=7):
    config = EngineConfig(
        executor=executor_kind, workers=2, cache=True, trace=True,
        retry_policy=RetryPolicy(max_attempts=2),
        fault_injector=(FaultInjector(rate=fault_rate, seed=99)
                        if fault_rate else None))
    evaluator = SimulationEvaluator(builder=five_transistor_ota,
                                    raise_failures=True)
    sizer = SimulationBasedSizer(evaluator, OTA_SPACE, OTA_SPECS,
                                 schedule=TINY_SCHEDULE, seed=seed,
                                 batch_size=4, max_failure_fraction=0.9,
                                 config=config)
    result = sizer.run()
    return result, sizer.engine


class TestDifferentialTraceMatrix:
    """Span trees and report structures must be identical for
    seed x {serial, parallel} x {0, REPRO_FAULT_RATE}."""

    @pytest.mark.parametrize("fault_rate", [0.0, FAULT_RATE])
    def test_trace_structure_is_executor_invariant(self, fault_rate):
        s_result, s_engine = _traced_sizing("serial", fault_rate)
        p_result, p_engine = _traced_sizing("parallel", fault_rate)
        assert s_result.sizes == p_result.sizes
        assert s_engine.tracer.structure() == p_engine.tracer.structure()
        assert s_engine.tracer.event_structure() == \
            p_engine.tracer.event_structure()
        s_report, p_report = s_engine.report(), p_engine.report()
        check_report(s_report)
        check_report(p_report)
        assert sorted(s_report) == sorted(p_report)
        assert s_report["counters"] == p_report["counters"]
        assert strip_volatile(s_report["failures"]) == \
            strip_volatile(p_report["failures"])

    def test_faulted_trace_records_failure_events(self):
        rate = max(FAULT_RATE, 0.1)
        _result, engine = _traced_sizing("serial", rate)
        if engine.failure_count():
            kinds = {e["kind"] for e in engine.tracer.events}
            assert "failure" in kinds
