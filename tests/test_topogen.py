"""Compositional topology generation: grammar, validity, funnel, schema.

Pins the acceptance criteria of the generated-space subsystem: the
grammar enumerates deterministically and byte-stably, at least 100
structurally distinct compositions pass the electrical validity gate
(parse round-trip, DC solve, KCL), symbolic pruning cuts the sized set
by >= 5x, the funnel's counters roll up into report schema v8 / manifest
v7, and the serve workload routes mixed-structure point streams.
"""

import math

import pytest

from repro.circuits.writer import write_netlist
from repro.core.specs import Spec, SpecSet
from repro.engine.config import EngineConfig
from repro.engine.core import EvaluationEngine
from repro.engine.schema import SECTIONS, check_report
from repro.engine.telemetry import Telemetry
from repro.engine.trace import strip_volatile
from repro.opt.anneal import AnnealSchedule
from repro.opt.interval import Interval
from repro.synthesis.compose import (
    TopologyFunnel,
    composed_performance,
    generate_topologies,
    prune_structures,
    rank_structures,
    topogen_workload,
    validate_topology,
)
from repro.synthesis.topology import select_interval, select_rule_based

TABLE1 = SpecSet([Spec.at_least("gain_db", 60.0),
                  Spec.at_least("gbw", 5e6),
                  Spec.minimize("power", good=1e-4)])


@pytest.fixture(scope="module")
def full_space():
    return generate_topologies()


class TestGenerator:
    def test_grammar_emits_at_least_100_structures(self, full_space):
        assert len(full_space) >= 100

    def test_structure_ids_unique_and_sorted(self, full_space):
        ids = [t.structure_id for t in full_space]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)

    def test_enumeration_is_deterministic(self, full_space):
        again = generate_topologies()
        assert [t.structure_id for t in again] == \
            [t.structure_id for t in full_space]

    def test_netlists_are_byte_stable(self, full_space):
        for topo in generate_topologies(seed=0, sample=8):
            text = write_netlist(topo.testbench())
            again = next(t for t in generate_topologies()
                         if t.structure_id == topo.structure_id)
            assert write_netlist(again.testbench()) == text

    def test_netlists_structurally_distinct(self, full_space):
        texts = {write_netlist(t.testbench()) for t in full_space}
        assert len(texts) == len(full_space)

    def test_sampling_is_seed_stable(self, full_space):
        a = generate_topologies(seed=7, sample=20)
        b = generate_topologies(seed=7, sample=20)
        assert [t.structure_id for t in a] == [t.structure_id for t in b]
        assert len(a) == 20
        all_ids = {t.structure_id for t in full_space}
        assert {t.structure_id for t in a} <= all_ids

    def test_spaces_complete_defaults(self, full_space):
        for topo in full_space:
            sizes = topo.default_sizes()
            assert set(topo.space.variables) <= set(sizes)
            for name, (lo, hi) in topo.space.variables.items():
                assert lo <= sizes[name] <= hi


class TestValidity:
    def test_at_least_100_electrically_valid(self, full_space):
        reports = [validate_topology(t) for t in full_space]
        valid = [r for r in reports if r.ok]
        assert len(valid) >= 100, \
            [f"{r.structure_id}: {r.reason}" for r in reports if not r.ok]
        for r in valid:
            assert r.kcl_residual < 1e-6


class TestModelAndCandidates:
    def test_model_is_interval_safe_on_gain(self, full_space):
        topo = full_space[0]
        point = {name: Interval(lo, hi)
                 for name, (lo, hi) in topo.space.variables.items()}
        point.update(topo.space.fixed)
        perf = composed_performance(topo.spec, point)
        assert isinstance(perf["gain_db"], Interval)

    def test_candidates_work_with_legacy_selectors(self, full_space):
        cands = [t.as_candidate() for t in full_space[:30]]
        specs = SpecSet([Spec.at_least("gain_db", 40.0)])
        ruled = select_rule_based(specs, cands)
        assert ruled
        viable = select_interval(specs, cands)
        assert set(ruled) <= set(viable) | set(viable.unproven) \
            or set(ruled) <= set(viable)

    def test_model_matches_candidate_model(self, full_space):
        topo = full_space[0]
        sizes = topo.default_sizes()
        assert topo.as_candidate().model(sizes) == topo.model(sizes)


class TestPruning:
    def test_prune_cuts_sized_set_five_fold(self, full_space):
        ranked = rank_structures(full_space, TABLE1)
        survivors = prune_structures(ranked)
        assert len(ranked) >= 5 * len(survivors)
        assert len(survivors) >= 1

    def test_ranking_is_sorted_and_deterministic(self, full_space):
        subset = generate_topologies(seed=1, sample=20)
        r1 = rank_structures(subset, TABLE1)
        r2 = rank_structures(subset, TABLE1)
        assert [r.structure_id for r in r1] == [r.structure_id for r in r2]
        scores = [r.score for r in r1]
        assert scores == sorted(scores, reverse=True)

    def test_symbolic_path_dominates(self, full_space):
        telemetry = Telemetry()
        rank_structures(generate_topologies(seed=2, sample=15), TABLE1,
                        telemetry=telemetry)
        ranked = telemetry.get("topogen.symbolic_ranked")
        fallbacks = telemetry.get("topogen.symbolic_fallbacks")
        assert ranked + fallbacks == 15
        assert ranked >= fallbacks


class TestFunnel:
    def test_funnel_end_to_end_with_counters(self):
        engine = EvaluationEngine.from_config(EngineConfig(cache=True))
        try:
            funnel = TopologyFunnel(
                TABLE1, engine=engine, seed=3, sample=18, keep=3,
                schedule=AnnealSchedule(moves_per_temperature=8,
                                        cooling=0.6, max_evaluations=48))
            result = funnel.run()
            assert result.generated == 18
            assert result.invalid == 0
            assert len(result.sized) == len(result.survivors) == 3
            assert result.prune_ratio >= 5.0
            assert result.best is not None
            assert not math.isnan(result.best.sizing.cost)

            report = engine.report()
            check_report(report)
            topogen = report["topogen"]
            assert topogen["generated"] == 18
            assert topogen["valid"] == 18
            assert topogen["survivors"] == topogen["sized"] == 3
            assert topogen["prune_ratio"] >= 5.0
        finally:
            engine.close()

    def test_funnel_owns_default_engine(self):
        funnel = TopologyFunnel(
            TABLE1, seed=1, sample=6, keep=1,
            schedule=AnnealSchedule(moves_per_temperature=4,
                                    cooling=0.5, max_evaluations=16))
        result = funnel.run()
        assert result.best is not None
        assert len(result.sized) == 1

    def test_traced_funnel_reports_equal_under_both_executors(self):
        """Serial and parallel engines report one funnel identically:
        the engine is the only counter of the simulations it runs."""
        def run(executor):
            funnel = TopologyFunnel(
                TABLE1, config=EngineConfig(executor=executor, workers=2,
                                            cache=True, trace=True),
                seed=2, sample=6, keep=2,
                schedule=AnnealSchedule(moves_per_temperature=4,
                                        cooling=0.5, max_evaluations=24))
            result = funnel.run()
            return result, funnel.engine.report()

        (serial, s_report), (parallel, p_report) = run("serial"), \
            run("parallel")
        assert serial.best.topology == parallel.best.topology
        assert serial.best.sizing.cost == parallel.best.sizing.cost
        assert s_report["counters"] == p_report["counters"]
        assert strip_volatile(s_report["spans"]) == \
            strip_volatile(p_report["spans"])

    def test_engine_and_config_are_exclusive(self):
        engine = EvaluationEngine.from_config(EngineConfig())
        try:
            with pytest.raises(ValueError):
                TopologyFunnel(TABLE1, engine=engine, config=EngineConfig())
        finally:
            engine.close()


def topogen_section(counters: dict) -> dict:
    return EvaluationEngine(telemetry=Telemetry(counters)).report()[
        "topogen"]


class TestSchemaRollup:
    def test_rollup_keys_and_zero_default(self):
        section = topogen_section({})
        (declared,) = [s for s in SECTIONS if s.name == "topogen"]
        assert tuple(section) == tuple(f.name for f in declared.fields)
        assert section["prune_ratio"] is None
        assert all(v == 0 for k, v in section.items()
                   if k != "prune_ratio")

    def test_rollup_folds_counters(self):
        counters = {"topogen.generated": 120, "topogen.valid": 118,
                    "topogen.invalid": 2, "topogen.symbolic_ranked": 100,
                    "topogen.symbolic_fallbacks": 18,
                    "topogen.pruned_out": 98, "topogen.survivors": 20,
                    "topogen.sized": 20,
                    "topology.interval_unproven": 4}
        section = topogen_section(counters)
        assert section["generated"] == 120
        assert section["interval_unproven"] == 4
        assert section["prune_ratio"] == pytest.approx(118 / 20)


class TestServeWorkload:
    def test_workload_routes_mixed_structures(self):
        topos = generate_topologies(seed=0, sample=4)
        wl = topogen_workload(topos)
        points = [{"structure": t.structure_id, "sizes": t.default_sizes()}
                  for t in topos[:2]]
        points.append(dict(points[0]))  # duplicate: must dedup cleanly
        engine = EvaluationEngine.from_config(EngineConfig(cache=True))
        try:
            results = engine.map_evaluate(wl.fn, points, key_fn=wl.key_fn)
        finally:
            engine.close()
        assert len(results) == 3
        assert results[0] == results[2]
        assert all("gain_db" in r for r in results)

    def test_unknown_structure_raises(self):
        wl = topogen_workload(generate_topologies(seed=0, sample=2))
        with pytest.raises(KeyError):
            wl.fn({"structure": "nope", "sizes": {}})

    def test_malformed_point_raises(self):
        wl = topogen_workload(generate_topologies(seed=0, sample=2))
        with pytest.raises(ValueError):
            wl.fn({"sizes": {}})
