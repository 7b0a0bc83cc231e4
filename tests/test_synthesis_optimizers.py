"""Tests for the optimization-based sizing frontends and topology selection."""

import pytest

from repro.core.specs import Spec, SpecSet
from repro.opt.anneal import AnnealSchedule
from repro.circuits.library import five_transistor_ota
from repro.synthesis import (
    AstrxProblem,
    DesignSpace,
    EquationBasedSizer,
    ManufacturableSizer,
    OblxOptimizer,
    SimulationBasedSizer,
    SimulationEvaluator,
    default_candidates,
    interval_feasible,
    select_enumerate,
    select_genetic,
    select_interval,
    select_rule_based,
    standard_corners,
    worst_case_performance,
    yield_estimate,
)

OTA_SPECS = SpecSet([
    Spec.at_least("gain_db", 40.0),
    Spec.at_least("gbw", 10e6),
    Spec.at_least("slew_rate", 5e6),
    Spec.minimize("power", good=1e-4),
])


def _ota_candidate():
    return default_candidates()[0]


def _sim_space() -> DesignSpace:
    return DesignSpace(
        variables={"w_in": (5e-6, 500e-6), "w_load": (5e-6, 200e-6),
                   "w_tail": (5e-6, 200e-6), "i_bias": (2e-6, 500e-6)},
        fixed={"l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
               "c_load": 2e-12, "vdd": 3.3})


def _ota_builder(sizes):
    keys = ("w_in", "l_in", "w_load", "l_load", "w_tail", "l_tail",
            "i_bias", "c_load", "vdd")
    return five_transistor_ota({k: v for k, v in sizes.items() if k in keys})


class TestEquationBased:
    def test_finds_feasible_design(self):
        cand = _ota_candidate()
        sizer = EquationBasedSizer(cand.model, cand.space, OTA_SPECS, seed=1)
        result = sizer.run()
        assert result.feasible
        assert result.performance["gbw"] >= 10e6 * 0.99

    def test_minimizes_power_subject_to_specs(self):
        cand = _ota_candidate()
        loose = SpecSet([Spec.at_least("gbw", 1e6),
                         Spec.minimize("power", good=1e-4)])
        tight = SpecSet([Spec.at_least("gbw", 100e6),
                         Spec.minimize("power", good=1e-4)])
        p_loose = EquationBasedSizer(cand.model, cand.space, loose,
                                     seed=2).run()
        p_tight = EquationBasedSizer(cand.model, cand.space, tight,
                                     seed=2).run()
        assert p_loose.performance["power"] < p_tight.performance["power"]

    def test_warm_start(self):
        cand = _ota_candidate()
        sizer = EquationBasedSizer(cand.model, cand.space, OTA_SPECS, seed=3)
        x0 = {name: (lo * hi) ** 0.5
              for name, (lo, hi) in cand.space.variables.items()}
        result = sizer.run(x0=x0)
        assert result.feasible

    def test_report_text(self):
        cand = _ota_candidate()
        result = EquationBasedSizer(cand.model, cand.space, OTA_SPECS,
                                    seed=1).run()
        text = result.report(OTA_SPECS)
        assert "feasible=True" in text and "gbw" in text


class TestSimulationBased:
    def test_short_run_improves(self):
        specs = SpecSet([Spec.at_least("gain_db", 40.0),
                         Spec.at_least("gbw", 5e6),
                         Spec.minimize("power", good=1e-4)])
        sizer = SimulationBasedSizer(
            SimulationEvaluator(builder=_ota_builder), _sim_space(), specs,
            schedule=AnnealSchedule(moves_per_temperature=15, cooling=0.75,
                                    max_evaluations=250),
            seed=2)
        result = sizer.run()
        assert result.evaluations <= 260
        assert result.performance.get("gain_db", 0) > 30.0

    def test_evaluator_handles_bad_points(self):
        ev = SimulationEvaluator(builder=_ota_builder)
        # Absurd sizing must return {} rather than raise.
        perf = ev.simulate({"w_in": 1e-6, "l_in": 2e-6, "w_load": 1e-6,
                   "l_load": 2e-6, "w_tail": 1e-6, "l_tail": 2e-6,
                   "i_bias": 0.4, "c_load": 2e-12, "vdd": 3.3})
        assert isinstance(perf, dict)

    def test_evaluator_measures_power(self):
        ev = SimulationEvaluator(builder=_ota_builder)
        perf = ev.simulate({"w_in": 40e-6, "l_in": 2e-6, "w_load": 20e-6,
                   "l_load": 2e-6, "w_tail": 30e-6, "l_tail": 2e-6,
                   "i_bias": 20e-6, "c_load": 2e-12, "vdd": 3.3})
        assert 1e-6 < perf["power"] < 1e-3


class TestAstrxOblx:
    def test_synthesis_with_dc_free_relaxation(self):
        specs = SpecSet([Spec.at_least("gain_db", 40.0),
                         Spec.at_least("gbw", 5e6),
                         Spec.minimize("power", good=1e-4)])
        problem = AstrxProblem(_ota_builder, _sim_space(), specs)
        opt = OblxOptimizer(problem, schedule=AnnealSchedule(
            moves_per_temperature=80, cooling=0.85, max_evaluations=4000),
            seed=3)
        result = opt.run()
        assert result.feasible
        # Relaxation must have converged: KCL residual small.
        assert result.kcl_residual < 0.05
        # Post-synthesis verification with the real simulator ran.
        assert result.verified
        assert "verified_gain" in result.performance

    def test_compiled_problem_reusable(self):
        specs = SpecSet([Spec.at_least("gain_db", 30.0)])
        problem = AstrxProblem(_ota_builder, _sim_space(), specs)
        import numpy as np
        from repro.synthesis.astrx import _Candidate
        rng = np.random.default_rng(1)
        cand = _Candidate(problem.cont.random_point(rng),
                          np.full(len(problem.free_nodes), 1.5))
        perf1, kcl1 = problem.evaluate(cand)
        perf2, kcl2 = problem.evaluate(cand)
        assert perf1 == perf2 and kcl1 == kcl2

    def test_one_residual_per_evaluation_is_bitwise(self):
        """``evaluate`` builds ``G x + f_nl(x) - b`` once for the KCL
        penalty and the supply current; over the Claim C7 candidates it
        returns the bits the two-residual evaluation returned."""
        import struct

        import numpy as np
        from repro.synthesis.astrx import _Candidate
        problem = AstrxProblem(_ota_builder, _sim_space(), SpecSet([
            Spec.at_least("gain_db", 40.0), Spec.at_least("gbw", 5e6),
            Spec.minimize("power", good=1e-4)]))
        rng = np.random.default_rng(1)
        candidates = [_Candidate(problem.cont.random_point(rng),
                                 np.full(len(problem.free_nodes), 1.65))
                      for _ in range(40)]
        # Relaxed voltages away from mid-rail too.
        candidates += [_Candidate(problem.cont.random_point(rng),
                                  rng.uniform(0.0, 3.3,
                                              len(problem.free_nodes)))
                       for _ in range(10)]

        def bits(result):
            performance, kcl = result
            return ([(k, struct.pack("<d", v))
                     for k, v in performance.items()],
                    struct.pack("<d", kcl))

        for cand in candidates:
            assert bits(problem.evaluate(cand)) == \
                bits(_two_residual_evaluate(problem, cand))


def _two_residual_evaluate(self, candidate):
    """``AstrxProblem.evaluate`` and its ``kcl_residual`` as they were
    before the residual was shared, copied verbatim."""
    import math

    import numpy as np
    from repro.analysis.ac import small_signal_system
    from repro.analysis.mna import MnaSystem, SingularCircuitError
    from repro.awe import PadeError, reduce_circuit

    def kcl_residual(system, G, b, x):
        """Normalized KCL residual over the free (relaxed) nodes."""
        f = G @ x + system.nonlinear_currents(x) - b
        res = f[self.free_nodes]
        # Normalize by a representative current so the penalty is unitless.
        scale = max(np.max(np.abs(b)) if b.size else 0.0, 1e-6)
        return float(np.linalg.norm(res) / scale)

    self.evaluations += 1
    sizes = self.cont.to_dict(candidate.sizes)
    try:
        circuit = self._testbench(sizes)
        system = MnaSystem(circuit)
        G, _, b, _ = system.linear_stamps()
        x = self.assemble_x(candidate)
        kcl = kcl_residual(system, G, b, x)
        op = self._pseudo_op(system, x)
        ss = small_signal_system(circuit, op)
        model = reduce_circuit(ss, self.output, order=3)
        gain = abs(model.dc_value())
        bw = abs(model.dominant_pole().real) / (2 * math.pi)
        gbw = gain * bw
        # Supply current: device currents into the supply node.
        f_full = G @ x + system.nonlinear_currents(x) - b
        supply_node = self._supply_node(circuit)
        i_dd = abs(f_full[supply_node]) if supply_node >= 0 else 0.0
        performance = {
            "gain": gain,
            "gain_db": 20 * math.log10(max(gain, 1e-12)),
            "gbw": gbw,
            "bandwidth": bw,
            "power": self.vdd_value * i_dd,
        }
        return performance, kcl
    except (SingularCircuitError, PadeError, ValueError, KeyError):
        return {}, 100.0


class TestTopologySelection:
    def test_rule_based_excludes_low_gain_topology(self):
        specs = SpecSet([Spec.at_least("gain_db", 75.0)])
        ranked = select_rule_based(specs, default_candidates())
        assert "five_transistor_ota" not in ranked
        assert ranked[0] == "folded_cascode"  # cheapest viable first

    def test_rule_based_prefers_cheap_topology_when_easy(self):
        specs = SpecSet([Spec.at_least("gain_db", 35.0)])
        ranked = select_rule_based(specs, default_candidates())
        assert ranked[0] == "five_transistor_ota"

    def test_interval_proves_infeasibility(self):
        # No opamp in the registry can run below 1 µW (minimum bias is
        # 1 µA at 3.3 V) — the interval hull proves it.
        specs = SpecSet([Spec.at_most("power", 1e-6)])
        cands = default_candidates()
        assert select_interval(specs, cands) == []

    def test_interval_proves_gain_ceiling(self):
        # 400 dB is beyond even the interval over-approximation.
        specs = SpecSet([Spec.at_least("gain_db", 400.0)])
        assert select_interval(specs, default_candidates()) == []

    def test_interval_keeps_feasible(self):
        specs = SpecSet([Spec.at_least("gain_db", 40.0)])
        viable = select_interval(specs, default_candidates())
        assert "five_transistor_ota" in viable

    def test_interval_feasibility_is_conservative(self):
        # Anything the rule-based selector accepts, intervals must not
        # reject (intervals over-approximate the reachable set).
        cands = default_candidates()
        for gain_db in (30.0, 50.0, 70.0):
            specs = SpecSet([Spec.at_least("gain_db", gain_db)])
            ruled = set(select_rule_based(specs, cands))
            interval = set(select_interval(specs, cands))
            assert ruled <= interval

    def test_genetic_selects_working_topology(self):
        specs = SpecSet([Spec.at_least("gain_db", 75.0),
                         Spec.at_least("gbw", 5e6),
                         Spec.minimize("power", good=1e-4)])
        result = select_genetic(specs, default_candidates(),
                                generations=20, population=30, seed=2)
        assert result.topology in ("folded_cascode", "two_stage_miller")
        assert result.sizing.feasible

    def test_enumeration_agrees_with_rules_on_easy_spec(self):
        specs = SpecSet([Spec.at_least("gain_db", 40.0),
                         Spec.at_least("gbw", 5e6),
                         Spec.minimize("power", good=1e-4)])
        result = select_enumerate(specs, default_candidates(), seed=1)
        assert result.sizing.feasible
        # Power-cheapest topology should win the easy spec.
        assert result.topology == "five_transistor_ota"


class TestManufacturability:
    def _specs(self):
        return SpecSet([Spec.at_least("gain_db", 40.0),
                        Spec.at_least("gbw", 8e6),
                        Spec.minimize("power", good=1e-4)])

    def test_worst_case_worse_than_nominal(self):
        cand = _ota_candidate()
        sizes = {n: (lo * hi) ** 0.5
                 for n, (lo, hi) in cand.space.variables.items()}
        sizes = cand.space.complete(sizes)
        specs = self._specs()
        worst, report = worst_case_performance(
            cand.model, sizes, standard_corners(), specs)
        nominal = report.nominal
        assert worst["gbw"] <= nominal["gbw"] * 1.0001

    def test_corner_count(self):
        assert len(standard_corners()) == 9  # nominal + 2^3 vertices

    def test_corner_aware_costs_more_evaluations(self):
        cand = _ota_candidate()
        specs = self._specs()
        sched = AnnealSchedule(moves_per_temperature=40,
                               max_evaluations=800)
        nominal = EquationBasedSizer(cand.model, cand.space, specs,
                                     schedule=sched, seed=1).run()
        corner = ManufacturableSizer(cand.model, cand.space, specs,
                                     schedule=sched, seed=1).run()
        ratio = corner.evaluations / max(nominal.evaluations, 1)
        assert ratio >= 4.0  # the paper's 4x-10x lower bound

    def test_corner_design_robust(self):
        cand = _ota_candidate()
        specs = self._specs()
        corner = ManufacturableSizer(cand.model, cand.space, specs,
                                     seed=2).run()
        assert corner.feasible
        y = yield_estimate(cand.model, corner.sizes, specs, n_samples=200)
        assert y > 0.9

    def test_nominal_design_less_robust_than_corner_design(self):
        cand = _ota_candidate()
        specs = self._specs()
        nominal = EquationBasedSizer(cand.model, cand.space, specs,
                                     seed=2).run()
        corner = ManufacturableSizer(cand.model, cand.space, specs,
                                     seed=2).run()
        y_nom = yield_estimate(cand.model, nominal.sizes, specs,
                               n_samples=300)
        y_cor = yield_estimate(cand.model, corner.sizes, specs,
                               n_samples=300)
        assert y_cor >= y_nom - 0.02
