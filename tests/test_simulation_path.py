"""One simulation path: one MNA system per solved circuit, counted once.

A simulator call builds the MNA system of its circuit once: the
operating point carries the system it was solved on, and the
small-signal system of the same circuit reuses it.  The system
assembles its linear stamps once, and a simulation builds one
small-signal system for its AC sweep and its noise analysis.  The
reuse must not move a bit: G, C and b_ac equal a fresh build, and
ASTRX's compiled evaluation equals a copy of the code from before the
reuse.  Each public analysis call counts ``analysis.<kind>`` once, so
a simulation counts one DC and one AC whether or not the systems are
shared.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.ac import ac_analysis, small_signal_system
from repro.analysis.dcop import OperatingPoint, dc_operating_point
from repro.analysis.mna import MnaSystem, SingularCircuitError
from repro.analysis.noise import noise_analysis
from repro.awe import PadeError, reduce_circuit
from repro.circuits.devices import NMOS_DEFAULT, Mosfet, SubcktInstance
from repro.circuits.library import (
    CSA_DEFAULTS,
    FOLDED_CASCODE_DEFAULTS,
    OTA_DEFAULTS,
    TWO_STAGE_DEFAULTS,
    five_transistor_ota,
    folded_cascode_ota,
    two_stage_miller,
)
from repro.circuits.netlist import Circuit, SubcktDef
from repro.core.specs import Spec, SpecSet
from repro.engine import Tracer
from repro.synthesis.astrx import AstrxProblem, _Candidate
from repro.synthesis.compose import generate_topologies, validate_topology
from repro.synthesis.equation_based import DesignSpace
from repro.synthesis.pulse_detector import csa_testbench
from repro.synthesis.simulation_based import SimulationEvaluator


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


def _opamp(builder, defaults):
    return lambda: SimulationEvaluator(builder=builder).build_testbench(
        dict(defaults))


def _subckt_amp() -> Circuit:
    """A common-source stage inside a subcircuit instance."""
    body = Circuit("cs_body")
    body.mosfet("m1", "out", "in", "0", "0", NMOS_DEFAULT, 20e-6, 2e-6)
    body.resistor("rl", "vdd", "out", 20e3)
    body.capacitor("cl", "out", "0", 1e-12)
    top = Circuit("cs_top")
    top.define_subckt(SubcktDef("cs", ("in", "out", "vdd"), body))
    top.vsource("vdd_src", "vdd", "0", dc=3.3)
    top.vsource("vin", "a", "0", dc=1.0, ac=1.0)
    top.add(SubcktInstance("x1", ("a", "b", "vdd"), "cs"))
    return top


#: name -> testbench factory
TESTBENCHES = {
    "ota": _opamp(five_transistor_ota, OTA_DEFAULTS),
    "miller": _opamp(two_stage_miller, TWO_STAGE_DEFAULTS),
    "folded_cascode": _opamp(folded_cascode_ota, FOLDED_CASCODE_DEFAULTS),
    "csa": lambda: csa_testbench(dict(CSA_DEFAULTS)),
}

OTA_SIZES = {"w_in": 5e-5, "l_in": 2e-6, "w_load": 2e-5, "l_load": 2e-6,
             "w_tail": 3e-5, "l_tail": 2e-6, "i_bias": 5e-5,
             "c_load": 2e-12, "vdd": 3.3}

SPECS = SpecSet([
    Spec.at_least("gain_db", 40.0),
    Spec.at_least("gbw", 5e6),
    Spec.minimize("power", good=1e-4),
])


def _ota_space() -> DesignSpace:
    return DesignSpace(
        variables={"w_in": (5e-6, 500e-6), "w_load": (5e-6, 200e-6),
                   "w_tail": (5e-6, 200e-6), "i_bias": (2e-6, 500e-6)},
        fixed={"l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
               "c_load": 2e-12, "vdd": 3.3})


def _ota_builder(sizes):
    return five_transistor_ota({k: v for k, v in sizes.items()
                                if k in OTA_SIZES})


def _c7_candidates(problem: AstrxProblem) -> list[_Candidate]:
    """The 40 candidates the Claim C7 benchmark evaluates."""
    rng = np.random.default_rng(1)
    return [_Candidate(problem.cont.random_point(rng),
                       np.full(len(problem.free_nodes), 1.65))
            for _ in range(40)]


@pytest.fixture
def built(monkeypatch) -> list:
    """Every circuit an ``MnaSystem`` is built for, in build order."""
    circuits = []
    original = MnaSystem.__init__

    def counting(self, circuit, *args, **kwargs):
        circuits.append(circuit)
        original(self, circuit, *args, **kwargs)

    monkeypatch.setattr(MnaSystem, "__init__", counting)
    return circuits


@pytest.fixture
def assemblies(monkeypatch) -> list:
    """Every linear-stamp assembly, as the system assembled.  An
    assembly stamps each device once, so its first device marks it."""
    systems = []
    original = MnaSystem._stamp_linear_device

    def counting(self, dev, *args):
        if dev is self.circuit.devices[0]:
            systems.append(self)
        original(self, dev, *args)

    monkeypatch.setattr(MnaSystem, "_stamp_linear_device", counting)
    return systems


@pytest.fixture
def small_signal_stamps(monkeypatch) -> list:
    """Every small-signal stamping, as the system stamped."""
    systems = []
    original = MnaSystem.stamp_small_signal

    def counting(self, *args, **kwargs):
        systems.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(MnaSystem, "stamp_small_signal", counting)
    return systems


def _fresh(circuit: Circuit, op: OperatingPoint):
    """(G, C, b_ac) of a freshly built system at ``op``."""
    system = MnaSystem(circuit)
    G, C, _, b_ac = system.linear_stamps()
    system.stamp_small_signal(op.mos, op.x, G, C)
    return G, C, b_ac


def _assert_fresh_bits(ss, circuit: Circuit, op: OperatingPoint) -> None:
    G, C, b_ac = _fresh(circuit, op)
    assert _bits(ss.G) == _bits(G)
    assert _bits(ss.C) == _bits(C)
    assert _bits(ss.b_ac) == _bits(b_ac)


# ----------------------------------------------------------------------
# One system per simulation
# ----------------------------------------------------------------------

class TestOneSystemPerSimulation:
    @pytest.mark.parametrize("with_noise", [False, True],
                             ids=["dc_ac", "dc_ac_noise"])
    def test_simulate(self, built, with_noise):
        evaluator = SimulationEvaluator(builder=five_transistor_ota,
                                        with_noise=with_noise)
        performance = evaluator.simulate(OTA_SIZES)
        assert performance["gain"] > 1.0
        assert len(built) == 1

    def test_astrx_evaluate(self, built):
        problem = AstrxProblem(_ota_builder, _ota_space(), SPECS)
        (candidate, *_) = _c7_candidates(problem)
        del built[:]
        performance, _ = problem.evaluate(candidate)
        assert performance
        assert len(built) == 1

    def test_validate_topology(self, built):
        (topo, *_) = generate_topologies(seed=0, sample=3)
        assert validate_topology(topo).ok
        assert len(built) == 1


class TestOneAssemblyPerSimulation:
    @pytest.mark.parametrize("with_noise", [False, True],
                             ids=["dc_ac", "dc_ac_noise"])
    def test_simulate(self, assemblies, small_signal_stamps, with_noise):
        evaluator = SimulationEvaluator(builder=five_transistor_ota,
                                        with_noise=with_noise)
        performance = evaluator.simulate(OTA_SIZES)
        assert performance["gain"] > 1.0
        if with_noise:
            assert performance["input_noise_density"] > 0.0
        assert len(assemblies) == 1
        assert len(small_signal_stamps) == 1

    def test_astrx_evaluate(self, assemblies):
        problem = AstrxProblem(_ota_builder, _ota_space(), SPECS)
        (candidate, *_) = _c7_candidates(problem)
        del assemblies[:]
        performance, _ = problem.evaluate(candidate)
        assert performance
        assert len(assemblies) == 1

    def test_validate_topology(self, assemblies):
        (topo, *_) = generate_topologies(seed=0, sample=3)
        assert validate_topology(topo).ok
        assert len(assemblies) == 1

    def test_stamps_are_independent_copies(self):
        make = TESTBENCHES["miller"]
        system = MnaSystem(make())
        first = system.linear_stamps()
        for array in first:
            array += 1.0
        second = system.linear_stamps()
        for a, b in zip(second, MnaSystem(make()).linear_stamps()):
            assert _bits(a) == _bits(b)
        for a, b in zip(first, second):
            assert not np.shares_memory(a, b)


# ----------------------------------------------------------------------
# The reused system equals a fresh build, bit for bit
# ----------------------------------------------------------------------

class TestSmallSignalReuse:
    @pytest.mark.parametrize("name", sorted(TESTBENCHES))
    def test_library_testbench_reuses_dc_system(self, name):
        circuit = TESTBENCHES[name]()
        op = dc_operating_point(circuit)
        ss = small_signal_system(circuit, op)
        assert ss.system is op.system
        _assert_fresh_bits(ss, circuit, op)

    def test_subckt_circuit_builds_its_own(self):
        circuit = _subckt_amp()
        op = dc_operating_point(circuit)
        ss = small_signal_system(circuit, op)
        # Every system flattens the circuit anew, so the DC system's
        # circuit is not this one.
        assert ss.system is not op.system
        _assert_fresh_bits(ss, circuit, op)

    def test_dc_at_other_gmin_builds_its_own(self):
        circuit = TESTBENCHES["ota"]()
        op = dc_operating_point(circuit, gmin=1e-9)
        ss = small_signal_system(circuit, op)
        assert ss.system is not op.system
        assert ss.system.gmin == 1e-12
        _assert_fresh_bits(ss, circuit, op)

    def test_hand_built_op_builds_its_own(self):
        circuit = TESTBENCHES["miller"]()
        solved = dc_operating_point(circuit)
        op = OperatingPoint(solved.voltages, {}, solved.mos, 0, x=solved.x)
        ss = small_signal_system(circuit, op)
        assert op.system is None and ss.system is not solved.system
        _assert_fresh_bits(ss, circuit, op)

    def test_op_of_another_circuit_object_is_not_reused(self):
        make = TESTBENCHES["ota"]
        op = dc_operating_point(make())
        circuit = make()
        ss = small_signal_system(circuit, op)
        assert ss.system is not op.system
        _assert_fresh_bits(ss, circuit, op)


# ----------------------------------------------------------------------
# ASTRX's compiled evaluation, against the code before the reuse
# ----------------------------------------------------------------------

def _parent_pseudo_op(system, x):
    voltages = {n: float(x[i]) for n, i in system.node_index.items()}
    mos = {d.name: system.mos_op(d, x) for d in system.nonlinear
           if isinstance(d, Mosfet)}
    return OperatingPoint(voltages, {}, mos, 0, x=x)


def _parent_evaluate(self, candidate):
    """``AstrxProblem.evaluate`` before the small-signal system reused
    the evaluation's own, verbatim but for the operating point, which
    carries no system here (so a second system is built)."""
    self.evaluations += 1
    sizes = self.cont.to_dict(candidate.sizes)
    try:
        circuit = self._testbench(sizes)
        system = MnaSystem(circuit)
        G, _, b, _ = system.linear_stamps()
        x = self.assemble_x(candidate)
        # One residual serves the KCL penalty (free nodes) and the
        # supply current (device currents into the supply node).
        f = G @ x + system.nonlinear_currents(x) - b
        kcl = self.kcl_residual(f, b)
        op = _parent_pseudo_op(system, x)
        ss = small_signal_system(circuit, op)
        model = reduce_circuit(ss, self.output, order=3)
        gain = abs(model.dc_value())
        bw = abs(model.dominant_pole().real) / (2 * math.pi)
        gbw = gain * bw
        supply_node = self._supply_node(circuit)
        i_dd = abs(f[supply_node]) if supply_node >= 0 else 0.0
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


def test_astrx_evaluate_matches_parent_on_c7_candidates():
    problem = AstrxProblem(_ota_builder, _ota_space(), SPECS)
    candidates = _c7_candidates(problem)
    scored = 0
    for candidate in candidates:
        performance, kcl = problem.evaluate(candidate)
        ref_performance, ref_kcl = _parent_evaluate(problem, candidate)
        assert _bits(kcl) == _bits(ref_kcl)
        assert performance.keys() == ref_performance.keys()
        for key, value in performance.items():
            assert _bits(value) == _bits(ref_performance[key]), key
        scored += bool(performance)
    assert scored > len(candidates) // 2


# ----------------------------------------------------------------------
# Counting: once per public analysis call, shared systems or not
# ----------------------------------------------------------------------

def _analysis_counts(fn) -> dict[str, int]:
    tracer = Tracer()
    with tracer.span("probe") as span:
        fn()
    return {k: n for k, n in span.counters.items()
            if k.startswith("analysis.")}


class TestCounting:
    @pytest.mark.parametrize("with_noise", [False, True],
                             ids=["dc_ac", "dc_ac_noise"])
    def test_simulate_counts_each_analysis_once(self, with_noise):
        evaluator = SimulationEvaluator(builder=five_transistor_ota,
                                        with_noise=with_noise)
        expected = {"analysis.dc": 1, "analysis.ac": 1}
        if with_noise:
            expected["analysis.noise"] = 1
        assert _analysis_counts(
            lambda: evaluator.simulate(OTA_SIZES)) == expected

    def test_precomputed_op_counts_no_dc(self):
        circuit = TESTBENCHES["ota"]()
        op = dc_operating_point(circuit)
        freqs = np.logspace(2, 6, 5)
        assert _analysis_counts(lambda: (
            ac_analysis(circuit, freqs, op=op),
            noise_analysis(circuit, "out", freqs, op=op),
        )) == {"analysis.ac": 1, "analysis.noise": 1}

    def test_astrx_and_validation_count_only_their_dc(self):
        problem = AstrxProblem(_ota_builder, _ota_space(), SPECS)
        (candidate, *_) = _c7_candidates(problem)
        assert _analysis_counts(lambda: problem.evaluate(candidate)) == {}
        (topo, *_) = generate_topologies(seed=0, sample=3)
        assert _analysis_counts(
            lambda: validate_topology(topo)) == {"analysis.dc": 1}
