"""Bitwise differential tests for the compiled stamp plan and the sizing loop.

The simulator compiles each circuit's nonlinear devices once into a stamp
plan; DC and transient Newton, the residual currents, the MOS
operating-point records and the AC small-signal stamps read it.  The
anneal's spec cost and move generator run without per-step set-up.
None of that may change a single bit of any result, so every test here
compares against a reference: a verbatim copy, kept below, of the
per-device code the plan replaced (the ``_add`` stamping loops,
``mos_level1``, ``SpecSet.cost``, ``ContinuousSpace.perturb`` and the
Newton loops of DC and transient analysis).  Equality is on the bytes
of every float, so signed zeros count.
"""

from __future__ import annotations

import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import solver as _solver
from repro.analysis.ac import small_signal_system
from repro.analysis.dcop import OperatingPoint, dc_operating_point
from repro.analysis.mna import (
    MnaSystem,
    MosOperatingPoint,
    SingularCircuitError,
)
from repro.analysis.transient import transient
from repro.circuits.devices import THERMAL_VOLTAGE, Mosfet, Waveform
from repro.circuits.library import (
    CSA_DEFAULTS,
    FOLDED_CASCODE_DEFAULTS,
    OTA_DEFAULTS,
    TWO_STAGE_DEFAULTS,
    common_source_amp,
    folded_cascode_ota,
    five_transistor_ota,
    large_cascode_opamp,
    two_stage_miller,
)
from repro.circuits.parser import parse_netlist
from repro.core.specs import Spec, SpecKind, SpecSet
from repro.opt.anneal import ContinuousSpace
from repro.synthesis.compose.generator import generate_topologies
from repro.synthesis.compose.workload import topogen_workload
from repro.synthesis.pulse_detector import csa_testbench
from repro.synthesis.simulation_based import SimulationEvaluator

# ``repro.analysis`` re-exports functions named like these modules.
dcop = importlib.import_module("repro.analysis.dcop")
transient_mod = importlib.import_module("repro.analysis.transient")


# ----------------------------------------------------------------------
# Reference: the per-device code the stamp plan replaced, verbatim
# ----------------------------------------------------------------------

def _ref_add(mat, i, j, value):
    if i >= 0 and j >= 0:
        mat[i, j] += value


def _ref_add_rhs(vec, i, value):
    if i >= 0:
        vec[i] += value


def _ref_mos_level1(dev, vd, vg, vs, vb):
    model = dev.model
    sign = model.sign
    vgs = sign * (vg - vs)
    vds = sign * (vd - vs)
    vbs = sign * (vb - vs)
    vth = _ref_threshold_voltage(model, vbs)
    vov = vgs - vth
    beta = dev.beta
    # Body-effect transconductance factor dVth/dVbs.
    sq = math.sqrt(max(model.phi - vbs, 0.05))
    dvth_dvbs = -model.gamma / (2.0 * sq)
    lam = model.lambda_
    if vov <= 0:
        region = "cutoff"
        ids = 0.0
        gm = gds = gmb = 0.0
    elif vds >= vov:
        region = "saturation"
        ids = 0.5 * beta * vov * vov * (1.0 + lam * vds)
        gm = beta * vov * (1.0 + lam * vds)
        gds = 0.5 * beta * vov * vov * lam
        gmb = -gm * dvth_dvbs
    else:
        region = "triode"
        core = vov * vds - 0.5 * vds * vds
        ids = beta * core * (1.0 + lam * vds)
        gm = beta * vds * (1.0 + lam * vds)
        gds = beta * ((vov - vds) * (1.0 + lam * vds) + core * lam)
        gmb = -gm * dvth_dvbs
    # In circuit polarity the PMOS channel current flows source -> drain.
    info = (region, vth, vov, vgs, vds, vbs)
    return sign * ids, gm, gds, gmb, info


def _ref_threshold_voltage(model, vbs):
    sq = math.sqrt(max(model.phi - vbs, 0.05))
    return model.vto + model.gamma * (sq - math.sqrt(model.phi))


def _ref_mos_capacitances(dev, region):
    model = dev.model
    cox_total = model.cox * dev.w * dev.l * dev.m
    cov = model.cgdo * dev.w * dev.m
    if region == "saturation":
        return (2.0 / 3.0) * cox_total + cov, cov, 0.1 * cox_total
    if region == "triode":
        return 0.5 * cox_total + cov, 0.5 * cox_total + cov, 0.0
    return cov, cov, cox_total  # cutoff: gate sees bulk


def _ref_stamp_nonlinear(system, x, G, rhs, gmin=None):
    gmin = system.gmin if gmin is None else gmin
    for dev in system.nonlinear:
        if isinstance(dev, Mosfet):
            _ref_stamp_mosfet(system, dev, x, G, rhs, gmin)
        else:
            _ref_stamp_diode(system, dev, x, G, rhs, gmin)


def _ref_stamp_mosfet(self, dev, x, G, rhs, gmin):
    d, g, s, b = (self.node(n) for n in dev.nodes)
    vd = 0.0 if d < 0 else x[d]
    vg = 0.0 if g < 0 else x[g]
    vs = 0.0 if s < 0 else x[s]
    vb = 0.0 if b < 0 else x[b]
    # Level-1 devices are symmetric: if vds < 0 in device polarity,
    # stamp with drain and source exchanged.
    if dev.model.sign * (vd - vs) < 0:
        d, s = s, d
        vd, vs = vs, vd
    ids, gm, gds, gmb, _ = _ref_mos_level1(dev, vd, vg, vs, vb)
    gds = gds + gmin
    # Newton companion: i_eq = ids - gm·vgs - gds·vds - gmb·vbs.
    ieq = ids - gm * (vg - vs) - gds * (vd - vs) - gmb * (vb - vs)
    # ids flows from drain node to source node through the device.
    _ref_add(G, d, g, gm)
    _ref_add(G, d, d, gds)
    _ref_add(G, d, b, gmb)
    _ref_add(G, d, s, -(gm + gds + gmb))
    _ref_add(G, s, g, -gm)
    _ref_add(G, s, d, -gds)
    _ref_add(G, s, b, -gmb)
    _ref_add(G, s, s, gm + gds + gmb)
    _ref_add_rhs(rhs, d, -ieq)
    _ref_add_rhs(rhs, s, ieq)


def _ref_stamp_diode(self, dev, x, G, rhs, gmin):
    a, c = self.node(dev.nodes[0]), self.node(dev.nodes[1])
    va = 0.0 if a < 0 else x[a]
    vc = 0.0 if c < 0 else x[c]
    vd = va - vc
    i_s = dev.model.i_sat * dev.area
    n_vt = dev.model.emission * THERMAL_VOLTAGE
    # Limit the exponent for numeric safety (SPICE-style pnjlim).
    vcrit = n_vt * math.log(n_vt / (math.sqrt(2.0) * i_s))
    vd_lim = min(vd, vcrit + 5 * n_vt)
    ex = math.exp(vd_lim / n_vt)
    idio = i_s * (ex - 1.0)
    gd = i_s * ex / n_vt + gmin
    ieq = idio - gd * vd
    _ref_add(G, a, a, gd)
    _ref_add(G, c, c, gd)
    _ref_add(G, a, c, -gd)
    _ref_add(G, c, a, -gd)
    _ref_add_rhs(rhs, a, -ieq)
    _ref_add_rhs(rhs, c, ieq)


def _ref_nonlinear_currents(self, x):
    f = np.zeros(self.size)
    for dev in self.nonlinear:
        if isinstance(dev, Mosfet):
            d, g, s, b = (self.node(n) for n in dev.nodes)
            vd = 0.0 if d < 0 else x[d]
            vg = 0.0 if g < 0 else x[g]
            vs = 0.0 if s < 0 else x[s]
            vb = 0.0 if b < 0 else x[b]
            if dev.model.sign * (vd - vs) < 0:
                d, s = s, d
                vd, vs = vs, vd
            ids, _, _, _, _ = _ref_mos_level1(dev, vd, vg, vs, vb)
            _ref_add_rhs(f, d, ids)
            _ref_add_rhs(f, s, -ids)
        else:
            a, c = self.node(dev.nodes[0]), self.node(dev.nodes[1])
            va = 0.0 if a < 0 else x[a]
            vc = 0.0 if c < 0 else x[c]
            n_vt = dev.model.emission * THERMAL_VOLTAGE
            i_s = dev.model.i_sat * dev.area
            idio = i_s * (math.exp(min((va - vc) / n_vt, 40.0)) - 1.0)
            _ref_add_rhs(f, a, idio)
            _ref_add_rhs(f, c, -idio)
    return f


def _ref_voltage(self, x, net):
    i = self.node(net)
    return 0.0 if i < 0 else float(x[i])


def _ref_mos_op(self, dev, x):
    vd = _ref_voltage(self, x, dev.drain)
    vg = _ref_voltage(self, x, dev.gate)
    vs = _ref_voltage(self, x, dev.source)
    vb = _ref_voltage(self, x, dev.bulk)
    flipped = dev.model.sign * (vd - vs) < 0
    if flipped:
        vd, vs = vs, vd
    ids, gm, gds, gmb, info = _ref_mos_level1(dev, vd, vg, vs, vb)
    if flipped:
        ids = -ids
        region, vth, vov, vgs, vds, vbs = info
        info = (region, vth, vov, vgs, -vds, vbs)
    region, vth, vov, vgs_eff, vds_eff, vbs_eff = info
    cgs, cgd, cgb = _ref_mos_capacitances(dev, region)
    return MosOperatingPoint(
        name=dev.name, region=region, ids=ids,
        vgs=vgs_eff, vds=vds_eff, vbs=vbs_eff, vth=vth, vov=vov,
        gm=gm, gds=gds, gmb=gmb, cgs=cgs, cgd=cgd, cgb=cgb)


def _ref_small_signal(circuit, op):
    """(G, C) of ``small_signal_system`` with the per-device stamps."""
    system = MnaSystem(circuit)
    G, C, _, _ = system.linear_stamps()
    x = op.x
    for dev in system.nonlinear:
        if isinstance(dev, Mosfet):
            _ref_stamp_mos_small_signal(system, dev, op, G, C)
        else:
            _ref_stamp_diode_small_signal(system, dev, x, G, C)
    return G, C


def _ref_stamp_mos_small_signal(system, dev, op, G, C):
    mop = op.mos[dev.name]
    d, g, s, b = (system.node(n) for n in dev.nodes)
    if mop.vds < 0:  # device conducting in reverse: swap roles
        d, s = s, d
    add = _ref_add
    gm, gds, gmb = mop.gm, mop.gds, mop.gmb
    add(G, d, g, gm)
    add(G, d, d, gds)
    add(G, d, b, gmb)
    add(G, d, s, -(gm + gds + gmb))
    add(G, s, g, -gm)
    add(G, s, d, -gds)
    add(G, s, b, -gmb)
    add(G, s, s, gm + gds + gmb)
    # Meyer capacitances between gate and each terminal.
    cgs, cgd, cgb = _ref_mos_capacitances(dev, mop.region)
    _ref_stamp_cap(system, C, g, s, cgs)
    _ref_stamp_cap(system, C, g, d, cgd)
    _ref_stamp_cap(system, C, g, b, cgb)
    # Junction capacitances drain/source to bulk (area ~ W * 2.5 L_diff).
    diff_area = dev.w * dev.m * 2.5 * dev.l
    cj = dev.model.cj * diff_area + dev.model.cjsw * 2 * (dev.w * dev.m)
    _ref_stamp_cap(system, C, d, b, cj)
    _ref_stamp_cap(system, C, s, b, cj)


def _ref_stamp_diode_small_signal(system, dev, x, G, C):
    a, c = system.node(dev.nodes[0]), system.node(dev.nodes[1])
    va = x[a] if a >= 0 else 0.0
    vc = x[c] if c >= 0 else 0.0
    n_vt = dev.model.emission * THERMAL_VOLTAGE
    i_s = dev.model.i_sat * dev.area
    gd = i_s * math.exp(min((va - vc) / n_vt, 40.0)) / n_vt
    _ref_add(G, a, a, gd)
    _ref_add(G, c, c, gd)
    _ref_add(G, a, c, -gd)
    _ref_add(G, c, a, -gd)
    _ref_stamp_cap(system, C, a, c, dev.model.cj0 * dev.area)


def _ref_stamp_cap(system, C, a, b, value):
    if value == 0.0:
        return
    _ref_add(C, a, a, value)
    _ref_add(C, b, b, value)
    _ref_add(C, a, b, -value)
    _ref_add(C, b, a, -value)


def _ref_newton(system, G_lin, b, x0, gmin_extra=0.0,
                max_iter=dcop.MAX_NR_ITERATIONS):
    x = x0.copy()
    n_nodes = len(system.node_names)
    linear_only = not system.nonlinear
    base_op = None
    for it in range(1, max_iter + 1):
        rhs = b.copy()
        try:
            if linear_only:
                if base_op is None:
                    A = G_lin.copy()
                    if gmin_extra:
                        A[:n_nodes, :n_nodes] += np.eye(n_nodes) * gmin_extra
                    base_op = _solver.factorize(A)
                x_new = base_op.solve(rhs)
            else:
                A = G_lin.copy()
                if gmin_extra:
                    A[:n_nodes, :n_nodes] += np.eye(n_nodes) * gmin_extra
                _ref_stamp_nonlinear(system, x, A, rhs)
                x_new = _solver.solve_stack(A[None], rhs)[0]
        except SingularCircuitError:
            return x, it, False
        delta = x_new - x
        # Damp node-voltage updates; branch currents are left free.
        dv = delta[:n_nodes]
        max_dv = np.max(np.abs(dv)) if n_nodes else 0.0
        if max_dv > dcop.MAX_STEP_VOLTS:
            delta = delta * (dcop.MAX_STEP_VOLTS / max_dv)
        x = x + delta
        if _ref_converged(delta, x, n_nodes):
            return x, it, True
    return x, max_iter, False


def _ref_converged(delta, x, n_nodes):
    dv = np.abs(delta[:n_nodes])
    di = np.abs(delta[n_nodes:])
    v_ok = np.all(dv <= dcop.VOLTAGE_ABS_TOL + 1e-6 * np.abs(x[:n_nodes]))
    i_ok = np.all(di <= dcop.CURRENT_ABS_TOL + 1e-6 * np.abs(x[n_nodes:]))
    return bool(v_ok and i_ok)


def _ref_step(system, G, C, sources, x0, t, h, backward_euler, factors=None):
    b1 = transient_mod._rhs_at_time(system, sources, t + h)
    if backward_euler:
        # (G + C/h + J) x1 = b1 + C/h·x0 + NR terms
        const = b1 + C @ x0 / h
        mat_c = C / h
    else:
        b0 = transient_mod._rhs_at_time(system, sources, t)
        f0 = _ref_nonlinear_currents(system, x0)
        const = b1 + b0 - G @ x0 - f0 + (2.0 / h) * (C @ x0)
        mat_c = 2.0 * C / h
    x = x0.copy()
    n_nodes = len(system.node_names)
    base_op = None
    if factors is not None:
        try:
            base_op = factors.get_or_factorize(
                (h, backward_euler), lambda: G + mat_c)
        except SingularCircuitError:
            return False, x
    for _ in range(60):
        rhs = const.copy()
        try:
            if base_op is not None:
                x_new = base_op.solve(rhs)
            else:
                A = G + mat_c
                _ref_stamp_nonlinear(system, x, A, rhs)
                x_new = _solver.solve_stack(A[None], rhs)[0]
        except SingularCircuitError:
            return False, x
        delta = x_new - x
        dv = delta[:n_nodes]
        max_dv = np.max(np.abs(dv)) if n_nodes else 0.0
        if max_dv > 1.0:
            delta = delta * (1.0 / max_dv)
        x = x + delta
        if _ref_converged(delta, x, n_nodes):
            return True, x
    return False, x


def _ref_cost(self, performance):
    obj = sum(
        s.weight * s.objective_value(performance.get(s.name, float("nan")))
        for s in self.objectives
    )
    pen = self.total_violation(performance)
    return obj + self.constraint_weight * pen


def _ref_perturb(self, x, rng, fraction):
    x = x.copy()
    n_move = max(1, int(round(self.dim * 0.3)))
    idx = rng.choice(self.dim, size=n_move, replace=False)
    scale = 0.02 + 0.5 * max(fraction, 0.0)
    if self.log_scale:
        lo, hi = np.log(self.lower), np.log(self.upper)
        span = hi - lo
        xl = np.log(x)
        xl[idx] += rng.normal(0.0, 1.0, size=n_move) * scale * span[idx]
        x = np.exp(np.clip(xl, lo, hi))
    else:
        span = self.upper - self.lower
        x[idx] += rng.normal(0.0, 1.0, size=n_move) * scale * span[idx]
        x = self.clip(x)
    return x


# ----------------------------------------------------------------------
# Circuits: the library, generated structures and a parsed netlist
# ----------------------------------------------------------------------

#: Diodes between MOSFETs; m2's bulk is tied to its source and m3's gate
#: to its drain, so both hit one matrix entry twice per stamp.
MIXED_NETLIST = """mixed diode/mosfet netlist
.model nch nmos kp=100u vto=0.7 lambda=0.05 gamma=0.5 phi=0.7
.model pch pmos kp=35u vto=0.75 lambda=0.07 gamma=0.45 phi=0.7
.model dx d is=1e-14 n=1.05 cjo=2p
vdd vdd 0 dc 3.3
vin in 0 dc 1.2 ac 1
r1 vdd a 10k
m1 a in s1 0 nch w=20u l=2u
d1 s1 0 dx
m2 b in s1 s1 nch w=10u l=1u
d2 vdd b dx area=2
m3 b b vdd vdd pch w=30u l=2u
r2 b 0 50k
d3 a b dx
m4 a b 0 0 nch w=5u l=1u m=2
.end
"""


def _opamp(builder, defaults):
    evaluator = SimulationEvaluator(builder=builder)

    def build(scale: float):
        return evaluator.build_testbench(_scaled(defaults, scale))
    return build


def _scaled(defaults, scale):
    return {k: v * scale for k, v in defaults.items() if k.startswith("w_")}


def _generated():
    evaluator = topogen_workload().fn
    topologies = {t.structure_id: t for t in generate_topologies()}
    sampled = evaluator.structure_ids[::12]

    def builder(sid):
        topo = topologies[sid]

        def build(scale: float):
            sizes = topo.default_sizes()
            sizes.update(_scaled(sizes, scale))
            return evaluator.evaluator_for(sid).build_testbench(sizes)
        return build
    return {f"topogen:{sid}": builder(sid) for sid in sampled}


#: name -> (scale -> testbench circuit)
CIRCUITS = {
    "ota": _opamp(five_transistor_ota, OTA_DEFAULTS),
    "miller": _opamp(two_stage_miller, TWO_STAGE_DEFAULTS),
    "folded_cascode": _opamp(folded_cascode_ota, FOLDED_CASCODE_DEFAULTS),
    "large_cascode": _opamp(large_cascode_opamp, FOLDED_CASCODE_DEFAULTS),
    "csa": lambda scale: csa_testbench(_scaled(CSA_DEFAULTS, scale)),
    "common_source": lambda scale: common_source_amp(w=50e-6 * scale),
    "mixed_netlist": lambda scale: parse_netlist(MIXED_NETLIST),
    **_generated(),
}

#: The library testbenches whose DC solutions are compared.
LIBRARY = ["ota", "miller", "folded_cascode", "large_cascode", "csa",
           "common_source", "mixed_netlist"]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _x(system, values):
    """A solution vector for ``system`` from drawn node voltages."""
    x = np.array(values[:system.size], dtype=float)
    n_nodes = len(system.node_names)
    x[n_nodes:] *= 1e-3  # branch currents: amperes, not volts
    return x


_VOLTAGES = st.lists(
    st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
    min_size=64, max_size=64)
_SCALES = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.7])
_NAMES = st.sampled_from(sorted(CIRCUITS))
_PLAN_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


def test_sample_covers_diodes_and_generated_structures():
    assert sum(name.startswith("topogen:") for name in CIRCUITS) >= 10
    system = MnaSystem(CIRCUITS["mixed_netlist"](1.0))
    kinds = [type(d).__name__ for d in system.nonlinear]
    assert kinds == ["Mosfet", "Diode", "Mosfet", "Diode", "Mosfet",
                     "Diode", "Mosfet"]


# ----------------------------------------------------------------------
# Newton stamps, residual currents, operating-point records, AC stamps
# ----------------------------------------------------------------------

class TestStamps:
    @_PLAN_SETTINGS
    @given(name=_NAMES, scale=_SCALES, values=_VOLTAGES,
           gmin=st.sampled_from([None, 0.0, 1e-9]))
    def test_stamp_nonlinear_matches_per_device_stamps(self, name, scale,
                                                       values, gmin):
        system = MnaSystem(CIRCUITS[name](scale))
        x = _x(system, values)
        G, _, b, _ = system.linear_stamps()
        G_ref, rhs_ref = G.copy(), b.copy()
        _ref_stamp_nonlinear(system, x, G_ref, rhs_ref, gmin)
        rhs = b.copy()
        system.stamp_nonlinear(x, G, rhs, gmin)
        assert _bits(G) == _bits(G_ref)
        assert _bits(rhs) == _bits(rhs_ref)

    @_PLAN_SETTINGS
    @given(name=_NAMES, scale=_SCALES, values=_VOLTAGES)
    def test_nonlinear_currents_match(self, name, scale, values):
        system = MnaSystem(CIRCUITS[name](scale))
        x = _x(system, values)
        assert _bits(system.nonlinear_currents(x)) == \
            _bits(_ref_nonlinear_currents(system, x))

    @_PLAN_SETTINGS
    @given(name=_NAMES, scale=_SCALES, values=_VOLTAGES)
    def test_mos_op_matches_every_field(self, name, scale, values):
        system = MnaSystem(CIRCUITS[name](scale))
        x = _x(system, values)
        for dev in system.nonlinear:
            if isinstance(dev, Mosfet):
                _assert_same_op(system.mos_op(dev, x),
                                _ref_mos_op(system, dev, x))

    @_PLAN_SETTINGS
    @given(name=_NAMES, scale=_SCALES, values=_VOLTAGES)
    def test_small_signal_matches_at_any_point(self, name, scale, values):
        """AC G and C at a pseudo operating point (as ASTRX builds one),
        which puts devices in every region and orientation."""
        circuit = CIRCUITS[name](scale)
        system = MnaSystem(circuit)
        x = _x(system, values)
        mos = {d.name: _ref_mos_op(system, d, x) for d in system.nonlinear
               if isinstance(d, Mosfet)}
        op = OperatingPoint({}, {}, mos, 0, x=x)
        ss = small_signal_system(circuit, op)
        G_ref, C_ref = _ref_small_signal(circuit, op)
        assert _bits(ss.G) == _bits(G_ref)
        assert _bits(ss.C) == _bits(C_ref)

    def test_reverse_conduction_and_cutoff_signs(self):
        """A PMOS in cutoff reports -0.0 A; a reversed device stamps with
        drain and source exchanged."""
        system = MnaSystem(CIRCUITS["ota"](1.0))
        x = np.zeros(system.size)
        for i, net in enumerate(system.node_names):
            x[i] = 3.3 if net == "vdd" else 0.0
        pmos = [d for d in system.nonlinear if d.model.sign < 0]
        assert pmos
        for dev in pmos:
            op = system.mos_op(dev, x)
            ref = _ref_mos_op(system, dev, x)
            _assert_same_op(op, ref)
        x_rev = -x
        G, _, b, _ = system.linear_stamps()
        G_ref, rhs_ref, rhs = G.copy(), b.copy(), b.copy()
        _ref_stamp_nonlinear(system, x_rev, G_ref, rhs_ref)
        system.stamp_nonlinear(x_rev, G, rhs)
        assert _bits(G) == _bits(G_ref) and _bits(rhs) == _bits(rhs_ref)


def _assert_same_op(op, ref):
    assert op.name == ref.name and op.region == ref.region
    for field in ("ids", "vgs", "vds", "vbs", "vth", "vov", "gm", "gds",
                  "gmb", "cgs", "cgd", "cgb"):
        assert _bits(getattr(op, field)) == _bits(getattr(ref, field)), field
    assert _bits(op.vdsat) == _bits(ref.vdsat)


# ----------------------------------------------------------------------
# DC operating points and a transient waveform, end to end
# ----------------------------------------------------------------------

class TestSolutions:
    @pytest.mark.parametrize("name", LIBRARY)
    def test_dc_matches_reference_newton(self, name):
        circuit = CIRCUITS[name](1.0)
        op = dc_operating_point(circuit)
        with mock.patch.object(dcop, "_newton", _ref_newton):
            ref = dc_operating_point(circuit)
        assert op.iterations == ref.iterations
        assert _bits(op.x) == _bits(ref.x)
        system = MnaSystem(circuit)
        for name_, mop in op.mos.items():
            _assert_same_op(mop, _ref_mos_op(system,
                                             circuit.device(name_), ref.x))
        ss = small_signal_system(circuit, op)
        G_ref, C_ref = _ref_small_signal(circuit, ref)
        assert _bits(ss.G) == _bits(G_ref)
        assert _bits(ss.C) == _bits(C_ref)

    def test_gmin_stepping_matches_reference(self):
        """A start that plain Newton cannot take goes through the gmin
        ladder; the ladder's iterates match too."""
        circuit = CIRCUITS["miller"](1.0)
        system = MnaSystem(circuit)
        G, _, b, _ = system.linear_stamps()
        x, iters, ok = dcop._gmin_stepping(system, G, b)
        with mock.patch.object(dcop, "_newton", _ref_newton):
            x_ref, iters_ref, ok_ref = dcop._gmin_stepping(system, G, b)
        assert (ok, iters) == (ok_ref, iters_ref)
        assert _bits(x) == _bits(x_ref)

    def test_nonlinear_transient_waveform(self):
        circuit = parse_netlist(MIXED_NETLIST)
        circuit.update_device(
            "vin", waveform=Waveform("pulse", (0.6, 1.8, 5e-9, 2e-9, 2e-9,
                                               20e-9, 50e-9)))
        result = transient(circuit, 60e-9, 1e-9)
        with mock.patch.object(transient_mod, "_step", _ref_step):
            ref = transient(circuit, 60e-9, 1e-9)
        assert _bits(result.times) == _bits(ref.times)
        assert result.voltages.keys() == ref.voltages.keys()
        for net, wave in result.voltages.items():
            assert _bits(wave) == _bits(ref.voltages[net]), net
        moved = result.v("b")
        assert np.ptp(moved) > 1e-3  # the pulse really drove the devices


# ----------------------------------------------------------------------
# Anneal side: spec cost and the move generator
# ----------------------------------------------------------------------

_KINDS = st.sampled_from(list(SpecKind))
_BOUND = st.one_of(st.none(), st.just(0.0), st.just(-0.0),
                   st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False))
_MEASURED = st.one_of(st.none(), st.just(float("nan")), st.just(0.0),
                      st.just(-0.0),
                      st.floats(min_value=-1e9, max_value=1e9,
                                allow_nan=False))


@st.composite
def _spec_sets(draw):
    specs = []
    seen = set()
    for name in draw(st.lists(st.sampled_from("abcdef"), min_size=0,
                              max_size=8)):
        kind = draw(_KINDS)
        if (name, kind) in seen:
            continue
        seen.add((name, kind))
        value = draw(_BOUND)
        if kind in (SpecKind.MIN, SpecKind.MAX, SpecKind.EQUAL) \
                and value is None:
            value = 0.0
        specs.append(Spec(name, kind, value,
                          weight=draw(st.sampled_from([0.5, 1.0, 3.0])),
                          tolerance=draw(st.sampled_from([0.0, 0.01]))))
    return SpecSet(specs, constraint_weight=draw(
        st.sampled_from([0.0, 1.0, 10.0])))


class TestAnnealSide:
    @settings(max_examples=300, deadline=None)
    @given(specs=_spec_sets(),
           performance=st.dictionaries(st.sampled_from("abcdefg"),
                                       _MEASURED, max_size=7))
    def test_spec_cost_matches(self, specs, performance):
        got = specs.cost(performance)
        want = _ref_cost(specs, performance)
        assert type(got) is type(want)
        assert _bits(got) == _bits(want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 9),
           log_scale=st.booleans(),
           fraction=st.sampled_from([-0.5, 0.0, 0.3, 1.0]))
    def test_perturb_matches_output_and_stream(self, seed, dim, log_scale,
                                               fraction):
        lower = np.geomspace(1e-6, 1e-2, dim)
        space = ContinuousSpace([f"p{i}" for i in range(dim)],
                                lower, lower * 50.0, log_scale=log_scale)
        rng, rng_ref = (np.random.default_rng(seed) for _ in range(2))
        x = space.random_point(np.random.default_rng(seed + 1))
        for _ in range(5):
            got = space.perturb(x, rng, fraction)
            want = _ref_perturb(space, x, rng_ref, fraction)
            assert _bits(got) == _bits(want)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            x = got
