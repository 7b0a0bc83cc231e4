"""Unit tests for DC operating-point analysis against hand calculations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dcop import ConvergenceError, dc_operating_point, dc_sweep
from repro.analysis.mna import MnaSystem, mos_level1, threshold_voltage
from repro.circuits.devices import NMOS_DEFAULT, PMOS_DEFAULT, Mosfet
from repro.circuits.library import (
    common_source_amp,
    five_transistor_ota,
    two_stage_miller,
    voltage_divider,
)
from repro.circuits.netlist import Circuit, NetlistError


class TestLinearDc:
    def test_voltage_divider(self):
        op = dc_operating_point(voltage_divider(1e3, 3e3, 4.0))
        assert op.v("out") == pytest.approx(3.0, rel=1e-6)

    @given(st.floats(min_value=10.0, max_value=1e6),
           st.floats(min_value=10.0, max_value=1e6),
           st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_divider_formula(self, r1, r2, vin):
        op = dc_operating_point(voltage_divider(r1, r2, vin))
        assert op.v("out") == pytest.approx(vin * r2 / (r1 + r2),
                                            rel=1e-5, abs=1e-6)

    def test_source_current(self):
        op = dc_operating_point(voltage_divider(1e3, 1e3, 2.0))
        assert op.i("vin") == pytest.approx(-1e-3, rel=1e-5)

    def test_current_source_into_resistor(self):
        c = Circuit("ir")
        c.isource("i1", "0", "out", dc=1e-3)  # 1 mA into node 'out'
        c.resistor("r1", "out", "0", 2e3)
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(2.0, rel=1e-5)

    def test_vcvs(self):
        c = Circuit("e")
        c.vsource("v1", "in", "0", dc=0.5)
        c.add(__import__("repro.circuits.devices", fromlist=["Vcvs"]).Vcvs(
            "e1", ("out", "0", "in", "0"), gain=4.0))
        c.resistor("rl", "out", "0", 1e3)
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(2.0, rel=1e-6)

    def test_vccs(self):
        from repro.circuits.devices import Vccs
        c = Circuit("g")
        c.vsource("v1", "in", "0", dc=1.0)
        c.add(Vccs("g1", ("0", "out", "in", "0"), gm=1e-3))
        c.resistor("rl", "out", "0", 1e3)
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(1.0, rel=1e-5)

    def test_inductor_is_dc_short(self):
        c = Circuit("l")
        c.vsource("v1", "a", "0", dc=1.0)
        c.inductor("l1", "a", "b", 1e-9)
        c.resistor("r1", "b", "0", 1e3)
        op = dc_operating_point(c)
        assert op.v("b") == pytest.approx(1.0, rel=1e-6)

    def test_floating_node_via_gmin(self):
        # A capacitor-only node is floating at DC; gmin keeps it solvable.
        c = Circuit("f")
        c.vsource("v1", "a", "0", dc=1.0)
        c.resistor("r1", "a", "b", 1e3)
        c.capacitor("c1", "b", "0", 1e-12)
        op = dc_operating_point(c)
        assert op.v("b") == pytest.approx(1.0, rel=1e-3)

    def test_no_ground_raises(self):
        c = Circuit("ng")
        c.resistor("r1", "a", "b", 1e3)
        with pytest.raises(NetlistError):
            dc_operating_point(c)


class TestMosLevel1:
    def _mos(self, w=10e-6, l=1e-6):
        return Mosfet("m1", ("d", "g", "s", "b"), NMOS_DEFAULT, w, l)

    def test_cutoff(self):
        ids, gm, gds, gmb, info = mos_level1(self._mos(), 1.0, 0.2, 0.0, 0.0)
        assert ids == 0.0 and gm == 0.0
        assert info[0] == "cutoff"

    def test_saturation_current(self):
        m = self._mos()
        vgs, vds = 1.5, 2.0
        ids, gm, gds, gmb, info = mos_level1(m, vds, vgs, 0.0, 0.0)
        vov = vgs - NMOS_DEFAULT.vto
        expected = 0.5 * m.beta * vov ** 2 * (1 + NMOS_DEFAULT.lambda_ * vds)
        assert info[0] == "saturation"
        assert ids == pytest.approx(expected, rel=1e-12)
        assert gm == pytest.approx(m.beta * vov * (1 + NMOS_DEFAULT.lambda_ * vds))

    def test_triode_current(self):
        m = self._mos()
        vgs, vds = 2.0, 0.2
        ids, gm, gds, _, info = mos_level1(m, vds, vgs, 0.0, 0.0)
        assert info[0] == "triode"
        vov = vgs - NMOS_DEFAULT.vto
        core = vov * vds - 0.5 * vds ** 2
        assert ids == pytest.approx(
            m.beta * core * (1 + NMOS_DEFAULT.lambda_ * vds), rel=1e-12)

    def test_continuity_at_pinchoff(self):
        m = self._mos()
        vgs = 1.7
        vov = vgs - NMOS_DEFAULT.vto
        below, *_ = mos_level1(m, vov - 1e-9, vgs, 0.0, 0.0)
        above, *_ = mos_level1(m, vov + 1e-9, vgs, 0.0, 0.0)
        assert below == pytest.approx(above, rel=1e-6)

    def test_pmos_current_sign(self):
        m = Mosfet("mp", ("d", "g", "s", "s"), PMOS_DEFAULT, 10e-6, 1e-6)
        # Source at 3.3 V, gate at 1.5 V, drain at 0: strongly on PMOS.
        ids, gm, *_ = mos_level1(m, 0.0, 1.5, 3.3, 3.3)
        assert ids < 0  # conventional current flows source->drain
        assert gm > 0

    def test_body_effect_raises_vth(self):
        assert threshold_voltage(NMOS_DEFAULT, -1.0) > threshold_voltage(
            NMOS_DEFAULT, 0.0)

    @given(st.floats(min_value=0.8, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_current_nonnegative_and_monotone_in_vgs(self, vgs, vds):
        m = self._mos()
        ids, *_ = mos_level1(m, vds, vgs, 0.0, 0.0)
        ids2, *_ = mos_level1(m, vds, vgs + 0.1, 0.0, 0.0)
        assert ids >= 0.0
        assert ids2 >= ids


class TestNonlinearDc:
    def test_common_source_kcl(self):
        cs = common_source_amp(w=20e-6, l=2e-6, r_load=10e3, vgs=1.0)
        op = dc_operating_point(cs)
        m = op.mos["m1"]
        # KCL: resistor current equals drain current.
        i_r = (3.3 - op.v("out")) / 10e3
        assert m.ids == pytest.approx(i_r, rel=1e-4)

    def test_ota_all_saturated(self):
        ota = five_transistor_ota()
        ota.vsource("vip", "inp", "0", dc=1.5)
        ota.vsource("vin_", "inn", "0", dc=1.5)
        op = dc_operating_point(ota)
        assert op.saturated("m1", "m2", "m3", "m4", "m5")

    def test_ota_tail_current_mirror(self):
        ota = five_transistor_ota({"i_bias": 20e-6})
        ota.vsource("vip", "inp", "0", dc=1.5)
        ota.vsource("vin_", "inn", "0", dc=1.5)
        op = dc_operating_point(ota)
        # Tail current mirrors i_bias (same W/L): ~20 µA split evenly.
        assert op.mos["m1"].ids == pytest.approx(10e-6, rel=0.15)
        assert op.mos["m2"].ids == pytest.approx(10e-6, rel=0.15)

    def test_two_stage_converges(self):
        amp = two_stage_miller()
        amp.vsource("vip", "inp", "0", dc=1.5)
        amp.vsource("vin_", "inn", "0", dc=1.5)
        op = dc_operating_point(amp)
        assert 0.0 < op.v("out") < 3.3

    def test_diode_forward_drop(self):
        from repro.circuits.devices import Diode, DiodeModel
        c = Circuit("d")
        c.vsource("v1", "a", "0", dc=3.0)
        c.resistor("r1", "a", "b", 1e3)
        c.add(Diode("d1", ("b", "0"), DiodeModel("dm", i_sat=1e-14)))
        op = dc_operating_point(c)
        assert 0.55 < op.v("b") < 0.85

    def test_dc_sweep_monotone(self):
        cs = common_source_amp(w=20e-6, l=2e-6, r_load=10e3, vgs=0.9)
        ops = dc_sweep(cs, "vin", np.linspace(0.8, 1.4, 7))
        outs = [o.v("out") for o in ops]
        assert all(a >= b - 1e-9 for a, b in zip(outs, outs[1:]))

    def test_supply_power(self):
        ota = five_transistor_ota()
        ota.vsource("vip", "inp", "0", dc=1.5)
        ota.vsource("vin_", "inn", "0", dc=1.5)
        op = dc_operating_point(ota)
        p = op.power(("vdd_src",), ota)
        assert 1e-6 < p < 1e-2

    def test_power_needs_the_circuit(self):
        """Without the circuit there are no supply voltages: the call is
        an error, not a silent 0 W."""
        op = dc_operating_point(voltage_divider(1e3, 1e3, 2.0))
        assert op.power(("vin",), voltage_divider(1e3, 1e3, 2.0)) == \
            pytest.approx(2.0e-3, rel=1e-6)
        with pytest.raises(TypeError):
            op.power(("vin",))
        with pytest.raises(TypeError):
            op.power()
