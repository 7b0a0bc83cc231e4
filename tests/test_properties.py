"""Cross-module property-based tests: the physics and algorithm invariants.

These are the deep invariants a circuit/layout toolkit must never break,
checked on randomized instances with hypothesis:

* passive RC networks have all poles in the left half-plane and DC gains
  in [0, 1];
* the symbolic analyzer and the numeric simulator agree on random RC
  ladders;
* netlists round-trip through the SPICE writer/parser;
* the maze router's wires connect their pins and never share cells
  between nets;
* the annealing placer always produces legal (overlap-free) placements;
* AWE models of RC networks are stable and match the DC solution.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import ac_analysis, dc_operating_point, small_signal_system
from repro.awe import reduce_circuit
from repro.circuits.netlist import Circuit
from repro.circuits.parser import parse_netlist
from repro.circuits.writer import write_netlist
from repro.symbolic import SymbolicAnalyzer

# -- strategies ---------------------------------------------------------

resistances = st.floats(min_value=10.0, max_value=1e6)
capacitances = st.floats(min_value=1e-15, max_value=1e-9)


@st.composite
def rc_ladders(draw, max_sections=5):
    n = draw(st.integers(min_value=1, max_value=max_sections))
    rs = [draw(resistances) for _ in range(n)]
    cs = [draw(capacitances) for _ in range(n)]
    ckt = Circuit("ladder")
    ckt.vsource("vin", "n0", "0", dc=1.0, ac=1.0)
    for i in range(n):
        ckt.resistor(f"r{i}", f"n{i}", f"n{i + 1}", rs[i])
        ckt.capacitor(f"c{i}", f"n{i + 1}", "0", cs[i])
    return ckt, n


@st.composite
def rc_meshes(draw, n_nodes=4):
    """Random connected RC network between n internal nodes and ground."""
    ckt = Circuit("mesh")
    ckt.vsource("vin", "n0", "0", dc=1.0, ac=1.0)
    # Spanning chain guarantees connectivity.
    for i in range(n_nodes):
        ckt.resistor(f"rs{i}", f"n{i}", f"n{i + 1}", draw(resistances))
    # Random extra elements.
    n_extra = draw(st.integers(min_value=0, max_value=4))
    for k in range(n_extra):
        a = draw(st.integers(min_value=0, max_value=n_nodes))
        b = draw(st.integers(min_value=0, max_value=n_nodes))
        if a == b:
            continue
        kind = draw(st.sampled_from(["r", "c"]))
        if kind == "r":
            ckt.resistor(f"rx{k}", f"n{a}", f"n{b}", draw(resistances))
        else:
            ckt.capacitor(f"cx{k}", f"n{a}", f"n{b}", draw(capacitances))
    for i in range(1, n_nodes + 1):
        ckt.capacitor(f"cg{i}", f"n{i}", "0", draw(capacitances))
    return ckt, n_nodes


# -- passivity ----------------------------------------------------------

class TestPassivity:
    @given(rc_ladders())
    @settings(max_examples=30, deadline=None)
    def test_rc_transfer_magnitude_bounded(self, ladder):
        ckt, n = ladder
        res = ac_analysis(ckt, np.logspace(0, 10, 8))
        mags = np.abs(res.v(f"n{n}"))
        assert np.all(mags <= 1.0 + 1e-9)

    @given(rc_ladders())
    @settings(max_examples=20, deadline=None)
    def test_awe_poles_stable(self, ladder):
        ckt, n = ladder
        ss = small_signal_system(ckt)
        model = reduce_circuit(ss, f"n{n}", order=3)
        assert np.all(model.poles.real < 0)

    @given(rc_meshes())
    @settings(max_examples=20, deadline=None)
    def test_mesh_dc_between_rails(self, mesh):
        ckt, n = mesh
        op = dc_operating_point(ckt)
        for i in range(1, n + 1):
            assert -1e-6 <= op.v(f"n{i}") <= 1.0 + 1e-6

    @given(rc_ladders())
    @settings(max_examples=20, deadline=None)
    def test_awe_dc_matches_simulator(self, ladder):
        ckt, n = ladder
        ss = small_signal_system(ckt)
        model = reduce_circuit(ss, f"n{n}", order=2)
        assert model.dc_value() == pytest.approx(1.0, rel=1e-3)


# -- symbolic vs numeric --------------------------------------------------

class TestSymbolicNumericAgreement:
    @given(rc_ladders(max_sections=3),
           st.floats(min_value=1e2, max_value=1e9))
    @settings(max_examples=25, deadline=None)
    def test_transfer_functions_agree(self, ladder, freq):
        ckt, n = ladder
        tf = SymbolicAnalyzer(ckt).transfer_function(f"n{n}")
        numeric = ac_analysis(ckt, np.array([freq])).v(f"n{n}")[0]
        symbolic = tf.evaluate_jw(freq)
        # The numeric simulator adds gmin shunts (1e-12 S) that the
        # symbolic model omits; with MOhm resistors that is ~1e-6 relative.
        assert symbolic == pytest.approx(numeric, rel=1e-4, abs=1e-12)

    @given(rc_meshes())
    @settings(max_examples=15, deadline=None)
    def test_mesh_dc_gain_agrees(self, mesh):
        ckt, n = mesh
        tf = SymbolicAnalyzer(ckt).transfer_function(f"n{n}")
        numeric = ac_analysis(ckt, np.array([1e-2])).v(f"n{n}")[0]
        assert abs(tf.evaluate_jw(1e-2)) == pytest.approx(
            abs(numeric), rel=1e-4, abs=1e-12)


# -- netlist round trips ---------------------------------------------------

class TestNetlistRoundtrip:
    @given(rc_meshes())
    @settings(max_examples=25, deadline=None)
    def test_write_parse_preserves_solution(self, mesh):
        ckt, n = mesh
        reparsed = parse_netlist(write_netlist(ckt))
        v_orig = dc_operating_point(ckt)
        v_again = dc_operating_point(reparsed)
        for i in range(1, n + 1):
            assert v_again.v(f"n{i}") == pytest.approx(
                v_orig.v(f"n{i}"), rel=1e-9, abs=1e-12)

    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=1e-6, max_value=100e-6),
           st.floats(min_value=0.5e-6, max_value=5e-6))
    @settings(max_examples=25, deadline=None)
    def test_mos_circuit_roundtrip(self, m, w, l):
        from repro.circuits.devices import NMOS_DEFAULT
        ckt = Circuit("m")
        ckt.vsource("vdd_src", "vdd", "0", dc=3.3)
        ckt.vsource("vg", "g", "0", dc=1.2)
        ckt.resistor("rl", "vdd", "d", 10e3)
        ckt.mosfet("m1", "d", "g", "0", "0", NMOS_DEFAULT, w, l, m)
        again = parse_netlist(write_netlist(ckt))
        dev = again.device("m1")
        assert dev.w == pytest.approx(w, rel=1e-5)
        assert dev.l == pytest.approx(l, rel=1e-5)
        assert dev.m == m


# -- router invariants -----------------------------------------------------

class TestRouterInvariants:
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=18),
                  st.integers(min_value=1, max_value=18)),
        min_size=2, max_size=4, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_single_net_connects_all_pins(self, pin_cells):
        from repro.layout.geometry import Rect
        from repro.layout.router import AnagramRouter, RoutingRequest
        pitch = 1200
        router = AnagramRouter(Rect(0, 0, 24_000, 24_000), [],
                               pitch=pitch)
        pins = [(x * pitch, y * pitch, "metal1") for x, y in pin_cells]
        wire = router.route_net(RoutingRequest("n", pins))
        # The wire's occupied cells must include every pin cell.
        occupied = set(router.occupancy[0]) | set(router.occupancy[1])
        for x, y, _ in pins:
            assert router.to_grid(x, y) in occupied

    @given(st.integers(min_value=0, max_value=10),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_two_nets_never_share_cells(self, ay, by):
        from repro.layout.geometry import Rect
        from repro.layout.router import AnagramRouter, RoutingRequest
        pitch = 1200
        router = AnagramRouter(Rect(0, 0, 30_000, 30_000), [], pitch=pitch)
        router.route_net(RoutingRequest(
            "a", [(0, ay * pitch, "metal1"),
                  (24_000, ay * pitch, "metal1")]))
        router.route_net(RoutingRequest(
            "b", [(0, (by + 12) * pitch, "metal1"),
                  (24_000, (by + 12) * pitch, "metal1")]))
        for layer in (0, 1):
            nets_in_cells = {}
            for cell, (net, _) in router.occupancy[layer].items():
                assert nets_in_cells.setdefault(cell, net) == net


# -- placer invariants -----------------------------------------------------

class TestPlacerInvariants:
    @given(st.lists(st.floats(min_value=4e-6, max_value=60e-6),
                    min_size=2, max_size=5))
    @example([26.12e-6, 58.37e-6, 39.08e-6, 26.20e-6, 56.73e-6])
    @settings(max_examples=10, deadline=None)
    def test_random_device_sets_place_legally(self, widths):
        from repro.circuits.devices import NMOS_DEFAULT, Mosfet
        from repro.layout.devicegen import generate_device
        from repro.layout.placer import KoanPlacer, has_overlaps
        from repro.opt.anneal import AnnealSchedule
        layouts = [
            generate_device(Mosfet(f"m{i}", (f"d{i}", f"g{i}", "s", "0"),
                                   NMOS_DEFAULT, w, 1e-6))
            for i, w in enumerate(widths)
        ]
        placer = KoanPlacer(layouts, seed=1)
        result = placer.run(AnnealSchedule(moves_per_temperature=30,
                                           cooling=0.7,
                                           max_evaluations=800))
        assert not has_overlaps(result.placement)


# -- solver invariants: KCL at every converged operating point -------------

def _kcl_residual(ckt):
    """max |G x + f_nl(x) - b_dc| at the converged DC operating point."""
    from repro.analysis.mna import MnaSystem
    system = MnaSystem(ckt)
    G, _C, b_dc, _b_ac = system.linear_stamps()
    op = dc_operating_point(ckt)
    return float(np.max(np.abs(G @ op.x + system.nonlinear_currents(op.x)
                               - b_dc)))


class TestKclResidual:
    """Every converged DC solution must satisfy Kirchhoff's current law:
    the MNA residual at the operating point is zero to solver tolerance.
    This is the ground-truth check that convergence means *solved*, not
    merely *stopped*."""

    # Linear networks solve in one step; residual is machine epsilon.
    KCL_TOL = 1e-9

    @given(rc_ladders())
    @settings(max_examples=25, deadline=None)
    def test_ladder_kcl(self, ladder):
        ckt, _n = ladder
        assert _kcl_residual(ckt) <= self.KCL_TOL

    @given(rc_meshes())
    @settings(max_examples=20, deadline=None)
    def test_mesh_kcl(self, mesh):
        ckt, _n = mesh
        assert _kcl_residual(ckt) <= self.KCL_TOL

    @given(st.floats(min_value=10e-6, max_value=200e-6),
           st.floats(min_value=5e-6, max_value=100e-6),
           st.floats(min_value=5e-6, max_value=100e-6),
           st.floats(min_value=2e-6, max_value=500e-6))
    @settings(max_examples=15, deadline=None)
    def test_nonlinear_ota_kcl(self, w_in, w_load, w_tail, i_bias):
        """Newton's converged answer on the full transistor OTA obeys KCL
        — for every sizing hypothesis finds, not just the library default."""
        from hypothesis import assume
        from repro.analysis.dcop import ConvergenceError
        from repro.circuits.library import five_transistor_ota
        ckt = five_transistor_ota({
            "w_in": w_in, "w_load": w_load, "w_tail": w_tail,
            "i_bias": i_bias,
            "l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
            "c_load": 2e-12, "vdd": 3.3})
        ckt.vsource("tb_vip", "inp", "0", dc=1.5, ac=1.0)
        ckt.vsource("tb_vin", "inn", "0", dc=1.5)
        try:
            residual = _kcl_residual(ckt)
        except ConvergenceError:
            assume(False)  # a non-converged point asserts nothing
            return
        assert residual <= self.KCL_TOL


# -- cache-key stability ---------------------------------------------------

class TestCacheKeyStability:
    """The engine's content-addressed cache keys on the serialized
    netlist; a round trip through the SPICE writer/parser must therefore
    be key-invariant, or re-parsed netlists would silently miss the
    cache."""

    @given(rc_meshes())
    @settings(max_examples=25, deadline=None)
    def test_key_survives_reserialization(self, mesh):
        from repro.engine.cache import canonical_key
        ckt, _n = mesh
        roundtrip = parse_netlist(write_netlist(ckt))
        assert canonical_key(ckt) == canonical_key(roundtrip)
        # And twice through changes nothing further.
        again = parse_netlist(write_netlist(roundtrip))
        assert canonical_key(roundtrip) == canonical_key(again)

    @given(st.floats(min_value=1e-6, max_value=100e-6),
           st.floats(min_value=0.5e-6, max_value=5e-6))
    @settings(max_examples=25, deadline=None)
    def test_mos_key_survives_reserialization(self, w, l):
        from repro.circuits.devices import NMOS_DEFAULT
        from repro.engine.cache import canonical_key
        ckt = Circuit("m")
        ckt.vsource("vdd_src", "vdd", "0", dc=3.3)
        ckt.vsource("vg", "g", "0", dc=1.2)
        ckt.resistor("rl", "vdd", "d", 10e3)
        ckt.mosfet("m1", "d", "g", "0", "0", NMOS_DEFAULT, w, l)
        assert canonical_key(ckt) == \
            canonical_key(parse_netlist(write_netlist(ckt)))

    def test_key_is_order_insensitive_for_dicts(self):
        from repro.engine.cache import canonical_key
        assert canonical_key({"a": 1, "b": 2}) == \
            canonical_key({"b": 2, "a": 1})
