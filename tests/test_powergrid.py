"""Power-grid evaluation: differential references and pinned digests.

The evaluator in :mod:`repro.msystem.powergrid` assembles the DC matrix,
the droop MNA and every IR/EM metric from arrays built once per grid
topology.  These tests hold it to the per-segment evaluator it replaced,
bit for bit:

* **Differential.**  Verbatim copies of the per-segment routines
  (``_segment_triplets``, ``_conductance_matrix``,
  ``_grid_only_conductance``, ``dc_solve``, ``segment_currents``,
  ``em_violations``, ``transient_droop``) live below as references.
  Hypothesis draws segment widths and decaps on the demo-floorplan RAIL
  grid, on an 8x8 synthetic mesh and on a routed 32x32 macro mesh; the
  matrices reaching the factorization (CSC ``data``/``indices``/
  ``indptr``, dense droop ``G`` and ``C``, right-hand sides), the node
  voltages, IR drop, currents, EM names and droop must be bitwise equal
  to the references, with equal scalar types.
* **Pinned digests** of RAIL synthesis, uniform grids, macro signoffs
  and mesh optimization, serialized with ``json.dumps(default=repr)``
  plus each scalar's type name, so that a ``np.float64`` turning into a
  ``float`` (or ``np.bool_`` into ``bool``) counts as a change.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from test_solver import _mesh_grid

from repro.analysis import solver
from repro.awe import MomentEngine, PadeError, pade_model
from repro.awe import moments as awe_moments
from repro.engine.trace import Tracer
from repro.macro import (
    MacroSpec,
    MeshRoutingError,
    MeshSpec,
    SignoffSpec,
    optimize_mesh,
    route_mesh,
    signoff_mesh,
    tile_macro,
)
from repro.macro import signoff
from repro.msystem import demo_mixed_signal_system
from repro.msystem import powergrid
from repro.msystem.floorplan import WrightFloorplanner
from repro.msystem.powergrid import (
    DECAP_MAX,
    DECAP_MIN,
    DECAP_PER_AMP,
    PACKAGE_L,
    PACKAGE_R,
    SWITCH_RISE_S,
    GridSegment,
    GridWidthError,
    PowerGrid,
    RailSpec,
    build_grid,
    synthesize_rail,
    uniform_grid_result,
)
from repro.opt.anneal import AnnealSchedule

_FACTORIZE = solver.factorize

FLOORPLAN_SCHEDULE = AnnealSchedule(moves_per_temperature=40, cooling=0.8,
                                    max_evaluations=1500)
RAIL_SCHEDULE = AnnealSchedule(moves_per_temperature=30, cooling=0.8,
                               max_evaluations=200)
#: The ``backend`` benchmark's mesh schedule (``perfbench/work_backend.py``).
MESH_SCHEDULE = AnnealSchedule(moves_per_temperature=12, cooling=0.7,
                               max_evaluations=60,
                               stop_after_stale=1_000_000)


# ----------------------------------------------------------------------
# references: the per-segment evaluator, copied verbatim
# ----------------------------------------------------------------------

def ref_segment_triplets(grid, rows: list, cols: list, vals: list) -> None:
    for seg in grid.segments:
        g = 1.0 / seg.resistance
        a, b = seg.node_a, seg.node_b
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((g, g, -g, -g))


def ref_conductance_matrix(grid) -> sp.csc_matrix:
    n = grid.n_nodes
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    ref_segment_triplets(grid, rows, cols, vals)
    for pad in grid.pad_nodes:
        rows.append(pad)
        cols.append(pad)
        vals.append(1.0 / PACKAGE_R)
    return sp.csc_matrix(
        sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def ref_dc_rhs(grid) -> np.ndarray:
    b = np.zeros(grid.n_nodes)
    for pad in grid.pad_nodes:
        b[pad] += grid.vdd / PACKAGE_R
    for node, current in grid.load_currents.items():
        b[node] -= current
    return b


def ref_dc_solve(grid) -> np.ndarray:
    G = ref_conductance_matrix(grid)
    return _FACTORIZE(G, prefer_sparse=True).solve(ref_dc_rhs(grid))


def ref_worst_ir_drop(grid, v):
    drops = {node: grid.vdd - v[node] for node in grid.load_currents}
    return max(drops.values()) if drops else 0.0


def ref_segment_currents(grid, v) -> dict:
    return {
        seg.name: abs(v[seg.node_a] - v[seg.node_b]) / seg.resistance
        for seg in grid.segments
    }


def ref_em_violations(grid, currents) -> list[str]:
    return [seg.name for seg in grid.segments
            if currents[seg.name] > seg.em_current_limit()]


def ref_grid_only_conductance(grid) -> np.ndarray:
    n = grid.n_nodes
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    ref_segment_triplets(grid, rows, cols, vals)
    G = np.zeros((n, n))
    np.add.at(G, (rows, cols), vals)
    return G


def ref_droop_system(grid):
    """The droop MNA ``(G, C, b)`` and the total switching current."""
    n = grid.n_nodes
    n_l = len(grid.pad_nodes)
    size = n + n_l
    G = np.zeros((size, size))
    C = np.zeros((size, size))
    G[:n, :n] = ref_grid_only_conductance(grid)
    for k, pad in enumerate(grid.pad_nodes):
        row = n + k
        G[pad, row] += 1.0
        G[row, pad] += 1.0
        G[row, row] -= PACKAGE_R
        C[row, row] -= PACKAGE_L
    for node, peak in grid.peak_currents.items():
        C[node, node] += DECAP_PER_AMP * peak + 1e-12
    for node in grid.analog_nodes:
        C[node, node] += 50e-12
    for node, cap in grid.extra_decap.items():
        C[node, node] += cap
    b = np.zeros(size)
    total = 0.0
    for node, peak in grid.peak_currents.items():
        b[node] -= peak
        total += peak
    return G, C, b, total


def ref_default_victim(grid) -> int:
    if grid.analog_nodes:
        return grid.analog_nodes[0]
    return next(iter(grid.load_currents))


def ref_droop_bound(grid, victim: int, v) -> float:
    total_peak = sum(grid.peak_currents.values())
    di_dt = total_peak / SWITCH_RISE_S
    l_eff = PACKAGE_L / max(len(grid.pad_nodes), 1)
    c_total = sum(grid.extra_decap.values()) \
        + sum(DECAP_PER_AMP * p for p in grid.peak_currents.values())
    sag = total_peak * SWITCH_RISE_S / max(c_total, 1e-15)
    resistive = max(grid.vdd - v[node]
                    for node in grid.load_currents) if \
        grid.load_currents else 0.0
    return min(l_eff * di_dt, sag) + resistive


def ref_transient_droop(grid, v, victim: int | None = None,
                        order: int = 3) -> float:
    if victim is None:
        victim = ref_default_victim(grid)
    G, C, b, total = ref_droop_system(grid)
    if total == 0.0:
        return 0.0
    engine = MomentEngine(G, C, b)
    for q in range(order, 0, -1):
        try:
            model = pade_model(engine.moments(victim, 2 * q), q)
            break
        except PadeError:
            continue
    else:
        return ref_droop_bound(grid, victim, v)
    t = np.linspace(0.0, 100e-9, 600)
    response = model.step_response(t)
    return float(np.max(np.abs(response)))


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def _assert_same_scalar(got, want) -> None:
    assert type(got) is type(want), (type(got), type(want))
    assert _same_bits(got, want), (got, want)


def _assert_same_csc(got, want) -> None:
    got, want = sp.csc_matrix(got), sp.csc_matrix(want)
    assert got.shape == want.shape
    assert _same_bits(got.data, want.data)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)


def _dense(A) -> np.ndarray:
    return A.toarray() if sp.issparse(A) else np.asarray(A)


@contextmanager
def _recording():
    """Record every factorization and moment system the grid code builds."""
    factorized: list[tuple] = []
    systems: list[tuple] = []

    def factorize(A, prefer_sparse=None):
        op = _FACTORIZE(A, prefer_sparse=prefer_sparse)
        factorized.append((A, prefer_sparse, op.mode))
        return op

    class RecordingMomentEngine(MomentEngine):
        def __init__(self, G, C, b):
            systems.append((G, C, b))
            super().__init__(G, C, b)

    saved = (solver.factorize, awe_moments.factorize, powergrid.MomentEngine)
    solver.factorize = awe_moments.factorize = factorize
    powergrid.MomentEngine = RecordingMomentEngine
    try:
        yield factorized, systems
    finally:
        (solver.factorize, awe_moments.factorize,
         powergrid.MomentEngine) = saved


def _assert_matches_reference(grid) -> None:
    """Every number the grid reports equals the per-segment evaluator's."""
    v_ref = ref_dc_solve(grid)
    ir_ref = ref_worst_ir_drop(grid, v_ref)
    cur_ref = ref_segment_currents(grid, v_ref)
    em_ref = ref_em_violations(grid, cur_ref)
    droop_ref = ref_transient_droop(grid, v_ref)
    G_ref = ref_conductance_matrix(grid)
    Gd_ref, C_ref, b_ref, total = ref_droop_system(grid)

    with _recording() as (factorized, systems):
        v = grid.dc_solve()
        ir = grid.worst_ir_drop()
        currents = grid.segment_currents()
        em = grid.em_violations()
        droop = grid.transient_droop()

    assert _same_bits(v, v_ref)
    _assert_same_scalar(ir, ir_ref)
    assert list(currents) == list(cur_ref)
    for name, current in currents.items():
        _assert_same_scalar(current, cur_ref[name])
    assert em == em_ref
    _assert_same_scalar(droop, droop_ref)
    assert grid.metal_area() == sum(s.metal_area for s in grid.segments)
    assert type(grid.metal_area()) is int

    dc_matrix, prefer_sparse, mode = factorized[0]
    assert prefer_sparse is True and mode == "sparse"
    assert sp.issparse(dc_matrix)
    _assert_same_csc(dc_matrix, G_ref)
    if total == 0.0:
        assert not systems
        return
    (G, C, b), = systems
    droop_matrix, _, droop_mode = factorized[1]
    assert droop_mode == _FACTORIZE(Gd_ref).mode
    assert _same_bits(_dense(G), Gd_ref)
    assert _same_bits(_dense(C), C_ref)
    assert _same_bits(b, b_ref)
    if droop_mode == "sparse":
        _assert_same_csc(droop_matrix, Gd_ref)


def _resized(grid, widths, extra_decap) -> PowerGrid:
    """``grid`` with new segment widths and extra decap, built the public
    way: a segment list."""
    segments = [GridSegment(s.name, s.node_a, s.node_b, s.length_nm, int(w))
                for s, w in zip(grid.segments, widths)]
    return PowerGrid(segments, list(grid.node_names), list(grid.pad_nodes),
                     dict(grid.load_currents), dict(grid.peak_currents),
                     list(grid.analog_nodes), grid.vdd, dict(extra_decap))


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------

def _floorplan(seed: int):
    blocks, nets = demo_mixed_signal_system()
    return WrightFloorplanner(blocks, nets, seed=seed).run(FLOORPLAN_SCHEDULE)


@pytest.fixture(scope="module")
def floorplans():
    return {seed: _floorplan(seed) for seed in (1, 2, 3)}


@pytest.fixture(scope="module")
def mesh8():
    return _mesh_grid(8, 8)


@pytest.fixture(scope="module")
def mesh32():
    macro = tile_macro(MacroSpec(32, 32))
    mesh = route_mesh(macro, MeshSpec(5, 5, 4_000, 4_000))
    spec = SignoffSpec()
    return mesh.power_grid(macro, spec.cell_avg_a, spec.peak_ratio)


WIDTHS = st.integers(min_value=200, max_value=200_000)
DECAPS = st.floats(min_value=DECAP_MIN, max_value=DECAP_MAX)
DIFFERENTIAL = settings(max_examples=20, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# differential tests
# ----------------------------------------------------------------------

class TestDifferential:
    @DIFFERENTIAL
    @given(data=st.data())
    def test_rail_grid(self, floorplans, data):
        fp = floorplans[1]
        names = [seg.name for seg in build_grid(fp).segments]
        widths = data.draw(st.lists(WIDTHS, min_size=len(names),
                                    max_size=len(names)))
        blocks = sorted(fp.placed)
        with_decap = data.draw(st.lists(st.sampled_from(blocks),
                                        unique=True))
        decaps = {b: data.draw(DECAPS) for b in with_decap}
        grid = build_grid(fp, dict(zip(names, widths)), decaps=decaps)
        _assert_matches_reference(grid)

    @DIFFERENTIAL
    @given(data=st.data())
    def test_synthetic_mesh(self, mesh8, data):
        n_seg = len(mesh8.segments)
        widths = data.draw(st.lists(WIDTHS, min_size=n_seg,
                                    max_size=n_seg))
        decap_nodes = data.draw(st.lists(
            st.integers(0, mesh8.n_nodes - 1), unique=True, max_size=6))
        decaps = {n: data.draw(DECAPS) for n in decap_nodes}
        _assert_matches_reference(_resized(mesh8, widths, decaps))

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_routed_macro_mesh(self, mesh32, data):
        n_seg = len(mesh32.segments)
        widths = data.draw(st.lists(st.integers(1_000, 20_000),
                                    min_size=n_seg, max_size=n_seg))
        decap_nodes = data.draw(st.lists(
            st.integers(0, mesh32.n_nodes - 1), unique=True, max_size=4))
        decaps = {n: data.draw(DECAPS) for n in decap_nodes}
        _assert_matches_reference(_resized(mesh32, widths, decaps))

    def test_routed_macro_mesh_as_built(self, mesh32):
        _assert_matches_reference(mesh32)

    def test_grid_without_switching_current(self, mesh8):
        quiet = PowerGrid(list(mesh8.segments), list(mesh8.node_names),
                          list(mesh8.pad_nodes), dict(mesh8.load_currents),
                          {}, list(mesh8.analog_nodes))
        assert quiet.transient_droop() == 0.0
        _assert_matches_reference(quiet)


# ----------------------------------------------------------------------
# pinned digests (recorded on the per-segment evaluator)
# ----------------------------------------------------------------------

def _typed(value) -> list:
    return [type(value).__name__, value]


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _grid_record(grid) -> dict:
    currents = grid.segment_currents()
    return {
        "v": grid.dc_solve().tolist(),
        "currents": [[name, _typed(value)]
                     for name, value in currents.items()],
        "ir": _typed(grid.worst_ir_drop()),
        "em": grid.em_violations(),
        "metal_area": _typed(grid.metal_area()),
    }


def _rail_record(result) -> dict:
    return {
        "widths": result.widths,
        "metal_area": _typed(result.metal_area),
        "worst_ir_drop": _typed(result.worst_ir_drop),
        "worst_droop": _typed(result.worst_droop),
        "em_violations": result.em_violations,
        "feasible": _typed(result.feasible),
        "evaluations": result.evaluations,
        "grid": _grid_record(result.grid),
    }


def _signoff_record(result) -> dict:
    return {
        "summary": result.summary(),
        "metal_area": _typed(result.metal_area),
        "worst_ir_drop": _typed(result.worst_ir_drop),
        "worst_droop": _typed(result.worst_droop),
        "em_violations": result.em_violations,
        "feasible": _typed(result.feasible),
        "rails": len(result.mesh.rails),
        "vias": result.mesh.vias,
        "grid": _grid_record(result.grid),
    }


RAIL_DIGESTS = {
    (1, 1): "3e0180f66cc7ac89", (1, 2): "f8a4471e737a8c1b",
    (2, 1): "76394f99664ed965", (2, 2): "c988d3bc792ce678",
    (3, 1): "c8400272a59d74ec", (3, 2): "3ca52e4fa3a544e9",
}
UNIFORM_WIDTHS = (4_000, 20_000, 60_000, 200_000)
UNIFORM_DIGESTS = {1: "5bc768df8fa64840", 2: "3cc71424e2ad7704",
                   3: "cb981eb1fdd92174"}
MACROS = {
    "32x32": MacroSpec(32, 32, name="m32x32"),
    "64x64": MacroSpec(64, 64, name="m64x64"),
    "24x40": MacroSpec(24, 40, name="m24x40"),
    "9x17": MacroSpec(9, 17, strap_every=4, name="m9x17"),
}
SIGNOFF_DIGESTS = {"32x32": "8a2d04479b23112b", "64x64": "b3f0080150461ead",
                   "24x40": "9856939f7701aae9", "9x17": "67a3639f82337656"}
OPTIMIZE_DIGESTS = {1001: "2b4cc8632dadaa73", 7001: "a85936db98f2d7eb"}


def _mesh_specs(macro) -> list[MeshSpec]:
    h = len(macro.blockages.free_h_tracks)
    v = len(macro.blockages.free_v_tracks)
    return [MeshSpec(h, v, 4_000, 4_000),
            MeshSpec(max(2, h - 1), max(2, v - 1), 2_500, 6_000),
            MeshSpec(2, 2, 8_000, 1_500)]


class TestPinnedDigests:
    @pytest.mark.parametrize("fp_seed, rail_seed", sorted(RAIL_DIGESTS))
    def test_synthesize_rail(self, floorplans, fp_seed, rail_seed):
        result = synthesize_rail(floorplans[fp_seed], RailSpec(),
                                 seed=rail_seed, schedule=RAIL_SCHEDULE)
        assert _digest(_rail_record(result)) == \
            RAIL_DIGESTS[fp_seed, rail_seed]

    @pytest.mark.parametrize("fp_seed", sorted(UNIFORM_DIGESTS))
    def test_uniform_grids(self, floorplans, fp_seed):
        records = [_rail_record(uniform_grid_result(floorplans[fp_seed], w))
                   for w in UNIFORM_WIDTHS]
        assert _digest(records) == UNIFORM_DIGESTS[fp_seed]

    @pytest.mark.parametrize("name", sorted(MACROS))
    def test_signoff_mesh(self, name):
        macro = tile_macro(MACROS[name])
        records = [_signoff_record(signoff_mesh(macro,
                                                route_mesh(macro, spec)))
                   for spec in _mesh_specs(macro)]
        assert _digest(records) == SIGNOFF_DIGESTS[name]

    @pytest.mark.parametrize("seed", sorted(OPTIMIZE_DIGESTS))
    def test_optimize_mesh(self, seed):
        result = optimize_mesh(tile_macro(MacroSpec(32, 32)), seed=seed,
                               schedule=MESH_SCHEDULE)
        assert _digest(_signoff_record(result)) == OPTIMIZE_DIGESTS[seed]


# ----------------------------------------------------------------------
# one topology, many sizings
# ----------------------------------------------------------------------

class TestSizedGrids:
    def test_candidates_share_the_topology(self, floorplans):
        template = build_grid(floorplans[1])
        wide = PowerGrid.sized(template.topology, template.widths * 3)
        assert wide.topology is template.topology
        assert wide._segments is None   # no segment objects until asked
        assert [s.width_nm for s in wide.segments] == \
            (template.widths * 3).tolist()
        assert wide.worst_ir_drop() < template.worst_ir_drop()

    def test_non_positive_width_vector_rejected_and_counted(self,
                                                            floorplans):
        template = build_grid(floorplans[1])
        widths = template.widths.copy()
        widths[2] = 0
        tracer = Tracer()
        with tracer.span("root"):
            with pytest.raises(GridWidthError,
                               match=repr(template.topology.names[2])):
                PowerGrid.sized(template.topology, widths)
            with pytest.raises(GridWidthError):
                build_grid(floorplans[1], {template.topology.names[0]: -5})
        counters = tracer.telemetry.report()["counters"]
        assert counters["powergrid.width_rejected"] == 2

    @pytest.mark.parametrize("bounds", [(30_000, 20_000), (0, 20_000),
                                        (-1, 5)])
    def test_rail_spec_rejects_unsearchable_width_bounds(self, bounds):
        lo, hi = bounds
        with pytest.raises(ValueError,
                           match="min_width_nm.*max_width_nm"):
            RailSpec(min_width_nm=lo, max_width_nm=hi)


# ----------------------------------------------------------------------
# optimize_mesh signs off each distinct spec once
# ----------------------------------------------------------------------

#: ``optimize_mesh(32x32, seed=1001)`` as the unmemoized loop returned it.
SUMMARY_1001 = {
    "mesh": {"h_rails": 5, "v_rails": 5, "h_width_nm": 3200,
             "v_width_nm": 1200},
    "metal_area": 4497920000,
    "worst_ir_drop": 0.003871912099845165,
    "worst_droop": 0.24369507781289915,
    "em_violations": 0,
    "feasible": True,
    "evaluations": 77,
}
#: tracemalloc peak of that call before the memo (3.58 MB; each signoff
#: then also assembled dense 330x330 droop matrices).  A memo of whole
#: signoffs would add ~18 MB (45 of ~0.4 MB each).
UNMEMOIZED_PEAK_BYTES = 3_600_000


class TestMeshMemo:
    @pytest.fixture(scope="class")
    def macro(self):
        return tile_macro(MacroSpec(32, 32))

    def test_same_result_from_fewer_signoffs(self, macro):
        tracer = Tracer()
        with tracer.span("optimize"):
            result = optimize_mesh(macro, seed=1001, schedule=MESH_SCHEDULE)
        assert result.summary() == SUMMARY_1001
        assert result.evaluations == 77          # counts calls, as before
        counters = tracer.telemetry.report()["counters"]
        assert counters["macrogen.signoffs"] == 45   # distinct specs

    def test_unroutable_spec_routed_once(self, monkeypatch):
        # With straps every 8 cells, most meshes over a 9x17 array fail
        # to stitch: the anneal proposes failing specs again and again,
        # and optimize_mesh ends by raising the error of its best one.
        routes, failed, proposals = Counter(), set(), Counter()
        real_route, real_anneal = signoff.route_mesh, \
            signoff.anneal_continuous

        def route(macro, mesh_spec):
            routes[mesh_spec] += 1
            try:
                return real_route(macro, mesh_spec)
            except MeshRoutingError:
                failed.add(mesh_spec)
                raise

        def anneal(cost, space, **kwargs):
            def spy(point):
                proposals[MeshSpec(*(int(round(point[k]))
                                     for k in space.names))] += 1
                return cost(point)
            return real_anneal(spy, space, **kwargs)

        monkeypatch.setattr(signoff, "route_mesh", route)
        monkeypatch.setattr(signoff, "anneal_continuous", anneal)
        with pytest.raises(MeshRoutingError):
            optimize_mesh(tile_macro(MacroSpec(9, 17, name="m9x17")),
                          seed=1, schedule=MESH_SCHEDULE)
        assert failed
        assert max(proposals[s] for s in failed) > 1
        assert set(routes.values()) == {1}

    def test_memo_holds_verdicts_not_signoffs(self, macro):
        optimize_mesh(macro, seed=1001, schedule=MESH_SCHEDULE)  # warm
        tracemalloc.start()
        try:
            optimize_mesh(macro, seed=1001, schedule=MESH_SCHEDULE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= UNMEMOIZED_PEAK_BYTES + 1_000_000
