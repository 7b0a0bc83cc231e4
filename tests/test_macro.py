"""Tests for the memory-macro subsystem (repro.macro) and its satellites.

Pins the end-to-end acceptance criteria: the tiler is deterministic and
its blockage map is honest (corners free, keepouts carved), the mesh
router's A* routes legal rails around keepouts with every plane stitched
to the pad ring, signoff verifies IR/EM/droop through the sparse grid
path, mesh-density annealing beats the uniform reference on metal area,
the ``macrogen.*`` counters roll up into report schema v9 / manifest v8,
the serve workload round-trips through a 2-shard fleet with the
zero-silent-drops invariant intact, and the two hardening satellites
(non-positive grid widths, fully-blocked routing grids) raise typed
errors instead of degrading silently.
"""

import pytest

from repro.engine.cache import canonical_key
from repro.engine.config import EngineConfig, ServeConfig
from repro.engine.core import EvaluationEngine
from repro.engine.schema import (
    MANIFEST_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    SECTIONS,
    check_report,
    validate_manifest,
)
from repro.engine.telemetry import Telemetry
from repro.engine.trace import Tracer, finish_run
from repro.macro import (
    MacroSpec,
    MacroTilingError,
    MeshRoutingError,
    MeshSpec,
    SignoffSpec,
    assign_rail_tracks,
    macro_flow,
    macro_workload,
    optimize_mesh,
    route_mesh,
    signoff_mesh,
    tile_macro,
    uniform_mesh,
)
from repro.macro.mesh import rail_tracks
from repro.msystem import GridSegment, GridWidthError
from repro.serve import ShardRouter, Workload

SMALL = MacroSpec(rows=16, cols=16, strap_every=4, name="m16")


@pytest.fixture(scope="module")
def small_macro():
    return tile_macro(SMALL)


@pytest.fixture(scope="module")
def small_mesh(small_macro):
    return route_mesh(small_macro, MeshSpec(4, 4, 4_000, 4_000))


# ----------------------------------------------------------------------
# tiling
# ----------------------------------------------------------------------

class TestTiling:
    def test_bad_specs_rejected(self):
        with pytest.raises(MacroTilingError):
            MacroSpec(rows=0, cols=4)
        with pytest.raises(MacroTilingError):
            MacroSpec(rows=4, cols=-1)
        with pytest.raises(MacroTilingError):
            MacroSpec(rows=4, cols=4, strap_every=0)
        with pytest.raises(MacroTilingError):
            MacroSpec(rows=4, cols=4, kind="dram")

    def test_dimensions_and_pins(self, small_macro):
        assert small_macro.width_nm == 16 * small_macro.pitch_x
        assert small_macro.height_nm == 16 * small_macro.pitch_y
        assert small_macro.wordline_ports == [f"wl_{r}" for r in range(16)]
        assert small_macro.bitline_ports == [f"bl_{c}" for c in range(16)]
        assert set(small_macro.cell.ports) == \
            set(small_macro.wordline_ports) | set(small_macro.bitline_ports)

    def test_tiling_is_deterministic(self, small_macro):
        again = tile_macro(SMALL)
        assert again.taps == small_macro.taps
        assert again.blockages == small_macro.blockages
        assert [(s.layer, s.rect, s.net) for s in again.cell.shapes] == \
            [(s.layer, s.rect, s.net) for s in small_macro.cell.shapes]

    def test_taps_conserve_units(self, small_macro):
        assert sum(small_macro.taps.values()) == 16 * 16
        for crossing in small_macro.taps:
            assert small_macro.blockages.is_free(*crossing)

    def test_blockage_corners_always_free(self, small_macro):
        b = small_macro.blockages
        for corner in ((0, 0), (b.nx - 1, 0), (0, b.ny - 1),
                       (b.nx - 1, b.ny - 1)):
            assert b.is_free(*corner)

    def test_keepouts_carve_free_corridors(self, small_macro):
        b = small_macro.blockages
        assert b.keepouts  # sense-amp strip + decoder notch exist
        for i, j in b.keepouts:
            assert not b.is_free(i, j)
            # Every keepout sits on what would otherwise be a corridor.
            assert i in b.free_v or j in b.free_h

    def test_off_corridor_crossings_blocked(self, small_macro):
        b = small_macro.blockages
        assert not b.is_free(1, 1)      # interior, no strap
        assert not b.is_free(-1, 0)     # out of bounds
        assert not b.is_free(0, b.ny)

    def test_cap_kind_uses_cap_layers(self):
        macro = tile_macro(MacroSpec(rows=2, cols=2, strap_every=2,
                                     kind="cap", name="c2"))
        layers = {s.layer for s in macro.cell.shapes}
        assert "captop" in layers

    def test_single_cell_array(self):
        macro = tile_macro(MacroSpec(rows=1, cols=1, strap_every=1,
                                     name="m1"))
        assert sum(macro.taps.values()) == 1
        assert macro.blockages.nx == 2 and macro.blockages.ny == 2


# ----------------------------------------------------------------------
# mesh routing
# ----------------------------------------------------------------------

class TestMeshRouting:
    def test_bad_mesh_specs_rejected(self):
        with pytest.raises(MeshRoutingError):
            MeshSpec(1, 4, 1_000, 1_000)
        with pytest.raises(MeshRoutingError):
            MeshSpec(4, 4, 0, 1_000)
        with pytest.raises(MeshRoutingError):
            MeshSpec(4, 4, 1_000, -5)

    def test_track_assignment_spreads_and_clamps(self):
        tracks = assign_rail_tracks([0, 4, 8, 12, 16], 3)
        assert tracks[0] == 0 and tracks[-1] == 16
        assert len(tracks) == 3
        # Requesting more rails than corridors clamps to the corridors.
        assert assign_rail_tracks([0, 8, 16], 10) == [0, 8, 16]
        with pytest.raises(MeshRoutingError):
            assign_rail_tracks([0], 2)

    def test_mesh_is_legal_and_stitched(self, small_macro, small_mesh):
        assert small_mesh.blockage_violations == 0
        assert small_mesh.is_fully_stitched()
        assert small_mesh.vias > 0
        for rail in small_mesh.rails:
            for crossing in rail.path:
                assert small_macro.blockages.is_free(*crossing)

    def test_sense_amp_strip_forces_detour(self, small_mesh):
        bottom = next(r for r in small_mesh.rails
                      if r.orientation == "h" and r.track == 0)
        assert bottom.detoured
        assert any(j != 0 for _, j in bottom.path)

    def test_routing_is_deterministic(self, small_macro, small_mesh):
        again = route_mesh(small_macro, MeshSpec(4, 4, 4_000, 4_000))
        assert [r.path for r in again.rails] == \
            [r.path for r in small_mesh.rails]
        assert again.node_names == small_mesh.node_names
        assert [(s.name, s.node_a, s.node_b, s.length_nm, s.width_nm)
                for s in again.segments] == \
            [(s.name, s.node_a, s.node_b, s.length_nm, s.width_nm)
             for s in small_mesh.segments]

    def test_metal_area_counts_rails_only(self, small_mesh):
        assert small_mesh.metal_area() == \
            sum(s.metal_area for s in small_mesh.rail_segments)
        assert small_mesh.metal_area() < \
            sum(s.metal_area for s in small_mesh.segments)

    def test_pads_are_ring_corners(self, small_mesh):
        assert len(small_mesh.pad_nodes) == 4
        for pad in small_mesh.pad_nodes:
            layer, _, _ = small_mesh.node_pos[pad]
            assert layer == "h"

    def test_rail_moves_memo_is_per_map(self):
        """Equal maps tiled apart share no move list, and a map's memo
        holds exactly the (orientation, track) pairs routed on it."""
        first, second = tile_macro(SMALL), tile_macro(SMALL)
        assert first.blockages == second.blockages
        spec = MeshSpec(3, 3, 2_000, 2_000)
        h_tracks, v_tracks = rail_tracks(first, spec)
        route_mesh(first, spec)
        assert set(first.blockages.rail_moves) == \
            {("h", t) for t in h_tracks} | {("v", t) for t in v_tracks}
        assert not second.blockages.rail_moves
        route_mesh(second, spec)
        assert second.blockages.rail_moves.keys() == \
            first.blockages.rail_moves.keys()
        for key, moves in first.blockages.rail_moves.items():
            assert second.blockages.rail_moves[key] is not moves
            assert second.blockages.rail_moves[key] == moves

    def test_counters_emitted(self, small_macro):
        tracer = Tracer()
        with tracer.span("root"):
            route_mesh(small_macro, MeshSpec(3, 3, 2_000, 2_000))
        counters = tracer.telemetry.report()["counters"]
        assert counters["macrogen.rails_routed"] >= 6
        assert counters["macrogen.vias"] > 0
        assert "macrogen.blockage_violations" not in counters


# ----------------------------------------------------------------------
# signoff + optimization
# ----------------------------------------------------------------------

class TestSignoff:
    def test_signoff_reports_all_three_families(self, small_macro,
                                                small_mesh):
        result = signoff_mesh(small_macro, small_mesh, SignoffSpec())
        assert result.worst_ir_drop > 0.0
        assert result.worst_droop > 0.0
        assert result.em_violations == []
        assert result.feasible
        assert result.metal_area == small_mesh.metal_area()

    def test_narrow_rails_fail_em(self, small_macro):
        # 10 nm rails cannot carry milliamps: EM must fire.
        mesh = route_mesh(small_macro, MeshSpec(2, 2, 10, 10))
        result = signoff_mesh(small_macro, mesh,
                              SignoffSpec(cell_avg_a=1e-4))
        assert result.em_violations
        assert not result.feasible

    def test_uniform_mesh_uses_every_corridor(self, small_macro):
        result = uniform_mesh(small_macro, SignoffSpec())
        b = small_macro.blockages
        assert result.mesh.spec.h_rails == len(b.free_h_tracks)
        assert result.mesh.spec.v_rails == len(b.free_v_tracks)
        assert result.feasible

    def test_annealed_beats_uniform_on_metal_area(self, small_macro):
        spec = SignoffSpec()
        uniform = uniform_mesh(small_macro, spec)
        annealed = optimize_mesh(small_macro, spec, seed=1)
        assert annealed.feasible
        assert annealed.metal_area < uniform.metal_area

    def test_macro_flow_spans_and_summary(self):
        tracer = Tracer()
        out = macro_flow(SMALL, tracer=tracer)
        assert out["blockage_violations"] == 0
        assert out["feasible"]
        spans = tracer.span_tree()
        assert spans[0]["name"] == "macro_flow"
        children = [c["name"] for c in spans[0]["children"]]
        assert children == ["tile", "route", "signoff"]


# ----------------------------------------------------------------------
# schema v9 / manifest v8
# ----------------------------------------------------------------------

def macro_section(counters: dict) -> dict:
    return EvaluationEngine(telemetry=Telemetry(counters)).report()["macro"]


class TestMacroSchema:
    def test_versions_bumped_in_lockstep(self):
        assert REPORT_SCHEMA_VERSION == 9
        assert MANIFEST_SCHEMA_VERSION == 8

    def test_rollup_shape_and_rates(self):
        counters = {"macrogen.tiled": 2, "macrogen.units": 512,
                    "macrogen.rails_routed": 16,
                    "macrogen.rail_detours": 4, "macrogen.vias": 60,
                    "macrogen.signoffs": 2,
                    "powergrid.width_rejected": 1}
        section = macro_section(counters)
        (declared,) = [s for s in SECTIONS if s.name == "macro"]
        assert tuple(section) == tuple(f.name for f in declared.fields)
        assert section["units"] == 512
        assert section["width_rejected"] == 1
        assert section["detour_rate"] == pytest.approx(0.25)

    def test_rollup_all_zero_without_traffic(self):
        section = macro_section({})
        assert section["detour_rate"] is None
        assert all(v == 0 for k, v in section.items()
                   if k != "detour_rate")

    def test_engine_report_carries_macro_section(self):
        engine = EvaluationEngine.from_config(EngineConfig(trace=True))
        try:
            macro_flow(SMALL, tracer=engine.tracer)
            report = engine.report()
        finally:
            engine.close()
        check_report(report)
        assert report["macro"]["tiled"] == 1
        assert report["macro"]["units"] == 256
        assert report["macro"]["signoffs"] == 1
        assert report["macro"]["blockage_violations"] == 0

    def test_traced_manifest_validates(self, tmp_path):
        config = EngineConfig(trace=True, trace_dir=str(tmp_path))
        engine = EvaluationEngine.from_config(config)
        try:
            macro_flow(SMALL, tracer=engine.tracer)
            manifest = finish_run("macro_flow", engine, seed=1,
                                  config=config)
        finally:
            engine.close()
        validate_manifest(manifest)
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["rollups"]["macro_tiled"] == 1
        assert manifest["rollups"]["macro_units"] == 256
        assert manifest["rollups"]["macro_blockage_violations"] == 0


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------

def _point(rows=8, cols=8, strap=4, h=3, v=3, hw=3_000, vw=3_000):
    return {"array": {"rows": rows, "cols": cols, "strap_every": strap},
            "mesh": {"h_rails": h, "v_rails": v,
                     "h_width_nm": hw, "v_width_nm": vw}}


class TestMacroWorkload:
    def test_cache_key_content_addressed(self):
        wl = macro_workload()
        assert wl.key_fn(_point()) == wl.key_fn(_point())
        assert wl.key_fn(_point()) != wl.key_fn(_point(hw=3_001))
        assert wl.key_fn(_point()) != wl.key_fn(_point(rows=16))

    def test_malformed_point_raises(self):
        wl = macro_workload()
        with pytest.raises(ValueError):
            wl.fn({"mesh": {}})

    def test_batcher_groups_by_geometry(self):
        wl = macro_workload()
        points = [_point(rows=8), _point(rows=16), _point(rows=8, h=2),
                  {"bogus": 1}]
        groups = wl.batcher.group(points)
        assert sorted(map(sorted, groups)) == [[0, 2], [1], [3]]

    def test_evaluator_reuses_tiling_per_geometry(self):
        wl = macro_workload()
        first = wl.fn(_point())
        macro_obj = wl.fn.tiling_for(_point()["array"])
        assert wl.fn.tiling_for(_point()["array"]) is macro_obj
        assert first["feasible"] in (True, False)
        assert first["array"]["rows"] == 8

    def test_engine_map_evaluate_with_dedup(self):
        wl = macro_workload()
        points = [_point(), _point(h=4), _point()]
        engine = EvaluationEngine.from_config(EngineConfig(cache=True))
        try:
            results = engine.map_evaluate(wl.fn, points, key_fn=wl.key_fn,
                                          batcher=wl.batcher)
        finally:
            engine.close()
        assert results[0] == results[2]
        assert results[0]["mesh"]["h_rails"] == 3
        assert results[1]["mesh"]["h_rails"] == 4


class TestMacroFleet:
    def test_two_shard_round_trip_and_invariant(self, tmp_path):
        serve = ServeConfig(shards=2,
                            shared_store_dir=str(tmp_path / "store"))
        router = ShardRouter(EngineConfig(executor="thread", workers=2,
                                          serve=serve))
        router.register(macro_workload())
        points = [_point(h=h, v=v) for h in (2, 3) for v in (2, 3)]
        points.append(_point(h=2, v=2))  # duplicate across the fleet
        with router:
            handles = [router.submit("macro", p) for p in points]
            results = [h.result(timeout=120) for h in handles]
            report = router.report()
        assert results[0] == results[4]
        assert all(r["feasible"] for r in results)
        serve_section = report["serve"]
        assert serve_section["requests"] == serve_section["admitted"] + \
            serve_section["rejected"]
        assert serve_section["admitted"] == (
            serve_section["completed"] + serve_section["expired"]
            + serve_section["cancelled"] + serve_section["errored"])
        check_report(report)
        assert len(serve_section["shards"]) == 2

    def test_fleet_report_merges_shard_kernel_samples(self):
        """The fleet's kernel percentile comes from the shards' own
        ``kernel.batch_s`` samples, merged like their counters."""
        serve = ServeConfig(shards=2, max_wait_ms=200.0)
        router = ShardRouter(EngineConfig(executor="serial", serve=serve))
        router.register(macro_workload())
        points = [_point(h=h, v=v, hw=w) for h in (2, 3) for v in (2, 3)
                  for w in (3_000, 3_500)]
        with router:
            handles = [router.submit("macro", p) for p in points]
            assert all(h.result(timeout=120)["feasible"] for h in handles)
            report = router.report()
        check_report(report)
        assert report["kernel"]["batches"] > 0
        assert report["kernel"]["batch_latency_p50_s"] is not None


# ----------------------------------------------------------------------
# satellites: typed width rejection + bounded spiral search
# ----------------------------------------------------------------------

class TestGridWidthError:
    def test_non_positive_width_rejected(self):
        with pytest.raises(GridWidthError):
            GridSegment("bad", 0, 1, 1_000, 0)
        with pytest.raises(GridWidthError):
            GridSegment("bad", 0, 1, 1_000, -200)

    def test_rejection_counted_on_tracer(self):
        tracer = Tracer()
        with tracer.span("root"):
            with pytest.raises(GridWidthError):
                GridSegment("bad", 0, 1, 1_000, 0)
        counters = tracer.telemetry.report()["counters"]
        assert counters["powergrid.width_rejected"] == 1
        assert macro_section(counters)["width_rejected"] == 1

    def test_positive_width_unclamped_resistance(self):
        seg = GridSegment("ok", 0, 1, 1_000, 500)
        assert seg.resistance == pytest.approx(0.04 * 1_000 / 500)

    @pytest.mark.parametrize("bounds", [(30_000, 20_000), (0, 20_000),
                                        (-1, 5)])
    def test_signoff_spec_rejects_unsearchable_width_bounds(self, bounds):
        # Unchecked, inverted bounds crash uniform_mesh with an
        # AttributeError and optimize_mesh inside ContinuousSpace.
        lo, hi = bounds
        with pytest.raises(ValueError, match="min_width_nm.*max_width_nm"):
            SignoffSpec(min_width_nm=lo, max_width_nm=hi)


class TestNearestFreeTileSpiral:
    def _router(self, nx=4, ny=4):
        from repro.msystem.global_router import WrenGlobalRouter
        router = WrenGlobalRouter.__new__(WrenGlobalRouter)
        router.nx, router.ny = nx, ny
        router.blocked = set()
        return router

    def test_free_tile_is_identity(self):
        router = self._router()
        assert router._nearest_free_tile((1, 1)) == (1, 1)

    def test_spiral_finds_nearest(self):
        router = self._router()
        router.blocked = {(1, 1), (1, 2), (2, 1)}
        found = router._nearest_free_tile((1, 1))
        assert found not in router.blocked
        assert abs(found[0] - 1) + abs(found[1] - 1) == 1

    def test_fully_blocked_grid_raises(self):
        from repro.msystem.global_router import GlobalRoutingError
        router = self._router(3, 3)
        router.blocked = {(x, y) for x in range(3) for y in range(3)}
        with pytest.raises(GlobalRoutingError):
            router._nearest_free_tile((1, 1))

    def test_spiral_is_deterministic(self):
        router = self._router(6, 6)
        router.blocked = {(x, y) for x in range(6) for y in range(6)
                          if (x + y) % 3}
        results = {router._nearest_free_tile((3, 3)) for _ in range(5)}
        assert len(results) == 1
