"""Full mixed-signal chip assembly: floorplan → route → power (§3.2).

One call runs the complete backend system flow on a block-level design:

1. WRIGHT floorplanning with substrate-noise awareness;
2. WREN global routing with SNR-driven noise avoidance;
3. SNR constraint mapping: chip-level noise-rejection limits become
   per-segment coupling budgets for the detailed routers;
4. RAIL power-grid synthesis meeting dc / EM / transient constraints.

The result object carries every intermediate artifact plus a printable
report, so the benchmarks and examples share one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.msystem.blocks import Block, SignalNet
from repro.msystem.channels import (
    DetailedChannelReport,
    assign_nets_to_channels,
    define_channels,
    route_all_channels,
)
from repro.msystem.floorplan import FloorplanResult, WrightFloorplanner
from repro.msystem.global_router import GlobalRoutingResult, WrenGlobalRouter
from repro.msystem.noise_constraints import (
    SegmentBudget,
    SnrBudget,
    map_budget_to_segments,
)
from repro.msystem.powergrid import RailResult, RailSpec, synthesize_rail
from repro.engine.config import EngineConfig
from repro.engine.core import EvaluationEngine, flow_engine
from repro.engine.jobs import JobGraph
from repro.engine.trace import finish_run, span_if
from repro.opt.anneal import AnnealSchedule

# Assumed ground capacitance per mm of chip-level wire for SNR budgeting.
CAP_PER_MM = 0.2e-12


class ChipFlowError(RuntimeError):
    pass


@dataclass
class ChipPlan:
    floorplan: FloorplanResult
    routing: GlobalRoutingResult
    snr_budgets: dict[str, SnrBudget]
    segment_budgets: dict[str, list[SegmentBudget]]
    power: RailResult
    channels: DetailedChannelReport | None = None
    log: list[str] = field(default_factory=list)
    telemetry: dict | None = None  # engine report, when a flow engine ran
    manifest: dict | None = None   # run manifest, when the engine is traced

    def report(self) -> str:
        lines = [
            f"chip: {self.floorplan.width / 1e6:.2f} x "
            f"{self.floorplan.height / 1e6:.2f} mm, "
            f"area {self.floorplan.area / 1e12:.2f} mm^2",
            f"substrate noise figure: {self.floorplan.noise:.3f}",
            f"global routes: {len(self.routing.routes)} "
            f"(failed: {len(self.routing.failed)}), total "
            f"{self.routing.total_length / 1e6:.1f} mm, exposure "
            f"{self.routing.total_exposure / 1e6:.2f} mm",
            f"power grid: IR {self.power.worst_ir_drop * 1e3:.0f} mV, "
            f"droop {self.power.worst_droop * 1e3:.0f} mV, "
            f"EM violations {len(self.power.em_violations)}, "
            f"metal {self.power.metal_area / 1e12:.3f} mm^2, "
            f"feasible: {self.power.feasible}",
        ]
        if self.channels is not None:
            lines.append(
                f"detailed channels: {len(self.channels.results)} routed "
                f"({self.channels.total_tracks} tracks, "
                f"{self.channels.total_shields} shields, "
                f"{len(self.channels.unroutable)} unroutable)")
        for net, budgets in self.segment_budgets.items():
            total = sum(b.coupling_bound for b in budgets)
            lines.append(
                f"  SNR map {net}: {len(budgets)} segments, total budget "
                f"{total * 1e15:.2f} fF")
        return "\n".join(lines)


def _floorplan_stage(blocks, nets, noise_aware, seed, schedule):
    floorplanner = WrightFloorplanner(
        blocks, nets,
        noise_weight=1.0 if noise_aware else 0.0,
        seed=seed)
    return floorplanner.run(schedule)


def _route_stage(floorplan, nets, noise_aware):
    # Tight floorplans can defeat a given tile resolution: retry with
    # finer grids before giving up.
    routing = None
    for tiles in (48, 64, 96):
        router = WrenGlobalRouter(floorplan, tiles_x=tiles, tiles_y=tiles,
                                  noise_aware=noise_aware)
        routing = router.route(nets)
        if not routing.failed:
            break
    if routing is None or routing.failed:
        raise ChipFlowError(f"unroutable chip nets: {routing.failed}")
    return routing


def _snr_stage(routing, nets):
    snr_budgets: dict[str, SnrBudget] = {}
    segment_budgets: dict[str, list[SegmentBudget]] = {}
    for net in nets:
        if net.snr_limit_db is None:
            continue
        route = routing.routes.get(net.name)
        if route is None:
            continue
        ground_cap = CAP_PER_MM * route.length_nm / 1e6
        budget = SnrBudget.for_net(net, ground_cap)
        snr_budgets[net.name] = budget
        segment_budgets[net.name] = map_budget_to_segments(
            budget, route.segments(routing.tile_nm))
    return snr_budgets, segment_budgets


def assemble_chip(blocks: list[Block], nets: list[SignalNet],
                  rail_spec: RailSpec | None = None,
                  seed: int = 1,
                  floorplan_schedule: AnnealSchedule | None = None,
                  noise_aware: bool = True,
                  engine: EvaluationEngine | None = None,
                  config: EngineConfig | None = None) -> ChipPlan:
    """Run the full system-assembly flow.

    The stages (floorplan → route → SNR mapping → channels → power) are
    declared as a :class:`repro.engine.JobGraph`.  Pass a shared
    ``engine=`` or ``config=EngineConfig(...)`` to build one that the
    flow closes, not both.  With an engine, per-stage wall times and
    counters land in the plan's ``telemetry``, and the engine's retry
    policy grants each stage extra attempts on transient errors
    (:meth:`repro.engine.JobGraph.run`).  With ``trace=True`` the
    stages run under a ``chip_flow`` span and the returned plan carries
    the run ``manifest`` (written to ``config.trace_dir`` when set).
    """
    engine, owned = flow_engine(engine, config, "assemble_chip")
    tracer = getattr(engine, "tracer", None) if engine is not None else None
    log: list[str] = []
    schedule = floorplan_schedule or AnnealSchedule(
        moves_per_temperature=120, cooling=0.88, max_evaluations=10000)

    graph = JobGraph()
    graph.add("floorplan",
              lambda r: _floorplan_stage(blocks, nets, noise_aware, seed,
                                         schedule))
    graph.add("route", lambda r: _route_stage(r["floorplan"], nets,
                                              noise_aware),
              deps=("floorplan",))
    graph.add("snr", lambda r: _snr_stage(r["route"], nets),
              deps=("route",))
    # Detailed channel routing: corridors between facing blocks, with
    # shields between incompatible neighbours.
    graph.add("channels",
              lambda r: route_all_channels(
                  assign_nets_to_channels(define_channels(r["floorplan"]),
                                          r["route"], nets),
                  insert_shields=True),
              deps=("floorplan", "route"))
    graph.add("power",
              lambda r: synthesize_rail(r["floorplan"], rail_spec,
                                        seed=seed),
              deps=("floorplan",))
    status = "ok"
    try:
        with span_if(tracer, "chip_flow"):
            stages = graph.run(engine)
    except BaseException:
        status = "error"
        raise
    finally:
        manifest = None
        if engine is not None:
            manifest = finish_run("chip_flow", engine, seed=seed,
                                  config=config, status=status)
            if owned and status != "ok":
                engine.close()

    floorplan = stages["floorplan"]
    log.append(f"floorplan: area {floorplan.area / 1e12:.2f} mm^2, "
               f"noise {floorplan.noise:.3f}")
    routing = stages["route"]
    log.append(f"routing: {routing.total_length / 1e6:.1f} mm, exposure "
               f"{routing.total_exposure / 1e6:.2f} mm")
    snr_budgets, segment_budgets = stages["snr"]
    log.append(f"SNR budgets mapped for {len(snr_budgets)} nets")
    channels = stages["channels"]
    log.append(f"channels: {channels.total_tracks} tracks, "
               f"{channels.total_shields} shields")
    power = stages["power"]
    log.append(f"power grid feasible: {power.feasible}")
    telemetry = None
    if engine is not None:
        summary = engine.failure_summary()
        if summary:
            log.append(summary)
        telemetry = engine.report()
        if owned:
            engine.close()
    return ChipPlan(floorplan, routing, snr_budgets, segment_budgets,
                    power, channels, log,
                    telemetry=telemetry, manifest=manifest)
