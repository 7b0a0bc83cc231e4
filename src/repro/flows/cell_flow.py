"""Closed-loop analog cell design: synthesis → layout → extract → verify.

"An open problem is 'closing the loop' from cell synthesis to cell
layout, so that layouts which do not meet specifications can, if
necessary, cause actual circuit design changes (via circuit resynthesis)"
(§3.1, [51]).  This flow implements exactly that loop:

1. size the cell (design plan or equation-based optimization);
2. generate device layouts, extract symmetry constraints, place (KOAN),
   route (ANAGRAM), compact;
3. extract parasitics, back-annotate, verify with the simulator;
4. if the extracted circuit misses a spec, *tighten the synthesis
   targets* by the observed degradation and resynthesize — the layout
   concern reflected back into synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ac import ac_analysis, bode_metrics, logspace_frequencies
from repro.analysis.dcop import dc_operating_point
from repro.circuits.library import five_transistor_ota
from repro.circuits.netlist import Circuit
from repro.core.specs import Spec, SpecKind, SpecSet
from repro.layout.compaction import compact_placement
from repro.layout.constraints import extract_constraints
from repro.layout.devicegen import generate_device
from repro.layout.parasitics import annotate_circuit, extract_parasitics
from repro.layout.placer import KoanPlacer
from repro.layout.router import (
    SENSITIVE,
    RoutingRequest,
    route_placement,
    routed_cell,
)
from repro.engine.config import EngineConfig
from repro.engine.core import EvaluationEngine, flow_engine
from repro.engine.jobs import JobGraph
from repro.engine.trace import finish_run, span_if
from repro.opt.anneal import AnnealSchedule
from repro.synthesis.plan_library import default_plan_library

PLACE_SCHEDULE = AnnealSchedule(moves_per_temperature=120, cooling=0.88,
                                max_evaluations=15000, stop_after_stale=8)


class CellFlowError(RuntimeError):
    pass


@dataclass
class CellDesign:
    """Everything the flow produced for one cell."""

    topology: str
    sizes: dict
    schematic: Circuit
    placement: object
    routing: object
    layout_cell: object
    extracted_circuit: Circuit
    pre_layout: dict
    post_layout: dict
    iterations: int
    area_um2: float
    log: list[str] = field(default_factory=list)
    telemetry: dict | None = None  # engine report, when a flow engine ran
    manifest: dict | None = None   # run manifest, when the engine is traced


def _measure(circuit: Circuit, output: str = "out") -> dict:
    testbench = circuit.copy()
    testbench.vsource("tb_vip", "inp", "0", dc=1.5, ac=1.0)
    testbench.vsource("tb_vin", "inn", "0", dc=1.5)
    op = dc_operating_point(testbench)
    metrics = bode_metrics(
        ac_analysis(testbench, logspace_frequencies(10, 1e9, 5), op=op),
        output)
    performance = {
        "gain": metrics.dc_gain,
        "gain_db": metrics.dc_gain_db,
        "gbw": metrics.unity_gain_freq,
        "phase_margin": metrics.phase_margin_deg,
        "power": op.power(("vdd_src",), testbench),
    }
    # Slew rate = tail current into the load capacitance (OTA-shaped
    # cells: tail device m5, load capacitor cl).
    try:
        c_load = circuit.device("cl").value
        performance["slew_rate"] = abs(op.mos["m5"].ids) / c_load
    except (KeyError, AttributeError):
        pass
    return performance


def layout_cell(circuit: Circuit, seed: int = 1,
                sensitive_nets: tuple[str, ...] = ("inp", "inn")):
    """Place, route and compact one cell; returns the physical results."""
    constraints = extract_constraints(circuit)
    layouts = []
    for dev in circuit.devices:
        try:
            layouts.append(generate_device(dev))
        except TypeError:
            continue
    if not layouts:
        raise CellFlowError("no layoutable devices in circuit")
    placer = KoanPlacer(layouts, constraints, seed=seed)
    placement_result = placer.run(schedule=PLACE_SCHEDULE)
    compact_placement(placement_result.placement, constraints)
    nets: dict[str, list] = {}
    for name, obj in placement_result.placement.objects.items():
        lay = placer.layouts[name]
        for port, net in lay.port_nets.items():
            if port in lay.cell.ports:
                x, y = obj.port_position(port)
                nets.setdefault(net, []).append(
                    (x, y, lay.cell.ports[port].layer))
    requests = [
        RoutingRequest(net, pins,
                       SENSITIVE if net in sensitive_nets else "neutral")
        for net, pins in nets.items() if len(pins) > 1
    ]
    routing, router = route_placement(placement_result.placement, requests,
                                      constraints.net_pairs)
    if routing.failed:
        raise CellFlowError(f"unroutable nets: {routing.failed}")
    extraction = extract_parasitics(routing, router)
    cell = routed_cell(placement_result.placement, routing)
    return placement_result, routing, extraction, cell


def _iteration_graph(plan, targets: dict, seed: int) -> JobGraph:
    """One resynthesis iteration as an explicit stage graph.

    size → schematic → (measure_pre, layout) → extract → verify; each
    stage is timed under ``stage.<name>`` when an engine is supplied.
    """
    graph = JobGraph()
    graph.add("size", lambda r: plan.execute(targets))
    graph.add("schematic",
              lambda r: five_transistor_ota(dict(r["size"].sizes)),
              deps=("size",))
    graph.add("measure_pre", lambda r: _measure(r["schematic"]),
              deps=("schematic",))
    graph.add("layout", lambda r: layout_cell(r["schematic"], seed=seed),
              deps=("schematic",))
    graph.add("extract",
              lambda r: annotate_circuit(r["schematic"], r["layout"][2]),
              deps=("schematic", "layout"))
    graph.add("verify", lambda r: _measure(r["extract"]),
              deps=("extract",))
    return graph


def design_ota_cell(specs: SpecSet, seed: int = 1,
                    max_iterations: int = 3,
                    engine: EvaluationEngine | None = None,
                    config: EngineConfig | None = None) -> CellDesign:
    """The full closed loop for the 5-transistor OTA.

    Sizing uses the design plan (fast, deterministic); re-iterations
    tighten the GBW target by the layout-induced degradation.  Each
    iteration runs as a :class:`repro.engine.JobGraph` (size → layout →
    extract → verify).

    Pass a shared ``engine=`` or ``config=EngineConfig(...)`` to build
    one that the flow closes, not both.  With an engine, per-stage wall
    times and counters land in the design's ``telemetry``, and the
    engine's retry policy grants each stage extra attempts on transient
    failures (:meth:`repro.engine.JobGraph.run`).  With ``trace=True``
    the whole flow runs under a ``cell_flow`` span (one
    ``iteration_<n>`` child per resynthesis pass, one grandchild per
    stage) and the returned design carries the run ``manifest``; with
    ``trace_dir`` set, ``manifest.json`` + ``trace.jsonl`` are written
    there.
    """
    engine, owned = flow_engine(engine, config, "design_ota_cell")
    tracer = getattr(engine, "tracer", None) if engine is not None else None
    status = "ok"
    try:
        with span_if(tracer, "cell_flow"):
            design = _run_cell_loop(specs, seed, max_iterations, engine,
                                    tracer)
    except BaseException:
        status = "error"
        raise
    finally:
        if engine is not None:
            manifest = finish_run("cell_flow", engine, seed=seed,
                                  config=config, status=status)
            if status == "ok":
                design.manifest = manifest
                design.telemetry = engine.report()
            if owned:
                engine.close()
    return design


def _run_cell_loop(specs: SpecSet, seed: int, max_iterations: int,
                   engine: EvaluationEngine | None, tracer) -> CellDesign:
    plan = default_plan_library().get("five_transistor_ota")
    gbw_spec = _required(specs, "gbw")
    gain_spec = _required(specs, "gain", default=50.0)
    log: list[str] = []
    gbw_target = gbw_spec
    last_failure = "no attempt"
    for iteration in range(1, max_iterations + 1):
        # 15% margin on the slew target: the plan's ideal mirror ratio
        # overestimates the tail current the simulator will deliver.
        from repro.synthesis.plans import PlanError
        graph = _iteration_graph(plan, {
            "gbw": gbw_target,
            "slew_rate": 1.15 * _required(specs, "slew_rate",
                                          default=gbw_spec),
            "c_load": 2e-12,
            "gain": gain_spec,
            "vdd": 3.3,
        }, seed)
        try:
            with span_if(tracer, f"iteration_{iteration}"):
                stages = graph.run(engine)
        except PlanError as exc:
            raise CellFlowError(f"sizing infeasible: {exc}") from exc
        sizes = stages["size"].sizes
        circuit = stages["schematic"]
        pre = stages["measure_pre"]
        log.append(f"iter {iteration}: sized for gbw={gbw_target:.4g}, "
                   f"pre-layout gbw={pre['gbw']:.4g}")
        placement, routing, extraction, cell = stages["layout"]
        extracted = stages["extract"]
        post = stages["verify"]
        log.append(f"iter {iteration}: post-layout gbw={post['gbw']:.4g}")
        if specs.all_satisfied(post):
            box = cell.bbox()
            if engine is not None:
                summary = engine.failure_summary()
                if summary:
                    log.append(summary)
            return CellDesign(
                topology="five_transistor_ota", sizes=sizes,
                schematic=circuit, placement=placement, routing=routing,
                layout_cell=cell, extracted_circuit=extracted,
                pre_layout=pre, post_layout=post, iterations=iteration,
                area_um2=box.area / 1e6, log=log)
        # Closing the loop: scale the synthesis target by the observed
        # shortfall (model error + layout degradation) plus margin, then
        # resynthesize.
        if post.get("gbw", 0) > 0:
            shortfall = gbw_spec / post["gbw"]
            gbw_target = gbw_target * max(shortfall, 1.0) * 1.08
            last_failure = (f"post-layout specs not met "
                            f"(gbw {post['gbw']:.4g})")
            log.append(f"iter {iteration}: resynthesis with gbw target "
                       f"{gbw_target:.4g}")
        else:
            last_failure = "post-layout evaluation failed"
            break
    raise CellFlowError(
        f"cell flow failed after {max_iterations} iterations "
        f"({last_failure})")


def _required(specs: SpecSet, name: str,
              default: float | None = None) -> float:
    for s in specs.constraints:
        if s.name == name and s.kind is SpecKind.MIN:
            return s.value
    if default is None:
        raise CellFlowError(f"specs must include a minimum for {name!r}")
    return default
