"""In-memory span recording around the program's public entry points.

Only the traced run installs these wrappers; the untraced run measures
the program exactly as a user calls it.  Each wrapper records one span
(name, start, end, parent span, job id) into flat arrays, so a traced
run holding hundreds of thousands of spans stays small; the spans are
written out once, when the run ends.

A call into an entry point that is already open on the stack (recursion,
or ``solve_transpose`` reached through another wrapped solve) is not
recorded again, so a layer's time is never counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

from harness import Metric, self_times


class SpanRecorder:
    """Spans of one single-threaded benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.job_id = -1
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if name is not None:
            self.name_id[idx] = self._id(name)

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(out)`` may rename the
        span (return a name) and record counts."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._open[name]:
                return fn(*args, **kwargs)
            rec._open[name] += 1
            idx = rec.open(name)
            rename = None
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    rename = on_result(out)
                return out
            finally:
                rec._open[name] -= 1
                rec.close(idx, rename)

        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Dump the spans as one ``.npz`` archive (written once, at exit):
        parallel arrays plus the JSON-encoded name table and counts."""
        import numpy as np
        np.savez(path,
                 names=np.array(json.dumps(self.names)),
                 counts=np.array(json.dumps(dict(self.counts))),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32))


def _replace_everywhere(original, wrapped) -> None:
    """Rebind every name in the program's modules that refers to
    ``original`` -- ``from x import f`` copies included -- to
    ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(rec: SpanRecorder) -> None:
    """Wrap the entry points of every layer the benchmark names."""
    import repro.analysis.ac as ac
    import repro.analysis.dcop as dcop
    import repro.analysis.mna as mna
    import repro.analysis.solver as solver
    import repro.awe.moments as moments
    import repro.awe.pade as pade
    import repro.engine.core as core
    import repro.flows.cell_flow as cell_flow
    import repro.flows.chip_flow as chip_flow
    import repro.layout.compaction as compaction
    import repro.layout.parasitics as parasitics
    import repro.layout.placer as placer
    import repro.layout.router as router
    import repro.macro.mesh as mesh
    import repro.macro.signoff as signoff
    import repro.macro.tiling as tiling
    import repro.msystem.channels as channels
    import repro.msystem.floorplan as floorplan
    import repro.msystem.global_router as global_router
    import repro.msystem.powergrid as powergrid
    import repro.opt.anneal as anneal
    import repro.synthesis.pulse_detector as pulse_detector
    import repro.synthesis.simulation_based as simulation_based

    counts = rec.counts

    def function(module, attr, name, on_result=None):
        original = getattr(module, attr)
        _replace_everywhere(original, rec.span(name, original, on_result))

    def method(cls, attr, name, on_result=None):
        setattr(cls, attr, rec.span(name, cls.__dict__[attr], on_result))

    def factor_mode(op):
        return f"analysis.factor_{op.mode}"

    def routed(out):
        routing = out[0]
        counts["layout.route.nets"] += len(routing.wires)
        counts["layout.route.failed"] += len(routing.failed)

    def signed_off(out):
        counts["macro.feasible"] += bool(out.feasible)

    function(dcop, "dc_operating_point", "analysis.dc")
    function(ac, "ac_analysis", "analysis.ac")
    method(mna.MnaSystem, "stamp_nonlinear", "analysis.stamp")
    method(mna.MnaSystem, "linear_stamps", "analysis.stamp")
    function(solver, "factorize", "analysis.factor", factor_mode)
    for attr in ("solve", "solve_transpose", "solve_adjoint"):
        method(solver.FactorizedOperator, attr, "analysis.solve")
    method(moments.MomentEngine, "moments", "awe.moments")
    function(pade, "pade_model", "awe.moments")
    method(simulation_based.SimulationEvaluator, "build_testbench",
           "circuits.testbench")
    method(simulation_based.SimulationEvaluator, "simulate",
           "synthesis.simulate")
    method(core.EvaluationEngine, "map_evaluate", "engine.map_evaluate")
    function(pulse_detector, "synthesize_pulse_detector", "synthesis.table1")
    method(placer.KoanPlacer, "run", "layout.place")
    function(router, "route_placement", "layout.route", routed)
    function(compaction, "compact_placement", "layout.compact")
    function(parasitics, "extract_parasitics", "layout.extract")
    function(tiling, "tile_macro", "macro.tile")
    function(mesh, "route_mesh", "macro.route")
    function(signoff, "signoff_mesh", "macro.signoff", signed_off)
    method(floorplan.WrightFloorplanner, "run", "msystem.floorplan")
    method(global_router.WrenGlobalRouter, "route", "msystem.global_route")
    function(channels, "route_all_channels", "msystem.channels")
    function(powergrid, "synthesize_rail", "msystem.rail")
    method(powergrid.PowerGrid, "dc_solve", "msystem.grid_dc")
    method(powergrid.PowerGrid, "transient_droop", "msystem.grid_droop")
    function(cell_flow, "layout_cell", "flows.cell")
    function(chip_flow, "assemble_chip", "flows.chip")

    # The annealer's own time excludes its cost calls: wrap the cost
    # function it is handed, so each call is a child span.
    original_anneal = anneal.anneal_continuous

    def count_evaluations(out):
        counts["opt.anneal.evaluations"] += out.evaluations

    def anneal_with_timed_cost(cost, *args, **kwargs):
        return original_anneal(rec.span("opt.cost", cost), *args, **kwargs)

    _replace_everywhere(
        original_anneal,
        rec.span("opt.anneal", anneal_with_timed_cost, count_evaluations))


#: Per-layer metrics read from spans: name -> (statistic, span name).
#: ``calls`` counts spans, ``s`` sums their durations, ``self_s`` sums
#: durations minus child spans.
SPAN_METRICS = {
    "analysis.dc.calls": ("calls", "analysis.dc"),
    "analysis.dc.s": ("s", "analysis.dc"),
    "analysis.ac.calls": ("calls", "analysis.ac"),
    "analysis.ac.s": ("s", "analysis.ac"),
    "analysis.stamp.s": ("s", "analysis.stamp"),
    "analysis.factor_dense.calls": ("calls", "analysis.factor_dense"),
    "analysis.factor_dense.s": ("s", "analysis.factor_dense"),
    "analysis.factor_sparse.calls": ("calls", "analysis.factor_sparse"),
    "analysis.factor_sparse.s": ("s", "analysis.factor_sparse"),
    "analysis.solve.calls": ("calls", "analysis.solve"),
    "analysis.solve.s": ("s", "analysis.solve"),
    "awe.moments.calls": ("calls", "awe.moments"),
    "awe.moments.s": ("s", "awe.moments"),
    "circuits.testbench.calls": ("calls", "circuits.testbench"),
    "circuits.testbench.s": ("s", "circuits.testbench"),
    "engine.map_evaluate.calls": ("calls", "engine.map_evaluate"),
    "engine.map_evaluate.self_s": ("self_s", "engine.map_evaluate"),
    "opt.anneal.calls": ("calls", "opt.anneal"),
    "opt.anneal.self_s": ("self_s", "opt.anneal"),
    "synthesis.simulate.calls": ("calls", "synthesis.simulate"),
    "synthesis.simulate.self_s": ("self_s", "synthesis.simulate"),
    "synthesis.table1.s": ("s", "synthesis.table1"),
    "layout.place.calls": ("calls", "layout.place"),
    "layout.place.s": ("s", "layout.place"),
    "layout.route.s": ("s", "layout.route"),
    "layout.compact.s": ("s", "layout.compact"),
    "layout.extract.s": ("s", "layout.extract"),
    "macro.tile.s": ("s", "macro.tile"),
    "macro.route.calls": ("calls", "macro.route"),
    "macro.route.s": ("s", "macro.route"),
    "macro.signoff.calls": ("calls", "macro.signoff"),
    "macro.signoff.s": ("s", "macro.signoff"),
    "msystem.floorplan.s": ("s", "msystem.floorplan"),
    "msystem.global_route.calls": ("calls", "msystem.global_route"),
    "msystem.global_route.s": ("s", "msystem.global_route"),
    "msystem.channels.s": ("s", "msystem.channels"),
    "msystem.rail.s": ("s", "msystem.rail"),
    "msystem.grid_dc.calls": ("calls", "msystem.grid_dc"),
    "msystem.grid_dc.s": ("s", "msystem.grid_dc"),
    "msystem.grid_droop.calls": ("calls", "msystem.grid_droop"),
    "msystem.grid_droop.s": ("s", "msystem.grid_droop"),
    "flows.cell.self_s": ("self_s", "flows.cell"),
    "flows.chip.self_s": ("self_s", "flows.chip"),
}


def layer_metrics(rec: SpanRecorder) -> dict[str, Metric]:
    """Fold the spans of timed jobs (job id >= 0; set-up and warm-ups
    excluded) into the per-layer metric table."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    keep = [i for i, job in enumerate(rec.job) if job >= 0]
    names = [rec.names[rec.name_id[i]] for i in keep]
    durations = [rec.end[i] - rec.start[i] for i in keep]
    selfs = [selfs[i] for i in keep]
    jobs = [rec.job[i] for i in keep]
    calls: Counter = Counter(names)
    total: Counter = Counter()
    self_total: Counter = Counter()
    for name, dur, own in zip(names, durations, selfs):
        total[name] += dur
        self_total[name] += own
    out: dict[str, Metric] = {}
    for metric, (stat, span) in SPAN_METRICS.items():
        n = calls[span]
        if stat == "calls":
            out[metric] = Metric(n, "count", n)
        elif stat == "s":
            out[metric] = Metric(total[span], "s", n)
        else:
            out[metric] = Metric(self_total[span], "s", n)
    c = rec.counts
    out["opt.anneal.evaluations"] = Metric(
        c["opt.anneal.evaluations"], "count", calls["opt.anneal"])
    out["layout.route.nets"] = Metric(
        c["layout.route.nets"], "count", calls["layout.route"])
    out["layout.route.failed"] = Metric(
        c["layout.route.failed"], "count", calls["layout.route"])
    signoffs = calls["macro.signoff"]
    out["macro.feasible_share"] = Metric(
        c["macro.feasible"] / signoffs if signoffs else 0.0, "ratio",
        signoffs)
    out["layout.route.congested_share"] = _congested_share(
        names, durations, jobs)
    return out


def _congested_share(names, durations, jobs) -> Metric:
    """Share of cell jobs whose routing outlasts their placement."""
    place: Counter = Counter()
    route: Counter = Counter()
    for name, dur, job in zip(names, durations, jobs):
        if name == "layout.place":
            place[job] += dur
        elif name == "layout.route":
            route[job] += dur
    cells = [job for job in place if job in route]
    congested = sum(1 for job in cells if route[job] > place[job])
    return Metric(congested / len(cells) if cells else 0.0, "ratio",
                  len(cells))

