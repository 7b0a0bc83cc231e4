"""IR/EM/droop signoff and mesh-density optimization for macro meshes.

The RAIL half of the macro flow (paper §3, Fig. 3): the routed mesh
becomes a :class:`~repro.msystem.powergrid.PowerGrid` — unit-cell supply
taps turn into node load currents, the four ring corners into package
pads — and the existing sparse ``dc_solve`` / AWE ``transient_droop``
machinery verifies the three constraint families:

* **IR drop** at every tap node against ``max_ir_drop``;
* **EM** per rail segment against each segment's width-derived limit;
* **supply droop** at the analog victim node (the tap farthest from the
  pads) against ``max_droop``.

:func:`optimize_mesh` then makes mesh *density* the design variable: the
four knobs of :class:`~repro.macro.mesh.MeshSpec` (rail counts per
orientation + rail widths) anneal through
:func:`~repro.opt.anneal.anneal_continuous`, followed by the greedy
repair + shrink passes the rail synthesizer uses, minimizing rail metal
area subject to all three families.  :func:`uniform_mesh` is the
reference point — every strap corridor railed at one conservative width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.engine.trace import count, current_tracer, span_if
from repro.macro.mesh import (
    MeshResult,
    MeshRoutingError,
    MeshSpec,
    rail_tracks,
    route_mesh,
)
from repro.macro.tiling import MacroSpec, TiledMacro, tile_macro
from repro.msystem.powergrid import PowerGrid, check_width_bounds
from repro.opt.anneal import AnnealSchedule, ContinuousSpace, anneal_continuous


@dataclass(frozen=True)
class SignoffSpec:
    """Electrical workload and limits for one macro signoff."""

    cell_avg_a: float = 1e-5        # average supply current per unit cell
    peak_ratio: float = 25.0        # switching peak = ratio x average
    max_ir_drop: float = 0.05       # V
    max_droop: float = 0.25         # V
    min_width_nm: int = 1_200
    max_width_nm: int = 20_000

    def __post_init__(self) -> None:
        check_width_bounds(self.min_width_nm, self.max_width_nm)

    def describe(self) -> dict:
        return {
            "cell_avg_a": self.cell_avg_a,
            "peak_ratio": self.peak_ratio,
            "max_ir_drop": self.max_ir_drop,
            "max_droop": self.max_droop,
            "min_width_nm": self.min_width_nm,
            "max_width_nm": self.max_width_nm,
        }


@dataclass
class MacroSignoff:
    """One signed-off mesh: the grid, its metrics, and the verdict."""

    mesh: MeshResult
    grid: PowerGrid
    metal_area: int
    worst_ir_drop: float
    worst_droop: float
    em_violations: list[str]
    feasible: bool
    evaluations: int = 1

    def summary(self) -> dict:
        return {
            "mesh": self.mesh.spec.describe(),
            "metal_area": self.metal_area,
            "worst_ir_drop": float(self.worst_ir_drop),
            "worst_droop": float(self.worst_droop),
            "em_violations": len(self.em_violations),
            "feasible": self.feasible,
            "evaluations": self.evaluations,
        }


def signoff_mesh(macro: TiledMacro, mesh: MeshResult,
                 spec: SignoffSpec | None = None) -> MacroSignoff:
    """Verify one routed mesh against all three constraint families.

    Unit-cell supply taps load the mesh (:meth:`MeshResult.power_grid`);
    droop is observed at the loaded node farthest from the pads.  Counts
    ``macrogen.signoffs`` / ``macrogen.em_violations`` on the active
    tracer.
    """
    spec = spec or SignoffSpec()
    grid = mesh.power_grid(macro, spec.cell_avg_a, spec.peak_ratio)
    ir = grid.worst_ir_drop()
    droop = grid.transient_droop(grid.analog_nodes[0])
    em = grid.em_violations()
    feasible = (ir <= spec.max_ir_drop and droop <= spec.max_droop
                and not em and mesh.blockage_violations == 0)
    count("macrogen.signoffs")
    if em:
        count("macrogen.em_violations", len(em))
    return MacroSignoff(mesh, grid, mesh.metal_area(), ir, droop, em,
                        feasible)


def _signoffs(macro: TiledMacro,
              spec: SignoffSpec) -> Callable[[MeshSpec], MacroSignoff]:
    """``signoff(mesh_spec)`` for one search over ``macro``.

    Only the tracks a spec routes on decide its mesh's rails, nodes,
    loads and grid topology, and whether it routes at all; the widths
    only size it.  So each distinct track set is routed once (its routing
    error kept), and a spec on tracks already routed re-sizes that mesh.
    """
    routed: dict[tuple, MeshResult | MeshRoutingError] = {}

    def signoff(mesh_spec: MeshSpec) -> MacroSignoff:
        tracks = rail_tracks(macro, mesh_spec)
        mesh = routed.get(tracks)
        if mesh is None:
            try:
                mesh = route_mesh(macro, mesh_spec)
            except MeshRoutingError as exc:
                mesh = exc
            routed[tracks] = mesh
        elif not isinstance(mesh, MeshRoutingError):
            mesh = mesh.resized(mesh_spec)
        if isinstance(mesh, MeshRoutingError):
            raise mesh
        return signoff_mesh(macro, mesh, spec)

    return signoff


@dataclass(frozen=True)
class _Verdict:
    """What :func:`optimize_mesh` reads of one signoff: its metrics, not
    the mesh, grid or layout cell behind them."""

    metal_area: int
    worst_ir_drop: float
    worst_droop: float
    em_violations: list[str]
    feasible: bool


def uniform_mesh(macro: TiledMacro, spec: SignoffSpec | None = None,
                 ) -> MacroSignoff:
    """Reference mesh: every strap corridor railed, one width for all.

    Scans widths geometrically from ``min_width_nm`` and returns the
    first feasible signoff (or the widest attempt, marked infeasible) —
    the 'before' picture the density optimizer has to beat.
    """
    spec = spec or SignoffSpec()
    h_all = len(macro.blockages.free_h_tracks)
    v_all = len(macro.blockages.free_v_tracks)
    signoff = _signoffs(macro, spec)
    width = spec.min_width_nm
    attempts = 0
    last = None
    while width <= spec.max_width_nm:
        last = signoff(MeshSpec(h_all, v_all, width, width))
        attempts += 1
        if last.feasible:
            break
        width = int(math.ceil(width * 1.3))
    last.evaluations = attempts
    return last


def optimize_mesh(macro: TiledMacro, spec: SignoffSpec | None = None,
                  seed: int = 1,
                  schedule: AnnealSchedule | None = None) -> MacroSignoff:
    """Minimize rail metal area over mesh density, subject to signoff.

    Anneals the four :class:`MeshSpec` knobs (log-scale, rails rounded
    to integers), then repairs any residual violation by widening /
    densifying, then greedily shrinks widths while feasibility holds —
    the same anneal/repair/shrink shape as the rail synthesizer.

    The three phases propose the same integer specs again and again;
    each distinct spec is signed off once per call, each distinct track
    set routed once, and the returned ``evaluations`` counts proposals.
    """
    spec = spec or SignoffSpec()
    schedule = schedule or AnnealSchedule(moves_per_temperature=24,
                                          cooling=0.85,
                                          max_evaluations=400)
    h_max = len(macro.blockages.free_h_tracks)
    v_max = len(macro.blockages.free_v_tracks)
    space = ContinuousSpace(
        ["h_rails", "v_rails", "h_width_nm", "v_width_nm"],
        np.array([2.0, 2.0, float(spec.min_width_nm),
                  float(spec.min_width_nm)]),
        np.array([float(h_max), float(v_max), float(spec.max_width_nm),
                  float(spec.max_width_nm)]),
        log_scale=True)
    evaluations = [0]
    area_norm = ((macro.width_nm + macro.height_nm)
                 * (h_max + v_max) * spec.min_width_nm)
    # The verdict memo keeps metrics (or the routing error), never a mesh,
    # grid or cell, and the track-set memo keeps routed meshes without
    # their cells or segment objects; only the last signoff run is held
    # whole.
    signoff = _signoffs(macro, spec)
    verdicts: dict[MeshSpec, _Verdict | MeshRoutingError] = {}
    latest: list[MacroSignoff] = []

    def evaluate(mesh_spec: MeshSpec) -> _Verdict:
        evaluations[0] += 1
        verdict = verdicts.get(mesh_spec)
        if verdict is None:
            try:
                result = signoff(mesh_spec)
            except MeshRoutingError as exc:
                verdict = exc
            else:
                latest[:] = [result]
                verdict = _Verdict(result.metal_area, result.worst_ir_drop,
                                   result.worst_droop, result.em_violations,
                                   result.feasible)
            verdicts[mesh_spec] = verdict
        if isinstance(verdict, MeshRoutingError):
            raise verdict
        return verdict

    def held(mesh_spec: MeshSpec) -> MacroSignoff | None:
        """The full signoff of ``mesh_spec``, if it is the last one run."""
        return latest[0] if latest and latest[0].mesh.spec == mesh_spec \
            else None

    def to_mesh_spec(point: dict[str, float]) -> MeshSpec:
        return MeshSpec(int(round(point["h_rails"])),
                        int(round(point["v_rails"])),
                        int(round(point["h_width_nm"])),
                        int(round(point["v_width_nm"])))

    def cost(point: dict[str, float]) -> float:
        try:
            result = evaluate(to_mesh_spec(point))
        except MeshRoutingError:
            return float("inf")
        value = result.metal_area / area_norm
        if result.worst_ir_drop > spec.max_ir_drop:
            value += 20.0 * (result.worst_ir_drop / spec.max_ir_drop - 1.0)
        if result.worst_droop > spec.max_droop:
            value += 20.0 * (result.worst_droop / spec.max_droop - 1.0)
        if result.em_violations:
            value += 30.0 * len(result.em_violations)
        return value

    x0 = np.array([float(h_max), float(v_max),
                   float(spec.max_width_nm) * 0.25,
                   float(spec.max_width_nm) * 0.25])
    anneal = anneal_continuous(cost, space, schedule=schedule, seed=seed,
                               x0=x0)
    best = to_mesh_spec(space.to_dict(anneal.best_state))

    # Repair: widen (and densify on droop) until feasible.
    current = evaluate(best)
    kept = held(best)
    for _ in range(12):
        if current.feasible:
            break
        h_rails, v_rails = best.h_rails, best.v_rails
        h_w, v_w = best.h_width_nm, best.v_width_nm
        if current.em_violations or \
                current.worst_ir_drop > spec.max_ir_drop:
            h_w = min(int(h_w * 1.4), spec.max_width_nm)
            v_w = min(int(v_w * 1.4), spec.max_width_nm)
        if current.worst_droop > spec.max_droop:
            h_rails = min(h_rails + 1, h_max)
            v_rails = min(v_rails + 1, v_max)
            h_w = min(int(h_w * 1.2), spec.max_width_nm)
            v_w = min(int(v_w * 1.2), spec.max_width_nm)
        trial = MeshSpec(h_rails, v_rails, h_w, v_w)
        if trial == best:
            break
        best = trial
        current = evaluate(best)
        kept = held(best)

    # Shrink: greedily narrow each width while signoff holds.
    if current.feasible:
        changed = True
        while changed:
            changed = False
            for knob in ("h_width_nm", "v_width_nm"):
                params = best.describe()
                narrower = max(int(params[knob] * 0.8), spec.min_width_nm)
                if narrower >= params[knob]:
                    continue
                params[knob] = narrower
                trial_spec = MeshSpec(**params)
                trial = evaluate(trial_spec)
                if trial.feasible:
                    best, current, changed = trial_spec, trial, True
                    kept = held(best)

    # The final spec's signoff is kept whenever it was run when accepted;
    # otherwise (the memo answered for it) it is run again, and that run
    # is not an evaluation.
    result = kept if kept is not None else signoff(best)
    result.evaluations = evaluations[0]
    return result


def macro_flow(spec: MacroSpec, mesh_spec: MeshSpec | None = None,
               signoff_spec: SignoffSpec | None = None,
               optimize: bool = False, seed: int = 1,
               tracer=None) -> dict:
    """End-to-end traced macro flow: tile -> route -> signoff.

    With ``optimize=True`` the mesh density is annealed instead of taken
    from ``mesh_spec``.  Emits a ``macro_flow`` root span with
    ``tile`` / ``route`` / ``signoff`` (or ``optimize``) children and
    returns a flat summary dict (the serve workload's result shape).
    """
    tracer = tracer if tracer is not None else current_tracer()
    signoff_spec = signoff_spec or SignoffSpec()
    with span_if(tracer, "macro_flow"):
        with span_if(tracer, "tile"):
            macro = tile_macro(spec)
        if optimize:
            with span_if(tracer, "optimize"):
                result = optimize_mesh(macro, signoff_spec, seed=seed)
        else:
            mesh_spec = mesh_spec or MeshSpec(
                max(2, len(macro.blockages.free_h_tracks) - 1),
                max(2, len(macro.blockages.free_v_tracks) - 1),
                4_000, 4_000)
            with span_if(tracer, "route"):
                mesh = route_mesh(macro, mesh_spec)
            with span_if(tracer, "signoff"):
                result = signoff_mesh(macro, mesh, signoff_spec)
    out = result.summary()
    out["macro"] = spec.describe()
    out["rails"] = len(result.mesh.rails)
    out["vias"] = result.mesh.vias
    out["blockage_violations"] = result.mesh.blockage_violations
    return out
