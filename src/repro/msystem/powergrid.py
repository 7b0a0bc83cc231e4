"""RAIL-style mixed-signal power-grid synthesis [58, 60] — Fig. 3.

"The RAIL system addresses these concerns by casting mixed-signal power
grid synthesis as a routing problem that uses fast AWE-based linear
system evaluation to electrically model the entire power grid, package
and substrate during layout" (§3.2).

The grid topology: corner supply pads, a peripheral ring, and one strap
from every block to its nearest ring point (an arbitrary non-tree grid —
rings are exactly what digital tree-based tools could not handle).  Each
segment's width is a design variable.  Evaluation:

* **dc** — sparse nodal solve of the resistive grid with average block
  currents → worst IR drop;
* **EM** — per-segment current density against the electromigration
  limit;
* **transient** — MNA of grid (R) + decaps (C) + package (R, L) reduced
  by AWE; the worst supply droop is the peak of the reduced model's
  response to the aligned switching-current step of all digital blocks.

Synthesis minimizes metal area subject to all three constraint families —
the dc/ac/transient constraint set of the Fig. 3 redesign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.analysis import solver as _solver
from repro.awe import MomentEngine, PadeError, pade_model
from repro.engine.trace import count
from repro.msystem.blocks import BlockKind
from repro.msystem.floorplan import FloorplanResult
from repro.opt.anneal import AnnealSchedule, ContinuousSpace, anneal_continuous

SHEET_RES = 0.04          # Ohm/sq supply metal
EM_LIMIT_A_PER_M = 1e3    # ~1 mA per µm of width
PACKAGE_R = 0.05          # Ohm per pad
PACKAGE_L = 2e-9          # H per pad
DECAP_PER_AMP = 2e-9      # F of local decap per ampere of peak current
SWITCH_RISE_S = 2e-9      # digital current-edge rise time


class GridWidthError(ValueError):
    """A grid segment sized to a non-positive width.

    Historically ``resistance`` silently clamped ``width_nm`` to 1 nm,
    which turned a sizing bug into a 40 Ohm/sq segment that quietly
    dominated every IR/EM metric.  Rejection is counted as
    ``powergrid.width_rejected`` on the active tracer.
    """


@dataclass
class GridSegment:
    name: str
    node_a: int
    node_b: int
    length_nm: int
    width_nm: int

    def __post_init__(self) -> None:
        if self.width_nm <= 0:
            count("powergrid.width_rejected")
            raise GridWidthError(
                f"segment {self.name!r} has non-positive width "
                f"{self.width_nm} nm")

    @property
    def resistance(self) -> float:
        return SHEET_RES * self.length_nm / self.width_nm

    @property
    def metal_area(self) -> int:
        return self.length_nm * self.width_nm

    def em_current_limit(self) -> float:
        return EM_LIMIT_A_PER_M * (self.width_nm * 1e-9)


@dataclass
class PowerGrid:
    """Electrical model of one sized grid over a floorplan."""

    segments: list[GridSegment]
    node_names: list[str]
    pad_nodes: list[int]
    load_currents: dict[int, float]      # node -> average current (A)
    peak_currents: dict[int, float]      # node -> switching peak (A)
    analog_nodes: list[int]
    vdd: float = 3.3
    extra_decap: dict[int, float] = field(default_factory=dict)
    _dc_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    def metal_area(self) -> int:
        return sum(s.metal_area for s in self.segments)

    # ------------------------------------------------------------------
    def _segment_triplets(self, rows: list, cols: list, vals: list) -> None:
        for seg in self.segments:
            g = 1.0 / seg.resistance
            a, b = seg.node_a, seg.node_b
            rows.extend((a, b, a, b))
            cols.extend((a, b, b, a))
            vals.extend((g, g, -g, -g))

    def _conductance_matrix(self) -> sp.csc_matrix:
        n = self.n_nodes
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        self._segment_triplets(rows, cols, vals)
        for pad in self.pad_nodes:
            rows.append(pad)
            cols.append(pad)
            vals.append(1.0 / PACKAGE_R)
        return sp.csc_matrix(
            sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))

    def _widths_key(self) -> tuple:
        return tuple(seg.width_nm for seg in self.segments)

    def dc_solve(self) -> np.ndarray:
        """Node voltages with average loads (pads at vdd through R_pkg).

        A sparse nodal solve (CSC + sparse LU through the shared solver
        layer), memoized per segment sizing: the IR-drop, EM-current and
        droop-bound metrics all reuse one factorization + solve instead
        of each re-assembling and re-solving the grid from scratch.
        """
        key = self._widths_key()
        if self._dc_cache is not None and self._dc_cache[0] == key:
            return self._dc_cache[1]
        G = self._conductance_matrix()
        b = np.zeros(self.n_nodes)
        for pad in self.pad_nodes:
            b[pad] += self.vdd / PACKAGE_R
        for node, current in self.load_currents.items():
            b[node] -= current
        v = _solver.factorize(G, prefer_sparse=True).solve(b)
        self._dc_cache = (key, v)
        return v

    def ir_drops(self) -> dict[int, float]:
        v = self.dc_solve()
        return {node: self.vdd - v[node]
                for node in self.load_currents}

    def worst_ir_drop(self) -> float:
        drops = self.ir_drops()
        return max(drops.values()) if drops else 0.0

    def segment_currents(self) -> dict[str, float]:
        v = self.dc_solve()
        return {
            seg.name: abs(v[seg.node_a] - v[seg.node_b]) / seg.resistance
            for seg in self.segments
        }

    def em_violations(self) -> list[str]:
        currents = self.segment_currents()
        return [seg.name for seg in self.segments
                if currents[seg.name] > seg.em_current_limit()]

    # ------------------------------------------------------------------
    def transient_droop(self, victim: int | None = None,
                        order: int = 3) -> float:
        """Peak droop (V) at the victim node for aligned switching edges.

        Builds the (G + sC) MNA with package inductance branches, reduces
        the composite-current → victim-voltage transfer with AWE, and
        takes the worst excursion of the response to the switching-current
        ramp (modelled as a step through the ramp's dominant content).
        """
        if victim is None:
            victim = self._default_victim()
        n = self.n_nodes
        n_l = len(self.pad_nodes)
        size = n + n_l
        G = np.zeros((size, size))
        C = np.zeros((size, size))
        G[:n, :n] = self._grid_only_conductance()
        # Package branches: pad -> ideal vdd through R_pkg + L_pkg, as a
        # branch current unknown per pad.
        for k, pad in enumerate(self.pad_nodes):
            row = n + k
            G[pad, row] += 1.0   # branch current leaves the pad node
            G[row, pad] += 1.0
            G[row, row] -= PACKAGE_R
            C[row, row] -= PACKAGE_L
        for node, peak in self.peak_currents.items():
            C[node, node] += DECAP_PER_AMP * peak + 1e-12
        for node in self.analog_nodes:
            C[node, node] += 50e-12  # analog blocks carry local decap
        for node, cap in self.extra_decap.items():
            C[node, node] += cap
        b = np.zeros(size)
        total = 0.0
        for node, peak in self.peak_currents.items():
            b[node] -= peak
            total += peak
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
            # Classic AWE failure (all Padé poles unstable on this RLC
            # grid): fall back to the conservative analytic bound
            # L·di/dt through the package plus resistive drop.
            return self._droop_bound(victim)
        t = np.linspace(0.0, 100e-9, 600)
        response = model.step_response(t)
        return float(np.max(np.abs(response)))

    def _droop_bound(self, victim: int) -> float:
        """Conservative droop estimate: the smaller of the package
        L·di/dt spike and the decap-limited sag, plus resistive drop."""
        total_peak = sum(self.peak_currents.values())
        di_dt = total_peak / SWITCH_RISE_S
        l_eff = PACKAGE_L / max(len(self.pad_nodes), 1)
        c_total = sum(self.extra_decap.values()) \
            + sum(DECAP_PER_AMP * p for p in self.peak_currents.values())
        sag = total_peak * SWITCH_RISE_S / max(c_total, 1e-15)
        v = self.dc_solve()
        resistive = max(self.vdd - v[node]
                        for node in self.load_currents) if \
            self.load_currents else 0.0
        return min(l_eff * di_dt, sag) + resistive

    def _grid_only_conductance(self) -> np.ndarray:
        n = self.n_nodes
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        self._segment_triplets(rows, cols, vals)
        G = np.zeros((n, n))
        np.add.at(G, (rows, cols), vals)
        return G

    def _default_victim(self) -> int:
        if self.analog_nodes:
            return self.analog_nodes[0]
        return next(iter(self.load_currents))


# ----------------------------------------------------------------------
# grid construction from a floorplan
# ----------------------------------------------------------------------

def build_grid(floorplan: FloorplanResult,
               widths: dict[str, int] | None = None,
               default_width_nm: int = 10_000,
               vdd: float = 3.3,
               decaps: dict[str, float] | None = None) -> PowerGrid:
    """Ring + strap grid over a floorplan's blocks.

    Ring nodes: the four corners plus the projection of each block center
    onto the nearest chip edge; one strap per block.
    """
    W, Hh = floorplan.width, floorplan.height
    corners = [(0, 0), (W, 0), (W, Hh), (0, Hh)]
    node_names: list[str] = [f"pad{i}" for i in range(4)]
    node_xy: list[tuple[int, int]] = list(corners)

    def add_node(name: str, xy: tuple[int, int]) -> int:
        node_names.append(name)
        node_xy.append(xy)
        return len(node_names) - 1

    blocks = list(floorplan.placed.values())
    taps: dict[str, tuple[int, int, int]] = {}  # block -> (node, ring node)
    ring_points: list[tuple[int, int, int]] = []  # (perimeter_pos, node, -)
    for placed in blocks:
        cx, cy = placed.center
        edge_pts = {
            "bottom": (cx, 0), "top": (cx, Hh),
            "left": (0, cy), "right": (W, cy),
        }
        dists = {k: abs(cy) if k == "bottom" else (
            abs(Hh - cy) if k == "top" else (
                abs(cx) if k == "left" else abs(W - cx)))
            for k in edge_pts}
        edge = min(dists, key=dists.get)
        ring_xy = edge_pts[edge]
        ring_node = add_node(f"ring_{placed.block.name}", ring_xy)
        block_node = add_node(f"blk_{placed.block.name}", (cx, cy))
        taps[placed.block.name] = (block_node, ring_node,
                                   abs(cx - ring_xy[0])
                                   + abs(cy - ring_xy[1]))
        ring_points.append((_perimeter_pos(ring_xy, W, Hh), ring_node, 0))
    for i, corner in enumerate(corners):
        ring_points.append((_perimeter_pos(corner, W, Hh), i, 0))
    ring_points.sort()

    widths = widths or {}
    segments: list[GridSegment] = []
    perimeter = 2 * (W + Hh)
    for k in range(len(ring_points)):
        pos_a, node_a, _ = ring_points[k]
        pos_b, node_b, _ = ring_points[(k + 1) % len(ring_points)]
        length = (pos_b - pos_a) % perimeter
        if length == 0:
            length = 1
        name = f"ring_{k}"
        segments.append(GridSegment(
            name, node_a, node_b, length,
            widths.get(name, default_width_nm)))
    for block_name, (block_node, ring_node, length) in taps.items():
        name = f"strap_{block_name}"
        segments.append(GridSegment(
            name, block_node, ring_node, max(length, 1_000),
            widths.get(name, default_width_nm)))

    load = {}
    peak = {}
    analog_nodes = []
    extra_decap = {}
    decaps = decaps or {}
    for placed in blocks:
        node = taps[placed.block.name][0]
        load[node] = placed.block.supply_avg
        if placed.block.kind is BlockKind.DIGITAL:
            peak[node] = placed.block.supply_peak
        else:
            analog_nodes.append(node)
        if placed.block.name in decaps:
            extra_decap[node] = decaps[placed.block.name]
    return PowerGrid(segments, node_names, [0, 1, 2, 3], load, peak,
                     analog_nodes, vdd, extra_decap)


def _perimeter_pos(xy: tuple[int, int], w: int, h: int) -> int:
    x, y = xy
    if y == 0:
        return x
    if x == w:
        return w + y
    if y == h:
        return w + h + (w - x)
    return 2 * w + h + (h - y)


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------

@dataclass
class RailSpec:
    max_ir_drop: float = 0.1          # V at any load
    max_droop: float = 0.25           # V transient at analog victims
    min_width_nm: int = 2_000
    max_width_nm: int = 200_000


@dataclass
class RailResult:
    grid: PowerGrid
    widths: dict[str, int]
    metal_area: int
    worst_ir_drop: float
    worst_droop: float
    em_violations: list[str]
    feasible: bool
    evaluations: int


DECAP_DENSITY = 1e-3      # F/m² of decap area
DECAP_MIN, DECAP_MAX = 10e-12, 20e-9


def evaluate_grid(floorplan: FloorplanResult, widths: dict[str, int],
                  spec: RailSpec,
                  decaps: dict[str, float] | None = None,
                  ) -> tuple[PowerGrid, float, float, int]:
    grid = build_grid(floorplan, widths, decaps=decaps)
    ir = grid.worst_ir_drop()
    droop = grid.transient_droop()
    em = len(grid.em_violations())
    return grid, ir, droop, em


def synthesize_rail(floorplan: FloorplanResult,
                    spec: RailSpec | None = None,
                    seed: int = 1,
                    schedule: AnnealSchedule | None = None) -> RailResult:
    """Size every grid segment (and per-block decap) to meet dc/EM/
    transient constraints with minimum metal+decap area — the Fig. 3
    redesign loop."""
    spec = spec or RailSpec()
    template = build_grid(floorplan)
    seg_names = [seg.name for seg in template.segments]
    block_names = sorted(floorplan.placed)
    decap_names = [f"decap_{b}" for b in block_names]
    names = seg_names + decap_names
    lower = np.concatenate([
        np.full(len(seg_names), float(spec.min_width_nm)),
        np.full(len(decap_names), DECAP_MIN)])
    upper = np.concatenate([
        np.full(len(seg_names), float(spec.max_width_nm)),
        np.full(len(decap_names), DECAP_MAX)])
    space = ContinuousSpace(names, lower, upper, log_scale=True)
    evaluations = [0]
    area_norm = len(seg_names) * floorplan.width * spec.min_width_nm

    def split(point: dict[str, float]):
        widths = {k: int(point[k]) for k in seg_names}
        decaps = {b: point[f"decap_{b}"] for b in block_names}
        return widths, decaps

    def cost(point: dict[str, float]) -> float:
        evaluations[0] += 1
        widths, decaps = split(point)
        grid, ir, droop, em = evaluate_grid(floorplan, widths, spec,
                                            decaps)
        decap_area = sum(decaps.values()) / DECAP_DENSITY * 1e18  # nm²
        area_term = (grid.metal_area() + decap_area) / area_norm
        penalty = 0.0
        if ir > spec.max_ir_drop:
            penalty += 20.0 * (ir / spec.max_ir_drop - 1.0)
        if droop > spec.max_droop:
            penalty += 20.0 * (droop / spec.max_droop - 1.0)
        penalty += 5.0 * em
        return area_term + penalty

    schedule = schedule or AnnealSchedule(
        moves_per_temperature=80, cooling=0.85, max_evaluations=6000)
    # Warm start from a deliberately over-designed grid: the anneal then
    # *shrinks* metal while staying feasible, mirroring RAIL's refinement
    # of a working but wasteful grid.
    x0 = np.concatenate([
        np.full(len(seg_names), float(spec.max_width_nm) * 0.5),
        np.full(len(decap_names), DECAP_MAX * 0.5)])
    result = anneal_continuous(cost, space, schedule=schedule, seed=seed,
                               x0=x0)
    widths, decaps = split(space.to_dict(result.best_state))
    # Greedy repair: widen the segments that still violate (EM first,
    # then the highest-current segments for IR), grow decaps for droop.
    # Monotone and bounded, so it terminates; max sizing is feasible.
    stall = 0
    prev_droop = float("inf")
    for _ in range(60):
        grid, ir, droop, em = evaluate_grid(floorplan, widths, spec,
                                            decaps)
        evaluations[0] += 1
        em_names = grid.em_violations()
        if (ir <= spec.max_ir_drop and droop <= spec.max_droop
                and not em_names):
            break
        stall = stall + 1 if droop >= prev_droop * 0.98 else 0
        prev_droop = droop
        if stall >= 3:
            # Plateau (LC ringing defeats local moves): escalate to the
            # heavy-handed fix — maximum decap and much wider metal.
            stall = 0
            decaps = {b: DECAP_MAX for b in decaps}
            for name in widths:
                widths[name] = min(int(widths[name] * 2.0),
                                   spec.max_width_nm)
            continue
        if em_names:
            for name in em_names:
                widths[name] = min(int(widths[name] * 1.4),
                                   spec.max_width_nm)
        if ir > spec.max_ir_drop:
            currents = grid.segment_currents()
            for name in sorted(currents, key=currents.get,
                               reverse=True)[:3]:
                widths[name] = min(int(widths[name] * 1.4),
                                   spec.max_width_nm)
        if droop > spec.max_droop:
            # Droop is fought on two fronts: low-impedance straps so the
            # decap can actually supply the blocks, and the decap itself.
            # More decap usually helps, but with package inductance the
            # grid can ring (underdamped LC): try both directions and
            # keep whichever actually lowers the droop.
            for name in list(widths):
                if name.startswith("strap_"):
                    widths[name] = min(int(widths[name] * 1.3),
                                       spec.max_width_nm)
            up = {b: min(c * 2.0, DECAP_MAX) for b, c in decaps.items()}
            down = {b: max(c / 2.0, DECAP_MIN) for b, c in decaps.items()}
            _, _, droop_up, _ = evaluate_grid(floorplan, widths, spec, up)
            _, _, droop_dn, _ = evaluate_grid(floorplan, widths, spec,
                                              down)
            evaluations[0] += 2
            if droop_up <= min(droop_dn, droop):
                decaps = up
            elif droop_dn < droop:
                decaps = down
    # Greedy shrink: walk every width/decap down while feasibility holds
    # — the metal-minimization half of the RAIL loop.
    def is_feasible(w, d) -> bool:
        evaluations[0] += 1
        g, ir_, droop_, _ = evaluate_grid(floorplan, w, spec, d)
        return (ir_ <= spec.max_ir_drop and droop_ <= spec.max_droop
                and not g.em_violations())

    if is_feasible(widths, decaps):
        for _ in range(4):
            changed = False
            for name in seg_names:
                trial = dict(widths)
                trial[name] = max(int(widths[name] * 0.7),
                                  spec.min_width_nm)
                if trial[name] < widths[name] and \
                        is_feasible(trial, decaps):
                    widths = trial
                    changed = True
            for b in block_names:
                trial = dict(decaps)
                trial[b] = max(decaps[b] * 0.6, DECAP_MIN)
                if trial[b] < decaps[b] and is_feasible(widths, trial):
                    decaps = trial
                    changed = True
            if not changed:
                break
    grid, ir, droop, em = evaluate_grid(floorplan, widths, spec, decaps)
    em_names = grid.em_violations()
    feasible = (ir <= spec.max_ir_drop and droop <= spec.max_droop
                and not em_names)
    return RailResult(grid, widths, grid.metal_area(), ir, droop,
                      em_names, feasible, evaluations[0])


def uniform_grid_result(floorplan: FloorplanResult, width_nm: int,
                        spec: RailSpec | None = None) -> RailResult:
    """Reference point: a naive uniform-width grid (the 'before' of
    Fig. 3's redesign)."""
    spec = spec or RailSpec()
    template = build_grid(floorplan)
    widths = {seg.name: width_nm for seg in template.segments}
    grid, ir, droop, em = evaluate_grid(floorplan, widths, spec)
    em_names = grid.em_violations()
    feasible = (ir <= spec.max_ir_drop and droop <= spec.max_droop
                and not em_names)
    return RailResult(grid, widths, grid.metal_area(), ir, droop,
                      em_names, feasible, 1)
