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

Only widths and decaps change between the candidates of one synthesis,
so everything else is built once per grid graph in a
:class:`GridTopology`: the segment and load index arrays, and the sparsity
patterns of the DC matrix and the droop MNA with each stamp's slot.  A
candidate :class:`PowerGrid` is then a width vector plus a decap map, and
its matrices and metrics are array expressions over the shared arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: Time points (s) at which the droop's step response is sampled.
DROOP_TIMES = np.linspace(0.0, 100e-9, 600)
DROOP_TIMES.flags.writeable = False

#: One segment's conductance stamps, in triplet order: (a, a), (b, b),
#: (a, b), (b, a) carry g, g, -g, -g.
_STAMP_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


class GridWidthError(ValueError):
    """A grid segment sized to a non-positive width.

    Historically ``resistance`` silently clamped ``width_nm`` to 1 nm,
    which turned a sizing bug into a 40 Ohm/sq segment that quietly
    dominated every IR/EM metric.  Rejection is counted as
    ``powergrid.width_rejected`` on the active tracer.
    """


def _reject_width(name: str, width) -> None:
    count("powergrid.width_rejected")
    raise GridWidthError(
        f"segment {name!r} has non-positive width {width} nm")


@dataclass
class GridSegment:
    name: str
    node_a: int
    node_b: int
    length_nm: int
    width_nm: int

    def __post_init__(self) -> None:
        if self.width_nm <= 0:
            _reject_width(self.name, self.width_nm)

    @property
    def resistance(self) -> float:
        return SHEET_RES * self.length_nm / self.width_nm

    @property
    def metal_area(self) -> int:
        return self.length_nm * self.width_nm

    def em_current_limit(self) -> float:
        return EM_LIMIT_A_PER_M * (self.width_nm * 1e-9)


def _csc_pattern(rows: np.ndarray, cols: np.ndarray, n: int):
    """Canonical CSC pattern of ``(rows, cols)`` triplets, plus the slot
    of each triplet in the pattern's data array.

    ``np.bincount(slot, weights=vals)`` sums duplicate triplets in input
    order, as scipy's COO→CSC conversion does for columns of fewer than
    16 triplets (a node with at most 7 segments).
    """
    keys = cols * n + rows
    unique, slot = np.unique(keys, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
    return (unique % n).astype(np.int32), indptr, slot, unique


class GridTopology:
    """Everything about one grid that its segment widths and decaps do not
    change, as arrays built once.

    Holds the segment endpoint and length arrays; the pad, load, peak and
    analog nodes with their currents; the DC matrix's CSC pattern and the
    droop MNA's pattern (package branches included), each with the slot
    of every conductance stamp; and the two right-hand sides.  Every
    :class:`PowerGrid` sized over the topology shares these arrays.
    """

    def __init__(self, names: list[str], node_a, node_b, length_nm,
                 node_names: list[str], pad_nodes: list[int],
                 load_currents: dict[int, float],
                 peak_currents: dict[int, float],
                 analog_nodes: list[int], vdd: float = 3.3):
        self.names = list(names)
        self.node_names = list(node_names)
        self.pad_nodes = list(pad_nodes)
        self.load_currents = dict(load_currents)
        self.peak_currents = dict(peak_currents)
        self.analog_nodes = list(analog_nodes)
        self.vdd = vdd
        n = self.n_nodes = len(self.node_names)
        a = self.node_a = np.array(node_a, dtype=np.int64)
        b = self.node_b = np.array(node_b, dtype=np.int64)
        self.length_nm = np.array(length_nm, dtype=np.int64)
        pads = np.array(self.pad_nodes, dtype=np.int64)
        self.load_index = np.fromiter(self.load_currents, np.int64,
                                      len(self.load_currents))
        peak_index = np.fromiter(self.peak_currents, np.int64,
                                 len(self.peak_currents))
        peaks = np.fromiter(self.peak_currents.values(), float,
                            len(self.peak_currents))

        # DC matrix: every segment's four stamps, then each pad's package
        # conductance on the diagonal.
        seg_rows = np.stack([a, b, a, b], axis=1).ravel()
        seg_cols = np.stack([a, b, b, a], axis=1).ravel()
        self.dc_indices, self.dc_indptr, self.dc_slot, _ = _csc_pattern(
            np.concatenate([seg_rows, pads]),
            np.concatenate([seg_cols, pads]), n)
        self.pad_stamps = np.full(len(pads), 1.0 / PACKAGE_R)
        rhs = np.zeros(n)
        np.add.at(rhs, pads, self.vdd / PACKAGE_R)
        rhs[self.load_index] -= np.fromiter(self.load_currents.values(),
                                            float, len(self.load_currents))
        self.dc_rhs = rhs

        # Droop MNA: the segment stamps, then one branch-current unknown
        # per pad (pad -> ideal vdd through R_pkg + L_pkg).
        size = self.droop_size = n + len(pads)
        branch = np.arange(n, size)
        (self.droop_indices, self.droop_indptr, self.droop_slot,
         keys) = _csc_pattern(
            np.concatenate([seg_rows, pads, branch, branch]),
            np.concatenate([seg_cols, branch, pads, branch]), size)
        self.branch_stamps = np.concatenate([
            np.ones(2 * len(pads)), np.full(len(pads), -PACKAGE_R)])
        # The storage solver.factorize picks for this matrix held dense.
        self.droop_sparse = (
            size >= _solver.SPARSE_SIZE_THRESHOLD
            and len(keys) <= _solver.SPARSE_DENSITY_THRESHOLD * size * size)
        self.droop_flat = (keys % size) * size + keys // size
        cap = np.zeros(size)
        cap[branch] -= PACKAGE_L
        cap[peak_index] += DECAP_PER_AMP * peaks + 1e-12
        # Analog blocks carry local decap.
        np.add.at(cap, np.array(self.analog_nodes, dtype=np.int64), 50e-12)
        self.droop_cap = cap
        rhs = np.zeros(size)
        rhs[peak_index] -= peaks
        self.droop_rhs = rhs
        self.peak_total = sum(self.peak_currents.values(), 0.0)
        # Shared by every sized grid and handed to the solvers as is.
        for shared in (self.node_a, self.node_b, self.length_nm,
                       self.dc_rhs, self.droop_cap, self.droop_rhs):
            shared.flags.writeable = False


class PowerGrid:
    """Electrical model of one sized grid over a floorplan.

    ``PowerGrid(segments, node_names, pad_nodes, ...)`` builds its own
    :class:`GridTopology`; :meth:`sized` sizes an existing topology
    without building any segment objects.
    """

    def __init__(self, segments: list[GridSegment], node_names: list[str],
                 pad_nodes: list[int], load_currents: dict[int, float],
                 peak_currents: dict[int, float], analog_nodes: list[int],
                 vdd: float = 3.3,
                 extra_decap: dict[int, float] | None = None):
        segments = list(segments)
        topology = GridTopology(
            [s.name for s in segments], [s.node_a for s in segments],
            [s.node_b for s in segments], [s.length_nm for s in segments],
            node_names, pad_nodes, load_currents, peak_currents,
            analog_nodes, vdd)
        self._size(topology, [s.width_nm for s in segments], extra_decap)
        self._segments = segments

    @classmethod
    def sized(cls, topology: GridTopology, widths,
              extra_decap: dict[int, float] | None = None) -> PowerGrid:
        """A grid over ``topology`` with per-segment ``widths`` (nm, in
        ``topology.names`` order) and extra decap (F) per node."""
        grid = cls.__new__(cls)
        grid._size(topology, widths, extra_decap)
        grid._segments = None
        return grid

    def _size(self, topology: GridTopology, widths,
              extra_decap: dict[int, float] | None) -> None:
        widths = np.asarray(widths)
        bad = np.flatnonzero(widths <= 0)
        if bad.size:
            _reject_width(topology.names[bad[0]], widths[bad[0]])
        top = self.topology = topology
        # The topology's fields, shared by every grid sized over it.
        self.node_names, self.pad_nodes = top.node_names, top.pad_nodes
        self.load_currents = top.load_currents
        self.peak_currents = top.peak_currents
        self.analog_nodes, self.vdd = top.analog_nodes, top.vdd
        self.n_nodes = top.n_nodes
        self.widths = widths
        self.extra_decap = dict(extra_decap or {})
        self._resistance = SHEET_RES * top.length_nm / widths
        self._dc_cache: np.ndarray | None = None

    @property
    def segments(self) -> list[GridSegment]:
        """The segments as objects, built on first use for a grid that
        was sized from a topology."""
        if self._segments is None:
            top = self.topology
            self._segments = [
                GridSegment(name, a, b, length, width)
                for name, a, b, length, width in zip(
                    top.names, top.node_a.tolist(), top.node_b.tolist(),
                    top.length_nm.tolist(), self.widths.tolist())]
        return self._segments

    def metal_area(self) -> int:
        return (self.topology.length_nm @ self.widths).item()

    # ------------------------------------------------------------------
    def _segment_stamps(self) -> np.ndarray:
        g = 1.0 / self._resistance
        return (g[:, None] * _STAMP_SIGNS).ravel()

    def conductance_matrix(self) -> sp.csc_matrix:
        """The DC nodal matrix: segment conductances plus each pad's
        package conductance, in canonical CSC form."""
        top = self.topology
        data = np.bincount(
            top.dc_slot,
            weights=np.concatenate([self._segment_stamps(), top.pad_stamps]),
            minlength=len(top.dc_indices))
        return sp.csc_matrix((data, top.dc_indices, top.dc_indptr),
                             shape=(top.n_nodes, top.n_nodes))

    def dc_solve(self) -> np.ndarray:
        """Node voltages with average loads (pads at vdd through R_pkg).

        A sparse nodal solve (CSC + sparse LU through the shared solver
        layer), memoized: the IR-drop, EM-current and droop-bound metrics
        all reuse one factorization + solve.
        """
        if self._dc_cache is None:
            self._dc_cache = _solver.factorize(
                self.conductance_matrix(),
                prefer_sparse=True).solve(self.topology.dc_rhs)
        return self._dc_cache

    def _ir_drops(self) -> np.ndarray:
        return self.vdd - self.dc_solve()[self.topology.load_index]

    def ir_drops(self) -> dict[int, float]:
        return dict(zip(self.load_currents, self._ir_drops()))

    def worst_ir_drop(self) -> float:
        drops = self._ir_drops()
        return drops.max() if drops.size else 0.0

    def _currents(self) -> np.ndarray:
        v = self.dc_solve()
        top = self.topology
        return np.abs(v[top.node_a] - v[top.node_b]) / self._resistance

    def segment_currents(self) -> dict[str, float]:
        return dict(zip(self.topology.names, self._currents()))

    def em_violations(self) -> list[str]:
        limits = EM_LIMIT_A_PER_M * (self.widths * 1e-9)
        names = self.topology.names
        return [names[k]
                for k in np.flatnonzero(self._currents() > limits)]

    # ------------------------------------------------------------------
    def _droop_conductance(self):
        """The droop MNA's G: dense, or CSC where factorize would pick
        sparse storage anyway."""
        top = self.topology
        data = np.bincount(
            top.droop_slot,
            weights=np.concatenate([self._segment_stamps(),
                                    top.branch_stamps]),
            minlength=len(top.droop_indices))
        size = top.droop_size
        if top.droop_sparse:
            return sp.csc_matrix((data, top.droop_indices, top.droop_indptr),
                                 shape=(size, size))
        G = np.zeros(size * size)
        G[top.droop_flat] = data
        return G.reshape(size, size)

    def _droop_capacitance(self) -> np.ndarray:
        cap = self.topology.droop_cap.copy()
        if self.extra_decap:
            cap[list(self.extra_decap)] += list(self.extra_decap.values())
        return np.diag(cap)

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
        if self.topology.peak_total == 0.0:
            return 0.0
        engine = MomentEngine(self._droop_conductance(),
                              self._droop_capacitance(),
                              self.topology.droop_rhs)
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
        response = model.step_response(DROOP_TIMES)
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

    def _default_victim(self) -> int:
        if self.analog_nodes:
            return self.analog_nodes[0]
        return next(iter(self.load_currents))


# ----------------------------------------------------------------------
# grid construction from a floorplan
# ----------------------------------------------------------------------

def _rail_topology(floorplan: FloorplanResult, vdd: float = 3.3,
                   ) -> tuple[GridTopology, dict[str, int]]:
    """Ring + strap grid over a floorplan's blocks, and each block's node.

    Ring nodes: the four corners plus the projection of each block center
    onto the nearest chip edge; one strap per block.
    """
    W, Hh = floorplan.width, floorplan.height
    corners = [(0, 0), (W, 0), (W, Hh), (0, Hh)]
    node_names: list[str] = [f"pad{i}" for i in range(4)]

    def add_node(name: str) -> int:
        node_names.append(name)
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
        ring_node = add_node(f"ring_{placed.block.name}")
        block_node = add_node(f"blk_{placed.block.name}")
        taps[placed.block.name] = (block_node, ring_node,
                                   abs(cx - ring_xy[0])
                                   + abs(cy - ring_xy[1]))
        ring_points.append((_perimeter_pos(ring_xy, W, Hh), ring_node, 0))
    for i, corner in enumerate(corners):
        ring_points.append((_perimeter_pos(corner, W, Hh), i, 0))
    ring_points.sort()

    names: list[str] = []
    ends: list[tuple[int, int, int]] = []   # (node_a, node_b, length)
    perimeter = 2 * (W + Hh)
    for k in range(len(ring_points)):
        pos_a, node_a, _ = ring_points[k]
        pos_b, node_b, _ = ring_points[(k + 1) % len(ring_points)]
        length = (pos_b - pos_a) % perimeter
        names.append(f"ring_{k}")
        ends.append((node_a, node_b, length or 1))
    for block_name, (block_node, ring_node, length) in taps.items():
        names.append(f"strap_{block_name}")
        ends.append((block_node, ring_node, max(length, 1_000)))

    load = {}
    peak = {}
    analog_nodes = []
    block_nodes = {}
    for placed in blocks:
        node = block_nodes[placed.block.name] = taps[placed.block.name][0]
        load[node] = placed.block.supply_avg
        if placed.block.kind is BlockKind.DIGITAL:
            peak[node] = placed.block.supply_peak
        else:
            analog_nodes.append(node)
    node_a, node_b, lengths = zip(*ends)
    topology = GridTopology(names, node_a, node_b, lengths, node_names,
                            [0, 1, 2, 3], load, peak, analog_nodes, vdd)
    return topology, block_nodes


def _block_decaps(block_nodes: dict[str, int],
                  decaps: dict[str, float]) -> dict[int, float]:
    return {node: decaps[name] for name, node in block_nodes.items()
            if name in decaps}


def build_grid(floorplan: FloorplanResult,
               widths: dict[str, int] | None = None,
               default_width_nm: int = 10_000,
               vdd: float = 3.3,
               decaps: dict[str, float] | None = None) -> PowerGrid:
    """Ring + strap grid over a floorplan's blocks, sized by segment name
    (``default_width_nm`` for the rest), with per-block decaps."""
    topology, block_nodes = _rail_topology(floorplan, vdd)
    widths = widths or {}
    return PowerGrid.sized(
        topology, [widths.get(name, default_width_nm)
                   for name in topology.names],
        _block_decaps(block_nodes, decaps or {}))


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

    def __post_init__(self) -> None:
        check_width_bounds(self.min_width_nm, self.max_width_nm)


def check_width_bounds(min_width_nm: int, max_width_nm: int) -> None:
    """Reject a width range a sizer cannot search: ``ValueError`` unless
    ``0 < min_width_nm <= max_width_nm``."""
    if not 0 < min_width_nm <= max_width_nm:
        raise ValueError(
            f"need 0 < min_width_nm <= max_width_nm, got "
            f"min_width_nm={min_width_nm}, max_width_nm={max_width_nm}")


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


def _grid_metrics(grid: PowerGrid) -> tuple[float, float, int]:
    ir = grid.worst_ir_drop()
    droop = grid.transient_droop()
    em = len(grid.em_violations())
    return ir, droop, em


def evaluate_grid(floorplan: FloorplanResult, widths: dict[str, int],
                  spec: RailSpec,
                  decaps: dict[str, float] | None = None,
                  ) -> tuple[PowerGrid, float, float, int]:
    grid = build_grid(floorplan, widths, decaps=decaps)
    return (grid, *_grid_metrics(grid))


def _rail_result(grid: PowerGrid, widths: dict[str, int], spec: RailSpec,
                 evaluations: int) -> RailResult:
    ir, droop = grid.worst_ir_drop(), grid.transient_droop()
    em_names = grid.em_violations()
    feasible = (ir <= spec.max_ir_drop and droop <= spec.max_droop
                and not em_names)
    return RailResult(grid, widths, grid.metal_area(), ir, droop,
                      em_names, feasible, evaluations)


def synthesize_rail(floorplan: FloorplanResult,
                    spec: RailSpec | None = None,
                    seed: int = 1,
                    schedule: AnnealSchedule | None = None) -> RailResult:
    """Size every grid segment (and per-block decap) to meet dc/EM/
    transient constraints with minimum metal+decap area — the Fig. 3
    redesign loop."""
    spec = spec or RailSpec()
    topology, block_nodes = _rail_topology(floorplan)
    seg_names = topology.names
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

    def sized(widths: list[int], decaps: dict[str, float]) -> PowerGrid:
        return PowerGrid.sized(topology, widths,
                               _block_decaps(block_nodes, decaps))

    def evaluate(widths: dict[str, int], decaps: dict[str, float]):
        grid = sized([widths[name] for name in seg_names], decaps)
        return (grid, *_grid_metrics(grid))

    def decaps_of(point: dict[str, float]) -> dict[str, float]:
        return {b: point[f"decap_{b}"] for b in block_names}

    def cost(point: dict[str, float]) -> float:
        evaluations[0] += 1
        decaps = decaps_of(point)
        grid = sized([int(point[k]) for k in seg_names], decaps)
        ir, droop, em = _grid_metrics(grid)
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
    best = space.to_dict(result.best_state)
    widths = {k: int(best[k]) for k in seg_names}
    decaps = decaps_of(best)
    # Greedy repair: widen the segments that still violate (EM first,
    # then the highest-current segments for IR), grow decaps for droop.
    # Monotone and bounded, so it terminates; max sizing is feasible.
    stall = 0
    prev_droop = float("inf")
    for _ in range(60):
        grid, ir, droop, em = evaluate(widths, decaps)
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
            _, _, droop_up, _ = evaluate(widths, up)
            _, _, droop_dn, _ = evaluate(widths, down)
            evaluations[0] += 2
            if droop_up <= min(droop_dn, droop):
                decaps = up
            elif droop_dn < droop:
                decaps = down
    # Greedy shrink: walk every width/decap down while feasibility holds
    # — the metal-minimization half of the RAIL loop.
    def is_feasible(w, d) -> bool:
        evaluations[0] += 1
        g, ir_, droop_, _ = evaluate(w, d)
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
    return _rail_result(sized([widths[name] for name in seg_names], decaps),
                        widths, spec, evaluations[0])


def uniform_grid_result(floorplan: FloorplanResult, width_nm: int,
                        spec: RailSpec | None = None) -> RailResult:
    """Reference point: a naive uniform-width grid (the 'before' of
    Fig. 3's redesign)."""
    spec = spec or RailSpec()
    grid = build_grid(floorplan, default_width_nm=width_nm)
    widths = {name: width_nm for name in grid.topology.names}
    return _rail_result(grid, widths, spec, 1)
