"""Grid-track supply-mesh routing over a tiled macro array.

The OpenRAM-style back half: horizontal rail tracks on one layer,
vertical rail tracks on a second layer, vias stitching the two planes at
every crossing — upgraded from the channel/global-router idioms to
pitch- and blockage-aware *grid tracks*:

* **track assignment** spreads the requested number of rails evenly over
  the strap corridors the :class:`~repro.macro.tiling.BlockageMap`
  leaves free (the boundary corridors are always taken, forming the
  peripheral ring RAIL's grids are built around);
* **A\\* expansion** routes each rail along its nominal track and jogs
  around keepouts (sense-amp strip, decoder notch) through neighbouring
  free tracks — the detour cost keeps rails straight wherever the
  blockage map allows;
* the result is a :class:`~repro.msystem.powergrid.PowerGrid`-compatible
  segment graph: one node per (layer, track crossing), one
  :class:`~repro.msystem.powergrid.GridSegment` per rail step, one via
  segment per stitched crossing, pads at the four ring corners.

Determinism: track assignment, A\\* tie-breaking and node numbering are
all pure functions of (macro, spec) — the same mesh routes to the same
byte-identical segment graph every time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.engine.trace import count
from repro.layout.geometry import Cell, Rect
from repro.layout.gridsearch import grid_search, manhattan, move
from repro.layout.technology import LAYER_METAL1, LAYER_METAL2, LAYER_VIA1
from repro.macro.tiling import TiledMacro
from repro.msystem.powergrid import (
    SHEET_RES,
    GridSegment,
    GridTopology,
    PowerGrid,
)


class MeshRoutingError(RuntimeError):
    """The mesh cannot be routed (no legal track, or no A* path)."""


#: Via stitch equivalent: a short fat segment whose sheet resistance
#: matches one via cut (~2.5 Ohm through ``SHEET_RES``).
VIA_WIDTH_NM = 4_000
VIA_EQUIV_LENGTH_NM = int(round(2.5 * VIA_WIDTH_NM / SHEET_RES))

#: A* costs: every step costs the step itself; vertical jogs (for a
#: horizontal rail) and distance from the nominal track are penalized so
#: rails stay straight wherever the blockage map allows.
_JOG_COST = 2.0
_OFFTRACK_COST = 0.5


@dataclass(frozen=True)
class MeshSpec:
    """Design-variable view of one supply mesh.

    ``h_rails`` / ``v_rails`` are the *requested* rail counts (clamped
    to the corridors the blockage map actually offers — the achieved
    counts live on :class:`MeshResult`); the widths size every rail of
    that orientation.  Density and width are exactly the knobs
    :func:`repro.macro.signoff.optimize_mesh` anneals over.
    """

    h_rails: int
    v_rails: int
    h_width_nm: int
    v_width_nm: int

    def __post_init__(self) -> None:
        if self.h_rails < 2 or self.v_rails < 2:
            raise MeshRoutingError(
                f"a mesh needs >= 2 rails per orientation, got "
                f"{self.h_rails}x{self.v_rails}")
        if self.h_width_nm <= 0 or self.v_width_nm <= 0:
            raise MeshRoutingError(
                f"rail widths must be positive, got "
                f"{self.h_width_nm}/{self.v_width_nm}")

    def describe(self) -> dict:
        return {
            "h_rails": self.h_rails,
            "v_rails": self.v_rails,
            "h_width_nm": self.h_width_nm,
            "v_width_nm": self.v_width_nm,
        }


@dataclass
class RailRoute:
    """One routed rail: its nominal track and the A*-expanded path."""

    name: str
    orientation: str                 # "h" | "v"
    track: int
    path: list[tuple[int, int]]
    detoured: bool


@dataclass
class MeshResult:
    """A routed mesh: rails, vias, and the PowerGrid-compatible graph.

    Everything but the two rail widths is fixed by the routed track sets
    (``tracks``): the rails, the nodes and the segment graph.  A mesh
    with other widths on the same tracks is :meth:`resized` from this
    one instead of routed again, and shares all of that with it.  The
    segment objects and the layout cell are built on first access.
    """

    macro: TiledMacro
    spec: MeshSpec
    #: the routed (horizontal, vertical) track indices
    tracks: tuple[tuple[int, ...], tuple[int, ...]]
    rails: list[RailRoute]
    node_names: list[str]
    #: node index -> (layer, i, j)
    node_pos: list[tuple[str, int, int]]
    pad_nodes: list[int]
    #: every segment's (name, node_a, node_b, length_nm): the horizontal
    #: rail steps, the vertical rail steps, then the vias
    segment_table: tuple[list[str], list[int], list[int], list[int]]
    #: how many of the table's segments are horizontal / all rail steps
    h_segments: int
    rail_count: int
    blockage_violations: int = 0
    _index: dict[tuple[str, int, int], int] = field(default_factory=dict,
                                                    repr=False)
    #: grid topologies by load model, shared by the resized copies
    _grids: dict = field(default_factory=dict, repr=False, compare=False)
    _segments: list[GridSegment] | None = field(default=None, repr=False,
                                                compare=False)
    _cell: Cell | None = field(default=None, repr=False, compare=False)

    def resized(self, spec: MeshSpec) -> "MeshResult":
        """This mesh with ``spec``'s rail widths; ``spec`` must route to
        the same tracks."""
        if rail_tracks(self.macro, spec) != self.tracks:
            raise ValueError(f"{spec} does not route to the tracks "
                             f"{self.tracks} of this mesh")
        return MeshResult(self.macro, spec, self.tracks, self.rails,
                          self.node_names, self.node_pos, self.pad_nodes,
                          self.segment_table, self.h_segments,
                          self.rail_count, self.blockage_violations,
                          self._index, self._grids)

    @property
    def widths(self) -> np.ndarray:
        """Every segment's width (nm), in ``segment_table`` order."""
        n = len(self.segment_table[0])
        return np.repeat(
            np.array([self.spec.h_width_nm, self.spec.v_width_nm,
                      VIA_WIDTH_NM], dtype=np.int64),
            [self.h_segments, self.rail_count - self.h_segments,
             n - self.rail_count])

    @property
    def segments(self) -> list[GridSegment]:
        if self._segments is None:
            self._segments = [
                GridSegment(name, a, b, length, width)
                for name, a, b, length, width in zip(
                    *self.segment_table, self.widths.tolist())]
        return list(self._segments)

    @property
    def rail_segments(self) -> list[GridSegment]:
        return self.segments[:self.rail_count]

    @property
    def via_segments(self) -> list[GridSegment]:
        return self.segments[self.rail_count:]

    @property
    def vias(self) -> int:
        return len(self.segment_table[0]) - self.rail_count

    @property
    def cell(self) -> Cell:
        """The mesh's layout: one metal shape per rail step (its rail's
        width), then one via shape per stitched crossing."""
        if self._cell is None:
            macro = self.macro
            cell = Cell(f"{macro.spec.name}_mesh")
            for rail in self.rails:
                if rail.orientation == "h":
                    layer, width = LAYER_METAL1, self.spec.h_width_nm
                else:
                    layer, width = LAYER_METAL2, self.spec.v_width_nm
                half = width // 2
                for (i1, j1), (i2, j2) in zip(rail.path, rail.path[1:]):
                    x1, y1 = macro.track_xy(i1, j1)
                    x2, y2 = macro.track_xy(i2, j2)
                    cell.add_shape(layer,
                                   Rect(min(x1, x2) - half,
                                        min(y1, y2) - half,
                                        max(x1, x2) + half,
                                        max(y1, y2) + half), "vdd")
            q = VIA_WIDTH_NM // 2
            for node in self.segment_table[1][self.rail_count:]:
                x, y = macro.track_xy(*self.node_pos[node][1:])
                cell.add_shape(LAYER_VIA1, Rect(x - q, y - q, x + q, y + q),
                               "vdd")
            self._cell = cell
        return self._cell

    def metal_area(self) -> int:
        """Rail metal only — via equivalents are electrical stand-ins."""
        lengths = self.segment_table[3]
        return (sum(lengths[:self.h_segments]) * self.spec.h_width_nm
                + sum(lengths[self.h_segments:self.rail_count])
                * self.spec.v_width_nm)

    def node_at(self, layer: str, i: int, j: int) -> int | None:
        return self._index.get((layer, i, j))

    def is_fully_stitched(self) -> bool:
        """Every mesh node reaches the pads through the segment graph."""
        n = len(self.node_names)
        if n == 0:
            return False
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        _, node_a, node_b, _ = self.segment_table
        for a, b in zip(node_a, node_b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        root = find(self.pad_nodes[0])
        return all(find(k) == root for k in range(n))

    def nearest_node(self, layer: str, i: int, j: int) -> int:
        """Closest existing node on ``layer`` (deterministic ties)."""
        best = None
        for (lay, ni, nj), idx in sorted(self._index.items()):
            if lay != layer:
                continue
            d = abs(ni - i) + abs(nj - j)
            if best is None or d < best[0]:
                best = (d, idx)
        if best is None:
            raise MeshRoutingError(f"mesh has no nodes on layer {layer!r}")
        return best[1]

    def power_grid(self, macro: TiledMacro, cell_avg_a: float,
                   peak_ratio: float) -> PowerGrid:
        """The mesh as a power grid under ``macro``'s unit-cell taps.

        Each tap crossing draws ``units x cell_avg_a`` on average, and
        ``peak_ratio`` times that at its switching peak, at the nearest
        horizontal-plane node; the analog victim (``analog_nodes[0]``)
        is the loaded node farthest from the pads.  The loads and the
        :class:`~repro.msystem.powergrid.GridTopology` depend on the
        routed tracks, not on the widths, so they are built once per
        load model and shared by every resized copy of the mesh.
        """
        key = (id(macro), cell_avg_a, peak_ratio)
        entry = self._grids.get(key)
        if entry is None:
            loads, peaks, victim = self._tap_loads(macro, cell_avg_a,
                                                   peak_ratio)
            topology = GridTopology(*self.segment_table, self.node_names,
                                    self.pad_nodes, loads, peaks, [victim])
            # Holding the macro keeps its id from naming another one.
            entry = self._grids[key] = (macro, topology)
        return PowerGrid.sized(entry[1], self.widths)

    def _tap_loads(self, macro: TiledMacro, cell_avg_a: float,
                   peak_ratio: float) -> tuple[dict, dict, int]:
        loads: dict[int, float] = {}
        peaks: dict[int, float] = {}
        for (i, j), units in sorted(macro.taps.items()):
            node = self.node_at("h", i, j)
            if node is None:
                node = self.nearest_node("h", i, j)
            loads[node] = loads.get(node, 0.0) + units * cell_avg_a
            peaks[node] = peaks.get(node, 0.0) \
                + units * cell_avg_a * peak_ratio
        pad_pos = [self.node_pos[p][1:] for p in self.pad_nodes]

        def pad_distance(node: int) -> int:
            _, i, j = self.node_pos[node]
            return min(abs(i - pi) + abs(j - pj) for pi, pj in pad_pos)

        return loads, peaks, max(sorted(loads), key=pad_distance)


# ----------------------------------------------------------------------
# track assignment
# ----------------------------------------------------------------------

def assign_rail_tracks(free_tracks: list[int], requested: int) -> list[int]:
    """Spread ``requested`` rails over the free corridors.

    Boundary corridors are always taken (the ring); interior rails snap
    to the free corridor nearest their ideal uniform position, expanding
    outward when the ideal corridor is taken — the grid-track analogue
    of the left-edge track scan.  Returns the sorted chosen tracks
    (``<= requested`` when corridors run out).
    """
    if len(free_tracks) < 2:
        raise MeshRoutingError(
            f"need >= 2 free corridors for a ring, got {free_tracks}")
    tracks = sorted(free_tracks)
    chosen = {tracks[0], tracks[-1]}
    want = max(2, requested)
    span = tracks[-1] - tracks[0]
    k = 1
    while len(chosen) < min(want, len(tracks)) and k < want - 1:
        ideal = tracks[0] + (span * k) // (want - 1)
        candidates = sorted((t for t in tracks if t not in chosen),
                            key=lambda t: (abs(t - ideal), t))
        if candidates:
            chosen.add(candidates[0])
        k += 1
    return sorted(chosen)


def rail_tracks(macro: TiledMacro, spec: MeshSpec,
                ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (horizontal, vertical) tracks ``spec`` routes on: everything
    about a mesh but its widths follows from these."""
    blockages = macro.blockages
    return (tuple(assign_rail_tracks(blockages.free_h_tracks, spec.h_rails)),
            tuple(assign_rail_tracks(blockages.free_v_tracks, spec.v_rails)))


def _rail_endpoints(blockages, orientation: str,
                    track: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Endpoints for a rail: the reachable span of its nominal track.

    A keepout over an edge crossing (the sense-amp strip eats parts of
    the bottom corridor) shortens the rail rather than killing it, and a
    keepout that *disconnects* the corridor (the decoder notch on a
    small array) drops the isolated stub: the rail spans the first and
    last track crossings of the connected component holding the most of
    them (the first such component along the track on a tie).  A track
    with fewer than two connected free crossings cannot carry a rail.
    """
    labels = blockages.components
    line = (labels[:, track] if orientation == "h"
            else labels[track, :]).tolist()
    free = [k for k, label in enumerate(line) if label]
    if len(free) < 2:
        raise MeshRoutingError(
            f"{orientation}-track {track} has {len(free)} free crossings; "
            f"a rail needs at least 2")
    counts = Counter(line[k] for k in free)
    best = max(counts, key=counts.get)
    if counts[best] < 2:
        raise MeshRoutingError(
            f"{orientation}-track {track} is disconnected into stubs of "
            f"< 2 crossings; it cannot carry a rail")
    ends = [k for k in free if line[k] == best]
    if orientation == "h":
        return (ends[0], track), (ends[-1], track)
    return (track, ends[0]), (track, ends[-1])


# ----------------------------------------------------------------------
# A* rail expansion
# ----------------------------------------------------------------------

def _astar_rail(blockages, start: tuple[int, int], goal: tuple[int, int],
                nominal: int, orientation: str) -> list[tuple[int, int]]:
    """A* from start to goal over free crossings, biased to the track.

    ``nominal`` is the rail's assigned track index (a ``j`` for
    horizontal rails, an ``i`` for vertical ones); off-track crossings
    and jogs pay extra so the rail only leaves its corridor to clear a
    keepout.  Deterministic: the heap breaks ties on (g, node).
    """
    if not blockages.is_free(*start) or not blockages.is_free(*goal):
        raise MeshRoutingError(
            f"rail endpoint blocked: {start} -> {goal}")
    ny = blockages.ny
    path = grid_search({start[0] * ny + start[1]}, goal[0] * ny + goal[1],
                       _rail_moves(blockages, orientation, nominal),
                       manhattan((blockages.nx, ny), goal))
    if path is None:
        raise MeshRoutingError(
            f"no A* path for {orientation}-rail on track {nominal} "
            f"({start} -> {goal}): blockage map disconnects the corridor")
    return [divmod(k, ny) for k in path]


def _rail_moves(blockages, orientation: str,
                nominal: int) -> list[tuple[int, list]]:
    """The rail search's moves, memoized on the map
    (:attr:`~repro.macro.tiling.BlockageMap.rail_moves`) because a mesh
    anneal routes the same few tracks of one map over and over; the
    search only reads the lists it is given."""
    memo = blockages.rail_moves
    moves = memo.get((orientation, nominal))
    if moves is not None:
        return moves
    if orientation == "h":
        offtrack = np.abs(np.arange(blockages.ny) - nominal)[None, :]
        x_jog, y_jog = 0.0, _JOG_COST
    else:
        offtrack = np.abs(np.arange(blockages.nx) - nominal)[:, None]
        x_jog, y_jog = _JOG_COST, 0.0
    enter = np.where(blockages.components > 0,
                     1.0 + _OFFTRACK_COST * offtrack, np.nan)
    moves = memo[orientation, nominal] = [
        move(enter, (1, 0), x_jog), move(enter, (-1, 0), x_jog),
        move(enter, (0, 1), y_jog), move(enter, (0, -1), y_jog)]
    return moves


# ----------------------------------------------------------------------
# mesh routing
# ----------------------------------------------------------------------

def route_mesh(macro: TiledMacro, spec: MeshSpec) -> MeshResult:
    """Route the supply mesh over a tiled macro.

    Counts ``macrogen.rails_routed`` / ``macrogen.rail_detours`` /
    ``macrogen.vias`` / ``macrogen.blockage_violations`` on the active
    tracer.  Raises :class:`MeshRoutingError` when a rail cannot be
    assigned or expanded.
    """
    blockages = macro.blockages
    h_tracks, v_tracks = rail_tracks(macro, spec)

    node_names: list[str] = []
    node_pos: list[tuple[str, int, int]] = []
    index: dict[tuple[str, int, int], int] = {}

    def node(layer: str, i: int, j: int) -> int:
        key = (layer, i, j)
        idx = index.get(key)
        if idx is None:
            idx = len(node_names)
            index[key] = idx
            node_names.append(f"{layer}_{i}_{j}")
            node_pos.append(key)
        return idx

    rails: list[RailRoute] = []
    names: list[str] = []
    node_a: list[int] = []
    node_b: list[int] = []
    lengths: list[int] = []
    seen_pairs: set[tuple[int, int]] = set()
    violations = 0

    def add_segment(name: str, a: int, b: int, length: int) -> None:
        names.append(name)
        node_a.append(a)
        node_b.append(b)
        lengths.append(length)

    def route_one(orientation: str, track: int) -> None:
        nonlocal violations
        layer = "h" if orientation == "h" else "v"
        start, goal = _rail_endpoints(blockages, orientation, track)
        path = _astar_rail(blockages, start, goal, track, orientation)
        detoured = any((p[1] != track if orientation == "h"
                        else p[0] != track) for p in path)
        violations += sum(1 for p in path if not blockages.is_free(*p))
        for k in range(len(path) - 1):
            (i1, j1), (i2, j2) = path[k], path[k + 1]
            a = node(layer, i1, j1)
            b = node(layer, i2, j2)
            pair = (min(a, b), max(a, b))
            if pair in seen_pairs:
                continue  # overlapping rails share the same physical metal
            seen_pairs.add(pair)
            x1, y1 = macro.track_xy(i1, j1)
            x2, y2 = macro.track_xy(i2, j2)
            add_segment(f"{orientation}{track}_{k}", a, b,
                        max(abs(x2 - x1) + abs(y2 - y1), 1))
        rails.append(RailRoute(f"{orientation}{track}", orientation, track,
                               path, detoured))

    for track in h_tracks:
        route_one("h", track)
    h_segments = len(names)
    for track in v_tracks:
        route_one("v", track)
    rail_count = len(names)

    # Via stitching: every crossing where both planes own a node.
    for (layer, i, j), idx in sorted(index.items()):
        if layer != "h":
            continue
        other = index.get(("v", i, j))
        if other is None:
            continue
        add_segment(f"via_{i}_{j}", idx, other, VIA_EQUIV_LENGTH_NM)

    corners = [(v_tracks[0], h_tracks[0]),
               (v_tracks[-1], h_tracks[0]),
               (v_tracks[-1], h_tracks[-1]),
               (v_tracks[0], h_tracks[-1])]
    pad_nodes: list[int] = []
    for i, j in corners:
        idx = index.get(("h", i, j))
        if idx is None:
            raise MeshRoutingError(
                f"ring corner ({i}, {j}) has no horizontal-rail node")
        pad_nodes.append(idx)

    count("macrogen.rails_routed", len(rails))
    count("macrogen.rail_detours", sum(1 for r in rails if r.detoured))
    count("macrogen.vias", len(names) - rail_count)
    if violations:
        count("macrogen.blockage_violations", violations)
    result = MeshResult(macro, spec, (h_tracks, v_tracks), rails, node_names,
                        node_pos, pad_nodes, (names, node_a, node_b, lengths),
                        h_segments, rail_count,
                        blockage_violations=violations, _index=index)
    if not result.is_fully_stitched():
        raise MeshRoutingError(
            "routed mesh is not fully stitched: some rail never meets "
            "the via'd ring")
    return result
