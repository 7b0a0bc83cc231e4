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
from functools import lru_cache

import numpy as np

from repro.engine.trace import count
from repro.layout.geometry import Cell, Rect
from repro.layout.gridsearch import grid_search, manhattan, move
from repro.layout.technology import LAYER_METAL1, LAYER_METAL2, LAYER_VIA1
from repro.macro.tiling import TiledMacro
from repro.msystem.powergrid import SHEET_RES, GridSegment, PowerGrid


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
    """A routed mesh: rails, vias, and the PowerGrid-compatible graph."""

    macro: TiledMacro
    spec: MeshSpec
    rails: list[RailRoute]
    node_names: list[str]
    #: node index -> (layer, i, j)
    node_pos: list[tuple[str, int, int]]
    rail_segments: list[GridSegment]
    via_segments: list[GridSegment]
    pad_nodes: list[int]
    cell: Cell
    blockage_violations: int = 0
    _index: dict[tuple[str, int, int], int] = field(default_factory=dict,
                                                    repr=False)

    @property
    def vias(self) -> int:
        return len(self.via_segments)

    @property
    def segments(self) -> list[GridSegment]:
        return self.rail_segments + self.via_segments

    def metal_area(self) -> int:
        """Rail metal only — via equivalents are electrical stand-ins."""
        return sum(s.metal_area for s in self.rail_segments)

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

        for seg in self.segments:
            ra, rb = find(seg.node_a), find(seg.node_b)
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

    def build_power_grid(self, load_currents: dict[int, float],
                         peak_currents: dict[int, float],
                         analog_nodes: list[int],
                         vdd: float = 3.3,
                         extra_decap: dict[int, float] | None = None,
                         ) -> PowerGrid:
        """The mesh as a power grid under the given loads; builds the
        grid's :class:`~repro.msystem.powergrid.GridTopology` once."""
        return PowerGrid(self.segments, self.node_names, self.pad_nodes,
                         load_currents, peak_currents, analog_nodes, vdd,
                         extra_decap)


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


@lru_cache(maxsize=64)
def _rail_moves(blockages, orientation: str,
                nominal: int) -> list[tuple[int, list]]:
    """The rail search's moves, memoized because a mesh anneal routes the
    same few tracks of one (frozen) map over and over; the search only
    reads the lists it is given."""
    if orientation == "h":
        offtrack = np.abs(np.arange(blockages.ny) - nominal)[None, :]
        x_jog, y_jog = 0.0, _JOG_COST
    else:
        offtrack = np.abs(np.arange(blockages.nx) - nominal)[:, None]
        x_jog, y_jog = _JOG_COST, 0.0
    enter = np.where(blockages.components > 0,
                     1.0 + _OFFTRACK_COST * offtrack, np.nan)
    return [move(enter, (1, 0), x_jog), move(enter, (-1, 0), x_jog),
            move(enter, (0, 1), y_jog), move(enter, (0, -1), y_jog)]


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
    h_tracks = assign_rail_tracks(blockages.free_h_tracks, spec.h_rails)
    v_tracks = assign_rail_tracks(blockages.free_v_tracks, spec.v_rails)

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
    rail_segments: list[GridSegment] = []
    seen_pairs: set[tuple[int, int]] = set()
    violations = 0
    cell = Cell(f"{macro.spec.name}_mesh")

    def add_segment(name: str, a: int, b: int, length: int,
                    width: int) -> None:
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            return  # overlapping rails share the same physical metal
        seen_pairs.add(pair)
        rail_segments.append(GridSegment(name, a, b, max(length, 1), width))

    def route_one(orientation: str, track: int, width: int) -> None:
        nonlocal violations
        layer = "h" if orientation == "h" else "v"
        start, goal = _rail_endpoints(blockages, orientation, track)
        path = _astar_rail(blockages, start, goal, track, orientation)
        detoured = any((p[1] != track if orientation == "h"
                        else p[0] != track) for p in path)
        violations += sum(1 for p in path if not blockages.is_free(*p))
        gds_layer = LAYER_METAL1 if orientation == "h" else LAYER_METAL2
        for k in range(len(path) - 1):
            (i1, j1), (i2, j2) = path[k], path[k + 1]
            a = node(layer, i1, j1)
            b = node(layer, i2, j2)
            x1, y1 = macro.track_xy(i1, j1)
            x2, y2 = macro.track_xy(i2, j2)
            length = abs(x2 - x1) + abs(y2 - y1)
            add_segment(f"{orientation}{track}_{k}", a, b, length, width)
            half = width // 2
            cell.add_shape(gds_layer,
                           Rect(min(x1, x2) - half, min(y1, y2) - half,
                                max(x1, x2) + half, max(y1, y2) + half),
                           "vdd")
        rails.append(RailRoute(f"{orientation}{track}", orientation, track,
                               path, detoured))

    for track in h_tracks:
        route_one("h", track, spec.h_width_nm)
    for track in v_tracks:
        route_one("v", track, spec.v_width_nm)

    # Via stitching: every crossing where both planes own a node.
    via_segments: list[GridSegment] = []
    for (layer, i, j), idx in sorted(index.items()):
        if layer != "h":
            continue
        other = index.get(("v", i, j))
        if other is None:
            continue
        via_segments.append(GridSegment(
            f"via_{i}_{j}", idx, other, VIA_EQUIV_LENGTH_NM, VIA_WIDTH_NM))
        x, y = macro.track_xy(i, j)
        q = VIA_WIDTH_NM // 2
        cell.add_shape(LAYER_VIA1, Rect(x - q, y - q, x + q, y + q), "vdd")

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
    count("macrogen.vias", len(via_segments))
    if violations:
        count("macrogen.blockage_violations", violations)
    result = MeshResult(macro, spec, rails, node_names, node_pos,
                        rail_segments, via_segments, pad_nodes, cell,
                        blockage_violations=violations, _index=index)
    if not result.is_fully_stitched():
        raise MeshRoutingError(
            "routed mesh is not fully stitched: some rail never meets "
            "the via'd ring")
    return result
