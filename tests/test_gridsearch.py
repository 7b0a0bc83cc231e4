"""The three routers' grid searches: reference differentials and pinned routes.

Two kinds of test hold the routers' results fixed:

* **Differential tests.**  ``RefAnagram``, ``ref_rail_endpoints`` /
  ``ref_astar_rail`` and ``RefWren`` are copies of the hand-written
  per-router searches (sets, dicts and one heap loop each) that
  :mod:`repro.layout.gridsearch` replaced.  Hypothesis builds small random
  grids and asserts that the routers return the same path, or fail with
  the same error, as the reference.
* **Pinned digests** of whole flows: cell-layout routes and GDS bytes,
  supply meshes, and WREN global routes.
"""

from __future__ import annotations

import hashlib
import heapq
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.geometry import Rect
from repro.layout.router import (
    NEUTRAL,
    NOISY,
    SENSITIVE,
    AnagramRouter,
    RoutedWire,
    RoutingError,
    RoutingRequest,
)
from repro.layout.technology import LAYER_METAL1, LAYER_METAL2, LAYER_POLY
from repro.macro import mesh
from repro.macro.mesh import MeshRoutingError
from repro.macro.tiling import BlockageMap
from repro.msystem.blocks import Block, BlockKind, PlacedBlock, SignalNet
from repro.msystem.floorplan import FloorplanResult
from repro.msystem.global_router import GlobalRoutingError, WrenGlobalRouter

_INCOMPATIBLE = {(NOISY, SENSITIVE), (SENSITIVE, NOISY)}
_M1, _M2 = 0, 1
CLASSES = (NEUTRAL, NOISY, SENSITIVE)


def _outcome(fn, *args):
    """The call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (RoutingError, MeshRoutingError, GlobalRoutingError) as exc:
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# ANAGRAM reference: the router's search on a blocked-cell set and
# occupancy dicts, with its own route_net and commit.
# ---------------------------------------------------------------------------

class RefAnagram:
    def __init__(self, router: AnagramRouter, obstacles_m1: list[Rect]):
        self.tech = router.tech
        self.pitch = router.pitch
        self.area = router.area
        self.nx, self.ny = router.nx, router.ny
        self.via_cost = router.via_cost
        self.wrong_way_cost = router.wrong_way_cost
        self.crosstalk_cost = router.crosstalk_cost
        self.cap_overrun_cost = router.cap_overrun_cost
        self.to_grid = router.to_grid
        self.to_coord = router.to_coord
        self.occupancy: list[dict[tuple[int, int], tuple[str, str]]] = [
            {}, {}]
        self.blocked_m1: set[tuple[int, int]] = set()
        for rect in obstacles_m1:
            self._block(rect)

    def _block(self, rect: Rect) -> None:
        gx1, gy1 = self.to_grid(rect.x1 - self.pitch // 2,
                                rect.y1 - self.pitch // 2)
        gx2, gy2 = self.to_grid(rect.x2 + self.pitch // 2,
                                rect.y2 + self.pitch // 2)
        for ix in range(gx1, gx2 + 1):
            for iy in range(gy1, gy2 + 1):
                self.blocked_m1.add((ix, iy))

    def _cell_cost(self, layer: int, ix: int, iy: int, net: str,
                   net_class: str) -> float | None:
        """Cost of occupying a cell, or None if unusable."""
        if layer == _M1 and (ix, iy) in self.blocked_m1:
            return None
        occupant = self.occupancy[layer].get((ix, iy))
        if occupant is not None and occupant[0] != net:
            return None
        cost = 1.0
        # Crosstalk: adjacency to incompatible-class wires on any layer.
        for other_layer in (_M1, _M2):
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                neighbour = self.occupancy[other_layer].get(
                    (ix + dx, iy + dy))
                if neighbour is None or neighbour[0] == net:
                    continue
                if (net_class, neighbour[1]) in _INCOMPATIBLE:
                    cost += self.crosstalk_cost
        return cost

    def _astar(self, sources: set[tuple[int, int, int]],
               targets: set[tuple[int, int, int]], net: str,
               net_class: str, cap_state: float,
               cap_bound: float | None) -> list[tuple[int, int, int]] | None:
        """Multi-source/multi-target A* over (layer, ix, iy) states."""
        target_cells = {(ix, iy) for _, ix, iy in targets}

        def h(ix: int, iy: int) -> float:
            return min(abs(ix - tx) + abs(iy - ty)
                       for tx, ty in target_cells)

        open_heap: list[tuple[float, float, tuple[int, int, int],
                              tuple[int, int, int] | None]] = []
        best: dict[tuple[int, int, int], float] = {}
        parent: dict[tuple[int, int, int], tuple[int, int, int] | None] = {}
        cap_per_cell = self.tech.wire_capacitance(
            self.pitch, self.tech.min_width_metal)
        for state in sources:
            best[state] = 0.0
            parent[state] = None
            heapq.heappush(open_heap, (h(state[1], state[2]), 0.0,
                                       state, None))
        while open_heap:
            f, g, state, par = heapq.heappop(open_heap)
            if g > best.get(state, float("inf")):
                continue
            layer, ix, iy = state
            if state in targets:
                return self._backtrace(state, parent)
            for nstate, step in self._neighbours(state):
                nlayer, nx_, ny_ = nstate
                if not (0 <= nx_ < self.nx and 0 <= ny_ < self.ny):
                    continue
                cell = self._cell_cost(nlayer, nx_, ny_, net, net_class)
                if cell is None:
                    continue
                move = cell + step
                if cap_bound is not None:
                    projected = cap_state + (g + move) * cap_per_cell
                    if projected > cap_bound:
                        move += self.cap_overrun_cost
                ng = g + move
                if ng < best.get(nstate, float("inf")):
                    best[nstate] = ng
                    parent[nstate] = state
                    heapq.heappush(open_heap,
                                   (ng + h(nx_, ny_), ng, nstate, state))
        return None

    def _neighbours(self, state: tuple[int, int, int]):
        layer, ix, iy = state
        # Preferred direction costs: m1 horizontal, m2 vertical.
        if layer == _M1:
            yield (layer, ix + 1, iy), 0.0
            yield (layer, ix - 1, iy), 0.0
            yield (layer, ix, iy + 1), self.wrong_way_cost
            yield (layer, ix, iy - 1), self.wrong_way_cost
        else:
            yield (layer, ix, iy + 1), 0.0
            yield (layer, ix, iy - 1), 0.0
            yield (layer, ix + 1, iy), self.wrong_way_cost
            yield (layer, ix - 1, iy), self.wrong_way_cost
        yield ((1 - layer), ix, iy), self.via_cost

    @staticmethod
    def _backtrace(state, parent):
        path = [state]
        while parent[state] is not None:
            state = parent[state]
            path.append(state)
        path.reverse()
        return path

    def route_net(self, request: RoutingRequest) -> RoutedWire:
        if len(request.pins) < 2:
            raise RoutingError(f"net {request.net!r} has fewer than 2 pins")
        pin_states = []
        for x, y, layer in request.pins:
            ix, iy = self.to_grid(x, y)
            glayer = _M1 if layer in (LAYER_METAL1, LAYER_POLY) else _M2
            pin_states.append((glayer, ix, iy))
            # Pins may sit on blocked cells (they are on the device).
            self.blocked_m1.discard((ix, iy))
        tree: set[tuple[int, int, int]] = {pin_states[0]}
        all_cells: list[tuple[int, int, int]] = [pin_states[0]]
        cap_per_cell = self.tech.wire_capacitance(
            self.pitch, self.tech.min_width_metal)
        cap_state = 0.0
        for pin in pin_states[1:]:
            if pin in tree:
                continue
            path = self._astar(tree, {pin}, request.net,
                               request.net_class, cap_state,
                               request.cap_bound)
            if path is None:
                raise RoutingError(
                    f"net {request.net!r}: no path to pin at "
                    f"{self.to_coord(pin[1], pin[2])}")
            for state in path:
                if state not in tree:
                    tree.add(state)
                    all_cells.append(state)
            cap_state += len(path) * cap_per_cell
        return self._commit(request, all_cells)

    def _commit(self, request: RoutingRequest,
                cells: list[tuple[int, int, int]]) -> RoutedWire:
        segments = []
        vias = []
        for layer, ix, iy in cells:
            self.occupancy[layer][(ix, iy)] = (request.net,
                                               request.net_class)
        cell_set = set(cells)
        for layer, ix, iy in cells:
            x, y = self.to_coord(ix, iy)
            if (layer, ix + 1, iy) in cell_set:
                x2, _ = self.to_coord(ix + 1, iy)
                segments.append((x, y, x2, y, layer))
            if (layer, ix, iy + 1) in cell_set:
                _, y2 = self.to_coord(ix, iy + 1)
                segments.append((x, y, x, y2, layer))
            if ((1 - layer), ix, iy) in cell_set and layer == _M1:
                vias.append((x, y))
        length = sum(abs(x2 - x1) + abs(y2 - y1)
                     for x1, y1, x2, y2, _ in segments)
        cap = self.tech.wire_capacitance(length, self.tech.min_width_metal)
        return RoutedWire(request.net, request.net_class, segments, vias,
                          length, cap)


# ---------------------------------------------------------------------------
# Mesh reference: BFS components along a track and the rail A*.
# ---------------------------------------------------------------------------

def ref_component(blockages, seed: tuple[int, int]) -> set[tuple[int, int]]:
    """Connected component of free crossings containing ``seed`` (BFS)."""
    from collections import deque
    queue = deque([seed])
    seen = {seed}
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (i + di, j + dj)
            if nxt not in seen and blockages.is_free(*nxt):
                seen.add(nxt)
                queue.append(nxt)
    return seen


def ref_rail_endpoints(blockages, orientation: str,
                       track: int) -> tuple[tuple[int, int], tuple[int, int]]:
    if orientation == "h":
        cells = [(i, track) for i in range(blockages.nx)]
    else:
        cells = [(track, j) for j in range(blockages.ny)]
    free = [c for c in cells if blockages.is_free(*c)]
    if len(free) < 2:
        raise MeshRoutingError(
            f"{orientation}-track {track} has {len(free)} free crossings; "
            f"a rail needs at least 2")
    components: list[list[tuple[int, int]]] = []
    assigned: set[tuple[int, int]] = set()
    for crossing in free:
        if crossing in assigned:
            continue
        comp = ref_component(blockages, crossing)
        assigned |= comp
        components.append([c for c in free if c in comp])
    best = max(components, key=len)
    if len(best) < 2:
        raise MeshRoutingError(
            f"{orientation}-track {track} is disconnected into stubs of "
            f"< 2 crossings; it cannot carry a rail")
    return best[0], best[-1]


_JOG_COST = 2.0
_OFFTRACK_COST = 0.5


def ref_astar_rail(blockages, start: tuple[int, int], goal: tuple[int, int],
                   nominal: int, orientation: str) -> list[tuple[int, int]]:
    if not blockages.is_free(*start) or not blockages.is_free(*goal):
        raise MeshRoutingError(
            f"rail endpoint blocked: {start} -> {goal}")

    def heuristic(node: tuple[int, int]) -> float:
        return abs(node[0] - goal[0]) + abs(node[1] - goal[1])

    def offtrack(node: tuple[int, int]) -> float:
        axis = node[1] if orientation == "h" else node[0]
        return _OFFTRACK_COST * abs(axis - nominal)

    open_heap: list[tuple[float, float, tuple[int, int]]] = [
        (heuristic(start), 0.0, start)]
    g_score: dict[tuple[int, int], float] = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
    while open_heap:
        f, g, node = heapq.heappop(open_heap)
        if g > g_score.get(node, float("inf")):
            continue
        if node == goal:
            path = [node]
            while parent[node] is not None:
                node = parent[node]
                path.append(node)
            path.reverse()
            return path
        i, j = node
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (i + di, j + dj)
            if not blockages.is_free(*nxt):
                continue
            step = 1.0 + offtrack(nxt)
            along = (dj == 0) if orientation == "h" else (di == 0)
            if not along:
                step += _JOG_COST
            ng = g + step
            if ng < g_score.get(nxt, float("inf")):
                g_score[nxt] = ng
                parent[nxt] = node
                heapq.heappush(open_heap, (ng + heuristic(nxt), ng, nxt))
    raise MeshRoutingError(
        f"no A* path for {orientation}-rail on track {nominal} "
        f"({start} -> {goal}): blockage map disconnects the corridor")


# ---------------------------------------------------------------------------
# WREN reference: the router with its tile-loop blockage, per-tile cost and
# Dijkstra; commit and exposure come from the router under test.
# ---------------------------------------------------------------------------

class RefWren(WrenGlobalRouter):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocked = self._blocked_tiles()

    def _blocked_tiles(self) -> set[tuple[int, int]]:
        blocked = set()
        for placed in self.fp.placed.values():
            rect = placed.rect()
            # Interior tiles only: a tile is blocked when its center is
            # strictly inside a block (edges stay routable as channels).
            for ix in range(self.nx):
                for iy in range(self.ny):
                    cx = ix * self.tile_w + self.tile_w // 2
                    cy = iy * self.tile_h + self.tile_h // 2
                    margin = min(self.tile_w, self.tile_h) // 2
                    inner = rect.expanded(-margin)
                    if inner.width > 0 and inner.height > 0 and \
                            inner.contains_point(cx, cy):
                        blocked.add((ix, iy))
        return blocked

    def _tile_cost(self, tile: tuple[int, int], net_class: str) -> float | None:
        if tile in self.blocked:
            return None
        cost = 1.0
        used = self.usage.get(tile, 0)
        if used >= self.capacity:
            return None
        cost += self.congestion_cost * (used / self.capacity) ** 2
        if self.noise_aware:
            for other in self.classes.get(tile, ()):  # same tile
                if (net_class, other) in _INCOMPATIBLE:
                    cost += self.noise_cost
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                for other in self.classes.get((tile[0] + dx,
                                               tile[1] + dy), ()):
                    if (net_class, other) in _INCOMPATIBLE:
                        cost += self.noise_cost * 0.5
        return cost

    def _dijkstra(self, sources: set[tuple[int, int]],
                  targets: set[tuple[int, int]],
                  net_class: str) -> list[tuple[int, int]] | None:
        dist: dict[tuple[int, int], float] = {t: 0.0 for t in sources}
        parent: dict[tuple[int, int], tuple[int, int] | None] = {
            t: None for t in sources}
        heap = [(0.0, t) for t in sources]
        heapq.heapify(heap)
        while heap:
            d, tile = heapq.heappop(heap)
            if d > dist.get(tile, float("inf")):
                continue
            if tile in targets:
                path = [tile]
                while parent[tile] is not None:
                    tile = parent[tile]
                    path.append(tile)
                path.reverse()
                return path
            ix, iy = tile
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nxt = (ix + dx, iy + dy)
                if not (0 <= nxt[0] < self.nx and 0 <= nxt[1] < self.ny):
                    continue
                cost = self._tile_cost(nxt, net_class)
                if cost is None:
                    continue
                nd = d + cost
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    parent[nxt] = tile
                    heapq.heappush(heap, (nd, nxt))
        return None

    def _route_net(self, net: SignalNet) -> list[tuple[int, int]] | None:
        pins = []
        for block_name, pin in net.terminals:
            placed = self.fp.placed.get(block_name)
            if placed is None:
                raise GlobalRoutingError(
                    f"net {net.name!r} references unknown block "
                    f"{block_name!r}")
            tile = self.tile_of(*placed.pin_position(pin))
            # Block-interior pins escape to the nearest channel tile (the
            # block's pin is on its edge; the tile grid is coarser).
            pins.append(self._nearest_free_tile(tile))
        tree = {pins[0]}
        all_tiles = [pins[0]]
        for pin in pins[1:]:
            if pin in tree:
                continue
            path = self._dijkstra(tree, {pin}, net.net_class)
            if path is None:
                return None
            for tile in path:
                if tile not in tree:
                    tree.add(tile)
                    all_tiles.append(tile)
        return all_tiles


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

PITCH = 1_000


@st.composite
def anagram_cases(draw):
    """A small area, metal1 obstacles and a few nets with classes, pins
    on all three pin layers and optional capacitance bounds."""
    w = draw(st.integers(3, 12)) * PITCH
    h = draw(st.integers(3, 10)) * PITCH
    coord = st.tuples(st.integers(0, w), st.integers(0, h))
    obstacles = []
    for (x1, y1), (x2, y2) in draw(st.lists(st.tuples(coord, coord),
                                            max_size=3)):
        obstacles.append(Rect.of(x1, y1, x2, y2))
    layer = st.sampled_from((LAYER_METAL1, LAYER_METAL2, LAYER_POLY))
    requests = []
    for k in range(draw(st.integers(1, 4))):
        pins = draw(st.lists(st.tuples(st.integers(0, w), st.integers(0, h),
                                       layer), min_size=2, max_size=3))
        bound = draw(st.one_of(st.none(),
                               st.floats(0.0, 2e-15, allow_nan=False)))
        requests.append(RoutingRequest(f"n{k}", pins,
                                       draw(st.sampled_from(CLASSES)),
                                       cap_bound=bound))
    crosstalk = draw(st.sampled_from((25.0, 0.1, 3.7)))
    return Rect(0, 0, w, h), obstacles, requests, crosstalk


@given(anagram_cases())
@settings(max_examples=60, deadline=None)
def test_anagram_routes_match_reference(case):
    area, obstacles, requests, crosstalk = case
    router = AnagramRouter(area, obstacles, pitch=PITCH,
                           crosstalk_cost=crosstalk)
    ref = RefAnagram(router, obstacles)
    for request in requests:
        assert _outcome(router.route_net, request) == \
            _outcome(ref.route_net, request)
        assert [list(o.items()) for o in router.occupancy] == \
            [list(o.items()) for o in ref.occupancy]


@st.composite
def blockage_maps(draw):
    """Random corridors and keepouts, including disconnected tracks."""
    nx = draw(st.integers(2, 14))
    ny = draw(st.integers(2, 14))
    free_v = draw(st.frozensets(st.integers(0, nx - 1), min_size=1))
    free_h = draw(st.frozensets(st.integers(0, ny - 1), min_size=1))
    keepouts = draw(st.frozensets(st.tuples(st.integers(0, nx - 1),
                                            st.integers(0, ny - 1)),
                                  max_size=nx * ny // 3))
    return BlockageMap(nx, ny, free_v, free_h, keepouts)


@given(blockage_maps(), st.data())
@settings(max_examples=80, deadline=None)
def test_mesh_rails_match_reference(blockages, data):
    for orientation, tracks in (("h", blockages.free_h),
                                ("v", blockages.free_v)):
        for track in sorted(tracks):
            ends = _outcome(mesh._rail_endpoints, blockages, orientation,
                            track)
            assert ends == _outcome(ref_rail_endpoints, blockages,
                                    orientation, track)
            if isinstance(ends[0], str):
                continue
            assert _outcome(mesh._astar_rail, blockages, *ends, track,
                            orientation) == \
                _outcome(ref_astar_rail, blockages, *ends, track,
                         orientation)
    # Arbitrary endpoint pairs reach the disconnected and blocked cases.
    cell = st.tuples(st.integers(0, blockages.nx - 1),
                     st.integers(0, blockages.ny - 1))
    for start, goal in data.draw(st.lists(st.tuples(cell, cell),
                                          max_size=4)):
        orientation = data.draw(st.sampled_from(("h", "v")))
        nominal = goal[1] if orientation == "h" else goal[0]
        assert _outcome(mesh._astar_rail, blockages, start, goal, nominal,
                        orientation) == \
            _outcome(ref_astar_rail, blockages, start, goal, nominal,
                     orientation)


@st.composite
def wren_cases(draw):
    """A floorplan of a few blocks (some too small to block a tile), nets
    of every class, and a small tile grid with tight capacity."""
    width = draw(st.integers(20, 120)) * 1_000
    height = draw(st.integers(20, 120)) * 1_000
    placed = {}
    for k in range(draw(st.integers(1, 4))):
        bw = draw(st.integers(1, width // 2))
        bh = draw(st.integers(1, height // 2))
        pins = {f"p{n}": (draw(st.integers(0, bw)), draw(st.integers(0, bh)))
                for n in range(3)}
        block = Block(f"b{k}", bw, bh, BlockKind.ANALOG, pins=pins)
        placed[block.name] = PlacedBlock(
            block, draw(st.integers(0, width - bw)),
            draw(st.integers(0, height - bh)), draw(st.booleans()))
    floorplan = FloorplanResult(placed, width, height, width * height,
                                0, 0.0, 0.0, 0)
    terminal = st.tuples(st.sampled_from(sorted(placed)),
                         st.sampled_from(("p0", "p1", "p2")))
    nets = [SignalNet(f"s{k}", draw(st.lists(terminal, min_size=2,
                                             max_size=3)),
                      draw(st.sampled_from(CLASSES)))
            for k in range(draw(st.integers(1, 6)))]
    options = {"tiles_x": draw(st.integers(2, 12)),
               "tiles_y": draw(st.integers(2, 12)),
               "capacity": draw(st.integers(1, 3)),
               "noise_aware": draw(st.booleans())}
    return floorplan, nets, options


@given(wren_cases())
@settings(max_examples=60, deadline=None)
def test_wren_routes_match_reference(case):
    floorplan, nets, options = case
    router = WrenGlobalRouter(floorplan, **options)
    ref = RefWren(floorplan, **options)
    assert router.blocked == ref.blocked
    got = _outcome(router.route, nets)
    want = _outcome(ref.route, nets)
    if isinstance(got, tuple):
        assert got == want
    else:
        assert got.routes == want.routes and got.failed == want.failed
        assert router.usage == ref.usage


# ---------------------------------------------------------------------------
# Pinned digests of whole flows
# ---------------------------------------------------------------------------

def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


LAYOUT_DIGESTS = {
    ("miller", 1): ("a6c5dba6b0e0c8ee", "bb98c0b1cd6827ad"),
    ("ota", 1): ("f2f57ce11f2dbfdf", "11c8e9efb4411f6f"),
    ("ota", 2): ("295da035c1b78284", "8d39f5607388326a"),
    ("ota", 3): ("295da035c1b78284", "8d39f5607388326a"),
    ("ota", 4): ("1508797626e09d29", "a1a54f5b0f477b49"),
    ("ota", 5): ("295da035c1b78284", "8d39f5607388326a"),
    ("ota", 6): ("295da035c1b78284", "8d39f5607388326a"),
}


def layout_digest(circuit: str, seed: int) -> tuple[str, str]:
    """(routes, GDS bytes) digests of one ``layout_cell`` run."""
    from repro.circuits.library import five_transistor_ota, two_stage_miller
    from repro.flows import layout_cell
    from repro.layout.gdslite import write_gds
    build = {"ota": five_transistor_ota, "miller": two_stage_miller}
    _, routing, _, cell = layout_cell(build[circuit](), seed=seed)
    routes = [(w.net, w.net_class, w.segments, w.vias, w.length_nm,
               w.capacitance) for _, w in sorted(routing.wires.items())]
    return (_digest([routes, routing.failed, routing.grid_pitch]),
            hashlib.sha256(write_gds([cell])).hexdigest()[:16])


@pytest.mark.parametrize("circuit,seed", sorted(LAYOUT_DIGESTS))
def test_layout_routes_and_gds_are_pinned(circuit, seed):
    assert layout_digest(circuit, seed) == LAYOUT_DIGESTS[(circuit, seed)]


MESH_MACROS = {"32x32": (32, 32, 4), "64x64": (64, 64, 4),
               "24x40": (24, 40, 8), "9x17": (9, 17, 8)}
MESH_SPECS = {"ring": (2, 2, 2_000, 2_000), "mid": (5, 4, 3_000, 2_500),
              "clamped": (50, 50, 1_500, 1_500)}
_UNSTITCHED = ("MeshRoutingError", "routed mesh is not fully stitched: "
               "some rail never meets the via'd ring")
MESH_DIGESTS = {
    "24x40": {"clamped": "397ead004a1385c1", "mid": "2eff2500e6052939",
              "ring": "3934e29e1f3d4a8a"},
    "32x32": {"clamped": "efcea3a1b02b5743", "mid": "4a8196563de9a304",
              "ring": "ab2ae27e3143f884"},
    "64x64": {"clamped": "5b75a2d020bdf1e5", "mid": "82bc36d4453ed6c8",
              "ring": "7ca0bcecd778609d"},
    "9x17": {"clamped": _UNSTITCHED, "mid": _UNSTITCHED,
             "ring": "e1ede0777e8d19dd"},
}


def mesh_digests(macro_name: str) -> dict[str, str]:
    """Digest of every ``route_mesh`` result on one macro, by spec, or
    the error a spec fails with."""
    from repro.macro import MacroSpec, MeshSpec, route_mesh, tile_macro
    rows, cols, strap = MESH_MACROS[macro_name]
    macro = tile_macro(MacroSpec(rows=rows, cols=cols, strap_every=strap,
                                 name=f"m{macro_name}"))
    out = {}
    for spec_name, spec in sorted(MESH_SPECS.items()):
        result = _outcome(route_mesh, macro, MeshSpec(*spec))
        if isinstance(result, tuple):
            out[spec_name] = result
            continue
        out[spec_name] = _digest([
            [(r.name, r.orientation, r.track, r.path, r.detoured)
             for r in result.rails],
            result.node_names, result.node_pos,
            [(s.name, s.node_a, s.node_b, s.length_nm, s.width_nm)
             for s in result.segments],
            result.pad_nodes, result.blockage_violations,
            [(s.layer, s.rect, s.net) for s in result.cell.shapes]])
    return out


@pytest.mark.parametrize("macro_name", sorted(MESH_MACROS))
def test_meshes_are_pinned(macro_name):
    assert mesh_digests(macro_name) == MESH_DIGESTS[macro_name]


WREN_DIGESTS = {True: "ab76c73d8e8d45e2", False: "f6f9fed182acfc4c"}


def wren_digest(noise_aware: bool) -> str:
    """Digest of WREN's routes over the demo system's floorplan."""
    from repro.msystem import demo_mixed_signal_system
    from repro.msystem.floorplan import WrightFloorplanner
    from repro.opt.anneal import AnnealSchedule
    blocks, nets = demo_mixed_signal_system()
    floorplan = WrightFloorplanner(blocks, nets, seed=3).run(
        AnnealSchedule(moves_per_temperature=80, cooling=0.85,
                       max_evaluations=6000))
    router = WrenGlobalRouter(floorplan, noise_aware=noise_aware)
    result = router.route(nets)
    return _digest([
        [(r.net, r.net_class, r.tiles, r.length_nm, r.exposure_nm)
         for _, r in sorted(result.routes.items())],
        result.failed, sorted(router.blocked), sorted(router.usage.items())])


@pytest.mark.parametrize("noise_aware", [True, False])
def test_wren_routes_are_pinned(noise_aware):
    assert wren_digest(noise_aware) == WREN_DIGESTS[noise_aware]
