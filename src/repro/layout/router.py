"""ANAGRAM II-style analog area router: multilayer grid maze search.

Reproduces the router features the tutorial highlights [35, 36, 39, 40]:

* maze (A*) search on a two-layer routing grid with preferred
  directions (metal1 horizontal, metal2 vertical): every cell entered
  costs 1, a wrong-way step and a via cost extra, and the search runs on
  the shared kernel of :mod:`repro.layout.gridsearch`;
* *net classes* — ``noisy``, ``sensitive`` and ``neutral`` wires; the
  cost of a grid cell grows when an incompatible class runs adjacent,
  implementing crosstalk avoidance ("mechanisms for tagging compatible
  and incompatible classes of wires");
* *symmetric differential routing* — a net pair is routed by mirroring
  the first net's path about the placement's symmetry axis;
* *over-the-device routing* — device geometry blocks only metal1;
  metal2 may cross devices;
* parasitic-bounded mode (ROAD/ANAGRAM III [39, 40]) — per-net
  capacitance budgets; a net whose routed capacitance would exceed its
  bound is charged an escalating cost, steering it to shorter/less
  coupled paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.layout.geometry import Cell, Rect
from repro.layout.gridsearch import (
    SIDES,
    grid_search,
    manhattan,
    move,
    shifted,
)
from repro.layout.placer import Placement
from repro.layout.technology import (
    DEFAULT_TECH,
    LAYER_METAL1,
    LAYER_METAL2,
    LAYER_POLY,
    LAYER_VIA1,
    Technology,
)

NEUTRAL = "neutral"
NOISY = "noisy"
SENSITIVE = "sensitive"

_INCOMPATIBLE = {(NOISY, SENSITIVE), (SENSITIVE, NOISY)}

_M1, _M2 = 0, 1


@dataclass
class RoutingRequest:
    """One net to route: pins as (x, y, layer) plus its class and bounds."""

    net: str
    pins: list[tuple[int, int, str]]
    net_class: str = NEUTRAL
    cap_bound: float | None = None     # parasitic bound (F), optional
    width: int | None = None           # wire width override


@dataclass
class RoutedWire:
    """A routed net: list of grid-space segments with layers."""

    net: str
    net_class: str
    segments: list[tuple[int, int, int, int, int]]  # (x1,y1,x2,y2,layer)
    vias: list[tuple[int, int]]
    length_nm: int
    capacitance: float

    def shapes(self, tech: Technology, width: int) -> list:
        from repro.layout.geometry import Shape
        shapes = []
        half = width // 2
        for x1, y1, x2, y2, layer in self.segments:
            layer_name = LAYER_METAL1 if layer == _M1 else LAYER_METAL2
            rect = Rect(min(x1, x2) - half, min(y1, y2) - half,
                        max(x1, x2) + half, max(y1, y2) + half)
            shapes.append(Shape(layer_name, rect, self.net))
        for x, y in self.vias:
            shapes.append(Shape(LAYER_VIA1,
                                Rect(x - half, y - half, x + half, y + half),
                                self.net))
        return shapes


class RoutingError(RuntimeError):
    """Raised when a net cannot be routed."""


@dataclass
class RoutingResult:
    wires: dict[str, RoutedWire]
    failed: list[str]
    grid_pitch: int

    @property
    def total_length(self) -> int:
        return sum(w.length_nm for w in self.wires.values())

    def crosstalk_adjacencies(self, router: "AnagramRouter") -> int:
        return router.count_incompatible_adjacencies(self)


class AnagramRouter:
    """Two-layer grid maze router with analog costs."""

    def __init__(self, area: Rect, obstacles_m1: list[Rect],
                 tech: Technology = DEFAULT_TECH,
                 axis_x: int | None = None,
                 via_cost: float = 5.0,
                 wrong_way_cost: float = 1.5,
                 crosstalk_cost: float = 25.0,
                 cap_overrun_cost: float = 200.0,
                 pitch: int | None = None):
        self.tech = tech
        self.pitch = pitch if pitch is not None else tech.routing_pitch
        margin = 4 * self.pitch
        self.area = area.expanded(margin)
        self.nx = max(2, self.area.width // self.pitch + 1)
        self.ny = max(2, self.area.height // self.pitch + 1)
        self.axis_x = axis_x
        self.via_cost = via_cost
        self.wrong_way_cost = wrong_way_cost
        self.crosstalk_cost = crosstalk_cost
        self.cap_overrun_cost = cap_overrun_cost
        # occupancy[layer][(ix, iy)] = (net, net_class)
        self.occupancy: list[dict[tuple[int, int], tuple[str, str]]] = [
            {}, {}]
        self.blocked_m1 = np.zeros((self.nx, self.ny), bool)
        for rect in obstacles_m1:
            self._block(rect)

    # ------------------------------------------------------------------
    # grid mapping
    # ------------------------------------------------------------------
    def to_grid(self, x: int, y: int) -> tuple[int, int]:
        ix = (x - self.area.x1) // self.pitch
        iy = (y - self.area.y1) // self.pitch
        return (min(max(ix, 0), self.nx - 1), min(max(iy, 0), self.ny - 1))

    def to_coord(self, ix: int, iy: int) -> tuple[int, int]:
        return (self.area.x1 + ix * self.pitch,
                self.area.y1 + iy * self.pitch)

    def _block(self, rect: Rect) -> None:
        gx1, gy1 = self.to_grid(rect.x1 - self.pitch // 2,
                                rect.y1 - self.pitch // 2)
        gx2, gy2 = self.to_grid(rect.x2 + self.pitch // 2,
                                rect.y2 + self.pitch // 2)
        self.blocked_m1[gx1:gx2 + 1, gy1:gy2 + 1] = True

    # ------------------------------------------------------------------
    # cost rasters
    # ------------------------------------------------------------------
    def _moves(self, net: str, net_class: str) -> list[tuple[int, list]]:
        """The search's moves for one net over (layer, ix, iy) cells.

        Blocked metal1 and other nets' cells are unusable.  Entering a
        cell costs 1 plus ``crosstalk_cost`` per neighbour on either
        layer held by an incompatible-class net; a wrong-way step (m1
        runs horizontal, m2 vertical) or a via then adds its own cost.
        """
        usable = np.ones((2, self.nx, self.ny), bool)
        usable[_M1] = ~self.blocked_m1
        hostile = np.zeros_like(usable)
        for layer, occupancy in enumerate(self.occupancy):
            for (ix, iy), (owner, cls) in occupancy.items():
                if owner != net:
                    usable[layer, ix, iy] = False
                    hostile[layer, ix, iy] = (net_class, cls) in _INCOMPATIBLE
        cell = np.ones((self.nx, self.ny))
        for layer in (_M1, _M2):
            for side in SIDES:
                cell += np.where(shifted(hostile[layer], side, False),
                                 self.crosstalk_cost, 0.0)
        enter = np.where(usable, cell, np.nan)
        x_step = np.array([0.0, self.wrong_way_cost])[:, None, None]
        return [move(enter, shift, step) for shift, step in (
            ((0, 1, 0), x_step), ((0, -1, 0), x_step),
            ((0, 0, 1), x_step[::-1]), ((0, 0, -1), x_step[::-1]),
            ((1, 0, 0), self.via_cost), ((-1, 0, 0), self.via_cost))]

    # ------------------------------------------------------------------
    # net routing
    # ------------------------------------------------------------------
    def route_net(self, request: RoutingRequest) -> RoutedWire:
        if len(request.pins) < 2:
            raise RoutingError(f"net {request.net!r} has fewer than 2 pins")
        pin_states = []
        for x, y, layer in request.pins:
            ix, iy = self.to_grid(x, y)
            glayer = _M1 if layer in (LAYER_METAL1, LAYER_POLY) else _M2
            pin_states.append((glayer, ix, iy))
            # Pins may sit on blocked cells (they are on the device).
            self.blocked_m1[ix, iy] = False
        moves = self._moves(request.net, request.net_class)
        nx, ny = self.nx, self.ny
        tree: set[tuple[int, int, int]] = {pin_states[0]}
        all_cells: list[tuple[int, int, int]] = [pin_states[0]]
        cap_per_cell = self.tech.wire_capacitance(
            self.pitch, self.tech.min_width_metal)
        cap_state = 0.0
        overrun = None
        if request.cap_bound is not None:
            def overrun(g: float, cost: float) -> float:
                if cap_state + (g + cost) * cap_per_cell > request.cap_bound:
                    return cost + self.cap_overrun_cost
                return cost
        for pin in pin_states[1:]:
            if pin in tree:
                continue
            h = manhattan((nx, ny), pin[1:])
            path = grid_search({(lay * nx + ix) * ny + iy
                                for lay, ix, iy in tree},
                               (pin[0] * nx + pin[1]) * ny + pin[2],
                               moves, h + h, overrun)
            if path is None:
                raise RoutingError(
                    f"net {request.net!r}: no path to pin at "
                    f"{self.to_coord(pin[1], pin[2])}")
            for state in ((k // (nx * ny), k // ny % nx, k % ny)
                          for k in path):
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

    def route_mirrored(self, wire: RoutedWire,
                       request: RoutingRequest) -> RoutedWire:
        """Route a net as the mirror image of an already-routed wire.

        This is ANAGRAM II's symmetric differential routing: the twin
        path is the reflection about the placement axis; it is validated
        against obstacles/occupancy and committed, or a RoutingError is
        raised so the caller can fall back to independent routing.
        """
        if self.axis_x is None:
            raise RoutingError("no symmetry axis configured")
        cells = []
        for layer in (_M1, _M2):
            for (ix, iy), (net, _) in list(self.occupancy[layer].items()):
                if net == wire.net:
                    x, y = self.to_coord(ix, iy)
                    mx = 2 * self.axis_x - x
                    mix, miy = self.to_grid(mx, y)
                    cells.append((layer, mix, miy))
        for layer, ix, iy in cells:
            occupant = self.occupancy[layer].get((ix, iy))
            if (layer == _M1 and self.blocked_m1[ix, iy]) or (
                    occupant is not None and occupant[0] != request.net):
                raise RoutingError(
                    f"mirror path of {wire.net!r} blocked at "
                    f"{self.to_coord(ix, iy)}")
        return self._commit(request, cells)

    # ------------------------------------------------------------------
    def count_incompatible_adjacencies(self, result: "RoutingResult") -> int:
        count = 0
        for layer in (_M1, _M2):
            for (ix, iy), (net, cls) in self.occupancy[layer].items():
                for dx, dy in ((1, 0), (0, 1)):
                    other = self.occupancy[layer].get((ix + dx, iy + dy))
                    if other is None or other[0] == net:
                        continue
                    if (cls, other[1]) in _INCOMPATIBLE:
                        count += 1
        return count


def route_placement(placement: Placement,
                    requests: list[RoutingRequest],
                    net_pairs: list | None = None,
                    tech: Technology = DEFAULT_TECH,
                    seed: int = 1) -> tuple[RoutingResult, AnagramRouter]:
    """Route all nets over a placement.

    ``net_pairs`` (from the constraint extractor) are routed as mirrored
    twins where geometrically possible.  Device metal1/poly shapes become
    metal1 obstacles; metal2 remains free over devices.
    """
    obstacles = []
    for obj in placement.objects.values():
        cell = obj.transformed_cell()
        for shape in cell.shapes:
            if shape.layer in (LAYER_METAL1, LAYER_POLY):
                obstacles.append(shape.rect)
    paired: dict[str, str] = {}
    for pair in (net_pairs or []):
        paired[pair.net_a] = pair.net_b
        paired[pair.net_b] = pair.net_a
    by_net = {r.net: r for r in requests}
    # Route sensitive nets first (they get the cleanest paths), then
    # neutral, noisy last — the standard analog ordering.
    order = sorted(requests, key=lambda r: {SENSITIVE: 0, NEUTRAL: 1,
                                            NOISY: 2}[r.net_class])
    # Rip-up in its simplest honest form: when a net fails, the whole job
    # restarts with the failed nets promoted to the front, so they claim
    # their resources before the nets that previously boxed them in.
    router = None
    wires: dict[str, RoutedWire] = {}
    failed: list[str] = []
    # Escalation ladder: half-pitch grid first (dense device-port
    # geometries need sub-pitch resolution so neighbouring pins of
    # different nets land on distinct cells); quarter pitch when the
    # restarts cannot untangle a congested template.
    for pitch in (max(tech.routing_pitch // 2, 1),
                  max(tech.routing_pitch // 4, 1)):
        for _ in range(5):
            router = AnagramRouter(placement.bbox(), list(obstacles), tech,
                                   axis_x=placement.axis_x, pitch=pitch)
            wires = {}
            failed = []
            for request in order:
                if request.net in wires:
                    continue
                try:
                    wire = router.route_net(request)
                    wires[request.net] = wire
                except RoutingError:
                    failed.append(request.net)
                    continue
                twin_name = paired.get(request.net)
                if twin_name and twin_name in by_net \
                        and twin_name not in wires:
                    twin_req = by_net[twin_name]
                    try:
                        wires[twin_name] = router.route_mirrored(wire,
                                                                 twin_req)
                    except RoutingError:
                        pass  # fall through: routed independently later
            if not failed:
                break
            order = [by_net[n] for n in failed] + \
                [r for r in order if r.net not in failed]
        if not failed:
            break
    result = RoutingResult(wires, failed, router.pitch)
    return result, router


def routed_cell(placement: Placement, result: RoutingResult,
                tech: Technology = DEFAULT_TECH,
                name: str = "routed") -> Cell:
    """Assemble devices + wires into one flat cell (for GDS export)."""
    cell = Cell(name)
    for obj in placement.objects.values():
        sub = obj.transformed_cell()
        cell.shapes.extend(sub.shapes)
    for wire in result.wires.values():
        cell.shapes.extend(wire.shapes(tech, tech.min_width_metal))
    return cell
