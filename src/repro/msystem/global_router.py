"""WREN-style mixed-signal global routing over a floorplan.

The chip area is tiled into global-routing cells (gcells); tiles covered
by blocks are obstacles (wiring goes around blocks, in the channels).
Nets are routed by Dijkstra over the tile graph with:

* per-tile capacity (congestion cost as occupancy approaches capacity);
* noise-aware adjacency cost — a *sensitive* net pays for entering a tile
  that noisy wiring already crosses, and vice versa (WREN's SNR-driven
  avoidance);
* per-net coupling accounting, so achieved noise exposure can be checked
  against the :mod:`~repro.msystem.noise_constraints` budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.layout.gridsearch import SIDES, grid_search, move, shifted
from repro.msystem.blocks import SignalNet
from repro.msystem.floorplan import FloorplanResult

NOISY = "noisy"
SENSITIVE = "sensitive"
NEUTRAL = "neutral"
_INCOMPATIBLE = {(NOISY, SENSITIVE), (SENSITIVE, NOISY)}


class GlobalRoutingError(RuntimeError):
    pass


@dataclass
class GlobalRoute:
    net: str
    net_class: str
    tiles: list[tuple[int, int]]
    length_nm: int
    exposure_nm: int       # route length adjacent to incompatible wiring

    def segments(self, tile_nm: int) -> list[tuple[str, int]]:
        """(segment_id, length) pairs for the SNR constraint mapper."""
        return [(f"tile_{ix}_{iy}", tile_nm) for ix, iy in self.tiles]


@dataclass
class GlobalRoutingResult:
    routes: dict[str, GlobalRoute]
    failed: list[str]
    tile_nm: int

    @property
    def total_length(self) -> int:
        return sum(r.length_nm for r in self.routes.values())

    @property
    def total_exposure(self) -> int:
        return sum(r.exposure_nm for r in self.routes.values())


class WrenGlobalRouter:
    """Tile-graph router with congestion and noise-class costs."""

    def __init__(self, floorplan: FloorplanResult,
                 tiles_x: int = 48, tiles_y: int = 48,
                 capacity: int = 6,
                 congestion_cost: float = 4.0,
                 noise_cost: float = 20.0,
                 noise_aware: bool = True):
        self.fp = floorplan
        self.nx = tiles_x
        self.ny = tiles_y
        self.tile_w = max(floorplan.width // tiles_x, 1)
        self.tile_h = max(floorplan.height // tiles_y, 1)
        self.capacity = capacity
        self.congestion_cost = congestion_cost
        self.noise_cost = noise_cost
        self.noise_aware = noise_aware
        self.blocked = self._blocked_tiles()
        self.usage: dict[tuple[int, int], int] = {}
        self.classes: dict[tuple[int, int], set[str]] = {}

    def _blocked_tiles(self) -> set[tuple[int, int]]:
        """Interior tiles only: a tile is blocked when its center is
        strictly inside a block (edges stay routable as channels)."""
        mask = np.zeros((self.nx, self.ny), bool)
        margin = min(self.tile_w, self.tile_h) // 2
        cx = np.arange(self.nx) * self.tile_w + self.tile_w // 2
        cy = np.arange(self.ny) * self.tile_h + self.tile_h // 2
        for placed in self.fp.placed.values():
            inner = placed.rect().expanded(-margin)
            if inner.width > 0 and inner.height > 0:
                mask |= np.outer((inner.x1 <= cx) & (cx < inner.x2),
                                 (inner.y1 <= cy) & (cy < inner.y2))
        return set(map(tuple, np.argwhere(mask).tolist()))

    def tile_of(self, x: int, y: int) -> tuple[int, int]:
        return (min(max(x // self.tile_w, 0), self.nx - 1),
                min(max(y // self.tile_h, 0), self.ny - 1))

    # ------------------------------------------------------------------
    def _moves(self, net_class: str) -> list[tuple[int, list]]:
        """The search's moves for one net: entering a tile costs 1 plus
        its congestion term, then ``noise_cost`` if incompatible wiring
        crosses it and half that per such side neighbour.  Blocked and
        full tiles are unusable."""
        used = np.zeros((self.nx, self.ny), int)
        for tile, count in self.usage.items():
            used[tile] = count
        usable = used < self.capacity
        for tile in self.blocked:
            usable[tile] = False
        congestion = [1.0 + self.congestion_cost * (u / self.capacity) ** 2
                      for u in range(self.capacity)]
        cost = np.array(congestion)[np.minimum(used, self.capacity - 1)]
        if self.noise_aware:
            hostile = np.zeros_like(usable)
            for tile, classes in self.classes.items():
                hostile[tile] = any((net_class, other) in _INCOMPATIBLE
                                    for other in classes)
            cost += np.where(hostile, self.noise_cost, 0.0)
            for side in SIDES:
                cost += np.where(shifted(hostile, side, False),
                                 self.noise_cost * 0.5, 0.0)
        enter = np.where(usable, cost, np.nan)
        return [move(enter, side) for side in SIDES]

    # ------------------------------------------------------------------
    def route(self, nets: list[SignalNet]) -> GlobalRoutingResult:
        order = sorted(nets, key=lambda n: {SENSITIVE: 0, NEUTRAL: 1,
                                            NOISY: 2}[n.net_class])
        routes: dict[str, GlobalRoute] = {}
        failed: list[str] = []
        tile_nm = (self.tile_w + self.tile_h) // 2
        for net in order:
            tiles = self._route_net(net)
            if tiles is None:
                failed.append(net.name)
                continue
            for tile in tiles:
                self.usage[tile] = self.usage.get(tile, 0) + 1
                self.classes.setdefault(tile, set()).add(net.net_class)
            routes[net.name] = GlobalRoute(
                net.name, net.net_class, tiles,
                length_nm=len(tiles) * tile_nm, exposure_nm=0)
        # Exposure is a property of the *finished* routing: recompute per
        # net once every wire is committed.
        for route in routes.values():
            route.exposure_nm = self._exposure(
                route.tiles, route.net_class) * tile_nm
        return GlobalRoutingResult(routes, failed, tile_nm)

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
        moves = self._moves(net.net_class)
        ny = self.ny
        tree = {pins[0]}
        all_tiles = [pins[0]]
        for pin in pins[1:]:
            if pin in tree:
                continue
            path = grid_search({ix * ny + iy for ix, iy in tree},
                               pin[0] * ny + pin[1], moves,
                               [0] * (self.nx * ny))
            if path is None:
                return None
            for tile in (divmod(k, ny) for k in path):
                if tile not in tree:
                    tree.add(tile)
                    all_tiles.append(tile)
        return all_tiles

    def _nearest_free_tile(self, tile: tuple[int, int]) -> tuple[int, int]:
        """Bounded spiral to the closest unblocked tile.

        Scans Manhattan rings of growing radius (deterministic order:
        radius, then x, then y) up to the grid diameter; a grid with no
        free tile at all raises :class:`GlobalRoutingError` instead of
        silently handing the blocked tile back to the router.
        """
        if tile not in self.blocked:
            return tile
        x0, y0 = tile
        for radius in range(1, self.nx + self.ny):
            ring = []
            for dx in range(-radius, radius + 1):
                dy = radius - abs(dx)
                ring.append((x0 + dx, y0 + dy))
                if dy:
                    ring.append((x0 + dx, y0 - dy))
            for nxt in sorted(ring):
                if not (0 <= nxt[0] < self.nx and 0 <= nxt[1] < self.ny):
                    continue
                if nxt not in self.blocked:
                    return nxt
        raise GlobalRoutingError(
            f"no free routing tile anywhere on the {self.nx}x{self.ny} "
            f"grid (pin tile {tile} and every alternative are blocked)")

    def _exposure(self, tiles: list[tuple[int, int]],
                  net_class: str) -> int:
        exposure = 0
        for tile in tiles:
            hit = False
            for other in self.classes.get(tile, ()):
                if (net_class, other) in _INCOMPATIBLE:
                    hit = True
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                for other in self.classes.get((tile[0] + dx, tile[1] + dy),
                                              ()):
                    if (net_class, other) in _INCOMPATIBLE:
                        hit = True
            if hit:
                exposure += 1
        return exposure

