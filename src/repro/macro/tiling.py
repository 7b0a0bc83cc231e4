"""Parametric memory-macro array tiling — the OpenRAM-style front half.

Generalizes :mod:`repro.layout.caparray` from a matched capacitor array
into a parametric unit-cell tiler: ``rows x cols`` bitcell (or unit-cap)
tiles with well/strap rows every ``strap_every`` rows, per-column bitline
pins and per-row wordline pins.  The tiler emits two artifacts the rest
of the macro flow consumes:

* a flat :class:`~repro.layout.geometry.Cell` with the array geometry
  (diffusion per unit, poly wordlines, metal1 bitlines, nwell strap
  rows, edge pins);
* a :class:`BlockageMap` over the *routing-track grid* — one vertical
  track per column boundary, one horizontal track per row boundary —
  recording which track crossings the array wiring keeps free.  Supply
  rails may only run along strap corridors (the well/strap rows and the
  strap columns); deterministic keepouts for the sense-amp strip and the
  column-decoder notch block parts of otherwise-free corridors, which is
  what forces the mesh router's A* detours (see
  :mod:`repro.macro.mesh`).

Every quantity is a pure function of :class:`MacroSpec`, so tiling the
same spec twice is byte-stable — the property the workload cache keys
and the differential tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from repro.engine.trace import count
from repro.layout.geometry import Cell, Rect
from repro.layout.technology import (
    DEFAULT_TECH,
    LAYER_CAPTOP,
    LAYER_METAL1,
    LAYER_NDIFF,
    LAYER_NWELL,
    LAYER_POLY,
    Technology,
)


class MacroTilingError(ValueError):
    """A :class:`MacroSpec` that cannot be tiled (non-positive geometry)."""


@dataclass(frozen=True)
class MacroSpec:
    """Parametric description of one memory-macro array.

    ``strap_every`` controls the supply-corridor pitch: every
    ``strap_every``-th row/column boundary is a well/strap corridor the
    power mesh may occupy.  ``kind`` selects the unit cell: ``"bitcell"``
    (diffusion + poly wordline + metal1 bitline) or ``"cap"`` (the
    double-poly unit of the capacitor arrays).
    """

    rows: int
    cols: int
    strap_every: int = 8
    kind: str = "bitcell"
    name: str = "macro"
    unit_width_nm: int | None = None
    unit_height_nm: int | None = None

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise MacroTilingError(
                f"array must be at least 1x1, got {self.rows}x{self.cols}")
        if self.strap_every <= 0:
            raise MacroTilingError(
                f"strap_every must be positive, got {self.strap_every}")
        if self.kind not in ("bitcell", "cap"):
            raise MacroTilingError(f"unknown unit kind {self.kind!r}")

    def describe(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "strap_every": self.strap_every,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class BlockageMap:
    """Free/blocked state of the routing-track grid over the array.

    Tracks are the unit-cell boundaries: ``nx = cols + 1`` vertical
    tracks, ``ny = rows + 1`` horizontal tracks.  A crossing ``(i, j)``
    is free when it lies on a strap corridor (``i`` a strap column or
    ``j`` a strap row) and is not inside a keepout region.
    """

    nx: int
    ny: int
    free_v: frozenset[int]
    free_h: frozenset[int]
    keepouts: frozenset[tuple[int, int]]

    def in_bounds(self, i: int, j: int) -> bool:
        return 0 <= i < self.nx and 0 <= j < self.ny

    def is_free(self, i: int, j: int) -> bool:
        if not self.in_bounds(i, j):
            return False
        if (i, j) in self.keepouts:
            return False
        return i in self.free_v or j in self.free_h

    @cached_property
    def components(self) -> np.ndarray:
        """4-connected component label of every crossing, 0 where
        blocked: labelled once per map, however many rails it carries."""
        labels = np.zeros((self.nx, self.ny), int)
        n_components = 0
        for seed in product(range(self.nx), range(self.ny)):
            if labels[seed] or not self.is_free(*seed):
                continue
            n_components += 1
            labels[seed] = n_components
            stack = [seed]
            while stack:
                i, j = stack.pop()
                for nxt in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                    if self.is_free(*nxt) and not labels[nxt]:
                        labels[nxt] = n_components
                        stack.append(nxt)
        return labels

    @cached_property
    def rail_moves(self) -> dict[tuple[str, int], list]:
        """The mesh router's rail-search moves for each ``(orientation,
        track)`` routed on this map, filled by :mod:`repro.macro.mesh`:
        built once per map and dropped with it."""
        return {}

    @property
    def free_v_tracks(self) -> list[int]:
        return sorted(self.free_v)

    @property
    def free_h_tracks(self) -> list[int]:
        return sorted(self.free_h)


@dataclass
class TiledMacro:
    """One tiled array: geometry, blockage map, pins, and supply taps."""

    spec: MacroSpec
    cell: Cell
    blockages: BlockageMap
    pitch_x: int
    pitch_y: int
    wordline_ports: list[str] = field(default_factory=list)
    bitline_ports: list[str] = field(default_factory=list)
    #: (i, j) track crossing -> number of unit cells drawing supply there.
    taps: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def width_nm(self) -> int:
        return self.spec.cols * self.pitch_x

    @property
    def height_nm(self) -> int:
        return self.spec.rows * self.pitch_y

    def track_xy(self, i: int, j: int) -> tuple[int, int]:
        """Physical position of track crossing ``(i, j)`` in nm."""
        return i * self.pitch_x, j * self.pitch_y


def _strap_tracks(n_units: int, strap_every: int) -> frozenset[int]:
    """Strap corridors: every ``strap_every``-th boundary plus both edges."""
    tracks = {0, n_units}
    tracks.update(range(0, n_units + 1, strap_every))
    return frozenset(tracks)


def _keepouts(spec: MacroSpec, free_v: frozenset[int],
              free_h: frozenset[int]) -> frozenset[tuple[int, int]]:
    """Deterministic keepout crossings carved out of free corridors.

    * the **sense-amp strip** blocks the middle third of the bottom
      edge corridor (``j = 0``) — the bottom boundary rail must detour
      over the strip through the first interior strap row;
    * the **column-decoder notch** blocks the middle sixth of the
      central interior strap row.

    Corners are never blocked (the mesh ring's pad nodes live there).
    """
    cols, rows = spec.cols, spec.rows
    keep: set[tuple[int, int]] = set()
    lo, hi = cols // 3, (2 * cols) // 3
    for i in range(lo, hi + 1):
        if 0 < i < cols:
            keep.add((i, 0))
    interior_h = sorted(j for j in free_h if 0 < j < rows)
    if interior_h:
        mid = interior_h[len(interior_h) // 2]
        nlo, nhi = (5 * cols) // 12, (7 * cols) // 12
        for i in range(nlo, nhi + 1):
            if 0 < i < cols:
                keep.add((i, mid))
    return frozenset(keep)


def _nearest_track(sorted_tracks: list[int], position: int) -> int:
    """The free track nearest a unit index (deterministic tie: lower)."""
    return min(sorted_tracks, key=lambda t: (abs(t - position), t))


def tile_macro(spec: MacroSpec,
               tech: Technology = DEFAULT_TECH) -> TiledMacro:
    """Tile one macro array from its spec.

    Counts ``macrogen.tiled`` / ``macrogen.units`` on the active tracer.
    """
    unit_w = spec.unit_width_nm or tech.L(16)
    unit_h = spec.unit_height_nm or tech.L(16)
    if unit_w <= 0 or unit_h <= 0:
        raise MacroTilingError(
            f"unit cell must have positive size, got {unit_w}x{unit_h}")
    rows, cols = spec.rows, spec.cols
    cell = Cell(spec.name)
    # Unit cells: one diffusion (or cap-plate) rect per unit.
    inset = min(unit_w, unit_h) // 8
    for r in range(rows):
        for c in range(cols):
            x0, y0 = c * unit_w, r * unit_h
            body = Rect(x0 + inset, y0 + inset,
                        x0 + unit_w - inset, y0 + unit_h - inset)
            if spec.kind == "cap":
                cell.add_shape(LAYER_POLY, body, f"unit_{r}_{c}_bot")
                cell.add_shape(LAYER_CAPTOP, body.expanded(-inset),
                               f"unit_{r}_{c}_top")
            else:
                cell.add_shape(LAYER_NDIFF, body, f"cell_{r}_{c}")
    # Wordlines: one poly stripe per row, pinned on the left edge.
    wl_w = tech.min_width_poly
    wordline_ports: list[str] = []
    for r in range(rows):
        yc = r * unit_h + unit_h // 2
        stripe = Rect(0, yc - wl_w // 2, cols * unit_w, yc + wl_w // 2)
        cell.add_shape(LAYER_POLY, stripe, f"wl_{r}")
        cell.add_port(f"wl_{r}", LAYER_POLY,
                      Rect(0, yc - wl_w // 2, wl_w, yc + wl_w // 2),
                      f"wl_{r}")
        wordline_ports.append(f"wl_{r}")
    # Bitlines: one metal1 stripe per column, pinned on the bottom edge.
    bl_w = tech.min_width_metal
    bitline_ports: list[str] = []
    for c in range(cols):
        xc = c * unit_w + unit_w // 2
        stripe = Rect(xc - bl_w // 2, 0, xc + bl_w // 2, rows * unit_h)
        cell.add_shape(LAYER_METAL1, stripe, f"bl_{c}")
        cell.add_port(f"bl_{c}", LAYER_METAL1,
                      Rect(xc - bl_w // 2, 0, xc + bl_w // 2, bl_w),
                      f"bl_{c}")
        bitline_ports.append(f"bl_{c}")
    # Well/strap rows along every horizontal strap corridor.
    free_h = _strap_tracks(rows, spec.strap_every)
    free_v = _strap_tracks(cols, spec.strap_every)
    strap_h = tech.well_margin
    for j in sorted(free_h):
        yc = j * unit_h
        cell.add_shape(LAYER_NWELL,
                       Rect(0, yc - strap_h // 2, cols * unit_w,
                            yc + strap_h // 2),
                       "strap")
    keepouts = _keepouts(spec, free_v, free_h)
    blockages = BlockageMap(cols + 1, rows + 1, free_v, free_h, keepouts)

    # Supply taps: each unit cell draws from the nearest free strap
    # crossing; aggregate unit counts per crossing (keepout crossings
    # redirect to the nearest free crossing on the same corridor pair).
    v_tracks = sorted(free_v)
    h_tracks = sorted(free_h)
    taps: dict[tuple[int, int], int] = {}
    nearest_v = [_nearest_track(v_tracks, c) for c in range(cols)]
    nearest_h = [_nearest_track(h_tracks, r) for r in range(rows)]
    for r in range(rows):
        for c in range(cols):
            i, j = nearest_v[c], nearest_h[r]
            if not blockages.is_free(i, j):
                candidates = [(ii, jj) for ii in v_tracks for jj in h_tracks
                              if blockages.is_free(ii, jj)]
                if not candidates:
                    raise MacroTilingError(
                        "keepouts block every strap crossing")
                i, j = min(candidates,
                           key=lambda ij: (abs(ij[0] - i) + abs(ij[1] - j),
                                           ij))
            taps[(i, j)] = taps.get((i, j), 0) + 1
    count("macrogen.tiled")
    count("macrogen.units", rows * cols)
    return TiledMacro(spec, cell, blockages, unit_w, unit_h,
                      wordline_ports, bitline_ports, taps)
