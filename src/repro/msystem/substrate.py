"""Substrate noise coupling models.

"Substrate coupling is an increasingly difficult problem as more and
faster digital logic is placed side-by-side with sensitive analog parts"
(§3.2, [58, 59]).  Two evaluators:

* :func:`coupling_kernel` — the fast closed-form estimator WRIGHT's
  floorplanner calls inside its annealing loop ("a fast substrate noise
  coupling evaluator so that a simplified view of substrate noise
  influences the floorplan"): coupling decays with separation over a
  characteristic substrate length;
* :class:`SubstrateMesh` — a resistive-mesh Laplace solve (sparse) used
  for detailed verification of a finished floorplan, the reference the
  fast kernel is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.msystem.blocks import PlacedBlock

# Characteristic decay length of lateral substrate coupling (nm): for an
# epi-type substrate a few hundred µm.
DECAY_LENGTH_NM = 400_000.0


def coupling_kernel(distance_nm: float,
                    decay_nm: float = DECAY_LENGTH_NM) -> float:
    """Relative substrate coupling vs. separation (1 at contact)."""
    if distance_nm <= 0:
        return 1.0
    return math.exp(-distance_nm / decay_nm)


def floorplan_noise(placed: list[PlacedBlock],
                    decay_nm: float = DECAY_LENGTH_NM) -> float:
    """WRIGHT's scalar substrate-noise figure of a candidate floorplan.

    Sum over (injector, victim) pairs of injection · sensitivity ·
    kernel(separation).  Lower is better.
    """
    rows = []
    for p in placed:
        r = p.rect()
        rows.append((p.block.name, p.block.noise_injection,
                     p.block.noise_sensitivity, r.x1, r.y1, r.x2, r.y2))
    return substrate_noise(rows, decay_nm)


def substrate_noise(rows: list[tuple], decay_nm: float = DECAY_LENGTH_NM,
                    ) -> float:
    """:func:`floorplan_noise` over plain rows
    ``(name, injection, sensitivity, x1, y1, x2, y2)``.

    Sums injector-major, each in the rows' order, so a floorplan gives
    the same float however its blocks are represented.
    """
    injectors = [row for row in rows if row[1] > 0]
    victims = [row for row in rows if row[2] > 0]
    total = 0.0
    for src, inj, _, sx1, sy1, sx2, sy2 in injectors:
        for dst, _, sens, dx1, dy1, dx2, dy2 in victims:
            if src == dst:
                continue
            d = (max(dx1 - sx2, sx1 - dx2, 0)
                 + max(dy1 - sy2, sy1 - dy2, 0))
            total += inj * sens * coupling_kernel(d, decay_nm)
    return total


@dataclass
class SubstrateMesh:
    """Uniform resistive mesh over the chip area (detailed evaluator)."""

    width_nm: int
    height_nm: int
    nx: int = 40
    ny: int = 40
    sheet_res: float = 500.0        # Ohm/sq of the bulk sheet
    backplane_res: float = 2e4      # Ohm from each node to the backplane

    def __post_init__(self):
        self.dx = self.width_nm / self.nx
        self.dy = self.height_nm / self.ny
        self._factor = None

    def _node(self, ix: int, iy: int) -> int:
        return iy * self.nx + ix

    def _system(self):
        if self._factor is not None:
            return self._factor
        n = self.nx * self.ny
        g_h = self.sheet_res * (self.dx / self.dy)
        g_v = self.sheet_res * (self.dy / self.dx)
        rows, cols, vals = [], [], []
        diag = np.full(n, 1.0 / self.backplane_res)

        def add(i, j, g):
            rows.append(i)
            cols.append(j)
            vals.append(-g)
            diag[i] += g

        for iy in range(self.ny):
            for ix in range(self.nx):
                i = self._node(ix, iy)
                if ix + 1 < self.nx:
                    j = self._node(ix + 1, iy)
                    g = 1.0 / max(g_v, 1e-9)
                    add(i, j, g)
                    add(j, i, g)
                if iy + 1 < self.ny:
                    j = self._node(ix, iy + 1)
                    g = 1.0 / max(g_h, 1e-9)
                    add(i, j, g)
                    add(j, i, g)
        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        G = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        self._factor = spla.factorized(G)
        return self._factor

    def node_of(self, x_nm: float, y_nm: float) -> int:
        ix = min(max(int(x_nm / self.dx), 0), self.nx - 1)
        iy = min(max(int(y_nm / self.dy), 0), self.ny - 1)
        return self._node(ix, iy)

    def transfer(self, src_xy: tuple[float, float],
                 dst_xy: tuple[float, float]) -> float:
        """Substrate voltage at dst per ampere injected at src."""
        solve = self._system()
        b = np.zeros(self.nx * self.ny)
        b[self.node_of(*src_xy)] = 1.0
        v = solve(b)
        return float(v[self.node_of(*dst_xy)])

    def coupling_matrix(self, placed: list[PlacedBlock]) -> np.ndarray:
        """Pairwise substrate transfer (V/A) between block centers."""
        n = len(placed)
        out = np.zeros((n, n))
        solve = self._system()
        for i, src in enumerate(placed):
            b = np.zeros(self.nx * self.ny)
            b[self.node_of(*src.center)] = 1.0
            v = solve(b)
            for j, dst in enumerate(placed):
                out[i, j] = float(v[self.node_of(*dst.center)])
        return out

    def floorplan_noise(self, placed: list[PlacedBlock]) -> float:
        """Detailed counterpart of :func:`floorplan_noise`."""
        transfer = self.coupling_matrix(placed)
        total = 0.0
        for i, src in enumerate(placed):
            if src.block.noise_injection <= 0:
                continue
            for j, dst in enumerate(placed):
                if i == j or dst.block.noise_sensitivity <= 0:
                    continue
                total += (src.block.noise_injection
                          * dst.block.noise_sensitivity * transfer[i, j])
        return total
