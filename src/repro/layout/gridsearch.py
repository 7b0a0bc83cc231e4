"""One grid search for the three routers: A* over flat node ids.

The ANAGRAM cell router, the supply-mesh rail router and WREN's global
router build numpy cost rasters once per net or rail and search them
here.  Node ids number a raster in C order, so they sort like the
``(layer, x, y)`` tuples they stand for, and heap entries
``(g + h, g, id)`` break ties on the smaller tuple.  Each router adds its
cost terms raster-wide in a fixed order, adding 0.0 where a term is
absent, so a path costs the same float as summing the terms node by node.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from heapq import heapify, heappop, heappush

import numpy as np

#: The four side neighbours of a 2-D raster cell.
SIDES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def shifted(a: np.ndarray, shift: tuple[int, ...], fill) -> np.ndarray:
    """``a[i + shift]`` at every index ``i``; ``fill`` off the grid."""
    src = tuple(slice(max(d, 0), n + min(d, 0))
                for d, n in zip(shift, a.shape))
    dst = tuple(slice(max(-d, 0), n - max(d, 0))
                for d, n in zip(shift, a.shape))
    out = np.full_like(a, fill)
    out[dst] = a[src]
    return out


def move(enter: np.ndarray, shift: tuple[int, ...],
         step: float | np.ndarray = 0.0) -> tuple[int, list]:
    """The move by ``shift`` as ``(offset, costs)``: from node ``u`` it
    reaches ``u + offset`` at ``costs[u]``, the raster ``enter`` there
    plus ``step`` (a scalar or an array broadcast against the raster),
    or None where that leaves the grid or enters a NaN (unusable) node.
    """
    cost = (shifted(enter, shift, np.nan) + step).ravel()
    costs = cost.astype(object)
    costs[np.isnan(cost)] = None
    offset = 0
    for d, n in zip(shift, enter.shape):
        offset = offset * n + d
    return offset, costs.tolist()


def manhattan(shape: tuple[int, int], target: tuple[int, int]) -> list:
    """Heuristic raster: the Manhattan distance from every cell of a 2-D
    grid to ``target``, flattened in node-id order."""
    return np.add.outer(np.abs(np.arange(shape[0]) - target[0]),
                        np.abs(np.arange(shape[1]) - target[1])
                        ).ravel().tolist()


def grid_search(sources: Iterable[int], target: int,
                moves: list[tuple[int, list]], h: list,
                overrun: Callable[[float, float], float] | None = None,
                ) -> list[int] | None:
    """Cheapest path of node ids from any source to ``target``, or None.

    ``overrun(g, cost)``, when given, returns a move's cost adjusted for
    the cost ``g`` of the path so far (ANAGRAM's capacitance bound).
    """
    best = [float("inf")] * len(h)
    parent = [-1] * len(h)
    heap = []
    for s in sources:
        best[s] = 0.0
        heap.append((h[s], 0.0, s))
    heapify(heap)
    while heap:
        _, g, u = heappop(heap)
        if g > best[u]:
            continue
        if u == target:
            path = [u]
            while parent[u] >= 0:
                u = parent[u]
                path.append(u)
            return path[::-1]
        for offset, costs in moves:
            cost = costs[u]
            if cost is None:
                continue
            if overrun is not None:
                cost = overrun(g, cost)
            ng = g + cost
            v = u + offset
            if ng < best[v]:
                best[v] = ng
                parent[v] = u
                heappush(heap, (ng + h[v], ng, v))
    return None
