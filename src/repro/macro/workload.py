"""Serve-layer integration: memory macros as a `Workload`.

The fleet's heavyweight *backend* workload type: a request names an
array geometry plus a mesh sizing, the fleet tiles, routes and signs it
off.  Points are dicts::

    {"array": {"rows": 32, "cols": 32, "strap_every": 8, "kind": "bitcell"},
     "mesh":  {"h_rails": 4, "v_rails": 4,
               "h_width_nm": 4000, "v_width_nm": 4000},
     "signoff": {...}}                     # optional SignoffSpec overrides

Everything downstream of the point is deterministic, so the
content-addressed cache key is just the canonical encoding of (array,
mesh, signoff) — two shards asked for the same macro share one signoff
through the shared disk cache.  The evaluator keeps each geometry's
:class:`~repro.macro.tiling.TiledMacro` across batches, so
same-geometry requests tile once per process, whichever executor
thread runs them.
"""

from __future__ import annotations

import threading

from repro.engine.cache import canonical_key
from repro.macro.mesh import MeshSpec, route_mesh
from repro.macro.signoff import SignoffSpec, signoff_mesh
from repro.macro.tiling import MacroSpec, TiledMacro, tile_macro
from repro.serve.broker import Workload

_MESH_KEYS = ("h_rails", "v_rails", "h_width_nm", "v_width_nm")


class MacroEvaluator:
    """Point → signoff summary over arbitrary macro geometries.

    The tiling memo is shared by every thread that evaluates points
    (the broker's thread executor) and guarded by one lock: a geometry
    tiles once per process, and the oldest of ``max_cached_tilings``
    geometries is evicted exactly once.  The lock does not pickle, so a
    process-pool executor runs macro points in-process.
    """

    def __init__(self, max_cached_tilings: int = 8):
        self._tilings: dict[tuple, TiledMacro] = {}
        self._max_cached = max_cached_tilings
        self._lock = threading.Lock()

    def _split(self, point: dict) -> tuple[dict, dict, dict]:
        try:
            array = dict(point["array"])
            mesh = dict(point["mesh"])
        except (TypeError, KeyError):
            raise ValueError(
                "macro points are {'array': {...}, 'mesh': {...}} dicts, "
                f"got {point!r}") from None
        signoff = dict(point.get("signoff") or {})
        return array, mesh, signoff

    def _array_key(self, array: dict) -> tuple:
        return tuple(sorted(array.items()))

    def tiling_for(self, array: dict) -> TiledMacro:
        key = self._array_key(array)
        with self._lock:
            macro = self._tilings.get(key)
            if macro is None:
                macro = tile_macro(MacroSpec(**array))
                if len(self._tilings) >= self._max_cached:
                    self._tilings.pop(next(iter(self._tilings)))
                self._tilings[key] = macro
        return macro

    def __call__(self, point: dict) -> dict:
        array, mesh, signoff = self._split(point)
        macro = self.tiling_for(array)
        result = signoff_mesh(macro, route_mesh(macro, MeshSpec(**mesh)),
                              SignoffSpec(**signoff))
        out = result.summary()
        out["array"] = macro.spec.describe()
        return out

    def cache_key(self, point: dict) -> str:
        array, mesh, signoff = self._split(point)
        return canonical_key(
            "macro",
            sorted(array.items()),
            [(k, mesh.get(k)) for k in _MESH_KEYS],
            sorted(signoff.items()))


def macro_workload(name: str = "macro") -> Workload:
    """Build the memory-macro serve workload (broker-registrable)."""
    evaluator = MacroEvaluator()
    return Workload(name=name, fn=evaluator, key_fn=evaluator.cache_key)
