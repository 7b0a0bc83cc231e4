"""`repro.macro` — end-to-end memory-macro flow over the backend.

The OpenRAM-style composition of the reproduction's backend half: a
parametric array tiler (:mod:`repro.macro.tiling`), a grid-track
supply-mesh router with A* blockage avoidance and via stitching
(:mod:`repro.macro.mesh`), IR/EM/droop signoff with mesh density as the
annealed design variable (:mod:`repro.macro.signoff`), and the whole
flow as a sharded serve workload (:mod:`repro.macro.workload`).
"""

from repro.macro.mesh import (
    MeshResult,
    MeshRoutingError,
    MeshSpec,
    RailRoute,
    assign_rail_tracks,
    route_mesh,
)
from repro.macro.signoff import (
    MacroSignoff,
    SignoffSpec,
    macro_flow,
    optimize_mesh,
    signoff_mesh,
    uniform_mesh,
)
from repro.macro.tiling import (
    BlockageMap,
    MacroSpec,
    MacroTilingError,
    TiledMacro,
    tile_macro,
)
from repro.macro.workload import MacroEvaluator, macro_workload

__all__ = [
    "BlockageMap",
    "MacroEvaluator",
    "MacroSignoff",
    "MacroSpec",
    "MacroTilingError",
    "MeshResult",
    "MeshRoutingError",
    "MeshSpec",
    "RailRoute",
    "SignoffSpec",
    "TiledMacro",
    "assign_rail_tracks",
    "macro_flow",
    "macro_workload",
    "optimize_mesh",
    "route_mesh",
    "signoff_mesh",
    "tile_macro",
    "uniform_mesh",
]
