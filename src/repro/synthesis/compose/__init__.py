"""Compositional topology generation over library functional blocks.

Opens the topology-selection scenario space from the ~7 canned library
opamps to a generated space: a grammar of functional blocks
(:mod:`.blocks`) is enumerated into electrically-validated
:class:`ComposedTopology` netlists with auto-derived design spaces
(:mod:`.generator`), interval-safe analytic models (:mod:`.model`),
symbolic pre-sizing ranking (:mod:`.prune`), a
generate→validate→prune→size funnel (:mod:`.funnel`), and a serve-layer
workload over the whole space (:mod:`.workload`).
"""

from repro.synthesis.compose.blocks import (
    Block,
    FIXED,
    REGISTRIES,
    ROLES,
    compatible,
    enumerate_choices,
)
from repro.synthesis.compose.funnel import (
    FunnelResult,
    StructureBuilder,
    TopologyFunnel,
)
from repro.synthesis.compose.generator import (
    ComposedTopology,
    StructureSpec,
    ValidationReport,
    generate_topologies,
    validate_topology,
)
from repro.synthesis.compose.model import composed_performance
from repro.synthesis.compose.prune import (
    StructureRank,
    prune_structures,
    rank_structures,
)
from repro.synthesis.compose.workload import (
    GeneratedSpaceEvaluator,
    topogen_workload,
)

__all__ = [
    "Block",
    "ComposedTopology",
    "FIXED",
    "FunnelResult",
    "GeneratedSpaceEvaluator",
    "REGISTRIES",
    "ROLES",
    "StructureBuilder",
    "StructureRank",
    "StructureSpec",
    "TopologyFunnel",
    "ValidationReport",
    "compatible",
    "composed_performance",
    "enumerate_choices",
    "generate_topologies",
    "prune_structures",
    "rank_structures",
    "topogen_workload",
    "validate_topology",
]
