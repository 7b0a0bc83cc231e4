"""Serve-layer integration: the generated space as a `Workload`.

The sharded serving fleet's second heavyweight workload type: a request
names a generated structure and a sizing point, the fleet simulates it.
Points are dicts ``{"structure": <structure_id>, "sizes": {...}}`` so
one workload covers the *whole* generated space — the consistent-hash
router spreads structures over shards while the content-addressed cache
collapses repeated sizings fleet-wide.

:class:`GeneratedSpaceEvaluator` routes each point to a lazily-built
per-structure :class:`SimulationEvaluator`.
"""

from __future__ import annotations

from repro.engine.cache import canonical_key
from repro.serve.broker import Workload
from repro.synthesis.compose.generator import (
    ComposedTopology,
    INPUT_BIAS,
    generate_topologies,
)
from repro.synthesis.simulation_based import SimulationEvaluator


class GeneratedSpaceEvaluator:
    """Point → performance over the whole generated structure space."""

    def __init__(self, topologies: list[ComposedTopology] | None = None):
        if topologies is None:
            topologies = generate_topologies()
        self._by_id = {t.structure_id: t for t in topologies}
        self._evaluators: dict[str, SimulationEvaluator] = {}

    @property
    def structure_ids(self) -> list[str]:
        return sorted(self._by_id)

    def evaluator_for(self, structure_id: str) -> SimulationEvaluator:
        ev = self._evaluators.get(structure_id)
        if ev is None:
            topo = self._by_id.get(structure_id)
            if topo is None:
                raise KeyError(f"unknown structure {structure_id!r}")
            from repro.synthesis.compose.funnel import StructureBuilder
            ev = SimulationEvaluator(builder=StructureBuilder(topo),
                                     input_bias=INPUT_BIAS)
            self._evaluators[structure_id] = ev
        return ev

    def _split(self, point: dict) -> tuple[str, dict]:
        try:
            return point["structure"], point["sizes"]
        except (TypeError, KeyError):
            raise ValueError(
                "topogen points are {'structure': id, 'sizes': {...}} "
                f"dicts, got {point!r}") from None

    def __call__(self, point: dict) -> dict:
        structure_id, sizes = self._split(point)
        return self.evaluator_for(structure_id).simulate(sizes)

    def cache_key(self, point: dict) -> str:
        structure_id, sizes = self._split(point)
        try:
            ev = self.evaluator_for(structure_id)
        except KeyError:
            return canonical_key("topogen-unknown", point)
        return canonical_key("topogen", structure_id, ev.cache_key(sizes))


def topogen_workload(topologies: list[ComposedTopology] | None = None,
                     name: str = "topogen") -> Workload:
    """Build the generated-space serve workload (broker-registrable)."""
    evaluator = GeneratedSpaceEvaluator(topologies)
    return Workload(name=name, fn=evaluator, key_fn=evaluator.cache_key)
