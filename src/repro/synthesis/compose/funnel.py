"""The generate → validate → prune → size funnel over composed structures.

:class:`TopologyFunnel` chains the whole compositional flow:

1. **generate** the structure space (:func:`generate_topologies`);
2. **validate** each structure electrically (parse round-trip, DC solve,
   KCL residual) — invalid structures are counted, never sized;
3. **pre-filter** with the interval selector over the auto-registered
   :class:`TopologyCandidate` bridge (unproven passes surface through
   ``topology.interval_unproven``);
4. **rank** the survivors symbolically (:mod:`.prune`) and keep the
   top-k — a ≥ 5× cut of the sized set by default;
5. **size** each survivor through :class:`SimulationBasedSizer` on the
   funnel's engine, with optional surrogate screening, and pick the
   best sized design NaN-safely.

Progress is counted on the engine's telemetry under ``topogen.*`` and
rolled into report schema v8 / manifest v7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.specs import SpecSet
from repro.engine.config import EngineConfig
from repro.engine.core import EvaluationEngine, flow_engine
from repro.engine.trace import span_if
from repro.opt.anneal import AnnealSchedule
from repro.synthesis.compose.generator import (
    ComposedTopology,
    INPUT_BIAS,
    generate_topologies,
    validate_topology,
)
from repro.synthesis.compose.prune import (
    StructureRank,
    prune_structures,
    rank_structures,
)
from repro.synthesis.simulation_based import (
    SimulationBasedSizer,
    SimulationEvaluator,
)
from repro.synthesis.topology import (
    TopologySelectionResult,
    _cost_improves,
    select_interval,
)


class StructureBuilder:
    """Picklable sizes → Circuit builder for one composed structure."""

    def __init__(self, topology: ComposedTopology):
        self.topology = topology

    def __call__(self, sizes: dict[str, float]):
        return self.topology.build(sizes)


@dataclass
class FunnelResult:
    """Everything the funnel produced, stage by stage."""

    generated: int
    valid: list[ComposedTopology]
    invalid: int
    interval_viable: list[str]
    interval_unproven: tuple[str, ...]
    ranked: list[StructureRank]
    survivors: list[StructureRank]
    sized: list[TopologySelectionResult] = field(default_factory=list)
    best: TopologySelectionResult | None = None

    @property
    def prune_ratio(self) -> float:
        return len(self.ranked) / max(len(self.survivors), 1)


class TopologyFunnel:
    """Compositional topology synthesis end to end.

    Pass either a live ``engine`` (shared telemetry/cache/tracer — the
    serve-layer integration) or a ``config`` to build one; with neither,
    a default serial engine is built and closed after :meth:`run`.
    """

    def __init__(self, specs: SpecSet,
                 engine: EvaluationEngine | None = None,
                 config: EngineConfig | None = None,
                 seed: int = 0,
                 sample: int | None = None,
                 keep: int | None = None,
                 prune_ratio: float = 6.0,
                 prune_tol: float = 0.05,
                 schedule: AnnealSchedule | None = None,
                 batch_size: int = 8,
                 surrogate=None):
        self.specs = specs
        if engine is None and config is None:
            config = EngineConfig()
        self.engine, self._owns_engine = flow_engine(engine, config,
                                                     "TopologyFunnel")
        self.seed = seed
        self.sample = sample
        self.keep = keep
        self.prune_ratio = prune_ratio
        self.prune_tol = prune_tol
        # Simulation budget per survivor is deliberately modest: the
        # funnel's job is breadth; depth belongs to a follow-up sizing
        # run of the winning structure.
        self.schedule = schedule or AnnealSchedule(
            moves_per_temperature=16, cooling=0.7, max_evaluations=160)
        self.batch_size = batch_size
        if surrogate is None and config is not None:
            surrogate = config.surrogate
        self.surrogate = surrogate

    # -- stages --------------------------------------------------------
    def run(self) -> FunnelResult:
        telemetry = self.engine.telemetry
        tracer = getattr(self.engine, "tracer", None)
        try:
            with span_if(tracer, "topogen"):
                with span_if(tracer, "topogen.generate"):
                    topos = generate_topologies(seed=self.seed,
                                                sample=self.sample)
                    telemetry.count("topogen.generated", len(topos))
                with span_if(tracer, "topogen.validate"):
                    valid, invalid = self._validate(topos, telemetry)
                with span_if(tracer, "topogen.prefilter"):
                    viable, unproven, viable_topos = \
                        self._interval_prefilter(valid, telemetry)
                with span_if(tracer, "topogen.rank"):
                    ranked = rank_structures(viable_topos, self.specs,
                                             prune_tol=self.prune_tol,
                                             telemetry=telemetry)
                survivors = prune_structures(ranked, keep=self.keep,
                                             ratio=self.prune_ratio)
                telemetry.count("topogen.pruned_out",
                                len(ranked) - len(survivors))
                telemetry.count("topogen.survivors", len(survivors))
                result = FunnelResult(
                    generated=len(topos), valid=valid, invalid=invalid,
                    interval_viable=list(viable),
                    interval_unproven=unproven,
                    ranked=ranked, survivors=survivors)
                with span_if(tracer, "topogen.size"):
                    self._size_survivors(result, telemetry)
            return result
        finally:
            if self._owns_engine:
                self.engine.close()

    def _validate(self, topos: list[ComposedTopology], telemetry):
        valid: list[ComposedTopology] = []
        invalid = 0
        for topo in topos:
            report = validate_topology(topo)
            if report.ok:
                valid.append(topo)
                telemetry.count("topogen.valid")
            else:
                invalid += 1
                telemetry.count("topogen.invalid")
        return valid, invalid

    def _interval_prefilter(self, valid: list[ComposedTopology], telemetry):
        candidates = [t.as_candidate() for t in valid]
        selection = select_interval(self.specs, candidates,
                                    telemetry=telemetry)
        keep = set(selection)
        viable_topos = [t for t in valid if t.structure_id in keep]
        return selection, selection.unproven, viable_topos

    def _size_survivors(self, result: FunnelResult, telemetry) -> None:
        for rank in result.survivors:
            topo = rank.topology
            evaluator = SimulationEvaluator(
                builder=StructureBuilder(topo), input_bias=INPUT_BIAS)
            # One shared engine: one telemetry, one cache, one tracer
            # across every survivor's sizing; its ``engine.evaluations``
            # counts the simulations under either executor.
            sizer = SimulationBasedSizer(
                evaluator, topo.space, self.specs,
                schedule=self.schedule, seed=self.seed,
                engine=self.engine, batch_size=self.batch_size,
                surrogate=self.surrogate)
            sizing = sizer.run(x0=self._x0(topo))
            telemetry.count("topogen.sized")
            selection = TopologySelectionResult(
                topo.structure_id, sizing, sizing.evaluations)
            result.sized.append(selection)
            if result.best is None or _cost_improves(
                    sizing.cost, result.best.sizing.cost):
                result.best = selection

    def _x0(self, topo: ComposedTopology) -> dict[str, float]:
        defaults = topo.default_sizes()
        return {name: defaults[name] for name in topo.space.variables}
