"""Simulation-based optimization sizing (FRIDGE / DELIGHT.SPICE style).

The performance of every annealing trial point is measured by *running the
simulator* (DC operating point + AC sweep + optional noise) on the actual
transistor netlist.  Introducing a new schematic costs nothing beyond a
circuit builder function — the openness the tutorial credits to this
approach — at the price of long run times, which the Fig. 1 benchmark
quantifies against plans and equation-based sizing.

That run-time price is exactly what :mod:`repro.engine` attacks: hand
:class:`SimulationBasedSizer` an :class:`repro.engine.EvaluationEngine`
and every annealing batch is evaluated through the engine's executor
(serial or process pool) with results memoized in its content-addressed
cache, keyed on the serialized testbench netlist plus analysis
parameters.  The engine is the only memo and the only counter of
simulations: without one, every call simulates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.ac import (
    ac_analysis,
    bode_metrics,
    logspace_frequencies,
    small_signal_system,
)
from repro.analysis.dcop import ConvergenceError, dc_operating_point
from repro.analysis.mna import SingularCircuitError
from repro.analysis.noise import noise_analysis
from repro.circuits.netlist import Circuit
from repro.core.specs import SpecSet
from repro.engine.cache import canonical_key
from repro.engine.config import EngineConfig
from repro.engine.core import EvaluationEngine, flow_engine
from repro.engine.faults import is_failure
from repro.engine.trace import span_if
from repro.opt.anneal import AnnealSchedule, anneal_continuous
from repro.synthesis.equation_based import DesignSpace, SizingResult

CircuitBuilder = Callable[[dict[str, float]], Circuit]

#: Failures of one simulated point; :meth:`SimulationEvaluator.simulate`
#: records them.
SIMULATION_ERRORS = (ConvergenceError, SingularCircuitError, ValueError,
                     KeyError)


@dataclass
class SimulationEvaluator:
    """Measures a standard opamp performance dict by simulation.

    The builder must return a circuit with differential inputs ``inp``/
    ``inn``; the evaluator adds the testbench sources (AC drive on
    ``inp``), finds the operating point, and extracts gain/GBW/PM, power,
    and optionally input noise.

    :meth:`simulate` always simulates.  Memoizing and counting belong to
    the :class:`~repro.engine.EvaluationEngine` it is handed to, which
    keys each point on :meth:`cache_key` — a content hash of the built
    testbench netlist (device sizes included) and the analysis
    parameters.
    """

    builder: CircuitBuilder
    output: str = "out"
    supply: str = "vdd_src"
    input_bias: float = 1.5
    f_start: float = 10.0
    f_stop: float = 1e9
    points_per_decade: int = 4
    with_noise: bool = False
    saturation_devices: tuple[str, ...] = ()
    # True routes simulator failures to the caller as exceptions, the
    # contract the engine's resilience layer expects (retry/penalty/record
    # instead of a silent {}).  False keeps the legacy empty-dict return
    # for direct, engine-less use.
    raise_failures: bool = False

    def build_testbench(self, sizes: dict[str, float]) -> Circuit:
        circuit = self.builder(sizes)
        circuit.vsource("tb_vip", "inp", "0", dc=self.input_bias, ac=1.0)
        circuit.vsource("tb_vin", "inn", "0", dc=self.input_bias)
        return circuit

    def analysis_descriptor(self) -> dict:
        """Everything, besides the netlist, that determines the result."""
        analyses = "dcop+ac" + ("+noise" if self.with_noise else "")
        return {
            "analysis": analyses,
            "output": self.output,
            "supply": self.supply,
            "f_start": self.f_start,
            "f_stop": self.f_stop,
            "points_per_decade": self.points_per_decade,
            "saturation_devices": list(self.saturation_devices),
        }

    def cache_key(self, sizes: dict[str, float]) -> str:
        """Content-addressed key: (testbench netlist, analysis params)."""
        try:
            circuit = self.build_testbench(sizes)
        except (ValueError, KeyError):
            # Unbuildable point: key on the raw sizes so the failure
            # result ({}) is still memoized.
            return canonical_key("unbuildable", sizes,
                                 self.analysis_descriptor())
        return canonical_key(circuit, self.analysis_descriptor())

    def simulate(self, sizes: dict[str, float]) -> dict[str, float]:
        """Run the analyses on the testbench at ``sizes``.

        Simulator failures (non-convergence, singular MNA, unbuildable
        point) either re-raise (``raise_failures=True``, the engine
        resilience path) or collapse to ``{}`` (the legacy direct path —
        :meth:`repro.core.specs.SpecSet.cost` turns a missing metric into
        a fixed penalty).
        """
        try:
            solved = self._solve(sizes)
        except SIMULATION_ERRORS:
            if self.raise_failures:
                raise
            return {}
        return self._performance(*solved)

    def _solve(self, sizes: dict[str, float]):
        """Build the testbench, solve DC and the AC sweep, extract Bode
        metrics; raises on failure.

        With :meth:`_performance` this is the one per-point simulation
        path, which :meth:`simulate` runs.  The small-signal system is
        built once, on the DC's own MNA system, and serves both the AC
        sweep and the noise analysis.
        """
        circuit = self.build_testbench(sizes)
        op = dc_operating_point(circuit)
        ss = small_signal_system(circuit, op)
        freqs = logspace_frequencies(self.f_start, self.f_stop,
                                     self.points_per_decade)
        ac = ac_analysis(circuit, freqs, ss=ss)
        return circuit, op, ss, bode_metrics(ac, self.output)

    def _performance(self, circuit: Circuit, op, ss,
                     metrics) -> dict[str, float]:
        """Assemble the performance dict from solved analyses."""
        performance = {
            "gain": metrics.dc_gain,
            "gain_db": metrics.dc_gain_db,
            "gbw": metrics.unity_gain_freq,
            "bandwidth": metrics.bandwidth_3db,
            "phase_margin": metrics.phase_margin_deg,
            "power": op.power((self.supply,), circuit),
        }
        for name in self.saturation_devices:
            performance[f"sat_{name}"] = (
                1.0 if op.mos[name].region == "saturation" else 0.0)
        if self.with_noise:
            noise = noise_analysis(circuit, self.output,
                                   np.logspace(2, 7, 11), ss=ss)
            inp = noise.input_referred_psd()
            performance["input_noise_density"] = float(np.sqrt(inp[-1]))
        return performance


@dataclass
class _EngineBatch:
    """Batch-evaluation hook routing annealer states through the engine.

    The annealer hands over raw parameter vectors together with its
    scalarized cost function; this adapter re-derives the evaluation so
    the engine's cache stores *simulator output* keyed on netlist content
    — spec-independent and reusable across runs — and applies the spec
    cost in the parent process.  Only ``evaluator.simulate`` (a pure
    sizes → performance mapping) is ever dispatched to workers.
    """

    engine: EvaluationEngine
    evaluator: SimulationEvaluator
    space: DesignSpace
    names: list[str]
    specs: SpecSet
    # Optional repro.surrogate.CorpusIndex: records cache key → sizes for
    # every successful evaluation, which is what lets a later run harvest
    # this run's disk cache as surrogate training data.
    corpus_index: object | None = None

    def _sizes(self, x) -> dict[str, float]:
        point = {n: float(v) for n, v in zip(self.names, x)}
        return self.space.complete(point)

    def map_evaluate(self, _fn, states) -> list[float]:
        points = [self._sizes(x) for x in states]
        perfs = self.engine.map_evaluate(self.evaluator.simulate, points,
                                         key_fn=self.evaluator.cache_key)
        if self.corpus_index is not None:
            for point, perf in zip(points, perfs):
                if not is_failure(perf):
                    self.corpus_index.record(
                        self.evaluator.cache_key(point), point)
        # A failed candidate gets the same deterministic penalty an empty
        # performance dict would (every spec at its fixed miss penalty),
        # so injected-fault runs stay bit-identical across executors.
        failure_cost = self.specs.cost({})
        return [failure_cost if is_failure(p) else self.specs.cost(p)
                for p in perfs]


class SimulationBasedSizer:
    """FRIDGE: full simulation inside the annealing loop.

    With an engine, annealing moves are proposed in batches of
    ``batch_size`` and evaluated through
    :meth:`repro.engine.EvaluationEngine.map_evaluate` — cached, counted,
    and (with a :class:`repro.engine.ParallelExecutor`) fanned out over
    worker processes.  The sizing result is identical for serial and
    parallel executors at a fixed seed, because all randomness stays in
    the parent process.

    ``surrogate`` opts the annealing loop into cache-trained surrogate
    screening (:mod:`repro.surrogate`): pass a ready
    :class:`~repro.surrogate.SurrogateScreen`, a
    :class:`~repro.engine.config.SurrogateConfig`, or set
    ``EngineConfig(surrogate=...)`` — the sizer then builds the feature
    spec from its own design space, warm-starts the corpus from
    ``surrogate.corpus_dir`` (``corpus.jsonl`` plus a harvest of the
    engine's cache against ``corpus_index.jsonl``) and persists the
    grown corpus there after the run.  The final reported sizing is
    always re-measured with a real simulation, screened or not.

    The engine comes from ``engine=`` (shared; the caller closes it) or
    from ``config=`` (built here and closed after :meth:`run`), not
    both.  With neither, every point is simulated directly.
    """

    def __init__(self, evaluator: SimulationEvaluator,
                 space: DesignSpace, specs: SpecSet,
                 schedule: AnnealSchedule | None = None, seed: int = 1,
                 engine: EvaluationEngine | None = None,
                 batch_size: int = 1,
                 max_failure_fraction: float = 0.5,
                 config: EngineConfig | None = None,
                 surrogate=None):
        self.evaluator = evaluator
        self.space = space
        self.specs = specs
        # Simulation evaluations are expensive: default budget is modest.
        self.schedule = schedule or AnnealSchedule(
            moves_per_temperature=30, cooling=0.8, max_evaluations=2000)
        self.seed = seed
        self.engine, self._owns_engine = flow_engine(
            engine, config, "SimulationBasedSizer")
        self.config = config
        if surrogate is None and config is not None:
            surrogate = config.surrogate
        self.surrogate = surrogate
        self.batch_size = batch_size
        self.evaluations = 0
        # Tolerated fraction of failed evaluations before the run itself
        # is declared failed; below it the run completes with a warning
        # summary in the result instead of raising.
        self.max_failure_fraction = max_failure_fraction

    def cost(self, point: dict[str, float]) -> float:
        self.evaluations += 1
        return self.specs.cost(
            self.evaluator.simulate(self.space.complete(point)))

    def _build_screen(self, cont):
        """Resolve the ``surrogate`` option into a live screen.

        Returns ``(screen, corpus_path)``; ``corpus_path`` is where the
        grown corpus is rewritten after the run (None without a
        ``corpus_dir``).  A ready-made ``SurrogateScreen`` passes
        through untouched — its owner manages persistence.
        """
        if self.surrogate is None:
            return None, None
        from repro.engine.config import SurrogateConfig
        if not isinstance(self.surrogate, SurrogateConfig):
            return self.surrogate, None
        from pathlib import Path

        from repro.surrogate import (
            Corpus,
            FeatureSpec,
            SurrogateScreen,
            harvest_cache,
        )
        cfg = self.surrogate
        spec = FeatureSpec.from_continuous(cont)
        corpus = Corpus(max_records=cfg.max_corpus)
        corpus_path = None
        if cfg.corpus_dir is not None:
            corpus_dir = Path(cfg.corpus_dir)
            corpus_path = corpus_dir / "corpus.jsonl"
            corpus.merge(Corpus.from_jsonl(corpus_path,
                                           max_records=cfg.max_corpus))
            cache = self.engine.cache if self.engine is not None else None
            if cache is not None:
                harvest_cache(cache, corpus_dir / "corpus_index.jsonl",
                              feature_spec=spec, cost_fn=self.specs.cost,
                              corpus=corpus)
        telemetry = self.engine.telemetry if self.engine is not None else None
        tracer = getattr(self.engine, "tracer", None) \
            if self.engine is not None else None
        screen = SurrogateScreen(
            featurize=lambda x: spec.encode(cont.to_dict(x)),
            config=cfg, telemetry=telemetry, tracer=tracer, corpus=corpus)
        return screen, corpus_path

    def run(self, x0: dict[str, float] | None = None) -> SizingResult:
        self.evaluations = 0
        cont = self.space.to_continuous()
        start = np.array([x0[n] for n in cont.names]) if x0 else None
        executor = None
        failures_before = 0
        screen, corpus_path = self._build_screen(cont)
        corpus_index = None
        if corpus_path is not None:
            from repro.surrogate import CorpusIndex
            corpus_index = CorpusIndex(
                corpus_path.with_name("corpus_index.jsonl"))
        if self.engine is not None:
            if not isinstance(self.evaluator, SimulationEvaluator):
                raise TypeError(
                    "engine-backed sizing needs a SimulationEvaluator "
                    "(it provides simulate() and cache_key())")
            executor = _EngineBatch(self.engine, self.evaluator,
                                    self.space, cont.names, self.specs,
                                    corpus_index=corpus_index)
            failures_before = self.engine.failure_count()
        tracer = getattr(self.engine, "tracer", None) \
            if self.engine is not None else None
        t0 = time.perf_counter()
        try:
            with span_if(tracer, "sizing"):
                result = anneal_continuous(self.cost, cont,
                                           schedule=self.schedule,
                                           seed=self.seed, x0=start,
                                           executor=executor,
                                           batch_size=self.batch_size,
                                           surrogate=screen)
        finally:
            if corpus_index is not None:
                corpus_index.close()
        if screen is not None and corpus_path is not None:
            screen.corpus.to_jsonl(corpus_path)
        runtime = time.perf_counter() - t0
        best = cont.to_dict(result.best_state)
        warnings: list[str] = []
        failures = 0
        if executor is not None:
            sizes = executor._sizes(result.best_state)
            performance = self.engine.evaluate(
                self.evaluator.simulate, sizes,
                key=self.evaluator.cache_key(sizes))
            if is_failure(performance):
                warnings.append(f"best-point re-evaluation failed: "
                                f"{performance}")
                performance = {}
            self.evaluations = result.evaluations
            failures = self.engine.failure_count() - failures_before
            if result.evaluations:
                fraction = failures / result.evaluations
                if fraction > self.max_failure_fraction:
                    raise RuntimeError(
                        f"sizing lost {fraction:.0%} of {result.evaluations} "
                        f"evaluations to failures (budget "
                        f"{self.max_failure_fraction:.0%}); see "
                        f"engine.report() for the failure records")
            if failures:
                summary = self.engine.failure_summary()
                if summary:
                    warnings.append(summary)
        else:
            sizes = self.space.complete(best)
            performance = self.evaluator.simulate(sizes)
        if self._owns_engine:
            # Config-built engines belong to the sizer: shut the executor
            # down (report()/telemetry stay readable afterwards).
            self.engine.close()
        return SizingResult(
            sizes=sizes,
            performance=performance,
            cost=result.best_cost,
            feasible=self.specs.all_satisfied(performance),
            evaluations=self.evaluations,
            runtime_s=runtime,
            history=result.history,
            failures=failures,
            warnings=warnings,
        )
