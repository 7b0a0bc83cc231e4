"""ASTRX/OBLX-style synthesis: compiled cost function + annealing search.

ASTRX compiles a synthesis problem (circuit template + specs) into an
executable cost function; OBLX minimizes it by simulated annealing.  Two
signature techniques of the tool are reproduced:

* **AWE small-signal evaluation** — instead of full AC sweeps, the
  linearized circuit is reduced to a pole/residue model (one LU + a few
  back-solves per evaluation), from which gain, bandwidth and unity-gain
  frequency are read;
* **dc-free biasing** — node voltages are *optimization variables*, not
  the solution of a per-evaluation Newton run.  Kirchhoff current-law
  residuals enter the cost as penalties ("solved by relaxation throughout
  the optimization run"), vanishing as the anneal converges.

After the search, the winning sizes are re-verified with the real
simulator (full Newton DC + AC sweep), so reported results are honest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.ac import (
    ac_analysis,
    bode_metrics,
    logspace_frequencies,
    small_signal_system,
)
from repro.analysis.dcop import (
    ConvergenceError,
    OperatingPoint,
    dc_operating_point,
)
from repro.analysis.mna import MnaSystem, SingularCircuitError
from repro.awe import PadeError, reduce_circuit
from repro.circuits.devices import Mosfet, VoltageSource
from repro.circuits.netlist import Circuit
from repro.core.specs import SpecSet
from repro.opt.anneal import AnnealSchedule, Annealer
from repro.synthesis.equation_based import DesignSpace, SizingResult

CircuitBuilder = Callable[[dict[str, float]], Circuit]


@dataclass
class _Candidate:
    """OBLX search state: sizes plus relaxed node voltages."""

    sizes: np.ndarray        # in design-space order
    voltages: np.ndarray     # free-node voltages

    def copy(self) -> "_Candidate":
        return _Candidate(self.sizes.copy(), self.voltages.copy())


@dataclass
class AstrxResult(SizingResult):
    kcl_residual: float = 0.0
    verified: bool = False


class AstrxProblem:
    """The compiled synthesis problem (the output of the 'ASTRX' step)."""

    def __init__(self, builder: CircuitBuilder, space: DesignSpace,
                 specs: SpecSet, output: str = "out",
                 input_bias: float = 1.5, supply: str = "vdd_src",
                 kcl_weight: float = 30.0):
        self.builder = builder
        self.space = space
        self.specs = specs
        self.output = output
        self.input_bias = input_bias
        self.supply = supply
        self.kcl_weight = kcl_weight
        self.cont = space.to_continuous()
        # Compile: build once at the space midpoint to freeze structure.
        mid = {n: math.sqrt(lo * hi) for n, (lo, hi) in
               space.variables.items()}
        template = self._testbench(mid)
        self.system = MnaSystem(template)
        self._classify_nodes(template)
        self.evaluations = 0

    # ------------------------------------------------------------------
    def _testbench(self, sizes: dict[str, float]) -> Circuit:
        circuit = self.builder(self.space.complete(sizes))
        circuit.vsource("tb_vip", "inp", "0", dc=self.input_bias, ac=1.0)
        circuit.vsource("tb_vin", "inn", "0", dc=self.input_bias)
        return circuit

    def _classify_nodes(self, circuit: Circuit) -> None:
        """Split nodes into source-driven (fixed) and free (relaxed)."""
        driven: dict[int, float] = {}
        for dev in circuit.devices:
            if isinstance(dev, VoltageSource):
                a, b = (self.system.node(n) for n in dev.nodes)
                if b == -1 and a >= 0:
                    driven[a] = dev.dc
                elif a == -1 and b >= 0:
                    driven[b] = -dev.dc
                else:
                    raise ValueError(
                        "dc-free formulation requires voltage sources "
                        f"referenced to ground; {dev.name} is floating")
        self.driven = driven
        n_nodes = len(self.system.node_names)
        self.free_nodes = [i for i in range(n_nodes) if i not in driven]
        self.vdd_value = max((v for v in driven.values()), default=3.3)

    # ------------------------------------------------------------------
    def assemble_x(self, candidate: _Candidate) -> np.ndarray:
        x = np.zeros(self.system.size)
        for node, value in self.driven.items():
            x[node] = value
        for k, node in enumerate(self.free_nodes):
            x[node] = candidate.voltages[k]
        return x

    def kcl_residual(self, f: np.ndarray, b: np.ndarray) -> float:
        """Normalized KCL residual over the free (relaxed) nodes, from
        the residual vector ``f = G x + f_nl(x) - b``."""
        res = f[self.free_nodes]
        # Normalize by a representative current so the penalty is unitless.
        scale = max(np.max(np.abs(b)) if b.size else 0.0, 1e-6)
        return float(np.linalg.norm(res) / scale)

    def _pseudo_op(self, system: MnaSystem, x: np.ndarray) -> OperatingPoint:
        """The relaxed point as an operating point on ``system``, which
        the small-signal system then reuses."""
        voltages = {n: float(x[i]) for n, i in system.node_index.items()}
        mos = {d.name: system.mos_op(d, x) for d in system.nonlinear
               if isinstance(d, Mosfet)}
        return OperatingPoint(voltages, {}, mos, 0, x=x, system=system)

    def evaluate(self, candidate: _Candidate) -> tuple[dict[str, float], float]:
        """Performance dict + KCL residual at a candidate point."""
        self.evaluations += 1
        sizes = self.cont.to_dict(candidate.sizes)
        try:
            circuit = self._testbench(sizes)
            system = MnaSystem(circuit)
            G, _, b, _ = system.linear_stamps()
            x = self.assemble_x(candidate)
            # One residual serves the KCL penalty (free nodes) and the
            # supply current (device currents into the supply node).
            f = G @ x + system.nonlinear_currents(x) - b
            kcl = self.kcl_residual(f, b)
            op = self._pseudo_op(system, x)
            ss = small_signal_system(circuit, op)
            model = reduce_circuit(ss, self.output, order=3)
            gain = abs(model.dc_value())
            bw = abs(model.dominant_pole().real) / (2 * math.pi)
            gbw = gain * bw
            supply_node = self._supply_node(circuit)
            i_dd = abs(f[supply_node]) if supply_node >= 0 else 0.0
            performance = {
                "gain": gain,
                "gain_db": 20 * math.log10(max(gain, 1e-12)),
                "gbw": gbw,
                "bandwidth": bw,
                "power": self.vdd_value * i_dd,
            }
            return performance, kcl
        except (SingularCircuitError, PadeError, ValueError, KeyError):
            return {}, 100.0

    def _supply_node(self, circuit: Circuit) -> int:
        dev = circuit.device(self.supply)
        return self.system.node(dev.nodes[0])

    def cost(self, candidate: _Candidate) -> float:
        performance, kcl = self.evaluate(candidate)
        return self.specs.cost(performance) + self.kcl_weight * kcl


class OblxOptimizer:
    """The annealing search over the compiled ASTRX problem."""

    def __init__(self, problem: AstrxProblem,
                 schedule: AnnealSchedule | None = None, seed: int = 1):
        self.problem = problem
        self.schedule = schedule or AnnealSchedule(
            moves_per_temperature=120, cooling=0.85, max_evaluations=12000)
        self.seed = seed

    def _propose(self, cand: _Candidate, rng: np.random.Generator,
                 frac: float) -> _Candidate:
        p = self.problem
        if rng.random() < 0.5:
            cand.sizes = p.cont.perturb(cand.sizes, rng, frac)
        else:
            k = rng.integers(len(cand.voltages))
            step = (0.02 + 0.4 * frac) * p.vdd_value
            cand.voltages[k] = float(np.clip(
                cand.voltages[k] + rng.normal(0.0, step),
                0.0, p.vdd_value))
        return cand

    def run(self) -> AstrxResult:
        p = self.problem
        p.evaluations = 0
        rng = np.random.default_rng(self.seed)
        start = _Candidate(
            sizes=p.cont.random_point(rng),
            voltages=np.full(len(p.free_nodes), p.vdd_value / 2.0),
        )
        annealer = Annealer(p.cost, self._propose, schedule=self.schedule,
                            copy_state=lambda c: c.copy(), seed=self.seed)
        t0 = time.perf_counter()
        result = annealer.run(start)
        runtime = time.perf_counter() - t0
        best = result.best_state
        sizes = p.space.complete(p.cont.to_dict(best.sizes))
        performance, kcl = p.evaluate(best)
        verified = self._verify(sizes, performance)
        return AstrxResult(
            sizes=sizes,
            performance=performance,
            cost=result.best_cost,
            feasible=p.specs.all_satisfied(performance),
            evaluations=p.evaluations,
            runtime_s=runtime,
            history=result.history,
            kcl_residual=kcl,
            verified=verified,
        )

    def _verify(self, sizes: dict[str, float],
                performance: dict[str, float]) -> bool:
        """Post-synthesis check with the real simulator (full Newton DC)."""
        p = self.problem
        try:
            circuit = p._testbench(
                {k: sizes[k] for k in p.space.variables})
            op = dc_operating_point(circuit)
            freqs = logspace_frequencies(1.0, 1e9, 4)
            metrics = bode_metrics(ac_analysis(circuit, freqs, op=op),
                                   p.output)
        except (ConvergenceError, SingularCircuitError, ValueError):
            return False
        performance["verified_gain"] = metrics.dc_gain
        performance["verified_gbw"] = metrics.unity_gain_freq
        performance["verified_power"] = op.power((p.supply,), circuit)
        return True
