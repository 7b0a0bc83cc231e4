"""Transient analysis: trapezoidal integration with Newton at each step.

Solves ``G·x + f_nl(x) + C·ẋ = b(t)`` with the theta-method: backward Euler
for the first step (damps the inconsistent-initial-condition transient) and
trapezoidal afterwards.  Fixed time step with optional step halving when
Newton fails — good enough for the shaped-pulse and power-grid waveforms the
benchmarks need, and simple enough to audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.dcop import (
    ConvergenceError,
    _converged,
    _tolerances,
    dc_operating_point,
)
from repro.analysis.mna import MnaSystem, SingularCircuitError
from repro.analysis.solver import FactorizationCache, solve_stack
from repro.circuits.devices import CurrentSource, VoltageSource
from repro.circuits.netlist import Circuit
from repro.engine.trace import count


@dataclass
class TransientResult:
    """Time sweep result with convenience measurements."""

    times: np.ndarray
    voltages: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray]

    def v(self, net: str) -> np.ndarray:
        if net == "0":
            return np.zeros_like(self.times)
        return self.voltages[net]

    def peak(self, net: str) -> tuple[float, float]:
        """(time, value) of the maximum-magnitude excursion from t=0 value."""
        wave = self.v(net)
        rel = wave - wave[0]
        k = int(np.argmax(np.abs(rel)))
        return float(self.times[k]), float(wave[k])

    def value_at(self, net: str, t: float) -> float:
        return float(np.interp(t, self.times, self.v(net)))

    def settling_time(self, net: str, final: float | None = None,
                      band: float = 0.01) -> float:
        """Last time the waveform leaves the ±band·|final| envelope."""
        wave = self.v(net)
        target = wave[-1] if final is None else final
        tol = band * max(abs(target), 1e-12)
        outside = np.abs(wave - target) > tol
        if not outside.any():
            return float(self.times[0])
        last = int(np.max(np.nonzero(outside)))
        if last + 1 >= len(self.times):
            return float(self.times[-1])
        return float(self.times[last + 1])


def transient(circuit: Circuit, t_stop: float, dt: float,
              x0: np.ndarray | None = None,
              use_ic_op: bool = True,
              max_halvings: int = 8) -> TransientResult:
    """Integrate the circuit from 0 to ``t_stop`` with base step ``dt``.

    Counts ``analysis.tran`` on the active tracer; the initial operating
    point (``use_ic_op`` without ``x0``) counts its own ``analysis.dc``.
    """
    count("analysis.tran")
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")
    system = MnaSystem(circuit)
    G, C, _, _ = system.linear_stamps()
    sources = [
        d for d in system.circuit.devices
        if isinstance(d, (VoltageSource, CurrentSource))
    ]

    if x0 is None and use_ic_op:
        ic_circuit = circuit.map_devices(_source_at_time_zero)
        x = dc_operating_point(ic_circuit).x
    elif x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    else:
        x = np.zeros(system.size)

    times = [0.0]
    states = [x.copy()]
    t = 0.0
    step = dt
    first_step = True
    # For circuits with an empty nonlinear stamp the theta-method matrix
    # G + (theta/h)·C depends only on (h, scheme): factor it once and
    # reuse it across every Newton iteration and timestep.  Nonlinear
    # circuits fall back transparently to per-iteration factorization.
    factors = FactorizationCache() if not system.nonlinear else None
    while t < t_stop - 1e-15 * t_stop:
        h = min(step, t_stop - t)
        ok, x_new = _step(system, G, C, sources, x, t, h,
                          backward_euler=first_step, factors=factors)
        halvings = 0
        while not ok and halvings < max_halvings:
            h /= 2.0
            halvings += 1
            ok, x_new = _step(system, G, C, sources, x, t, h,
                              backward_euler=True, factors=factors)
        if not ok:
            raise ConvergenceError(
                f"transient step at t={t:.4g}s failed after "
                f"{max_halvings} halvings")
        t += h
        x = x_new
        times.append(t)
        states.append(x.copy())
        first_step = False

    data = np.array(states)
    tvec = np.array(times)
    voltages = {
        net: data[:, i] for net, i in system.node_index.items()
    }
    currents = {
        name: data[:, k] for name, k in system.branch_index.items()
    }
    return TransientResult(tvec, voltages, currents)


def _source_at_time_zero(dev):
    from dataclasses import replace
    if isinstance(dev, (VoltageSource, CurrentSource)):
        return replace(dev, dc=dev.waveform.value_at(0.0, dev.dc))
    return dev


def _rhs_at_time(system: MnaSystem, sources, t: float) -> np.ndarray:
    """Source vector b(t) with waveforms evaluated at time t."""
    b = np.zeros(system.size)
    for dev in sources:
        value = dev.waveform.value_at(t, dev.dc)
        if isinstance(dev, VoltageSource):
            b[system.branch_index[dev.name]] += value
        else:
            a, bb = system.node(dev.nodes[0]), system.node(dev.nodes[1])
            if a >= 0:
                b[a] -= value
            if bb >= 0:
                b[bb] += value
    return b


def _newton_nonconv(t: float, h: float) -> None:
    """Count an exhausted Newton loop on the active tracer.

    A step that burns through all 60 iterations used to return
    ``(False, x)`` with no trace: the integrator either silently halved
    the step or raised much later with no record of *where* Newton
    struggled.  The counter (``analysis.newton_nonconv``) flows into
    ``engine.report()`` and the run manifest like every other
    ``analysis.*`` counter.
    """
    count("analysis.newton_nonconv")


def _step(system: MnaSystem, G: np.ndarray, C: np.ndarray, sources,
          x0: np.ndarray, t: float, h: float,
          backward_euler: bool,
          factors: FactorizationCache | None = None
          ) -> tuple[bool, np.ndarray]:
    """One theta-method step; returns (converged, x_new).

    ``factors`` (only passed for circuits with no nonlinear devices)
    caches the LU factorization of ``G + (theta/h)·C`` keyed by
    ``(h, scheme)`` so repeated timesteps — and repeated halvings to the
    same ``h`` — skip straight to the triangular solves.
    """
    b1 = _rhs_at_time(system, sources, t + h)
    if backward_euler:
        # (G + C/h + J) x1 = b1 + C/h·x0 + NR terms
        const = b1 + C @ x0 / h
        mat_c = C / h
    else:
        b0 = _rhs_at_time(system, sources, t)
        f0 = system.nonlinear_currents(x0)
        const = b1 + b0 - G @ x0 - f0 + (2.0 / h) * (C @ x0)
        mat_c = 2.0 * C / h
    x = x0.copy()
    n_nodes = len(system.node_names)
    tol = _tolerances(system)
    base_op = None
    if factors is not None:
        try:
            base_op = factors.get_or_factorize(
                (h, backward_euler), lambda: G + mat_c)
        except SingularCircuitError:
            return False, x
    else:
        base = G + mat_c
    for _ in range(60):
        rhs = const.copy()
        try:
            if base_op is not None:
                x_new = base_op.solve(rhs)
            else:
                A = base.copy()
                system.stamp_nonlinear(x, A, rhs)
                x_new = solve_stack(A[None], rhs[None])[0]
        except SingularCircuitError:
            return False, x
        delta = x_new - x
        dv = delta[:n_nodes]
        max_dv = np.max(np.abs(dv)) if n_nodes else 0.0
        if max_dv > 1.0:
            delta = delta * (1.0 / max_dv)
        x = x + delta
        if _converged(delta, x, tol):
            return True, x
    _newton_nonconv(t, h)
    return False, x
