"""DC operating-point analysis: damped Newton–Raphson with homotopies.

The solver applies the classic SPICE escalation ladder:

1. plain damped Newton–Raphson from a flat start (or a supplied guess);
2. *gmin stepping* — solve with a large shunt conductance on every node,
   then relax it geometrically toward the target gmin;
3. *source stepping* — ramp all independent sources from 0 to 100%.

Analog cells with well-defined bias (the circuits the synthesis tools
produce) almost always converge in stage 1; the later stages make the
simulator robust inside optimization loops where intermediate sizings can
be electrically absurd — exactly the situation FRIDGE-style tools face.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.mna import (
    MnaSystem,
    MosOperatingPoint,
    SingularCircuitError,
)
from repro.analysis import solver as _solver
from repro.circuits.devices import CurrentSource, Mosfet, VoltageSource
from repro.circuits.netlist import Circuit
from repro.engine.trace import count

MAX_NR_ITERATIONS = 150
VOLTAGE_ABS_TOL = 1e-6
CURRENT_ABS_TOL = 1e-9
MAX_STEP_VOLTS = 0.5


class ConvergenceError(RuntimeError):
    """Raised when all homotopy stages fail to converge."""


@dataclass
class OperatingPoint:
    """DC solution: node voltages, branch currents and MOS small-signal data."""

    voltages: dict[str, float]
    branch_currents: dict[str, float]
    mos: dict[str, MosOperatingPoint]
    iterations: int
    x: np.ndarray = field(repr=False, default=None)  # raw solution vector
    # The system the point was solved on (None for a hand-built point);
    # the small-signal analyses of the same circuit reuse it.
    system: MnaSystem | None = field(repr=False, default=None,
                                     compare=False)

    def v(self, net: str) -> float:
        if net == "0":
            return 0.0
        return self.voltages[net]

    def i(self, source_name: str) -> float:
        return self.branch_currents[source_name]

    def supply_current(self, source_name: str = "vdd_src") -> float:
        """Magnitude of the current delivered by a supply source."""
        return abs(self.branch_currents[source_name])

    def power(self, supply_names: tuple[str, ...], circuit: Circuit) -> float:
        """Total power drawn from the named supplies, in watts.

        Each supply contributes ``|dc| · |i|``: the dc value of the
        source device of that name in ``circuit`` times the branch
        current of this solution.  A name without a branch current
        contributes nothing.
        """
        total = 0.0
        for name in supply_names:
            i = abs(self.branch_currents.get(name, 0.0))
            v = abs(getattr(circuit.device(name), "dc", 0.0))
            total += v * i
        return total

    def saturated(self, *names: str) -> bool:
        """True when every named MOSFET operates in saturation."""
        return all(self.mos[n].region == "saturation" for n in names)


def dc_operating_point(circuit: Circuit,
                       x0: np.ndarray | None = None,
                       gmin: float = 1e-12) -> OperatingPoint:
    """Solve the DC operating point of ``circuit``.

    Counts ``analysis.dc`` on the active tracer.  Raises
    :class:`ConvergenceError` when Newton, gmin stepping and source
    stepping all fail.
    """
    count("analysis.dc")
    system = MnaSystem(circuit, gmin=gmin)
    G, _, b_dc, _ = system.linear_stamps()
    x = np.zeros(system.size) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (system.size,):
        x = np.zeros(system.size)

    x, iters, ok = _newton(system, G, b_dc, x)
    total_iters = iters
    if not ok:
        x, iters, ok = _gmin_stepping(system, G, b_dc)
        total_iters += iters
    if not ok:
        x, iters, ok = _source_stepping(system, circuit, gmin)
        total_iters += iters
    if not ok:
        raise ConvergenceError(
            f"DC operating point of {circuit.name!r} did not converge "
            f"after {total_iters} total Newton iterations")
    return _package(system, x, total_iters)


def _package(system: MnaSystem, x: np.ndarray, iterations: int) -> OperatingPoint:
    voltages = {n: float(x[i]) for n, i in system.node_index.items()}
    currents = {name: float(x[k]) for name, k in system.branch_index.items()}
    mos = {
        d.name: system.mos_op(d, x)
        for d in system.nonlinear if isinstance(d, Mosfet)
    }
    return OperatingPoint(voltages, currents, mos, iterations, x=x,
                          system=system)


def _newton(system: MnaSystem, G_lin: np.ndarray, b: np.ndarray,
            x0: np.ndarray, gmin_extra: float = 0.0,
            max_iter: int = MAX_NR_ITERATIONS):
    """Damped NR iteration.  Returns (x, iterations, converged).

    Routes every solve through :mod:`repro.analysis.solver`.  The
    Jacobian's linear part (``G_lin`` plus the ``gmin_extra`` node
    shunt) and the convergence tolerances are built once per call.  For
    a purely linear circuit the Jacobian never changes, so the LU
    factorization is computed once and reused by every iteration;
    nonlinear circuits re-stamp a copy of the linear part per iteration
    as Newton requires and solve each step once with
    :func:`~repro.analysis.solver.solve_stack`.
    """
    x = x0.copy()
    n_nodes = len(system.node_names)
    base = G_lin.copy()
    if gmin_extra:
        base[:n_nodes, :n_nodes] += np.eye(n_nodes) * gmin_extra
    tol = _tolerances(system)
    linear_only = not system.nonlinear
    base_op = None
    for it in range(1, max_iter + 1):
        rhs = b.copy()
        try:
            if linear_only:
                if base_op is None:
                    base_op = _solver.factorize(base)
                x_new = base_op.solve(rhs)
            else:
                A = base.copy()
                system.stamp_nonlinear(x, A, rhs)
                x_new = _solver.solve_stack(A[None], rhs[None])[0]
        except SingularCircuitError:
            return x, it, False
        delta = x_new - x
        # Damp node-voltage updates; branch currents are left free.
        dv = delta[:n_nodes]
        max_dv = np.max(np.abs(dv)) if n_nodes else 0.0
        if max_dv > MAX_STEP_VOLTS:
            delta = delta * (MAX_STEP_VOLTS / max_dv)
        x = x + delta
        if _converged(delta, x, tol):
            return x, it, True
    return x, max_iter, False


def _tolerances(system: MnaSystem) -> np.ndarray:
    """Absolute Newton tolerances: volts on node unknowns, amperes on
    branch unknowns."""
    tol = np.full(system.size, CURRENT_ABS_TOL)
    tol[:len(system.node_names)] = VOLTAGE_ABS_TOL
    return tol


def _converged(delta: np.ndarray, x: np.ndarray, tol: np.ndarray) -> bool:
    """Every update within its absolute tolerance plus 1e-6 relative."""
    return bool((np.abs(delta) <= tol + 1e-6 * np.abs(x)).all())


def _gmin_stepping(system: MnaSystem, G_lin: np.ndarray, b: np.ndarray):
    x = np.zeros(system.size)
    total = 0
    gmin_extra = 1e-2
    while gmin_extra >= 1e-12:
        x_new, iters, ok = _newton(system, G_lin, b, x, gmin_extra=gmin_extra,
                                   max_iter=60)
        total += iters
        if not ok:
            return x, total, False
        x = x_new
        gmin_extra /= 10.0
    # Final solve without the extra shunt.
    x, iters, ok = _newton(system, G_lin, b, x, max_iter=60)
    return x, total + iters, ok


def _source_stepping(system: MnaSystem, circuit: Circuit, gmin: float):
    """Ramp all independent sources from 10% to 100%."""
    total = 0
    x = np.zeros(system.size)
    for scale in (0.1, 0.3, 0.5, 0.7, 0.85, 1.0):
        scaled = circuit.map_devices(lambda d: _scale_source(d, scale))
        sys_scaled = MnaSystem(scaled, gmin=gmin)
        G, _, b_dc, _ = sys_scaled.linear_stamps()
        x, iters, ok = _newton(sys_scaled, G, b_dc, x, max_iter=80)
        total += iters
        if not ok:
            return x, total, False
    return x, total, True


def _scale_source(dev, scale: float):
    from dataclasses import replace
    if isinstance(dev, (VoltageSource, CurrentSource)):
        return replace(dev, dc=dev.dc * scale)
    return dev


def dc_sweep(circuit: Circuit, source_name: str,
             values: np.ndarray) -> list[OperatingPoint]:
    """Sweep the DC value of one source, warm-starting each point."""
    results: list[OperatingPoint] = []
    x_prev: np.ndarray | None = None
    for value in values:
        swept = circuit.copy()
        swept.update_device(source_name, dc=float(value))
        op = dc_operating_point(swept, x0=x_prev)
        results.append(op)
        x_prev = op.x
    return results
