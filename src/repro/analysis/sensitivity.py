"""Sensitivity analysis: the glue between performance and layout decisions.

The tutorial singles out sensitivity analysis as "the critical glue that
links the various approaches being taken for cell level layout and system
assembly" (§3.1, [46]).  Two engines are provided:

* :func:`finite_difference_sensitivities` — generic, works for any scalar
  performance function of device parameters (used by the synthesis tools
  and the manufacturability corner search);
* :func:`ac_adjoint_sensitivities` — exact small-signal sensitivities of an
  output voltage w.r.t. every R and C value from one adjoint solve (used by
  the constraint mapper to bound layout parasitics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.ac import SmallSignalSystem
from repro.circuits.devices import Capacitor, Resistor
from repro.circuits.netlist import Circuit


@dataclass(frozen=True)
class ParameterRef:
    """Names one scalar device parameter, e.g. ('m1', 'w')."""

    device: str
    field: str

    def get(self, circuit: Circuit) -> float:
        return getattr(circuit.device(self.device), self.field)

    def set(self, circuit: Circuit, value: float) -> None:
        circuit.update_device(self.device, **{self.field: value})


def finite_difference_sensitivities(
        circuit: Circuit,
        performance: Callable[[Circuit], float],
        parameters: list[ParameterRef],
        rel_step: float = 1e-3) -> dict[ParameterRef, float]:
    """Central-difference d(performance)/d(parameter) for each parameter.

    Each evaluation uses a fresh copy of the circuit so the caller's
    instance is never mutated.
    """
    sensitivities: dict[ParameterRef, float] = {}
    for ref in parameters:
        nominal = ref.get(circuit)
        step = abs(nominal) * rel_step
        if step == 0.0:
            step = rel_step
        up = circuit.copy()
        ref.set(up, nominal + step)
        down = circuit.copy()
        ref.set(down, nominal - step)
        f_up = performance(up)
        f_down = performance(down)
        sensitivities[ref] = (f_up - f_down) / (2.0 * step)
    return sensitivities


def normalized(sensitivities: dict[ParameterRef, float],
               circuit: Circuit,
               performance_value: float) -> dict[ParameterRef, float]:
    """Convert to relative sensitivities (p/f)·df/dp."""
    out = {}
    for ref, ds in sensitivities.items():
        p = ref.get(circuit)
        if performance_value == 0:
            out[ref] = 0.0
        else:
            out[ref] = ds * p / performance_value
    return out


@dataclass
class AcSensitivity:
    """d|V(out)|/d(value) for one linear element at one frequency."""

    device: str
    value: float
    d_mag: float          # derivative of |V(out)| w.r.t. element value
    relative: float       # (value/|V|)·d|V|/d(value)


def ac_adjoint_sensitivities(ss: SmallSignalSystem, out: str,
                             freq_hz: float) -> list[AcSensitivity]:
    """Exact sensitivities of |V(out)| to all R and C values at one frequency.

    Uses the adjoint-network identity:  dV_out/dp = -zᵀ (dA/dp) x, where
    ``A x = b`` is the forward system and ``Aᵀ z = e_out`` the adjoint.
    One forward and one adjoint solve cover every element.
    """
    system = ss.system
    iout = system.node(out)
    if iout < 0:
        raise ValueError("output cannot be ground")
    s = 2j * math.pi * freq_hz
    # One factorization of G + jωC serves both the forward and the
    # adjoint solve.
    op = ss.factorized_at(freq_hz)
    x = op.solve(ss.b_ac)
    e = np.zeros(system.size, dtype=complex)
    e[iout] = 1.0
    z = op.solve_transpose(e)
    v_out = x[iout]
    results: list[AcSensitivity] = []
    for dev in system.circuit.devices:
        if isinstance(dev, Resistor):
            dv = _two_terminal_sensitivity(system, dev.nodes, x, z)
            # A contains g = 1/R: dA/dR = -(1/R²)·(pattern)
            d_vout = dv * (-1.0 / dev.value ** 2) * (-1.0)
            results.append(_pack(dev.name, dev.value, v_out, d_vout))
        elif isinstance(dev, Capacitor):
            dv = _two_terminal_sensitivity(system, dev.nodes, x, z)
            d_vout = -dv * s
            results.append(_pack(dev.name, dev.value, v_out, d_vout))
    return results


def _two_terminal_sensitivity(system, nodes, x, z) -> complex:
    """zᵀ·(pattern)·x for the standard two-terminal conductance pattern."""
    a, b = system.node(nodes[0]), system.node(nodes[1])
    xa = x[a] if a >= 0 else 0.0
    xb = x[b] if b >= 0 else 0.0
    za = z[a] if a >= 0 else 0.0
    zb = z[b] if b >= 0 else 0.0
    return (za - zb) * (xa - xb)


def _pack(name: str, value: float, v_out: complex,
          d_vout: complex) -> AcSensitivity:
    mag = abs(v_out)
    if mag == 0:
        d_mag = 0.0
    else:
        # d|V| = Re(conj(V)·dV)/|V|
        d_mag = float(np.real(np.conj(v_out) * d_vout) / mag)
    rel = d_mag * value / mag if mag else 0.0
    return AcSensitivity(name, value, d_mag, rel)
