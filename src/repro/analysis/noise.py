"""Noise analysis: output and input-referred spectral densities.

Each noisy element contributes a current-noise power spectral density
injected across its terminals:

* resistor — thermal, ``4kT/R``;
* MOSFET — channel thermal ``4kT·(2/3)·gm`` plus flicker
  ``KF·Id^AF / (Cox·W·L·f)`` (SPICE-style), both across drain–source.

Transfers from every injection point to the output are obtained from one
adjoint solve per frequency, so the cost is independent of the number of
noise sources — the same trick the sensitivity-driven layout tools of the
tutorial rely on.  The adjoint solves of the whole sweep run as one
stacked solve, and so do the gain solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.ac import SmallSignalSystem, small_signal_system
from repro.analysis.dcop import OperatingPoint
from repro.circuits.devices import BOLTZMANN, ROOM_TEMP_K, Mosfet, Resistor
from repro.circuits.netlist import Circuit
from repro.engine.trace import count

FOUR_KT = 4.0 * BOLTZMANN * ROOM_TEMP_K


@dataclass
class NoiseContribution:
    device: str
    kind: str  # "thermal" | "flicker"
    psd: np.ndarray  # output-referred V²/Hz per frequency


@dataclass
class NoiseResult:
    """Output noise spectrum and per-device breakdown."""

    freqs: np.ndarray
    output_psd: np.ndarray              # total, V²/Hz
    contributions: list[NoiseContribution]
    gain: np.ndarray | None = None      # |V(out)/ac input| if available

    def output_rms(self, f_lo: float | None = None,
                   f_hi: float | None = None) -> float:
        """Integrated output noise voltage over [f_lo, f_hi] (trapezoid)."""
        mask = np.ones_like(self.freqs, dtype=bool)
        if f_lo is not None:
            mask &= self.freqs >= f_lo
        if f_hi is not None:
            mask &= self.freqs <= f_hi
        f = self.freqs[mask]
        p = self.output_psd[mask]
        if len(f) < 2:
            return 0.0
        return math.sqrt(float(np.trapezoid(p, f)))

    def input_referred_psd(self) -> np.ndarray:
        if self.gain is None:
            raise ValueError("no AC input source: gain unavailable")
        return self.output_psd / np.maximum(self.gain ** 2, 1e-300)

    def dominant_contributor(self) -> str:
        totals = [(float(np.trapezoid(c.psd, self.freqs)), c.device)
                  for c in self.contributions]
        return max(totals)[1]


def noise_analysis(circuit: Circuit, out: str, freqs: np.ndarray,
                   op: OperatingPoint | None = None,
                   ss: SmallSignalSystem | None = None) -> NoiseResult:
    """Compute the output noise spectrum at net ``out`` over ``freqs``.

    Counts ``analysis.noise`` on the active tracer.  Without ``ss`` the
    small-signal system is built at ``op`` (:func:`small_signal_system`).
    """
    count("analysis.noise")
    freqs = np.asarray(freqs, dtype=float)
    if ss is None:
        ss = small_signal_system(circuit, op)
    system = ss.system
    iout = system.node(out)
    if iout < 0:
        raise ValueError("noise output cannot be the ground net")

    injections = _noise_injections(ss)
    has_input = bool(np.any(np.abs(ss.b_ac) > 0))

    e = np.zeros(system.size, dtype=complex)
    e[iout] = 1.0
    # One adjoint solve per frequency covers every injection at once.
    z = ss.sweep(freqs, e, adjoint=True)
    contributions = []
    for (device, kind), (a, b, psd_fn) in injections.items():
        za = z[:, a] if a >= 0 else 0.0
        zb = z[:, b] if b >= 0 else 0.0
        psd = np.abs(za - zb) ** 2 * psd_fn(freqs)
        contributions.append(
            NoiseContribution(device=device, kind=kind, psd=psd))
    gain = np.abs(ss.sweep(freqs, ss.b_ac)[:, iout]) if has_input else None
    total = np.sum([c.psd for c in contributions], axis=0) if contributions \
        else np.zeros(len(freqs))
    return NoiseResult(freqs, total, contributions, gain=gain)


def _noise_injections(ss: SmallSignalSystem):
    """Map (device, kind) → (node_a, node_b, psd(f)) for each noise source."""
    system = ss.system
    injections = {}
    for dev in system.circuit.devices:
        if isinstance(dev, Resistor):
            a, b = system.node(dev.nodes[0]), system.node(dev.nodes[1])
            value = dev.value
            injections[(dev.name, "thermal")] = (
                a, b, _const_psd(FOUR_KT / value))
        elif isinstance(dev, Mosfet):
            mop = ss.op.mos[dev.name]
            d, s = system.node(dev.drain), system.node(dev.source)
            gm = max(mop.gm, 0.0)
            injections[(dev.name, "thermal")] = (
                d, s, _const_psd(FOUR_KT * (2.0 / 3.0) * gm))
            model = dev.model
            if model.kf > 0 and abs(mop.ids) > 0:
                num = model.kf * abs(mop.ids) ** model.af
                den = model.cox * dev.w * dev.l * dev.m
                injections[(dev.name, "flicker")] = (
                    d, s, _flicker_psd(num / den))
    return injections


def _const_psd(value: float):
    return lambda f: np.full(np.shape(f), value)


def _flicker_psd(scale: float):
    return lambda f: scale / np.maximum(f, 1e-3)


def equivalent_noise_charge(result: NoiseResult, gain_v_per_coulomb: float,
                            f_lo: float = 1e2, f_hi: float = 1e7) -> float:
    """ENC in rms electrons given the charge gain of a CSA chain.

    ENC = output rms noise / (charge gain) / q — the figure of merit of the
    Table 1 pulse detector ("noise < 1000 rms e-").
    """
    from repro.circuits.devices import Q_ELECTRON
    vn = result.output_rms(f_lo, f_hi)
    return vn / gain_v_per_coulomb / Q_ELECTRON
