"""Small-signal AC analysis and Bode-plot metrics.

Linearizes the circuit at a DC operating point (MOSFETs become
gm/gds/gmb + Meyer capacitances, diodes become gd + junction cap) and
solves ``(G + jωC)x = b_ac`` over a frequency sweep — every frequency of
the sweep in one stacked solve.  The same linearized matrices feed the
AWE engine (:mod:`repro.awe`) and the noise analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.dcop import OperatingPoint, dc_operating_point
from repro.analysis.mna import GMIN_DEFAULT, MnaSystem
from repro.analysis.solver import (
    SPARSE_SIZE_THRESHOLD,
    FactorizationCache,
    FactorizedOperator,
    solve_stack,
)
from repro.circuits.netlist import Circuit
from repro.engine.trace import count


@dataclass
class SmallSignalSystem:
    """Linearized MNA matrices at one operating point.

    Sweeps (:meth:`sweep`) solve all their frequencies in one
    :func:`~repro.analysis.solver.solve_stack` call.  Per-frequency
    work — :meth:`factorized_at` / :meth:`solve_at`, the sensitivity
    adjoint, and sweeps of systems too large to stack — goes through a
    per-system :class:`~repro.analysis.solver.FactorizationCache` keyed
    by frequency, so every solve at one frequency reuses a single
    factorization of ``G + jωC``.
    """

    system: MnaSystem
    G: np.ndarray
    C: np.ndarray
    b_ac: np.ndarray
    op: OperatingPoint
    _factors: FactorizationCache = field(
        default_factory=FactorizationCache, repr=False, compare=False)

    def node(self, net: str) -> int:
        return self.system.node(net)

    def factorized_at(self, freq_hz: float) -> FactorizedOperator:
        """The (cached) LU factorization of ``G + jωC`` at one frequency."""
        f = float(freq_hz)
        return self._factors.get_or_factorize(
            f, lambda: self.G + (2j * math.pi * f) * self.C)

    def solve_at(self, freq_hz: float) -> np.ndarray:
        return self.factorized_at(freq_hz).solve(self.b_ac)

    def sweep(self, freqs: np.ndarray, b: np.ndarray,
              adjoint: bool = False) -> np.ndarray:
        """``(F, n)`` solutions of ``(G + jωC) x = b`` at every frequency.

        ``adjoint=True`` solves the conjugate-transpose system instead
        (the noise adjoint).  All frequencies go to one stacked solve,
        except for systems of at least ``SPARSE_SIZE_THRESHOLD`` unknowns
        — the size at which :func:`~repro.analysis.solver.factorize`
        considers sparse LU — which factor per frequency through the
        cache.
        """
        freqs = np.asarray(freqs, dtype=float)
        if self.system.size >= SPARSE_SIZE_THRESHOLD:
            x = np.empty((len(freqs), self.system.size), dtype=complex)
            for k, f in enumerate(freqs):
                op = self.factorized_at(f)
                x[k] = op.solve_adjoint(b) if adjoint else op.solve(b)
            return x
        s = 2j * math.pi * freqs
        A = self.G + s[:, None, None] * self.C
        if adjoint:
            A = np.conj(np.swapaxes(A, 1, 2))
        return solve_stack(A, b)


def small_signal_system(circuit: Circuit,
                        op: OperatingPoint | None = None) -> SmallSignalSystem:
    """Build the linearized (G, C, b_ac) system at an operating point.

    Without ``op`` the DC operating point is solved first.  The system
    ``op`` was solved on is reused when it was built for this very
    ``circuit`` object at the default gmin; otherwise (a DC solved at
    another gmin, a circuit with subcircuits, which is flattened anew
    for every system, or a hand-built ``op``) a fresh system is built.
    """
    if op is None:
        op = dc_operating_point(circuit)
    system = op.system
    if system is None or system.circuit is not circuit \
            or system.gmin != GMIN_DEFAULT:
        system = MnaSystem(circuit)
    G, C, _, b_ac = system.linear_stamps()
    system.stamp_small_signal(op.mos, op.x, G, C)
    return SmallSignalSystem(system, G, C, b_ac, op)


@dataclass
class AcResult:
    """Frequency sweep result: per-net complex voltage arrays."""

    freqs: np.ndarray
    phasors: dict[str, np.ndarray]

    def v(self, net: str) -> np.ndarray:
        if net == "0":
            return np.zeros_like(self.freqs, dtype=complex)
        return self.phasors[net]

    def magnitude_db(self, net: str) -> np.ndarray:
        mag = np.abs(self.v(net))
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def phase_deg(self, net: str) -> np.ndarray:
        return np.unwrap(np.angle(self.v(net))) * 180.0 / math.pi


def ac_analysis(circuit: Circuit, freqs: np.ndarray,
                op: OperatingPoint | None = None,
                ss: SmallSignalSystem | None = None) -> AcResult:
    """Sweep ``(G + jωC)x = b_ac`` over ``freqs`` (Hz).

    Counts ``analysis.ac`` on the active tracer.  Without ``ss`` the
    small-signal system is built at ``op`` (:func:`small_signal_system`).
    """
    count("analysis.ac")
    freqs = np.asarray(freqs, dtype=float)
    if ss is None:
        ss = small_signal_system(circuit, op)
    data = ss.sweep(freqs, ss.b_ac)
    phasors = {
        net: data[:, i] for net, i in ss.system.node_index.items()
    }
    return AcResult(freqs, phasors)


def logspace_frequencies(f_start: float = 1.0, f_stop: float = 1e9,
                         points_per_decade: int = 10) -> np.ndarray:
    decades = math.log10(f_stop / f_start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(math.log10(f_start), math.log10(f_stop), n)


@dataclass
class BodeMetrics:
    """Standard opamp AC metrics extracted from a sweep."""

    dc_gain: float            # linear V/V
    dc_gain_db: float
    bandwidth_3db: float      # Hz
    unity_gain_freq: float    # Hz (GBW)
    phase_margin_deg: float


def bode_metrics(result: AcResult, out: str) -> BodeMetrics:
    """Extract gain/bandwidth/phase-margin numbers from an AC sweep.

    Assumes the sweep starts well below the dominant pole.  Interpolates
    crossings on the log-frequency axis.
    """
    mag = np.abs(result.v(out))
    if mag[0] <= 0:
        raise ValueError(f"zero output magnitude at {out!r}")
    phase = np.unwrap(np.angle(result.v(out)))
    freqs = result.freqs
    dc_gain = float(mag[0])
    dc_gain_db = 20.0 * math.log10(dc_gain)

    bandwidth = _crossing(freqs, mag, dc_gain / math.sqrt(2.0))
    unity = _crossing(freqs, mag, 1.0)
    if unity is None:
        pm = float("nan")
    else:
        ph_at_unity = float(np.interp(
            math.log10(unity), np.log10(freqs), phase))
        ph0 = phase[0]
        # Phase margin: 180° minus accumulated phase lag from DC.
        pm = 180.0 - abs(ph_at_unity - ph0) * 180.0 / math.pi
    return BodeMetrics(
        dc_gain=dc_gain,
        dc_gain_db=dc_gain_db,
        bandwidth_3db=bandwidth if bandwidth is not None else float("nan"),
        unity_gain_freq=unity if unity is not None else float("nan"),
        phase_margin_deg=pm,
    )


def _crossing(freqs: np.ndarray, mag: np.ndarray,
              level: float) -> float | None:
    """First downward crossing of ``mag`` through ``level`` (log interp)."""
    below = mag < level
    if not below.any():
        return None
    if below[0]:
        return float(freqs[0])
    k = int(np.argmax(below))
    f0, f1 = freqs[k - 1], freqs[k]
    m0, m1 = mag[k - 1], mag[k]
    if m0 == m1:
        return float(f1)
    t = (math.log10(m0 / level)) / math.log10(m0 / m1)
    return float(10 ** (math.log10(f0) + t * math.log10(f1 / f0)))
