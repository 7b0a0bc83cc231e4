"""Typed analysis API: one spec per analysis kind, one ``run`` entry point.

The simulator grew as four free functions (``dc_operating_point``,
``ac_analysis``, ``transient``, ``noise_analysis``) with positional
argument lists that every caller — sizers, measures, flows — repeats.
This module gives each analysis a frozen spec dataclass and a single
dispatcher::

    from repro.analysis import api
    op  = api.run(circuit, api.DcSpec())
    ac  = api.run(circuit, api.AcSpec(freqs=freqs))
    tr  = api.run(circuit, api.TranSpec(t_stop=1e-6, dt=1e-9))
    nz  = api.run(circuit, api.NoiseSpec(out="out", freqs=freqs))

The legacy free functions still exist and behave identically — they are
thin wrappers that build the spec and call :func:`run` — so nothing
downstream (including cache keys, which hash the same netlist + analysis
parameters as before) changes.

:func:`run` is also the observability chokepoint: every dispatch bumps an
``analysis.<kind>`` counter on the active tracer (see
:mod:`repro.engine.trace`), which is how spans attribute simulator calls
to flow stages.  The engine suspends the tracer around executor dispatch,
so these counters record *parent-side* analysis work only — identically
under serial and parallel executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.ac import AcResult, SmallSignalSystem, _ac_analysis_impl
from repro.analysis.dcop import OperatingPoint, _dc_operating_point_impl
from repro.analysis.noise import NoiseResult, _noise_analysis_impl
from repro.analysis.transient import TransientResult, _transient_impl
from repro.engine.trace import count


@dataclass(frozen=True)
class DcSpec:
    """DC operating point (Newton with gmin/source stepping fallbacks)."""

    kind = "dc"
    x0: Any = None
    gmin: float = 1e-12


@dataclass(frozen=True)
class AcSpec:
    """Small-signal sweep of ``(G + jωC)x = b_ac`` over ``freqs`` (Hz)."""

    kind = "ac"
    freqs: Any = None
    op: OperatingPoint | None = None
    ss: SmallSignalSystem | None = None


@dataclass(frozen=True)
class TranSpec:
    """Transient integration from 0 to ``t_stop`` with base step ``dt``."""

    kind = "tran"
    t_stop: float = 0.0
    dt: float = 0.0
    x0: Any = None
    use_ic_op: bool = True
    max_halvings: int = 8


@dataclass(frozen=True)
class NoiseSpec:
    """Output noise spectrum at net ``out`` over ``freqs`` (Hz)."""

    kind = "noise"
    out: str = ""
    freqs: Any = None
    op: OperatingPoint | None = None
    ss: SmallSignalSystem | None = None


AnalysisSpec = DcSpec | AcSpec | TranSpec | NoiseSpec


def run(circuit, spec: AnalysisSpec):
    """Dispatch ``spec`` against ``circuit`` and return the typed result.

    ``DcSpec → OperatingPoint``, ``AcSpec → AcResult``,
    ``TranSpec → TransientResult``, ``NoiseSpec → NoiseResult``.
    Raises ``TypeError`` for anything that is not one of the four specs.
    """
    if not isinstance(spec, AnalysisSpec):
        raise TypeError(f"not an analysis spec: {spec!r}")
    count(f"analysis.{spec.kind}")
    if isinstance(spec, DcSpec):
        return _dc_operating_point_impl(circuit, x0=spec.x0, gmin=spec.gmin)
    if isinstance(spec, AcSpec):
        return _ac_analysis_impl(circuit, spec.freqs, op=spec.op, ss=spec.ss)
    if isinstance(spec, TranSpec):
        return _transient_impl(circuit, spec.t_stop, spec.dt, x0=spec.x0,
                               use_ic_op=spec.use_ic_op,
                               max_halvings=spec.max_halvings)
    return _noise_analysis_impl(circuit, spec.out, spec.freqs,
                                op=spec.op, ss=spec.ss)


__all__ = [
    "AcResult",
    "AcSpec",
    "AnalysisSpec",
    "DcSpec",
    "NoiseResult",
    "NoiseSpec",
    "OperatingPoint",
    "TranSpec",
    "TransientResult",
    "run",
]
