"""The analysis entry points count themselves on the active tracer.

``dc_operating_point``, ``ac_analysis``, ``noise_analysis`` and
``transient`` each count ``analysis.<kind>`` once per call; an analysis
that solves its own operating point first counts that ``analysis.dc``
as well.  Without an active tracer they count nothing and still run.
"""

import numpy as np

from repro.analysis import (
    ac_analysis,
    dc_operating_point,
    noise_analysis,
    transient,
)
from repro.circuits.devices import Waveform
from repro.circuits.library import five_transistor_ota, voltage_divider
from repro.circuits.netlist import Circuit
from repro.engine import Tracer


def _rc_lowpass(r=1e3, c=1e-9):
    ckt = Circuit("rc")
    ckt.vsource("vin", "a", "0", dc=0.0, ac=1.0)
    ckt.resistor("r1", "a", "out", r)
    ckt.capacitor("c1", "out", "0", c)
    return ckt


def _rc_step():
    ckt = Circuit("rc_step")
    ckt.vsource("vin", "a", "0", dc=0.0,
                waveform=Waveform("pulse", (0, 1, 0, 1e-12, 1e-12, 1, 2)))
    ckt.resistor("r1", "a", "out", 1e3)
    ckt.capacitor("c1", "out", "0", 1e-9)
    return ckt


def _ota_testbench():
    ota = five_transistor_ota()
    ota.vsource("vip", "inp", "0", dc=1.5, ac=1.0)
    ota.vsource("vin_", "inn", "0", dc=1.5)
    return ota


def _analysis_counts(span) -> dict[str, int]:
    return {k: n for k, n in span.counters.items()
            if k.startswith("analysis.")}


class TestTracerCounting:
    def test_each_kind_counts_on_active_span(self):
        tracer = Tracer()
        with tracer.span("measure") as span:
            dc_operating_point(_ota_testbench())
            ac_analysis(_rc_lowpass(), np.array([1e3]))
            noise_analysis(voltage_divider(1e3, 1e3, 1.0), "out",
                           np.array([1e3]))
        # ac and noise without a precomputed op solve their own dc first,
        # and that nested call counts too.
        assert _analysis_counts(span) == {"analysis.dc": 3, "analysis.ac": 1,
                                 "analysis.noise": 1}

    def test_legacy_wrappers_count_too(self):
        """A direct call counts exactly once."""
        tracer = Tracer()
        with tracer.span("measure") as span:
            dc_operating_point(_ota_testbench())
        assert _analysis_counts(span) == {"analysis.dc": 1}

    def test_nested_internal_calls_are_counted(self):
        # transient's use_ic_op solves a DC operating point first: both
        # the tran and the internal dc land in the counters —
        # deterministic, so structurally stable across runs.
        tracer = Tracer()
        with tracer.span("measure") as span:
            transient(_rc_step(), 1e-7, 1e-9)
        assert _analysis_counts(span) == {"analysis.tran": 1, "analysis.dc": 1}

    def test_no_tracer_no_error(self):
        ac_analysis(_rc_lowpass(), np.array([1e3]))
