"""AMGIE pulse-detector frontend synthesis — the Table 1 experiment.

The paper's one quantitative table reports synthesis of a *pulse detector
frontend*: a charge-sensitive amplifier (CSA) followed by a 4-stage
pulse-shaping amplifier, with specs on peaking time, counting rate, noise
(ENC), charge gain, output range, and power/area to be minimized.  The
expert design consumed 40 mW / 0.7 mm²; the AMGIE synthesis met the same
specs at 7 mW / 0.6 mm² — a ~6× power reduction.

This module provides:

* :func:`pulse_detector_performance` — the analytic performance model
  (classic CSA + semi-Gaussian shaper theory: charge gain 1/C_fb, peaking
  time n·τ, ENC² series/parallel/flicker decomposition);
* :data:`MANUAL_DESIGN` — the expert baseline, calibrated to reproduce the
  manual column of Table 1 through the model;
* :func:`pulse_detector_specs` / :func:`pulse_detector_space` — the
  synthesis problem;
* :func:`synthesize_pulse_detector` — the optimization-based synthesis run
  (DONALD-ordered model inside simulated annealing);
* :func:`build_pulse_detector_circuit` — a transistor/behavioural circuit
  of a sized design, used to *verify* peaking time and gain by transient
  simulation of a detector charge impulse;
* :func:`pulse_detector_flow` — the synthesize → verify → check pipeline
  as a traced :class:`~repro.engine.jobs.JobGraph` run, producing the
  per-run manifest CI archives for the Table 1 experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.devices import (
    BOLTZMANN,
    NMOS_DEFAULT,
    Q_ELECTRON,
    ROOM_TEMP_K,
    Waveform,
)
from repro.circuits.library import charge_sensitive_amplifier, shaper_stage
from repro.circuits.netlist import Circuit
from repro.core.specs import Spec, SpecSet
from repro.opt.anneal import AnnealSchedule
from repro.synthesis.equation_based import (
    DesignSpace,
    EquationBasedSizer,
    SizingResult,
)

FOUR_KT = 4.0 * BOLTZMANN * ROOM_TEMP_K
N_STAGES = 4          # CR-RC⁴ semi-Gaussian shaper
VDD = 5.0             # detector frontends of the era ran at 5 V
C_DET = 5e-12         # detector capacitance (fixed by the application)

# Shape factors of the CR-RC⁴ weighting function (detector literature).
A_SERIES = 0.45
A_PARALLEL = 0.51
A_FLICKER = 3.58
# Calibration to the era: the 1996 process/detector combination (leakage,
# noisier devices) is folded into one ENC multiplier chosen so that the
# expert design reproduces the manual column of Table 1 (750 rms e-).
ERA_NOISE_SCALE = 15.0
# Fraction of the CSA reset time constant that limits pile-up recovery.
RESET_OCCUPANCY = 0.28
# Maximum achievable 4-stage shaper passband gain at this current budget.
A_SHAPER_MAX = 4000.0
# Parasitic load each shaper stage must drive; with per-stage gain A and
# time constant tau the stage needs gm >= C·A/tau, i.e. a current floor.
C_SHAPER_NODE = 10e-12
VOV_SHAPER = 0.2


@dataclass(frozen=True)
class PulseDetectorDesign:
    """Design variables of the CSA + shaper chain."""

    i_csa: float      # CSA input-branch current (A)
    w_in: float       # CSA input device width (m); L fixed at 1.2 µm
    c_fb: float       # CSA feedback capacitor (F)
    r_fb: float       # CSA continuous-reset resistor (Ohm)
    tau: float        # shaper time constant per stage (s)
    i_shaper: float   # current per shaper stage (A)

    L_IN = 1.2e-6

    def sizes(self) -> dict[str, float]:
        return {
            "i_csa": self.i_csa, "w_in": self.w_in, "c_fb": self.c_fb,
            "r_fb": self.r_fb, "tau": self.tau, "i_shaper": self.i_shaper,
        }

    @staticmethod
    def from_sizes(sizes: dict[str, float]) -> "PulseDetectorDesign":
        return PulseDetectorDesign(
            i_csa=sizes["i_csa"], w_in=sizes["w_in"], c_fb=sizes["c_fb"],
            r_fb=sizes["r_fb"], tau=sizes["tau"],
            i_shaper=sizes["i_shaper"])


def pulse_detector_performance(sizes: dict[str, float]) -> dict[str, float]:
    """Analytic performance of a pulse-detector design point.

    Metrics (matching Table 1):
    ``peaking_time`` (s), ``counting_rate`` (Hz), ``noise_enc`` (rms
    electrons), ``gain`` (V/fC), ``output_range`` (V, single-sided),
    ``power`` (W), ``area`` (m²).
    """
    d = PulseDetectorDesign.from_sizes(sizes)
    nmos = NMOS_DEFAULT
    # --- CSA small-signal quantities -----------------------------------
    gm_in = math.sqrt(2.0 * nmos.kp * (d.w_in / d.L_IN) * d.i_csa)
    cgs_in = (2.0 / 3.0) * nmos.cox * d.w_in * d.L_IN
    c_tot = C_DET + cgs_in + d.c_fb

    # --- timing ----------------------------------------------------------
    peaking = N_STAGES * d.tau
    # Pile-up/reset limited counting rate: pulses must clear the shaper
    # and the CSA must recover through R_fb·C_fb.
    rate = 1.0 / (2.0 * peaking + RESET_OCCUPANCY * d.r_fb * d.c_fb)

    # --- charge gain -------------------------------------------------------
    # CSA converts Q to Q/C_fb; the shaper adds its passband gain, chosen
    # so the chain nominally delivers the spec gain — the free variable is
    # C_fb (smaller C_fb needs more shaper gain, which costs swing,
    # captured in output_range below).
    gain_csa = 1e-15 / d.c_fb  # V per fC at the CSA output
    a_needed = 20.0 / gain_csa
    a_shaper = min(a_needed, A_SHAPER_MAX)
    gain = gain_csa * a_shaper

    # --- noise (ENC in rms electrons) --------------------------------------
    series = (A_SERIES * (c_tot ** 2 / d.tau)
              * (FOUR_KT * (2.0 / 3.0) / gm_in))
    parallel = A_PARALLEL * d.tau * (FOUR_KT / d.r_fb)
    flicker = (A_FLICKER * c_tot ** 2
               * nmos.kf / (nmos.cox * d.w_in * d.L_IN))
    enc = (math.sqrt(series + parallel + flicker) / Q_ELECTRON
           * ERA_NOISE_SCALE)

    # --- output range -------------------------------------------------------
    # The shaper output stage swings VDD/2 minus a bias margin minus the
    # overdrive needed to carry its current; harder-driven stages lose
    # swing.  Per-stage gain pressure also costs linear range.
    gain_per_stage = a_shaper ** (1.0 / N_STAGES)
    # Each stage must realize gm = C·A/tau: this sets a current floor
    # (gm·Vov/2), so the effective stage current cannot be annealed away.
    i_sh_required = (C_SHAPER_NODE * gain_per_stage / d.tau) * VOV_SHAPER / 2.0
    i_sh_eff = max(d.i_shaper, i_sh_required)
    vov_sh = math.sqrt(2.0 * i_sh_eff / (nmos.kp * 300.0))
    output_range = VDD / 2.0 - 0.7 - vov_sh - 0.06 * gain_per_stage

    # --- power and area ------------------------------------------------------
    # CSA branch + cascode bias overhead + four shaper stages.
    power = VDD * (d.i_csa * 1.5 + N_STAGES * i_sh_eff)
    area = _area_estimate(d)
    return {
        "peaking_time": peaking,
        "counting_rate": rate,
        "noise_enc": enc,
        "gain": gain,
        "output_range": output_range,
        "power": power,
        "area": area,
    }


def _area_estimate(d: PulseDetectorDesign) -> float:
    """Layout area model: capacitors and the reset resistor dominate."""
    cap_density = 1e-3          # F/m² (double-poly capacitor)
    res_density = 4e3           # Ohm per square, high-resistivity poly
    a_cfb = d.c_fb / cap_density
    a_rfb = (d.r_fb / res_density) * (2e-6 * 2e-6)
    # Shaper: per stage one C of tau/R_unit plus R_unit; R_unit fixed 100k.
    r_unit = 100e3
    a_shaper = N_STAGES * ((d.tau / r_unit) / cap_density
                           + (r_unit / res_density) * (2e-6 * 2e-6))
    a_devices = 60.0 * (d.w_in * d.L_IN)       # CSA + bias + buffers
    a_shaper_devices = N_STAGES * 2e-9 * (d.i_shaper / 100e-6 + 1.0)
    fixed_overhead = 0.2e-6                    # routing, pads, guard rings
    return (a_cfb + a_rfb + a_shaper + a_devices + a_shaper_devices
            + fixed_overhead) * 1.35


# ----------------------------------------------------------------------
# Table 1 problem definition
# ----------------------------------------------------------------------

#: The expert ("manual") design: calibrated so the model reproduces the
#: manual column of Table 1 — all specs met, 40 mW, 0.7 mm².
MANUAL_DESIGN = PulseDetectorDesign(
    i_csa=3.2e-3,       # heavily over-biased input device for noise margin
    w_in=1500e-6,
    c_fb=0.1e-12,
    r_fb=97e6,
    tau=0.275e-6,
    i_shaper=0.8e-3,
)


def pulse_detector_specs() -> SpecSet:
    """The Table 1 specification column."""
    return SpecSet([
        Spec.at_most("peaking_time", 1.5e-6, unit="s"),
        Spec.at_least("counting_rate", 200e3, unit="Hz"),
        Spec.at_most("noise_enc", 1000.0, unit="rms e-"),
        Spec.equal("gain", 20.0, tolerance=0.08, unit="V/fC"),
        Spec.at_least("output_range", 1.0, unit="V"),
        Spec.minimize("power", good=10e-3, weight=1.0, unit="W"),
        Spec.minimize("area", good=1e-6, weight=0.25, unit="m^2"),
    ])


def pulse_detector_space() -> DesignSpace:
    return DesignSpace(variables={
        "i_csa": (20e-6, 5e-3),
        "w_in": (50e-6, 3000e-6),
        "c_fb": (30e-15, 1e-12),
        "r_fb": (1e6, 500e6),
        "tau": (0.05e-6, 0.37e-6),
        "i_shaper": (20e-6, 2e-3),
    })


def synthesize_pulse_detector(seed: int = 1,
                              schedule: AnnealSchedule | None = None) -> SizingResult:
    """Run the optimization-based synthesis of the pulse detector.

    Returns the sized design; the benchmark compares its power/area to
    :data:`MANUAL_DESIGN` expecting the ≈6× reduction of Table 1.
    """
    sizer = EquationBasedSizer(
        pulse_detector_performance, pulse_detector_space(),
        pulse_detector_specs(),
        schedule=schedule or AnnealSchedule(
            moves_per_temperature=250, cooling=0.9, max_evaluations=40000),
        seed=seed)
    return sizer.run(x0=MANUAL_DESIGN.sizes())


# ----------------------------------------------------------------------
# Structural verification
# ----------------------------------------------------------------------

def build_pulse_detector_circuit(design: PulseDetectorDesign,
                                 q_injected: float = 0.05e-15) -> Circuit:
    """Circuit of the sized frontend with a charge-impulse testbench.

    The CSA is at transistor level; the shaper stages are behavioural
    active-RC sections (ideal-opamp), reflecting the hierarchical
    methodology of §2.1 where only the block under design is at device
    level.  The detector pulse is a narrow current pulse delivering
    ``q_injected`` coulombs into the CSA input.
    """
    csa = charge_sensitive_amplifier({
        "w_in": design.w_in,
        "i_bias": design.i_csa,
        "c_fb": design.c_fb,
        "r_fb": design.r_fb,
        "vdd": VDD,
    })
    chain = Circuit("pulse_detector")
    for dev in csa.devices:
        chain.add(dev.renamed({"out": "csa_out"}))
    # Behavioural shaper: one CR differentiator + N_STAGES RC stages give
    # the semi-Gaussian CR-RC⁴.  A CSA step of height V0 peaks at
    # V0·G·4⁴e⁻⁴/4! at t = 4τ, so the chain gain G compensates that peak
    # fraction to deliver the specified V/fC charge gain.
    peak_fraction = (N_STAGES ** N_STAGES) * math.exp(-N_STAGES) \
        / math.factorial(N_STAGES)
    gain_csa = 1e-15 / design.c_fb
    a_total = min(20.0 / gain_csa, A_SHAPER_MAX) / peak_fraction
    per_stage = a_total ** (1.0 / (N_STAGES + 1))
    prev = "csa_out"
    for k in range(N_STAGES + 1):
        stage = shaper_stage(k, design.tau, per_stage,
                             differentiator=(k == 0))
        mapping = {"in": prev, "out": f"sh{k}", "vx": f"shx{k}",
                   "mid": f"shm{k}"}
        for dev in stage.devices:
            chain.add(dev.renamed(mapping).with_prefix(f"s{k}_"))
        prev = f"sh{k}"
    # Detector impulse: 10 ns current pulse carrying q_injected.
    t_pulse = 10e-9
    chain.isource("idet", "in", "0", dc=0.0,
                  waveform=Waveform("pulse",
                                    (0.0, q_injected / t_pulse, 0.2e-6,
                                     1e-10, 1e-10, t_pulse, 1.0)))
    return chain


# ----------------------------------------------------------------------
# Transistor-level CSA sizing by simulation through the engine
# ----------------------------------------------------------------------

CSA_SIM_SPACE_VARIABLES = {
    "w_in": (50e-6, 400e-6),
    "i_bias": (50e-6, 400e-6),
    "r_fb": (5e6, 50e6),
}


def csa_testbench(sizes: dict[str, float]) -> Circuit:
    """CSA wired for :class:`~repro.synthesis.SimulationEvaluator`.

    The charge-sensitive amplifier is single-ended; renaming its ``in``
    node to ``inp`` lets the evaluator's standard differential testbench
    (AC drive on ``inp``) measure it as a common-source gain stage.  The
    unused ``inn`` input is tied off by the evaluator's own bias source.
    """
    csa = charge_sensitive_amplifier(sizes)
    c = Circuit("csa_tb")
    for dev in csa.devices:
        c.add(dev.renamed({"in": "inp"}))
    return c


def csa_sim_specs() -> SpecSet:
    """Open-loop CSA specs for the simulation-based sizing demo."""
    return SpecSet([
        Spec.at_least("gain_db", 40.0),
        Spec.at_least("gbw", 100e6),
        Spec.minimize("power", good=1e-3),
    ])


def synthesize_csa_batched(seed: int = 7,
                           schedule: AnnealSchedule | None = None,
                           batch_size: int = 6) -> SizingResult:
    """Size the CSA by simulation, each point a DC + stacked AC sweep.

    The annealer proposes ``batch_size`` moves at a time and the engine
    evaluates each batch's cache misses.  The trajectory is pinned in
    ``tests/golden/pulse_detector.json`` under ``batched_sizing``.
    """
    from repro.circuits.library import CSA_DEFAULTS
    from repro.engine.config import EngineConfig
    from repro.synthesis.simulation_based import (
        SimulationBasedSizer,
        SimulationEvaluator,
    )

    space = DesignSpace(
        variables=dict(CSA_SIM_SPACE_VARIABLES),
        fixed={k: v for k, v in CSA_DEFAULTS.items()
               if k not in CSA_SIM_SPACE_VARIABLES})
    schedule = schedule or AnnealSchedule(
        moves_per_temperature=12, cooling=0.8, max_evaluations=60,
        stop_after_stale=4)
    evaluator = SimulationEvaluator(builder=csa_testbench, input_bias=0.9,
                                    raise_failures=True)
    sizer = SimulationBasedSizer(
        evaluator, space, csa_sim_specs(), schedule=schedule, seed=seed,
        batch_size=batch_size,
        config=EngineConfig(cache=True, trace=True))
    return sizer.run()


@dataclass
class PulseDetectorRun:
    """Outcome of :func:`pulse_detector_flow`."""

    result: SizingResult
    verification: dict[str, float]
    check: dict[str, float]
    manifest: dict | None
    report: dict


def pulse_detector_flow(seed: int = 1,
                        schedule: AnnealSchedule | None = None,
                        config=None,
                        q_injected: float = 0.05e-15) -> PulseDetectorRun:
    """Synthesize, simulate and check the Table 1 pulse detector, traced.

    Three :class:`~repro.engine.jobs.JobGraph` stages under one flow span:

    * ``synthesize`` — :func:`synthesize_pulse_detector` (annealing over
      the analytic model);
    * ``verify`` — transient simulation of the sized circuit
      (:func:`verified_peaking_time`);
    * ``check`` — model-vs-simulation agreement and spec satisfaction.

    ``config`` is an :class:`~repro.engine.config.EngineConfig`; tracing
    defaults on, and with ``config.trace_dir`` set the run writes
    ``manifest.json`` + ``trace.jsonl`` there.
    """
    from repro.engine.config import EngineConfig
    from repro.engine.core import EvaluationEngine
    from repro.engine.jobs import JobGraph
    from repro.engine.trace import finish_run, span_if

    config = config if config is not None else EngineConfig(trace=True)
    engine = EvaluationEngine.from_config(config)
    specs = pulse_detector_specs()

    def _synthesize(_results: dict) -> SizingResult:
        return synthesize_pulse_detector(seed=seed, schedule=schedule)

    def _verify(results: dict) -> dict[str, float]:
        design = PulseDetectorDesign.from_sizes(results["synthesize"].sizes)
        return verified_peaking_time(design, q_injected)

    def _check(results: dict) -> dict[str, float]:
        predicted = results["synthesize"].performance
        measured = results["verify"]
        rel_err = (abs(measured["peaking_time"] - predicted["peaking_time"])
                   / predicted["peaking_time"])
        return {
            "peaking_time_rel_err": rel_err,
            "feasible": float(results["synthesize"].feasible),
            "specs_met": float(specs.all_satisfied(predicted)),
        }

    graph = JobGraph()
    graph.add("synthesize", _synthesize)
    graph.add("verify", _verify, deps=["synthesize"])
    graph.add("check", _check, deps=["synthesize", "verify"])

    from repro.analysis.dcop import ConvergenceError
    from repro.analysis.mna import SingularCircuitError

    try:
        with span_if(engine.tracer, "pulse_detector_flow"):
            results = graph.run(engine=engine)
    except (ConvergenceError, SingularCircuitError):
        # Domain failures of the synthesize/verify stages get an
        # error-status manifest; anything else is a programming error
        # and propagates without one — same contract as
        # measures.output_swing.
        finish_run("pulse_detector_flow", engine, seed=seed, config=config,
                   status="error")
        engine.close()
        raise
    except BaseException:
        engine.close()
        raise
    manifest = finish_run("pulse_detector_flow", engine, seed=seed,
                          config=config, status="ok")
    report = engine.report()
    engine.close()
    return PulseDetectorRun(
        result=results["synthesize"],
        verification=results["verify"],
        check=results["check"],
        manifest=manifest,
        report=report,
    )


def verified_peaking_time(design: PulseDetectorDesign,
                          q_injected: float = 0.05e-15) -> dict[str, float]:
    """Transient-simulate the built circuit; measure peaking time and gain.

    Returns ``{"peaking_time": s, "gain": V/fC}`` measured at the shaper
    output — the "design verification" step of the top-down flow.
    """
    from repro.analysis.transient import transient
    circuit = build_pulse_detector_circuit(design, q_injected)
    t_stop = 0.2e-6 + 10.0 * N_STAGES * design.tau
    result = transient(circuit, t_stop, design.tau / 25.0)
    out = f"sh{N_STAGES}"
    t_pk, v_pk = result.peak(out)
    baseline = result.v(out)[0]
    gain_v_per_fc = abs(v_pk - baseline) / (q_injected / 1e-15)
    return {
        "peaking_time": t_pk - 0.2e-6,
        "gain": gain_v_per_fc,
    }
