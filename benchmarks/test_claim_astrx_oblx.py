"""Claim C7 (§2.2, [23]): ASTRX/OBLX's efficiency machinery works.

Two efficiency devices define the tool: "the linear small-signal
characteristics are simulated efficiently using AWE", and "a dc-free
biasing formulation ... where the dc constraints are solved by relaxation
throughout the optimization run" (instead of a full Newton solve per
candidate).

Shape checks: one compiled (AWE + dc-free) candidate evaluation is
several times cheaper than a full simulator evaluation (Newton DC + AC
sweep); the annealing run drives the relaxed KCL residual to (near)
zero; and the post-synthesis verification with the real simulator
confirms the synthesized cell.
"""

import time

import numpy as np
from conftest import report

from repro.circuits.library import five_transistor_ota
from repro.core.specs import Spec, SpecSet
from repro.opt.anneal import AnnealSchedule
from repro.synthesis import (
    AstrxProblem,
    DesignSpace,
    OblxOptimizer,
    SimulationEvaluator,
)
from repro.synthesis.astrx import _Candidate

#: Timed passes of each evaluation kind; the fastest of each is compared.
PASSES = 5

SPECS = SpecSet([
    Spec.at_least("gain_db", 40.0),
    Spec.at_least("gbw", 5e6),
    Spec.minimize("power", good=1e-4),
])


def _space():
    return DesignSpace(
        variables={"w_in": (5e-6, 500e-6), "w_load": (5e-6, 200e-6),
                   "w_tail": (5e-6, 200e-6), "i_bias": (2e-6, 500e-6)},
        fixed={"l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
               "c_load": 2e-12, "vdd": 3.3})


def _builder(sizes):
    keys = ("w_in", "l_in", "w_load", "l_load", "w_tail", "l_tail",
            "i_bias", "c_load", "vdd")
    return five_transistor_ota({k: v for k, v in sizes.items()
                                if k in keys})


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c7_astrx_oblx(benchmark):
    problem = AstrxProblem(_builder, _space(), SPECS)
    rng = np.random.default_rng(1)
    candidates = [
        _Candidate(problem.cont.random_point(rng),
                   np.full(len(problem.free_nodes), 1.65))
        for _ in range(40)
    ]

    # Per-evaluation cost of the compiled (AWE + dc-free) evaluation and
    # of a full simulation (Newton DC + AC sweep) on the same points:
    # five alternating passes of each, compared at the fastest pass of
    # each side, so that one host stall cannot decide the gate.
    evaluator = SimulationEvaluator(builder=_builder)
    space = _space()

    def compiled_pass():
        for cand in candidates:
            problem.evaluate(cand)

    def full_pass():
        for cand in candidates:
            evaluator.simulate(space.complete(
                problem.cont.to_dict(cand.sizes)))

    compiled_s, full_s = [], []
    for _ in range(PASSES):
        compiled_s.append(_timed(compiled_pass))
        full_s.append(_timed(full_pass))
    t_compiled = min(compiled_s) / len(candidates)
    t_full = min(full_s) / len(candidates)
    speedup = t_full / t_compiled

    # The OBLX run: relaxation must converge and verification must pass.
    opt = OblxOptimizer(problem, schedule=AnnealSchedule(
        moves_per_temperature=100, cooling=0.85, max_evaluations=6000),
        seed=3)
    result = benchmark.pedantic(opt.run, rounds=1, iterations=1)

    report("Claim C7: ASTRX/OBLX efficiency", [
        ("compiled (AWE + dc-free) eval, fastest pass", "cheap",
         f"{t_compiled * 1e3:.2f} ms"),
        ("full simulator eval (NR + AC), fastest pass", "expensive",
         f"{t_full * 1e3:.2f} ms"),
        ("evaluation speedup", ">2x", f"{speedup:.1f}x"),
        ("final KCL residual (relaxed dc)", "-> 0",
         f"{result.kcl_residual:.2e}"),
        ("specs met (compiled view)", "yes",
         "yes" if result.feasible else "NO"),
        ("verified by full simulator", "yes",
         "yes" if result.verified else "NO"),
        ("verified gain (V/V)", "-",
         f"{result.performance.get('verified_gain', 0):.0f}"),
    ])

    assert speedup > 2.0
    assert result.kcl_residual < 0.05
    assert result.feasible
    assert result.verified
