"""``sizing``: the paper's frontend cost, as a closed loop of short jobs.

Three job kinds run round-robin (one client; the next job starts when
the previous one ends), so a shift in host speed hits every kind alike.
Every round repeats the same three jobs, on fixed inputs:

* ``table1`` — Table 1 :func:`synthesize_pulse_detector`, an
  equation-based anneal whose cheap cost function exposes per-step
  anneal overhead;
* ``ota`` / ``miller`` — engine-backed :class:`SimulationBasedSizer`
  runs of the five-transistor OTA and the two-stage Miller opamp, each
  with a fresh ``EvaluationEngine(SerialExecutor(), EvalCache())``,
  batch size 8 and a fixed budget of 64 anneal evaluations, so every
  job pays for dense MNA stamping, Newton DC and per-frequency LU.

No early stop on stale temperatures: with a fixed budget, every repeat
of a job does the same work.
"""

from __future__ import annotations

from harness import Metric, percentile

KINDS = ("table1", "ota", "miller")
TABLE1_SEED = 1
SIZING_SEED = 1
#: Anneal budget of a sizing job: eight batches of eight.  A short job
#: can be repeated often in one run, and the fastest of many short
#: repeats is far steadier on a shared host than that of a few long
#: ones; every evaluation is the same simulation a longer anneal runs.
SIZING_EVALUATIONS = 64


def _inputs():
    from repro.circuits.library import five_transistor_ota, two_stage_miller
    from repro.core.specs import Spec, SpecSet
    from repro.opt.anneal import AnnealSchedule
    from repro.synthesis.equation_based import DesignSpace

    ota = (five_transistor_ota,
           DesignSpace(variables={"w_in": (5e-6, 500e-6),
                                  "w_load": (5e-6, 200e-6),
                                  "w_tail": (5e-6, 200e-6),
                                  "i_bias": (2e-6, 500e-6)},
                       fixed={"l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
                              "c_load": 2e-12, "vdd": 3.3}),
           SpecSet([Spec.at_least("gain_db", 40.0),
                    Spec.at_least("gbw", 10e6),
                    Spec.minimize("power", good=1e-4)]))
    miller = (two_stage_miller,
              DesignSpace(variables={"w_in": (10e-6, 300e-6),
                                     "w_load": (5e-6, 150e-6),
                                     "w_tail": (10e-6, 200e-6),
                                     "w_p2": (20e-6, 400e-6),
                                     "w_n2": (20e-6, 400e-6),
                                     "i_bias": (5e-6, 200e-6)},
                          fixed={"l_in": 2e-6, "l_load": 2e-6,
                                 "l_tail": 2e-6, "l_p2": 1.5e-6,
                                 "l_n2": 2e-6, "c_comp": 3e-12,
                                 "r_zero": 3e3, "c_load": 5e-12,
                                 "vdd": 3.3}),
              SpecSet([Spec.at_least("gain_db", 60.0),
                       Spec.at_least("gbw", 3e6),
                       Spec.at_least("phase_margin", 40.0),
                       Spec.minimize("power", good=5e-4)]))
    schedule = AnnealSchedule(moves_per_temperature=16, cooling=0.75,
                              max_evaluations=SIZING_EVALUATIONS,
                              stop_after_stale=1_000_000)
    return {"ota": ota, "miller": miller}, schedule


class SizingWorkload:
    kinds = KINDS
    #: Nominal seconds per round of the three kinds on the 2-vCPU host
    #: the benchmark was tuned on; the traced run executes a fixed number
    #: of rounds derived from it, so its counts repeat exactly.
    round_s = 0.8

    def __init__(self, seed: int):
        """``seed`` changes nothing: the inputs are fixed (see
        :meth:`round_jobs`)."""
        self.circuits, self.schedule = _inputs()
        self.sim_seconds = 0.0
        self.sims = 0
        self.outputs: list[tuple] = []   # (kind, job seed, run_job output)

    def round_jobs(self) -> list[tuple[str, int]]:
        """One round: each kind with its anneal seed.  The seeds are
        fixed, so the workload seed changes nothing here.  The Table 1
        job is the Table 1 run itself (seed 1, as the Table 1 benchmark
        runs it): at other seeds its anneal can end outside the specs
        (seed 1000 misses the noise bound, 1062 > 1000 e-).  A sizing
        job's cost varied by about 40% between anneal seeds 1000, 2000,
        3000 and 4000 (against the Table 1 job in the same runs), more
        than a run can average."""
        return [("table1", TABLE1_SEED), ("ota", SIZING_SEED),
                ("miller", SIZING_SEED)]

    def warm_job(self, kind: str) -> int:
        return 1

    def run_job(self, kind: str, job_seed: int) -> dict:
        """One job; returns its result and work counts."""
        from repro.engine import EvalCache, EvaluationEngine, SerialExecutor
        from repro.synthesis import pulse_detector
        from repro.synthesis.simulation_based import (
            SimulationBasedSizer,
            SimulationEvaluator,
        )
        if kind == "table1":
            result = pulse_detector.synthesize_pulse_detector(seed=job_seed)
            return {"result": result, "anneal_evaluations": result.evaluations,
                    "simulations": 0}
        builder, space, specs = self.circuits[kind]
        engine = EvaluationEngine(SerialExecutor(), EvalCache())
        sizer = SimulationBasedSizer(
            SimulationEvaluator(builder=builder), space, specs,
            schedule=self.schedule, seed=job_seed, engine=engine,
            batch_size=8)
        result = sizer.run()
        report = engine.report()
        return {"result": result, "anneal_evaluations": result.evaluations,
                "simulations": report["counters"].get("engine.evaluations", 0),
                "engine_report": report}

    def record(self, kind: str, job_seed: int, out: dict,
               seconds: float) -> None:
        if kind != "table1":
            self.sims += out["simulations"]
            self.sim_seconds += seconds
        self.outputs.append((kind, job_seed, out))

    def summary(self, kind: str, out: dict) -> dict:
        r = out["result"]
        return {"sizes": r.sizes, "performance": r.performance,
                "cost": r.cost, "evaluations": r.evaluations}

    def check(self, checks) -> None:
        """Table 1 specs met; sized results re-simulate exactly."""
        from repro.synthesis.pulse_detector import pulse_detector_specs
        from repro.synthesis.simulation_based import SimulationEvaluator
        specs = pulse_detector_specs()
        for kind, job_seed, out in self.outputs:
            r = out["result"]
            if kind == "table1":
                checks.check(r.feasible and specs.all_satisfied(r.performance),
                             "table1_specs_met",
                             f"seed {job_seed}: "
                             f"{specs.report(r.performance).to_text()}")
                continue
            builder = self.circuits[kind][0]
            again = SimulationEvaluator(builder=builder).simulate(r.sizes)
            checks.check(again == r.performance,
                         "sized_results_resimulate",
                         f"{kind} seed {job_seed}: reported {r.performance} "
                         f"re-simulated {again}")

    def work(self) -> dict:
        return {
            "jobs": len(self.outputs),
            "simulations": self.sims,
            "anneal_evaluations": sum(o["anneal_evaluations"]
                                      for _, _, o in self.outputs),
        }

    def metrics(self, latencies: list[float],
                phase_s: float) -> dict[str, Metric]:
        n = len(latencies)
        sims_jobs = sum(1 for kind, _, _ in self.outputs if kind != "table1")
        return {
            "jobs_per_s": Metric(n / phase_s, "1/s", n),
            "job_p50_ms": Metric(percentile(latencies, 50) * 1e3, "ms", n),
            "sims_per_s": Metric(
                self.sims / self.sim_seconds if self.sim_seconds else 0.0,
                "1/s", sims_jobs),
        }

    def layer_extras(self) -> dict[str, Metric]:
        hits = misses = failures = 0
        reports = [o["engine_report"] for _, _, o in self.outputs
                   if "engine_report" in o]
        for rep in reports:
            cache = rep["cache"] or {}
            hits += cache.get("hits", 0)
            misses += cache.get("misses", 0)
            failures += rep["failures"]["total"]
        lookups = hits + misses
        return {
            "engine.cache.hit_rate": Metric(
                hits / lookups if lookups else 0.0, "ratio", lookups),
            "engine.failures": Metric(failures, "count", len(reports)),
        }

