"""``backend``: the paper's backend flows, as a closed loop of short jobs.

Every round runs the same three jobs, one client, each job starting
when the previous one ends:

* ``layout`` — :func:`layout_cell` (KOAN placement, ANAGRAM routing,
  compaction, extraction) of the five-transistor OTA at placement seed
  4, a congested routing: it routes for seconds instead of a tenth of
  one, so the router's grid search is most of the job;
* ``mesh`` — :func:`optimize_mesh` on a tiled 32x32 bitcell macro with a
  fixed 60-evaluation anneal (plus repair and shrink: 60 to 80
  signoffs), its anneal seed from the workload seed;
* ``chip`` — :func:`assemble_chip` on ``demo_mixed_signal_system()``
  with the fast floorplan schedule and seed of the chip-flow test.  The
  seed is fixed on purpose: RAIL's anneal length varies eightfold
  between seeds (1.7 to 14 s measured over 18 seeds).

The two-stage Miller opamp's layout is left out: it took 2.1 to 4.0 s
over placement seeds 1 to 8, and with it a round was too long to repeat
more than three or four times in a 30-second run.
"""

from __future__ import annotations

from harness import Metric, percentile

KINDS = ("layout", "mesh", "chip")
#: (circuit, placement seed) of the round's layout job.
LAYOUT = ("ota", 4)
CHIP_SEED = 1


class BackendWorkload:
    kinds = KINDS
    #: Nominal seconds per round of the three jobs (see
    #: ``SizingWorkload.round_s``).
    round_s = 5.0

    def __init__(self, seed: int):
        from repro.circuits.library import five_transistor_ota
        from repro.macro import MacroSpec
        from repro.msystem import demo_mixed_signal_system
        from repro.opt.anneal import AnnealSchedule

        self.seed = seed
        self.builders = {"ota": five_transistor_ota}
        self.macro_spec = MacroSpec(32, 32)
        self.system = demo_mixed_signal_system
        self.mesh_schedule = AnnealSchedule(
            moves_per_temperature=12, cooling=0.7, max_evaluations=60,
            stop_after_stale=1_000_000)
        self.floorplan_schedule = AnnealSchedule(
            moves_per_temperature=80, cooling=0.85, max_evaluations=6000)
        self.outputs: list[tuple] = []   # (kind, spec, facts, counts)

    def round_jobs(self) -> list[tuple[str, object]]:
        """One round: the layout, the mesh with its anneal seed from the
        workload seed, and the chip."""
        return [("layout", LAYOUT), ("mesh", self.seed * 1000 + 1),
                ("chip", CHIP_SEED)]

    def warm_job(self, kind: str):
        return ("ota", 1) if kind == "layout" else 1

    def run_job(self, kind: str, spec) -> dict:
        from repro import flows, macro
        if kind == "layout":
            circuit, seed = spec
            placement, routing, extraction, cell = flows.layout_cell(
                self.builders[circuit](), seed=seed)
            return {"placement": placement, "routing": routing,
                    "extraction": extraction, "cell": cell,
                    "nets": len(routing.wires)}
        if kind == "mesh":
            tiled = macro.tile_macro(self.macro_spec)
            result = macro.optimize_mesh(tiled, seed=spec,
                                         schedule=self.mesh_schedule)
            return {"signoff": result, "signoffs": result.evaluations}
        blocks, nets = self.system()
        plan = flows.assemble_chip(blocks, nets, seed=spec,
                                   floorplan_schedule=self.floorplan_schedule)
        return {"plan": plan, "nets": len(plan.routing.routes),
                "anneal_evaluations": plan.power.evaluations}

    def record(self, kind: str, spec, out: dict, seconds: float) -> None:
        """Keep what the checks and work counts need, not the whole
        output, so peak memory does not grow with the number of jobs a
        run fits in."""
        from repro.layout.placer import has_overlaps
        if kind == "layout":
            facts = {"failed": out["routing"].failed,
                     "overlaps": has_overlaps(out["placement"].placement)}
        elif kind == "mesh":
            mesh = out["signoff"].mesh
            facts = {"blockage_violations": mesh.blockage_violations,
                     "stitched": mesh.is_fully_stitched()}
        else:
            facts = {"failed": out["plan"].routing.failed}
        counts = {key: out.get(key, 0)
                  for key in ("nets", "signoffs", "anneal_evaluations")}
        self.outputs.append((kind, spec, facts, counts))

    def summary(self, kind: str, out: dict) -> dict:
        if kind == "layout":
            p, r = out["placement"], out["routing"]
            return {"cost": p.cost, "area": p.area,
                    "wirelength": p.wirelength,
                    "routed_length": r.total_length,
                    "failed": r.failed,
                    "wire_cap": out["extraction"].total_wire_cap()}
        if kind == "mesh":
            return out["signoff"].summary()
        return out["plan"].report()

    def check(self, checks) -> None:
        """Layouts: no failed nets, no overlaps.  Meshes: no blockage
        violations, fully stitched.  Chips: no failed global routes."""
        for kind, spec, facts, _ in self.outputs:
            if kind == "layout":
                checks.check(not facts["failed"], "layout_no_failed_nets",
                             f"{spec}: {facts['failed']}")
                checks.check(not facts["overlaps"], "layout_no_overlaps",
                             f"{spec}")
            elif kind == "mesh":
                checks.check(facts["blockage_violations"] == 0,
                             "mesh_no_blockage_violations",
                             f"seed {spec}: {facts['blockage_violations']}")
                checks.check(facts["stitched"], "mesh_fully_stitched",
                             f"seed {spec}")
            else:
                checks.check(not facts["failed"],
                             "chip_no_failed_global_routes",
                             f"seed {spec}: {facts['failed']}")

    def work(self) -> dict:
        counts = {"jobs": len(self.outputs), "nets_routed": 0,
                  "signoffs": 0, "rail_evaluations": 0}
        for _, _, _, job in self.outputs:
            counts["nets_routed"] += job["nets"]
            counts["signoffs"] += job["signoffs"]
            counts["rail_evaluations"] += job["anneal_evaluations"]
        return counts

    def metrics(self, latencies: list[float],
                phase_s: float) -> dict[str, Metric]:
        n = len(latencies)
        return {
            "jobs_per_s": Metric(n / phase_s, "1/s", n),
            "job_p50_ms": Metric(percentile(latencies, 50) * 1e3, "ms", n),
        }

    def layer_extras(self) -> dict[str, Metric]:
        return {}
