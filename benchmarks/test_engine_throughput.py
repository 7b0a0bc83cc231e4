"""Evaluation-engine throughput: cached vs. uncached OTA sizing.

The paper's cost argument for smarter synthesis loops is CPU time — it
flags 4×–10× overhead for manufacturability-aware synthesis and "long run
times" for simulation-in-the-loop sizing.  The engine attacks that bill
two ways: batched dispatch and content-addressed memoization.

Benchmarked: the same seeded `five_transistor_ota` simulation-based
sizing run, cold (every point simulated) then warm (same engine, cache
populated).  Reported: evaluations/second and the cache hit rate.
Thresholds are deliberately tolerant for CI: the warm run must do zero
new simulator evaluations and be at least 2× faster wall-clock.
"""

import math
import time

import numpy as np
from conftest import report

from repro.analysis import ac_analysis, noise_analysis, small_signal_system
from repro.analysis.noise import _noise_injections
from repro.analysis.solver import factorize
from repro.circuits.library import five_transistor_ota, rc_ladder
from repro.msystem.powergrid import (
    DECAP_PER_AMP,
    PACKAGE_L,
    PACKAGE_R,
    SWITCH_RISE_S,
    GridSegment,
    PowerGrid,
)
from repro.core.specs import Spec, SpecSet
from repro.engine import EngineConfig, EvalCache, EvaluationEngine, \
    SerialExecutor
from repro.opt.anneal import AnnealSchedule
from repro.synthesis import (
    DesignSpace,
    SimulationBasedSizer,
    SimulationEvaluator,
)

SPECS = SpecSet([
    Spec.at_least("gain_db", 40.0),
    Spec.at_least("gbw", 10e6),
    Spec.minimize("power", good=1e-4),
])

SPACE = DesignSpace(
    variables={"w_in": (5e-6, 500e-6), "w_load": (5e-6, 200e-6),
               "w_tail": (5e-6, 200e-6), "i_bias": (2e-6, 500e-6)},
    fixed={"l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
           "c_load": 2e-12, "vdd": 3.3})

SCHEDULE = AnnealSchedule(moves_per_temperature=20, cooling=0.8,
                          max_evaluations=400, stop_after_stale=4)


def _run(engine):
    evaluator = SimulationEvaluator(builder=five_transistor_ota)
    sizer = SimulationBasedSizer(evaluator, SPACE, SPECS, schedule=SCHEDULE,
                                 seed=11, engine=engine, batch_size=8)
    t0 = time.perf_counter()
    result = sizer.run()
    return result, time.perf_counter() - t0


def test_cache_hit_speedup():
    engine = EvaluationEngine(SerialExecutor(), EvalCache())

    cold_result, cold_s = _run(engine)
    counters = engine.report()["counters"]
    cold_evals = counters["engine.evaluations"]
    cold_requests = counters["engine.requests"]

    warm_result, warm_s = _run(engine)
    counters = engine.report()["counters"]
    warm_evals = counters["engine.evaluations"] - cold_evals
    hit_rate = engine.cache.stats.hit_rate

    report("engine throughput: cached vs uncached OTA sizing", [
        ("cold evaluations (simulator runs)", "--", str(cold_evals)),
        ("cold evaluations/second", "--", f"{cold_evals / cold_s:.0f}"),
        ("warm new simulator runs", "0", str(warm_evals)),
        ("warm requests/second", "--",
         f"{cold_requests / max(warm_s, 1e-9):.0f}"),
        ("overall cache hit rate", "--", f"{hit_rate:.3f}"),
        ("warm speedup", ">= 2x", f"{cold_s / max(warm_s, 1e-9):.1f}x"),
    ])

    assert cold_evals > 0
    assert warm_evals == 0, "warm rerun must be fully served by the cache"
    assert warm_result.sizes == cold_result.sizes
    assert warm_result.performance == cold_result.performance
    # Tolerant threshold: cache hits skip MNA entirely, so even slow CI
    # machines clear 2x comfortably (locally this is >10x).
    assert cold_s / max(warm_s, 1e-9) >= 2.0
    assert hit_rate >= 0.4  # one full run of hits over two runs of lookups


def test_tracing_overhead_on_warm_cache_path():
    """Tracing must cost < 5% on the warm (all-cache-hits) path.

    The hot loop only touches the tracer for per-batch events and
    counter bookkeeping, so the overhead bound is tight.  Timed as
    min-of-N with alternated traced/untraced runs (fresh engine per run,
    one shared pre-warmed cache) so scheduler noise hits both sides
    equally; a small absolute slack absorbs timer granularity on runs
    this short.
    """
    cache = EvalCache()
    _run(EvaluationEngine(SerialExecutor(), cache))  # warm the cache once

    untraced_s, traced_s = [], []
    for _ in range(3):
        engine = EvaluationEngine(SerialExecutor(), cache)
        result_u, dt = _run(engine)
        untraced_s.append(dt)
        assert engine.report()["spans"] == []

        engine = EvaluationEngine.from_config(
            EngineConfig(cache=cache, trace=True))
        with engine.tracer.span("bench"):
            result_t, dt = _run(engine)
        traced_s.append(dt)
        span = engine.report()["spans"][0]
        assert span["counters"].get("engine.evaluations", 0) == 0  # warm
        assert span["counters"]["engine.cache_hits"] > 0
        assert result_t.sizes == result_u.sizes

    overhead = min(traced_s) / max(min(untraced_s), 1e-9) - 1.0
    report("tracing overhead: warm-cache sizing run", [
        ("untraced warm run (min of 3)", "--", f"{min(untraced_s):.3f} s"),
        ("traced warm run (min of 3)", "--", f"{min(traced_s):.3f} s"),
        ("overhead", "< 5%", f"{overhead * 100:+.1f}%"),
    ])
    assert min(traced_s) <= min(untraced_s) * 1.05 + 0.1


# ----------------------------------------------------------------------
# solver layer: factor-once/solve-many vs the seed dense path
# ----------------------------------------------------------------------

def _seed_ac_noise_sweep(ss, iout, freqs):
    """The pre-solver-layer path, replicated verbatim: every solve pays
    its own dense LU (``np.linalg.solve``) and rebuilds ``G + jωC`` —
    one LU for the AC response, one for the noise adjoint, one for the
    noise gain, per frequency."""
    injections = _noise_injections(ss)
    e = np.zeros(ss.system.size, dtype=complex)
    e[iout] = 1.0
    response = np.zeros(len(freqs), dtype=complex)
    psd = np.zeros(len(freqs))
    gain = np.zeros(len(freqs))
    for k, f in enumerate(freqs):
        s = 2j * math.pi * f
        response[k] = np.linalg.solve(ss.G + s * ss.C, ss.b_ac)[iout]
        A = ss.G + s * ss.C
        z = np.linalg.solve(A.T.conj(), e)
        total = 0.0
        for a, b, psd_fn in injections.values():
            za = z[a] if a >= 0 else 0.0
            zb = z[b] if b >= 0 else 0.0
            total += abs(np.conj(za - zb)) ** 2 * psd_fn(f)
        psd[k] = total
        gain[k] = abs(np.linalg.solve(ss.G + s * ss.C, ss.b_ac)[iout])
    return response, psd, gain


def test_noise_sweep_solver_speedup():
    """AC response + noise sweep: one factorization per frequency (shared
    through the SmallSignalSystem's cache) vs three seed dense LUs."""
    ckt = rc_ladder(360)
    out = "n360"
    freqs = np.logspace(3, 9, 24)

    ss_seed = small_signal_system(ckt)
    iout = ss_seed.system.node(out)
    t0 = time.perf_counter()
    r_seed, psd_seed, gain_seed = _seed_ac_noise_sweep(ss_seed, iout, freqs)
    seed_s = time.perf_counter() - t0

    ss = small_signal_system(ckt)
    t0 = time.perf_counter()
    r_new = np.array([ss.solve_at(f)[iout] for f in freqs])
    nres = noise_analysis(ckt, out, freqs, op=ss.op, ss=ss)
    new_s = time.perf_counter() - t0

    np.testing.assert_allclose(r_new, r_seed, rtol=1e-9)
    np.testing.assert_allclose(nres.output_psd, psd_seed, rtol=1e-9)
    np.testing.assert_allclose(nres.gain, gain_seed, rtol=1e-9)

    speedup = seed_s / max(new_s, 1e-9)
    report("solver layer: AC + noise sweep (rc_ladder(360), 24 freqs)", [
        ("seed path (3 dense LUs per freq)", "--", f"{seed_s:.3f} s"),
        ("solver path (1 LU + 3 solves per freq)", "--", f"{new_s:.3f} s"),
        ("factorizations", str(len(freqs)), str(ss._factors.misses)),
        ("speedup", ">= 3x", f"{speedup:.1f}x"),
    ])
    assert ss._factors.misses == len(freqs)
    assert speedup >= 3.0


def _mesh_grid(nx: int, ny: int, width_nm: int = 10_000) -> PowerGrid:
    """Synthetic nx-by-ny mesh power grid: pads at corners, loads inside."""
    def node(i, j):
        return i * ny + j

    segments = []
    for i in range(nx):
        for j in range(ny):
            if i + 1 < nx:
                segments.append(GridSegment(
                    f"h_{i}_{j}", node(i, j), node(i + 1, j),
                    50_000, width_nm))
            if j + 1 < ny:
                segments.append(GridSegment(
                    f"v_{i}_{j}", node(i, j), node(i, j + 1),
                    50_000, width_nm))
    names = [f"n{i}_{j}" for i in range(nx) for j in range(ny)]
    pads = [node(0, 0), node(0, ny - 1), node(nx - 1, 0),
            node(nx - 1, ny - 1)]
    loads = {node(i, j): 1e-3 * (1 + (i * ny + j) % 5)
             for i in range(1, nx - 1) for j in range(1, ny - 1)}
    peaks = {n: 5e-3 for n in list(loads)[::3]}
    return PowerGrid(segments, names, pads, loads, peaks,
                     analog_nodes=[node(nx // 2, ny // 2)])


def _seed_grid_metrics(grid):
    """The seed metric set, replicated verbatim: each metric re-assembles
    the dense conductance matrix and pays its own ``np.linalg.solve``."""
    def dc_solve():
        n = grid.n_nodes
        G = np.zeros((n, n))
        for seg in grid.segments:
            g = 1.0 / seg.resistance
            a, b = seg.node_a, seg.node_b
            G[a, a] += g
            G[b, b] += g
            G[a, b] -= g
            G[b, a] -= g
        for pad in grid.pad_nodes:
            G[pad, pad] += 1.0 / PACKAGE_R
        b = np.zeros(n)
        for pad in grid.pad_nodes:
            b[pad] += grid.vdd / PACKAGE_R
        for node, current in grid.load_currents.items():
            b[node] -= current
        return np.linalg.solve(G, b)

    v = dc_solve()
    ir = max(grid.vdd - v[node] for node in grid.load_currents)
    v = dc_solve()
    em = [seg.name for seg in grid.segments
          if abs(v[seg.node_a] - v[seg.node_b]) / seg.resistance
          > seg.em_current_limit()]
    v = dc_solve()
    total_peak = sum(grid.peak_currents.values())
    di_dt = total_peak / SWITCH_RISE_S
    l_eff = PACKAGE_L / max(len(grid.pad_nodes), 1)
    c_total = sum(DECAP_PER_AMP * p for p in grid.peak_currents.values())
    sag = total_peak * SWITCH_RISE_S / max(c_total, 1e-15)
    resistive = max(grid.vdd - v[node] for node in grid.load_currents)
    bound = min(l_eff * di_dt, sag) + resistive
    return ir, em, bound


def test_power_grid_solver_speedup():
    """40x40 mesh (1600 nodes): sparse factor-once + memoized dc_solve vs
    three seed dense assemble-and-solve passes."""
    grid = _mesh_grid(40, 40)
    t0 = time.perf_counter()
    ir_seed, em_seed, bound_seed = _seed_grid_metrics(grid)
    seed_s = time.perf_counter() - t0

    grid_new = _mesh_grid(40, 40)
    t0 = time.perf_counter()
    ir = grid_new.worst_ir_drop()
    em = grid_new.em_violations()
    bound = grid_new._droop_bound(grid_new.analog_nodes[0])
    new_s = time.perf_counter() - t0

    np.testing.assert_allclose(ir, ir_seed, rtol=1e-9)
    assert em == em_seed
    np.testing.assert_allclose(bound, bound_seed, rtol=1e-9)

    speedup = seed_s / max(new_s, 1e-9)
    report("solver layer: power-grid metric set (40x40 mesh, 1600 nodes)", [
        ("seed path (3 dense assemble+solve)", "--", f"{seed_s:.3f} s"),
        ("solver path (1 sparse LU, memoized)", "--", f"{new_s:.3f} s"),
        ("speedup", ">= 5x", f"{speedup:.0f}x"),
    ])
    assert speedup >= 5.0


# ----------------------------------------------------------------------
# surrogate layer: screened vs unscreened pulse-detector sizing
# ----------------------------------------------------------------------

def test_surrogate_screening_sim_reduction():
    """Cache-trained surrogate screening on the Table 1 pulse detector.

    The paper's sizing bill is dominated by simulator calls, so the
    screen's job is to spend most of each batch on predictions and only
    simulate the candidates that matter (top-ranked, high-uncertainty,
    claimed winners).  Gates, pinned at seed 7 where the run is fully
    deterministic: >= 2x fewer real evaluations than the unscreened
    baseline at equal-or-better final cost (5% tolerance), and warm
    per-batch surrogate overhead under 10% of one real transient
    simulation.
    """
    from repro.engine import SurrogateConfig, canonical_key
    from repro.opt.anneal import anneal_continuous
    from repro.surrogate import FeatureSpec, SurrogateScreen
    from repro.synthesis.pulse_detector import (
        MANUAL_DESIGN,
        pulse_detector_performance,
        pulse_detector_space,
        pulse_detector_specs,
        verified_peaking_time,
    )

    specs = pulse_detector_specs()
    space = pulse_detector_space()
    schedule = AnnealSchedule(moves_per_temperature=24, cooling=0.7,
                              max_evaluations=600, stop_after_stale=5)

    def cost(point):
        return specs.cost(pulse_detector_performance(point))

    def run(screened):
        cont = space.to_continuous()
        engine = EvaluationEngine.from_config(EngineConfig(cache=True))
        screen = None
        if screened:
            spec = FeatureSpec.from_continuous(cont)
            screen = SurrogateScreen(
                featurize=lambda x: spec.encode(cont.to_dict(x)),
                config=SurrogateConfig(min_fit=32, refit_every=16),
                telemetry=engine.telemetry)
        result = anneal_continuous(
            cost, cont, schedule=schedule, seed=7,
            executor=engine.keyed(lambda x: canonical_key("pd", x)),
            batch_size=8, surrogate=screen)
        predict_s = list(engine.telemetry.sample_values(
            "surrogate.predict_s"))
        rep = engine.report()
        engine.close()
        return result, rep, predict_s

    off, r_off, _ = run(screened=False)
    on, r_on, predict_s = run(screened=True)

    evals_off = r_off["counters"]["engine.evaluations"]
    evals_on = r_on["counters"]["engine.evaluations"]
    ratio = evals_off / max(evals_on, 1)
    sur = r_on["surrogate"]
    # Warm overhead: one prediction pass per screened batch.
    per_batch_s = sum(predict_s) / max(len(predict_s), 1)
    t0 = time.perf_counter()
    verified_peaking_time(MANUAL_DESIGN)
    sim_s = time.perf_counter() - t0

    report("surrogate screening: pulse-detector sizing (seed 7)", [
        ("unscreened simulator evals", "--", str(evals_off)),
        ("screened simulator evals", "--", str(evals_on)),
        ("eval reduction", ">= 2x", f"{ratio:.2f}x"),
        ("sims avoided", "--", str(sur["sims_avoided"])),
        ("verify misses", "--", str(sur["verify_misses"])),
        ("unscreened final cost", "--", f"{off.best_cost:.4f}"),
        ("screened final cost", "<= 1.05x base", f"{on.best_cost:.4f}"),
        ("surrogate overhead / batch", "< 10% of sim",
         f"{per_batch_s * 1e3:.2f} ms"),
        ("one real transient sim", "--", f"{sim_s * 1e3:.0f} ms"),
    ])

    assert ratio >= 2.0, "screen must at least halve real simulator evals"
    # Pinned per-seed tolerance: at seed 7 the screened run actually
    # finds a *better* design; 5% slack absorbs any future retuning.
    assert on.best_cost <= off.best_cost * 1.05
    assert sur["sims_avoided"] > 0
    # The winner rule keeps the reported best honest — re-check for real.
    best_point = space.to_continuous().to_dict(on.best_state)
    assert on.best_cost == cost(best_point)
    assert per_batch_s < 0.1 * sim_s


# ----------------------------------------------------------------------
# serving layer: batched service vs serial request-at-a-time
# ----------------------------------------------------------------------

def test_serve_saturation_throughput():
    """Saturating service load: micro-batched dispatch through a thread
    executor vs one request at a time through the same engine stack.

    The workload models a simulator call as a 10 ms blocking evaluation
    (typical SPICE-ish floor; pure I/O from the engine's point of view).
    The serial baseline is the pre-serve shape — each client request
    waits for the previous one to finish before dispatching.  The served
    path lets the broker coalesce the queued backlog into micro-batches
    that a ThreadExecutor overlaps.  Thresholds stay tolerant for CI:
    >= 3x throughput and a p99 latency bounded by a few batch rounds
    even with the queue saturated (locally the ratio is ~10x).
    """
    from repro.engine import ServeConfig, ThreadExecutor
    from repro.serve import Broker, Workload

    eval_s = 0.010
    n_requests = 48

    def simulate(point):
        time.sleep(eval_s)
        return {"y": point["x"] * 2}

    # Serial baseline: request-at-a-time through the same broker stack,
    # so dispatch overhead is identical and only batching+overlap differ.
    serial = Broker(EvaluationEngine(SerialExecutor()),
                    config=ServeConfig(max_batch=1, max_wait_ms=0),
                    owns_engine=True)
    serial.register(Workload("sim", simulate))
    with serial:
        t0 = time.perf_counter()
        for i in range(n_requests):
            serial.submit("sim", {"x": i}).result(timeout=30)
        serial_s = time.perf_counter() - t0

    batched = Broker(EvaluationEngine(ThreadExecutor(workers=16)),
                     config=ServeConfig(max_batch=16, max_wait_ms=5.0),
                     owns_engine=True)
    batched.register(Workload("sim", simulate))
    with batched:
        t0 = time.perf_counter()
        handles = [batched.submit("sim", {"x": i})
                   for i in range(n_requests)]
        values = [h.result(timeout=30) for h in handles]
        batched_s = time.perf_counter() - t0
        serve = batched.report()["serve"]

    assert values == [{"y": 2 * i} for i in range(n_requests)]
    assert serve["completed"] == n_requests
    assert serve["requests"] == serve["admitted"] + serve["rejected"]

    ratio = serial_s / max(batched_s, 1e-9)
    p99 = serve["latency_p99_s"]
    # Bounded tail under saturation: every request rides one of
    # ceil(48/16) = 3 batch rounds, so p99 is a few rounds of eval time
    # plus scheduling slack -- far below the 0.48 s serial backlog.
    p99_bound = 10 * eval_s + 0.2
    report("serving layer: saturating load, batched vs serial", [
        ("requests", "--", str(n_requests)),
        ("serial request-at-a-time", "--", f"{serial_s:.3f} s"),
        ("served (batch=16, thread executor)", "--", f"{batched_s:.3f} s"),
        ("throughput ratio", ">= 3x", f"{ratio:.1f}x"),
        ("mean batch size", "--", f"{serve['mean_batch_size']:.1f}"),
        ("p50 latency", "--", f"{serve['latency_p50_s'] * 1e3:.0f} ms"),
        ("p99 latency", f"< {p99_bound * 1e3:.0f} ms",
         f"{p99 * 1e3:.0f} ms"),
    ])
    assert ratio >= 3.0
    assert serve["mean_batch_size"] >= 4.0
    assert p99 < p99_bound


def test_shard_saturation_throughput():
    """Saturating service load: a 4-shard router fleet vs one batched
    broker over the identical engine stack and the identical request mix.

    The single broker's ceiling is its one engine: 16 worker threads
    overlap at most 16 of the 10 ms simulator calls at a time, however
    well the micro-batcher packs them.  The router consistent-hashes the
    same mixed-priority stream onto 4 broker/engine worker processes
    (4 x 16 workers), so the fleet's ceiling is 4x higher and the
    speedup survives hash imbalance and IPC overhead.  The gate also
    holds the fleet to the same zero-silent-drops contract as one
    broker: the merged accounting invariant must hold exactly and the
    per-shard breakdown must sum to the fleet totals.
    """
    from repro.engine import ServeConfig
    from repro.serve import Broker, ShardRouter, Workload

    eval_s = 0.040
    n_requests = 640
    expected = [{"y": 2 * i} for i in range(n_requests)]

    def simulate(point):
        time.sleep(eval_s)
        return {"y": point["x"] * 2}

    def drive(backend):
        # Same mixed-priority saturating load for both backends: 8
        # concurrent clients, a quarter interactive, the rest bulk
        # sweeps.
        from concurrent.futures import ThreadPoolExecutor

        def one(i):
            return backend.submit(
                "sim", {"x": i},
                priority="interactive" if i % 4 == 0 else "batch")

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool:
            handles = list(pool.map(one, range(n_requests)))
        values = [h.result(timeout=60) for h in handles]
        return values, time.perf_counter() - t0

    def config(shards):
        return EngineConfig(
            executor="thread", workers=16,
            serve=ServeConfig(max_batch=16, max_wait_ms=5.0,
                              max_queue_depth=1024, shards=shards))

    single = Broker.from_config(config(1))
    single.register(Workload("sim", simulate))
    with single:
        values, single_s = drive(single)
    assert values == expected

    router = ShardRouter(config(4))
    router.register(Workload("sim", simulate))
    with router:  # spawn cost sits outside the timed window
        values, fleet_s = drive(router)
        serve = router.report()["serve"]
    assert values == expected

    assert serve["requests"] == serve["admitted"] + serve["rejected"]
    assert serve["admitted"] == (serve["completed"] + serve["expired"]
                                 + serve["cancelled"] + serve["errored"])
    assert serve["completed"] == n_requests
    assert len(serve["shards"]) == 4
    for lane in ("completed", "expired", "cancelled", "errored"):
        assert sum(s[lane] for s in serve["shards"]) == serve[lane]

    ratio = single_s / max(fleet_s, 1e-9)
    spread = [s["completed"] for s in serve["shards"]]
    report("serving layer: 4-shard fleet vs single batched broker", [
        ("requests", "--", str(n_requests)),
        ("single broker (batch=16, 16 workers)", "--",
         f"{single_s:.3f} s"),
        ("4-shard fleet (4 x 16 workers)", "--", f"{fleet_s:.3f} s"),
        ("throughput ratio", ">= 2.5x", f"{ratio:.1f}x"),
        ("completed per shard", "--", str(spread)),
        ("fleet p99 latency", "--",
         f"{serve['latency_p99_s'] * 1e3:.0f} ms"),
    ])
    assert ratio >= 2.5
    assert all(spread), "every shard must take a share of the keyspace"


# ----------------------------------------------------------------------
# stacked sweeps: one solve per AC sweep vs one LU per frequency
# ----------------------------------------------------------------------

def _per_frequency_ac_sweep(ss, freqs):
    """The pre-stacking AC sweep, kept as the reference: every frequency
    pays its own dense LU of ``G + jωC`` and one solve."""
    n_nodes = len(ss.system.node_names)
    data = np.zeros((len(freqs), n_nodes), dtype=complex)
    for k, f in enumerate(freqs):
        x = factorize(ss.G + (2j * math.pi * f) * ss.C).solve(ss.b_ac)
        data[k, :] = x[:n_nodes]
    return data


def test_stacked_sweep_speedup():
    """K=32 same-topology 33-point AC sweeps: each sweep as one stacked
    solve (``ac_analysis`` on a prebuilt ``ss``) vs one dense LU per
    frequency.

    Both paths start from the same prebuilt small-signal systems, so the
    timed windows hold only the sweeps.  The floor is deliberately below
    the locally measured ratio to stay robust on loaded CI machines.
    """
    from repro.engine.trace import Tracer

    K = 32
    circuits = [rc_ladder(12, r=1e3 * (1.0 + 0.03 * k),
                          c=1e-12 * (1.0 + 0.02 * k)) for k in range(K)]
    freqs = np.logspace(1, 9, 33)
    systems = [small_signal_system(c) for c in circuits]

    # Warm both paths once (import and first-call costs).
    ac_analysis(circuits[0], freqs, ss=systems[0])
    _per_frequency_ac_sweep(systems[0], freqs)

    t0 = time.perf_counter()
    reference = [_per_frequency_ac_sweep(ss, freqs) for ss in systems]
    reference_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    stacked = [ac_analysis(c, freqs, ss=ss)
               for c, ss in zip(circuits, systems)]
    stacked_s = time.perf_counter() - t0

    for ref, res, ss in zip(reference, stacked, systems):
        np.testing.assert_allclose(res.v("n12"),
                                   ref[:, ss.system.node("n12")], rtol=1e-9)

    # The solver counters keep their meaning: a stacked sweep counts one
    # dense factorization and one solve per frequency, like the loop.
    counts = {}
    for name, sweep in (
            ("per-frequency", lambda: _per_frequency_ac_sweep(
                systems[0], freqs)),
            ("stacked", lambda: ac_analysis(
                circuits[0], freqs, ss=systems[0]))):
        tracer = Tracer()
        with tracer.span("sweep"):
            sweep()
        t = tracer.telemetry
        counts[name] = (t.get("solver.factor_dense"), t.get("solver.solves"))
    assert counts["stacked"] == counts["per-frequency"] \
        == (len(freqs), len(freqs))

    ratio = reference_s / max(stacked_s, 1e-9)
    report("stacked sweeps: K=32 same-topology 33-point AC sweeps", [
        ("per-frequency loop (32 x 33 LUs)", "--", f"{reference_s:.3f} s"),
        ("stacked (one solve per sweep)", "--", f"{stacked_s:.3f} s"),
        ("speedup", ">= 5x", f"{ratio:.1f}x"),
        ("dense factorizations per sweep", str(len(freqs)),
         str(counts["stacked"][0])),
    ])
    assert ratio >= 5.0
