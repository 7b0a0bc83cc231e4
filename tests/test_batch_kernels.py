"""Conformance harness for the engine's one evaluation path.

Every point the engine evaluates goes through one executor dispatch, so
a serial and a process-parallel executor must be *indistinguishable*
everywhere a user can observe: results, cache keys, netlists, failure
records, span trees and manifests.  This file is the gate — every cell
of the

    seed x {serial, parallel} x {fault, no-fault}

matrix runs the same candidate stream and cross-checks the two
executors.

Numerical contract: every point runs through the same per-point
simulation code, whose one-shot MNA solves all go through
:func:`repro.analysis.solver.solve_stack`, so results agree *bitwise*
(NaN-aware) across executors, reruns are bit-identical, and so are their
manifest digests.  A member of a stacked solve does not depend on the
rest of the stack, which the sweep tests below pin.
"""

import math
import os
import struct
import threading

import numpy as np
import pytest

from repro.analysis.ac import ac_analysis
from repro.analysis.mna import (
    MnaSystem,
    SingularCircuitError,
    mos_capacitances,
)
from repro.analysis.solver import solve_stack
from repro.circuits.library import (
    common_source_amp,
    five_transistor_ota,
    rc_ladder,
)
from repro.circuits.netlist import Circuit
from repro.engine import (
    EngineConfig,
    EvalCache,
    EvaluationEngine,
    FaultInjector,
    SurrogateConfig,
    build_manifest,
    is_failure,
    manifest_digest,
    validate_manifest,
)
from repro.opt.anneal import AnnealSchedule
from repro.core.specs import Spec, SpecSet
from repro.synthesis import DesignSpace
from repro.synthesis.simulation_based import (
    SimulationBasedSizer,
    SimulationEvaluator,
)


def _same_bits(a: float, b: float) -> bool:
    """Bitwise float equality that treats any two NaNs as equal."""
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


def _cs_amp(f: float) -> Circuit:
    return common_source_amp(w=20e-6 * f, r_load=10e3 * f)


def _ota_testbench() -> Circuit:
    ckt = five_transistor_ota()
    ckt.vsource("tb_vip", "inp", "0", dc=1.5, ac=1.0)
    ckt.vsource("tb_vin", "inn", "0", dc=1.5)
    return ckt


# ----------------------------------------------------------------------
# The stacked sweep: each frequency is solved independently
# ----------------------------------------------------------------------

class TestStackedSweep:
    @pytest.mark.parametrize("make", [_ota_testbench,
                                      lambda: rc_ladder(12)],
                             ids=["ota", "rc_ladder"])
    def test_ac_point_bit_identical_alone_or_in_sweep(self, make):
        """The AC result at a frequency does not depend on the sweep it
        sits in: alone, inside a 33-point sweep, or in that sweep
        reversed, the phasors agree bit for bit."""
        circuit = make()
        freqs = np.logspace(1, 9, 33)
        sweep = ac_analysis(circuit, freqs)
        backward = ac_analysis(circuit, freqs[::-1])
        for k, f in enumerate(freqs):
            alone = ac_analysis(circuit, np.array([f]))
            for net, phasor in sweep.phasors.items():
                assert phasor[k].tobytes() == alone.phasors[net][0].tobytes()
                assert phasor[k].tobytes() == \
                    backward.phasors[net][-1 - k].tobytes()


# ----------------------------------------------------------------------
# Satellite guards: mna dtype/shape checks and error normalization
# ----------------------------------------------------------------------

class TestMnaGuards:
    def test_stamp_nonlinear_rejects_batch_tensors(self):
        system = MnaSystem(_cs_amp(1.0))
        n = system.size
        x = np.zeros(n)
        G = np.zeros((n, n))
        rhs = np.zeros(n)
        with pytest.raises(ValueError, match="solve_stack"):
            system.stamp_nonlinear(np.zeros((3, n)), G, rhs)
        with pytest.raises(ValueError, match="length"):
            system.stamp_nonlinear(np.zeros(n + 1), G, rhs)
        with pytest.raises(TypeError, match="float"):
            system.stamp_nonlinear(np.zeros(n, dtype=complex), G, rhs)
        with pytest.raises(ValueError, match="Jacobian"):
            system.stamp_nonlinear(x, np.zeros((3, n, n)), rhs)
        system.stamp_nonlinear(x, G, rhs)  # the scalar shapes still work

    def test_mos_capacitances_guards(self):
        from types import SimpleNamespace
        dev = _cs_amp(1.0).mosfets[0]
        cgs, cgd, cgb = mos_capacitances(dev, "saturation")
        assert cgs > 0 and cgd > 0 and cgb >= 0
        batched = SimpleNamespace(name=dev.name, model=dev.model,
                                  w=np.array([1e-6, 2e-6]), l=dev.l,
                                  m=dev.m)
        with pytest.raises(TypeError, match="scalar W/L"):
            mos_capacitances(batched, "saturation")
        with pytest.raises(ValueError, match="unknown operating region"):
            mos_capacitances(dev, "weak-inversion")

    def test_stamp_plan_rejects_array_sizes_and_foreign_devices(self):
        """The plan compiles scalar device constants once per system, so
        array-valued W/L/m fail at construction, and an operating-point
        record is only given for the system's own MOSFETs."""
        from repro.circuits.devices import Mosfet
        circuit = _cs_amp(1.0)
        circuit.add(Mosfet("mx", ("out", "g", "0", "0"),
                           w=np.array([5e-6])))
        with pytest.raises(TypeError, match="scalar W/L"):
            MnaSystem(circuit)
        system, other = MnaSystem(_cs_amp(1.0)), MnaSystem(_cs_amp(1.2))
        with pytest.raises(KeyError, match="not a MOSFET of this system"):
            system.mos_op(other.nonlinear[0], np.zeros(system.size))

    def test_solve_stack_normalizes_failures(self):
        singular = np.zeros((1, 2, 2))
        with pytest.raises(SingularCircuitError, match="singular"):
            solve_stack(singular, np.ones(2))
        with pytest.raises(SingularCircuitError, match="non-finite"):
            solve_stack(np.array([[[np.inf, 0.0], [0.0, 1.0]]]), np.ones(2))
        with pytest.raises(ValueError, match="solve_stack"):
            solve_stack(np.eye(2), np.ones(2))
        with pytest.raises(ValueError, match="solve_stack"):
            solve_stack(np.zeros((2, 3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="rhs shape"):
            solve_stack(np.stack([np.eye(3)] * 2), np.ones((3, 3)))
        with pytest.raises(ValueError, match="rhs shape"):
            solve_stack(np.stack([np.eye(3)] * 2), np.ones(2))

    def test_solve_stack_matches_per_member_solve(self):
        """Each member of a stacked solve equals its own one-system
        solve bitwise, with a shared or a per-member right-hand side."""
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=(5, 4))
        X = solve_stack(A, b)
        shared = solve_stack(A, b[0])
        for k in range(5):
            one = A[k:k + 1]
            assert X[k].tobytes() == solve_stack(one, b[k])[0].tobytes()
            assert shared[k].tobytes() == solve_stack(one, b[0])[0].tobytes()
            np.testing.assert_allclose(X[k], np.linalg.solve(A[k], b[k]),
                                       rtol=1e-12)


# ----------------------------------------------------------------------
# Satellite: cache enumeration under concurrent writers
# ----------------------------------------------------------------------

#: Publishes of the concurrent disk writer below.
WRITER_PUTS = 400


class TestCacheConcurrency:
    def test_items_under_concurrent_writers(self):
        cache = EvalCache(max_entries=512)
        stop = threading.Event()
        errors = []

        def writer(tag):
            i = 0
            try:
                while not stop.is_set():
                    cache.put(f"{tag}:{i}", i)
                    i += 1
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                snapshot = cache.items()
                assert isinstance(snapshot, list)
                for key, value in snapshot:
                    assert key.endswith(f":{value}")
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors

    def test_scan_disk_under_concurrent_writer(self, tmp_path):
        cache = EvalCache(max_entries=64, disk_dir=tmp_path)
        (tmp_path / "corrupt.pkl").write_bytes(b"\x00not-a-pickle")
        stop = threading.Event()

        def writer():
            # A fixed number of publishes: enough to overlap the first
            # scans, and bounded, so the directory (and with it the time
            # each of the 50 scans takes) stays finite however fast the
            # filesystem creates files.
            for i in range(WRITER_PUTS):
                if stop.is_set():
                    break
                cache.put(f"w{i:04d}", {"v": i})

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                for key, value in cache.scan_disk():
                    if key.startswith("w"):
                        assert value == {"v": int(key[1:])}
                    assert key != "corrupt"
        finally:
            stop.set()
            thread.join()
        # The corrupt entry is skipped, everything readable is yielded.
        keys = [k for k, _ in cache.scan_disk()]
        assert "corrupt" not in keys and keys == sorted(keys)


# ----------------------------------------------------------------------
# The differential matrix: serial vs parallel executor
# ----------------------------------------------------------------------

OTA_SPACE = DesignSpace(
    variables={"w_in": (5e-6, 500e-6), "w_load": (5e-6, 200e-6),
               "w_tail": (5e-6, 200e-6), "i_bias": (2e-6, 500e-6)},
    fixed={"l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
           "c_load": 2e-12, "vdd": 3.3})

OTA_SPECS = SpecSet([
    Spec.at_least("gain_db", 40.0),
    Spec.at_least("gbw", 10e6),
    Spec.minimize("power", good=1e-4),
])

SCHEDULE = AnnealSchedule(moves_per_temperature=15, cooling=0.8,
                          max_evaluations=120, stop_after_stale=4)


def _ota_candidates(seed: int, n: int) -> list[dict[str, float]]:
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        draw = {name: lo + (hi - lo) * rng.random()
                for name, (lo, hi) in OTA_SPACE.variables.items()}
        points.append(OTA_SPACE.complete(draw))
    return points


# Injected fault rate for the faulted matrix cells; the CI `kernels` job
# pins REPRO_FAULT_RATE=0.1, locally the default keeps the cells hot.
FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.2"))


def _evaluator() -> SimulationEvaluator:
    return SimulationEvaluator(builder=five_transistor_ota,
                               raise_failures=True)


def _run_cell(seed: int, *, executor: str, fault_rate: float = 0.0,
              n_points: int = 10):
    """One matrix cell: fixed candidate stream through map_evaluate."""
    injector = FaultInjector(rate=fault_rate, seed=seed) \
        if fault_rate else None
    config = EngineConfig(executor=executor, workers=2, cache=True,
                          trace=True, fault_injector=injector)
    engine = EvaluationEngine.from_config(config)
    evaluator = _evaluator()
    points = _ota_candidates(seed, n_points)
    with engine.tracer.span("differential"):
        results = engine.map_evaluate(evaluator.simulate, points,
                                      key_fn=evaluator.cache_key)
    report = engine.report()
    manifest = build_manifest("differential", engine, seed=seed,
                              config=config)
    cache_keys = sorted(key for key, _ in engine.cache.items())
    structure = engine.tracer.structure()
    netlists = [repr(evaluator.build_testbench(p)) for p in points]
    engine.close()
    return {
        "results": results,
        "report": report,
        "manifest": manifest,
        "digest": manifest_digest(manifest),
        "cache_keys": cache_keys,
        "structure": structure,
        "netlists": netlists,
    }


def _assert_results_conform(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if is_failure(x) or is_failure(y):
            assert is_failure(x) and is_failure(y)
            assert x.exception_type == y.exception_type
            continue
        assert set(x) == set(y)
        for name in x:
            assert _same_bits(y[name], x[name]), (name, x[name], y[name])


class TestEngineDifferential:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("fault_rate", [0.0, FAULT_RATE])
    def test_matrix_cell(self, seed, fault_rate):
        # Faulted cells stretch the candidate stream so at least one
        # injection lands even at low REPRO_FAULT_RATE settings (the
        # injector is deterministic per token, so every cell sees the
        # exact same hits).
        n_points = max(10, int(np.ceil(3.0 / fault_rate))) \
            if fault_rate else 10
        serial, parallel = (
            _run_cell(seed, executor=executor, fault_rate=fault_rate,
                      n_points=n_points)
            for executor in ("serial", "parallel"))

        # Netlists and cache keys: identical across executors.
        assert parallel["netlists"] == serial["netlists"]
        assert parallel["cache_keys"] == serial["cache_keys"]

        # Per-point results bit for bit, failures by exception type.
        _assert_results_conform(serial["results"], parallel["results"])

        # Failure records (injected faults) match across executors.
        records = [
            [{k: v for k, v in rec.items() if k != "elapsed_s"}
             for rec in cell["report"]["failures"]["records"]]
            for cell in (serial, parallel)
        ]
        assert records[0] == records[1]
        if fault_rate:
            assert serial["report"]["failures"]["total"] > 0

        # Span counters are attributed identically under both executors.
        assert parallel["structure"] == serial["structure"]
        for cell in (serial, parallel):
            validate_manifest(cell["manifest"])

    def test_rerun_determinism_and_manifest_digest(self):
        a = _run_cell(5, executor="serial")
        b = _run_cell(5, executor="serial")
        assert a["results"] == b["results"]
        assert a["digest"] == b["digest"]
        assert a["structure"] == b["structure"]

    def test_sizing_with_surrogate_is_deterministic(self):
        def run():
            config = EngineConfig(
                cache=True,
                surrogate=SurrogateConfig(min_fit=16, refit_every=8))
            sizer = SimulationBasedSizer(
                _evaluator(), OTA_SPACE, OTA_SPECS, schedule=SCHEDULE,
                seed=7, batch_size=8, config=config)
            engine = sizer.engine
            result = sizer.run()
            return result, engine.report()

        (r1, rep1), (r2, rep2) = run(), run()
        assert r1.sizes == r2.sizes
        assert r1.cost == r2.cost
        assert r1.history == r2.history
        assert rep1["surrogate"]["predictions"] == \
            rep2["surrogate"]["predictions"]
