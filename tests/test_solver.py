"""Differential tests for the shared factor-once/solve-many solver layer.

The layer (:mod:`repro.analysis.solver`) must be *invisible* numerically:
dense LU, sparse LU and the stacked one-shot path (``solve_stack``)
agree with a plain ``np.linalg.solve`` to solver tolerance on the
library circuits and on power grids, all three solve directions match
their definitional ``np.linalg.solve`` counterparts, and reusing a
cached factorization is bit-identical to the first pass.  On top of
that the cache's hit/miss accounting — both local and through the
tracer — must add up.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    dc_operating_point,
    noise_analysis,
    small_signal_system,
)
from repro.analysis.mna import SingularCircuitError
from repro.analysis.solver import (
    SPARSE_SIZE_THRESHOLD,
    FactorizationCache,
    FactorizedOperator,
    factorize,
    solve_stack,
)
from repro.circuits.library import (
    five_transistor_ota,
    rc_ladder,
    two_stage_miller,
)
from repro.engine.trace import Tracer
from repro.msystem.powergrid import GridSegment, PowerGrid


# ----------------------------------------------------------------------
# fixtures: matrices with the structure the analyses actually produce
# ----------------------------------------------------------------------

def _ota_testbench():
    ckt = five_transistor_ota()
    ckt.vsource("tb_vip", "inp", "0", dc=1.5, ac=1.0)
    ckt.vsource("tb_vin", "inn", "0", dc=1.5, ac=0.0)
    return ckt


def _miller_testbench():
    ckt = two_stage_miller()
    ckt.vsource("tb_vip", "inp", "0", dc=1.5, ac=1.0)
    ckt.vsource("tb_vin", "inn", "0", dc=1.5, ac=0.0)
    return ckt


def _ac_matrix(circuit, freq_hz):
    """(A, b) of the linearized system G + jωC at one frequency."""
    ss = small_signal_system(circuit)
    return ss.G + 2j * math.pi * freq_hz * ss.C, ss.b_ac.astype(complex)


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


# ----------------------------------------------------------------------
# dense vs sparse vs stacked vs plain np.linalg.solve
# ----------------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize("make", [_ota_testbench, _miller_testbench])
    @pytest.mark.parametrize("freq", [10.0, 1e5, 1e8])
    def test_library_circuits_all_paths_agree(self, make, freq):
        A, b = _ac_matrix(make(), freq)
        x_ref = np.linalg.solve(A, b)
        x_dense = factorize(A, prefer_sparse=False).solve(b)
        x_sparse = factorize(A, prefer_sparse=True).solve(b)
        x_stack = solve_stack(A[None], b)[0]
        np.testing.assert_allclose(x_dense, x_ref, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(x_sparse, x_ref, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(x_stack, x_ref, rtol=1e-9, atol=1e-30)

    def test_power_grid_all_paths_agree(self):
        grid = _mesh_grid(8, 8)
        G = grid.conductance_matrix()
        b = np.zeros(grid.n_nodes)
        for pad in grid.pad_nodes:
            b[pad] += grid.vdd / 0.05
        for n, i in grid.load_currents.items():
            b[n] -= i
        x_seed = np.linalg.solve(G.toarray(), b)
        x_dense = factorize(G, prefer_sparse=False).solve(b)
        x_sparse = factorize(G, prefer_sparse=True).solve(b)
        np.testing.assert_allclose(x_dense, x_seed, rtol=1e-9)
        np.testing.assert_allclose(x_sparse, x_seed, rtol=1e-9)

    @pytest.mark.parametrize("prefer_sparse", [False, True])
    def test_transpose_and_adjoint_solves(self, prefer_sparse):
        A, _ = _ac_matrix(_ota_testbench(), 1e6)
        rng = np.random.default_rng(7)
        b = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
        op = factorize(A, prefer_sparse=prefer_sparse)
        np.testing.assert_allclose(
            op.solve_transpose(b), np.linalg.solve(A.T, b), rtol=1e-9)
        np.testing.assert_allclose(
            op.solve_adjoint(b), np.linalg.solve(A.conj().T, b), rtol=1e-9)

    def test_complex_rhs_on_real_sparse_factorization(self):
        # SuperLU only solves in the factorization dtype; the layer must
        # split a complex RHS over a real factorization transparently.
        G = _mesh_grid(6, 6).conductance_matrix()
        rng = np.random.default_rng(3)
        b = rng.normal(size=G.shape[0]) + 1j * rng.normal(size=G.shape[0])
        op = factorize(G, prefer_sparse=True)
        np.testing.assert_allclose(
            op.solve(b), np.linalg.solve(G.toarray(), b), rtol=1e-9)

    def test_solve_stack_matches_reference(self):
        freqs = [10.0, 1e3, 1e6, 1e9]
        pairs = [_ac_matrix(_ota_testbench(), f) for f in freqs]
        A = np.stack([a for a, _ in pairs])
        X = solve_stack(A, pairs[0][1])
        for k, (a, b) in enumerate(pairs):
            np.testing.assert_allclose(
                X[k], np.linalg.solve(a, b), rtol=1e-9, atol=1e-30)

    def test_auto_selection_by_size_and_density(self):
        small = np.eye(4)
        assert factorize(small).mode == "dense"
        big_sparse = _mesh_grid(12, 12).conductance_matrix()
        assert big_sparse.shape[0] >= SPARSE_SIZE_THRESHOLD
        assert factorize(big_sparse).mode == "sparse"
        n = SPARSE_SIZE_THRESHOLD
        dense_big = np.ones((n, n)) + n * np.eye(n)
        assert factorize(dense_big).mode == "dense"

    @pytest.mark.parametrize("prefer_sparse", [False, True])
    def test_singular_matrix_raises(self, prefer_sparse):
        A = np.zeros((4, 4))
        A[0, 0] = 1.0  # rows 1..3 empty: structurally singular
        with pytest.raises(SingularCircuitError):
            factorize(A, prefer_sparse=prefer_sparse).solve(np.ones(4))


# ----------------------------------------------------------------------
# cache accounting
# ----------------------------------------------------------------------

class TestFactorizationCache:
    def test_hit_miss_accounting(self):
        cache = FactorizationCache()
        A = np.eye(3) * 2.0
        op1 = cache.get_or_factorize("k", lambda: A)
        op2 = cache.get_or_factorize("k", lambda: A)
        assert op1 is op2
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1,
                                 "hit_rate": 0.5}

    def test_lru_eviction(self):
        cache = FactorizationCache(max_entries=2)
        mats = {k: np.eye(2) * (i + 1) for i, k in enumerate("abc")}
        for k in "abc":
            cache.get_or_factorize(k, lambda k=k: mats[k])
        assert len(cache) == 2
        # "a" was evicted; rebuilding it is a miss, "c" is still a hit.
        cache.get_or_factorize("a", lambda: mats["a"])
        cache.get_or_factorize("c", lambda: mats["c"])
        assert (cache.hits, cache.misses) == (1, 4)

    def test_build_not_called_on_hit(self):
        cache = FactorizationCache()
        calls = []

        def build():
            calls.append(1)
            return np.eye(3)

        cache.get_or_factorize("k", build)
        cache.get_or_factorize("k", build)
        assert len(calls) == 1

    def test_counters_reach_the_tracer(self):
        tracer = Tracer()
        cache = FactorizationCache()
        A, b = _ac_matrix(_ota_testbench(), 1e4)
        with tracer.span("run"):
            op = cache.get_or_factorize(1e4, lambda: A)
            op.solve(b)
            cache.get_or_factorize(1e4, lambda: A).solve(b)
        t = tracer.telemetry
        assert t.get("solver.cache_misses") == 1
        assert t.get("solver.cache_hits") == 1
        assert t.get("solver.factorizations") == 1
        assert t.get("solver.factor_dense") == 1
        assert t.get("solver.solves") == 2

    def test_powergrid_metrics_share_one_factorization(self):
        grid = _mesh_grid(6, 6)
        tracer = Tracer()
        with tracer.span("grid"):
            grid.worst_ir_drop()
            grid.segment_currents()
            grid._droop_bound(grid.analog_nodes[0])
        t = tracer.telemetry
        assert t.get("solver.factorizations") == 1
        assert t.get("solver.factor_sparse") == 1

    def test_transient_newton_nonconv_counter(self):
        from repro.analysis.transient import _newton_nonconv
        tracer = Tracer()
        _newton_nonconv(0.0, 1e-9)  # no active tracer: must not raise
        with tracer.span("tran"):
            _newton_nonconv(1e-8, 1e-9)
        assert tracer.telemetry.get("analysis.newton_nonconv") == 1
        # The counter is a plain telemetry counter, so it reaches the
        # manifest rollup surface like every other analysis.* counter.
        assert "analysis.newton_nonconv" in \
            tracer.telemetry.report()["counters"]

    def test_engine_report_surfaces_solver_rollup(self):
        from repro.engine import EvaluationEngine, Telemetry
        from repro.engine.schema import check_report
        counters = {"solver.factorizations": 3, "solver.factor_dense": 2,
                    "solver.factor_sparse": 1, "solver.solves": 10,
                    "solver.cache_hits": 6, "solver.cache_misses": 4}
        roll = EvaluationEngine(telemetry=Telemetry(counters)).report()[
            "solver"]
        assert roll["factorizations"] == 3
        assert roll["solves"] == 10
        assert roll["hit_rate"] == pytest.approx(0.6)
        assert EvaluationEngine().report()["solver"]["hit_rate"] is None

        engine = EvaluationEngine()
        report = engine.report()
        check_report(report)  # schema v3 requires the solver section
        assert report["solver"]["factorizations"] == 0


# ----------------------------------------------------------------------
# factored-once reuse is bit-identical
# ----------------------------------------------------------------------

class TestReuseBitIdentical:
    def test_ac_sweep_reuse(self):
        ss = small_signal_system(_ota_testbench())
        freqs = [10.0, 1e3, 1e6, 1e3]  # revisit 1e3: pure cache hit
        first = [ss.solve_at(f).copy() for f in freqs]
        again = [ss.solve_at(f) for f in freqs]
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
        assert ss._factors.hits >= len(freqs) + 1

    def test_noise_sweep_reuse(self):
        ckt = _ota_testbench()
        freqs = np.array([10.0, 1e4, 1e7])
        ss = small_signal_system(ckt)
        n1 = noise_analysis(ckt, "out", freqs, ss=ss)
        n2 = noise_analysis(ckt, "out", freqs, ss=ss)
        assert np.array_equal(n1.output_psd, n2.output_psd)
        assert np.array_equal(n1.gain, n2.gain)

    def test_noise_matches_fresh_system(self):
        ckt = _miller_testbench()
        freqs = np.array([100.0, 1e5])
        op = dc_operating_point(ckt)
        warm = small_signal_system(ckt, op)
        warm.solve_at(100.0)  # a warm factor cache must not change noise
        n_warm = noise_analysis(ckt, "out", freqs, op=op, ss=warm)
        n_cold = noise_analysis(ckt, "out", freqs, op=op)
        assert np.array_equal(n_warm.output_psd, n_cold.output_psd)

    @given(n=st.integers(min_value=1, max_value=6),
           r=st.floats(min_value=10.0, max_value=1e6),
           c=st.floats(min_value=1e-15, max_value=1e-9),
           freqs=st.lists(st.floats(min_value=1.0, max_value=1e9),
                          min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_property_cached_equals_uncached(self, n, r, c, freqs):
        ckt = rc_ladder(n, r=r, c=c)
        cached = small_signal_system(ckt)
        first = [cached.solve_at(f).copy() for f in freqs]
        again = [cached.solve_at(f) for f in freqs]
        fresh = small_signal_system(ckt)
        uncached = [fresh.solve_at(f) for f in freqs]
        for a, b, u in zip(first, again, uncached):
            assert np.array_equal(a, b)
            assert np.array_equal(a, u)


class TestOperatorShape:
    def test_modes_and_metadata(self):
        A, _ = _ac_matrix(_ota_testbench(), 1e3)
        op = factorize(A)
        assert isinstance(op, FactorizedOperator)
        assert op.mode == "dense"
        assert op.size == A.shape[0]

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            factorize(np.ones((3, 2)))


class TestSparseInput:
    """A CSC matrix goes to SuperLU as it is; dense and other sparse
    inputs are converted to CSC first.  Either way the factors and the
    solutions are those of ``splu(csc_matrix(A))``."""

    @staticmethod
    def _inputs():
        import scipy.sparse as sp
        A = _mesh_grid(6, 3).conductance_matrix()   # 18 nodes, CSC
        assert A.format == "csc"
        return {"csc": A, "csr": sp.csr_matrix(A), "coo": sp.coo_matrix(A),
                "dense": A.toarray()}

    @pytest.mark.parametrize("kind", ["csc", "csr", "coo", "dense"])
    def test_factors_and_solutions_match_the_rewrapped_path(self, kind):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        A = self._inputs()[kind]
        op = factorize(A, prefer_sparse=True)
        ref = spla.splu(sp.csc_matrix(A))
        got = op._factors
        for name in ("L", "U"):
            g, r = getattr(got, name), getattr(ref, name)
            for part in ("data", "indices", "indptr"):
                assert getattr(g, part).tobytes() == \
                    getattr(r, part).tobytes()
        assert got.perm_r.tobytes() == ref.perm_r.tobytes()
        assert got.perm_c.tobytes() == ref.perm_c.tobytes()
        rhs = np.random.default_rng(0).standard_normal((A.shape[0], 3))
        for b in rhs.T:
            assert op.solve(b).tobytes() == ref.solve(b).tobytes()
            assert op.solve_transpose(b).tobytes() == \
                ref.solve(b, trans="T").tobytes()

    @pytest.mark.parametrize("kind", ["csc", "csr", "coo", "dense"])
    def test_only_csc_skips_the_conversion(self, kind, monkeypatch):
        import scipy.sparse.linalg as spla
        A = self._inputs()[kind]
        before = A.copy()
        seen = []
        real = spla.splu

        def splu(M, *args, **kwargs):
            seen.append(M)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", splu)
        factorize(A, prefer_sparse=True)
        (M,) = seen
        assert M.format == "csc"
        assert (M is A) == (kind == "csc")
        # The caller's matrix is left as it was.
        if kind == "dense":
            assert np.array_equal(A, before)
        else:
            assert (A != before).nnz == 0 and A.format == before.format
