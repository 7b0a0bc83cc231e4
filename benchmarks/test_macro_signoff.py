"""Macro mesh signoff: sparse factor-once metrics vs dense re-solves.

The memory-macro signoff leans on the shared solver layer's sparse,
memoized ``PowerGrid.dc_solve``: the IR-drop, segment-current and EM
metrics of one sized mesh reuse a single CSC factorization + solve.  The
'before' is what a naive signoff does — re-assemble the dense
conductance matrix and ``np.linalg.solve`` it again for every metric —
which at 64x64-macro mesh scale (a few thousand nodes) is the
difference between interactive annealing and minutes per candidate.

Floor: the sparse path must hold >= 5x over the dense re-solve baseline
on the full-density 64x64 mesh.
"""

import time

import numpy as np
from conftest import report

from repro.macro import MacroSpec, MeshSpec, SignoffSpec, route_mesh, tile_macro
from repro.msystem.powergrid import PACKAGE_R

FLOOR = 5.0


def _build_grid():
    macro = tile_macro(MacroSpec(rows=64, cols=64, strap_every=4,
                                 name="bench64"))
    n_h = len(macro.blockages.free_h_tracks)
    n_v = len(macro.blockages.free_v_tracks)
    mesh = route_mesh(macro, MeshSpec(n_h, n_v, 8_000, 8_000))
    spec = SignoffSpec()
    return mesh.power_grid(macro, spec.cell_avg_a, spec.peak_ratio)


def _sparse_metrics(grid):
    grid._dc_cache = None  # cold start: one factorization, reused 3x
    ir = grid.worst_ir_drop()
    currents = grid.segment_currents()
    em = grid.em_violations()
    return ir, currents, em


def _dense_resolve_metrics(grid):
    """The naive 'before': dense assembly + np.linalg.solve per metric."""
    n = grid.n_nodes

    def resolve():
        g_mat = np.zeros((n, n))
        for seg in grid.segments:
            g = 1.0 / seg.resistance
            a, b = seg.node_a, seg.node_b
            g_mat[a, a] += g
            g_mat[b, b] += g
            g_mat[a, b] -= g
            g_mat[b, a] -= g
        for pad in grid.pad_nodes:
            g_mat[pad, pad] += 1.0 / PACKAGE_R
        rhs = np.zeros(n)
        for pad in grid.pad_nodes:
            rhs[pad] += grid.vdd / PACKAGE_R
        for node, current in grid.load_currents.items():
            rhs[node] -= current
        return np.linalg.solve(g_mat, rhs)

    v = resolve()
    ir = max(grid.vdd - v[node] for node in grid.load_currents)
    v = resolve()
    currents = {seg.name: abs(v[seg.node_a] - v[seg.node_b]) / seg.resistance
                for seg in grid.segments}
    v = resolve()
    em = [seg.name for seg in grid.segments
          if currents[seg.name] > seg.em_current_limit()]
    return ir, currents, em


def test_macro_signoff_sparse_vs_dense(benchmark):
    grid = _build_grid()
    assert grid.n_nodes > 1_000  # a real mesh, not a toy

    # Conformance first: both paths must report identical physics.
    sparse_ir, sparse_cur, sparse_em = _sparse_metrics(grid)
    dense_ir, dense_cur, dense_em = _dense_resolve_metrics(grid)
    np.testing.assert_allclose(sparse_ir, dense_ir, rtol=1e-8)
    assert sparse_em == dense_em
    for name in sparse_cur:
        np.testing.assert_allclose(sparse_cur[name], dense_cur[name],
                                   rtol=1e-7, atol=1e-15)

    rounds = 3
    t0 = time.perf_counter()
    for _ in range(rounds):
        _dense_resolve_metrics(grid)
    dense_s = (time.perf_counter() - t0) / rounds

    sparse_result = benchmark.pedantic(lambda: _sparse_metrics(grid),
                                       rounds=rounds, iterations=1)
    sparse_s = benchmark.stats.stats.mean
    speedup = dense_s / sparse_s

    report("Macro signoff: sparse factor-once vs dense re-solve (64x64)", [
        ("mesh nodes", "-", f"{grid.n_nodes}"),
        ("mesh segments", "-", f"{len(grid.segments)}"),
        ("dense re-solve per signoff (ms)", "-", f"{dense_s * 1e3:.1f}"),
        ("sparse signoff (ms)", "-", f"{sparse_s * 1e3:.1f}"),
        ("speedup", f">= {FLOOR:.0f}x", f"{speedup:.1f}x"),
        ("worst IR drop (mV)", "-", f"{sparse_result[0] * 1e3:.2f}"),
    ])
    assert speedup >= FLOOR, (
        f"sparse signoff speedup {speedup:.2f}x below the {FLOOR}x floor")
