"""Moment computation for Asymptotic Waveform Evaluation (AWE).

Given the linear(ized) system ``(G + sC)x(s) = b`` the transfer function at
an output node expands as ``H(s) = m0 + m1·s + m2·s² + ...`` with

    G·x0 = b,      G·x_{k+1} = -C·x_k,      m_k = x_k[out].

One LU factorization of ``G`` serves every moment — the property that made
AWE fast enough for the ASTRX/OBLX inner loop and the RAIL power-grid
evaluator [Pillage & Rohrer 1990].
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.analysis.mna import SingularCircuitError
from repro.analysis.solver import factorize


class MomentEngine:
    """Factorizes G once and produces state moment vectors on demand.

    The factorization goes through the shared solver layer
    (:mod:`repro.analysis.solver`), which auto-selects dense LU for
    cell-level MNA and sparse LU for the thousands-of-nodes power grids
    RAIL evaluates; ``G`` and ``C`` may each be dense or scipy-sparse.
    """

    def __init__(self, G, C, b: np.ndarray):
        self.G = G if sp.issparse(G) else np.asarray(G, dtype=float)
        self.C = C if sp.issparse(C) else np.asarray(C, dtype=float)
        self.b = np.asarray(b, dtype=float)
        try:
            self._op = factorize(self.G)
        except (ValueError, SingularCircuitError) as exc:
            raise SingularCircuitError("G matrix is singular") from exc
        self._states: list[np.ndarray] = []

    def state(self, k: int) -> np.ndarray:
        """k-th moment state vector x_k (cached).

        A non-finite moment cannot be returned: the solve raises
        :class:`SingularCircuitError` on any non-finite solution.
        """
        while len(self._states) <= k:
            if not self._states:
                nxt = self._op.solve(self.b)
            else:
                nxt = self._op.solve(-(self.C @ self._states[-1]))
            self._states.append(nxt)
        return self._states[k]

    def moments(self, out_index: int, count: int) -> np.ndarray:
        """First ``count`` transfer-function moments m_0..m_{count-1}."""
        return np.array([self.state(k)[out_index] for k in range(count)])


def moments_from_system(G: np.ndarray, C: np.ndarray, b: np.ndarray,
                        out_index: int, count: int) -> np.ndarray:
    """Convenience wrapper: moments of one output in one call."""
    return MomentEngine(G, C, b).moments(out_index, count)
