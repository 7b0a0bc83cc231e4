"""Shared linear-solver layer: one-shot stacked solves, factor-once reuse.

Every frontend tool the tutorial surveys reduces to thousands of calls
into the circuit evaluator, and the backend RAIL claim hinges on solving
power grids far larger than cell-level MNA.  Two algebraic shapes cover
all of them, and this module has one routine for each:

* :func:`solve_stack` — one-shot dense solves.  An AC or noise sweep
  solves ``G + jωC`` at every frequency of the sweep, and a nonlinear
  Newton step solves its freshly stamped Jacobian once; both hand an
  ``(M, n, n)`` stack to a single ``np.linalg.solve`` call (``M = 1``
  for a Newton step).  NumPy solves each member with its own LAPACK
  ``gesv``, so a member's solution does not depend on the rest of the
  stack, and every one-shot MNA solve in the simulator — scalar or
  batched evaluation alike — goes through this one routine.
* :class:`FactorizedOperator` — one LU factorization of ``A`` serving
  repeated forward (``A x = b``), transpose (``Aᵀ x = b``) and adjoint
  (``Aᴴ x = b``) solves, for matrices that really are solved many times:
  a transient matrix ``G + C/h`` serves every Newton iteration and
  timestep of a linear circuit, linear DC Newton reuses one Jacobian,
  the AWE moment recursion reuses one factorization of ``G``, adjoint
  sensitivities share one factorization between the forward and the
  adjoint solve, and a power grid's conductance matrix serves the
  IR-drop, EM and droop-bound metrics.  Dense (LAPACK ``getrf`` /
  ``getrs``, called directly) or sparse (``scipy.sparse.linalg.splu``
  on CSC) storage is auto-selected by matrix size and density —
  cell-level MNA stays dense, power grids go sparse — or forced with
  ``prefer_sparse``.  :class:`FactorizationCache` is a keyed LRU of
  operators with local hit/miss counters, so sweeps that revisit a
  matrix skip even the single factorization; sweeps over systems of at
  least ``SPARSE_SIZE_THRESHOLD`` unknowns factor per frequency through
  it instead of stacking.

Telemetry: every factorization, solve and cache lookup is counted on the
active tracer (``solver.factorizations``, ``solver.factor_dense`` /
``solver.factor_sparse``, ``solver.solves``, ``solver.cache_hits`` /
``solver.cache_misses``), which is how the counters reach
``engine.report()['solver']`` and the run-manifest rollups.  A stacked
solve counts one dense factorization and one solve per member.  Counting
goes through :func:`repro.engine.trace.current_tracer` exactly like the
``analysis.*`` counters, so it is suspended during executor dispatch and
serial and parallel runs attribute identically.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis.mna import SingularCircuitError
from repro.engine.trace import count

#: Matrices at least this large are candidates for sparse factorization.
SPARSE_SIZE_THRESHOLD = 128

#: ...provided their density (nonzeros / n²) is at most this.
SPARSE_DENSITY_THRESHOLD = 0.25

#: Default LRU capacity of a :class:`FactorizationCache`.
DEFAULT_CACHE_ENTRIES = 256


class FactorizedOperator:
    """One LU factorization of ``A``, serving repeated solves.

    Build through :func:`factorize` (which picks the storage) rather
    than directly.  All three solve directions share the single
    factorization: ``solve`` for ``A x = b``, ``solve_transpose`` for
    ``Aᵀ x = b`` (the adjoint-network trick for real-arithmetic
    sensitivities) and ``solve_adjoint`` for ``Aᴴ x = b`` (the complex
    conjugate-transpose the noise analysis needs).
    """

    _TRANS_DENSE = {"N": 0, "T": 1, "H": 2}

    def __init__(self, factors: Any, mode: str, size: int, dtype: np.dtype):
        self._factors = factors
        self.mode = mode          # "dense" | "sparse"
        self.size = size
        self.dtype = dtype

    # -- solving -------------------------------------------------------
    def _solve(self, b: np.ndarray, trans: str) -> np.ndarray:
        count("solver.solves")
        if self.mode == "dense":
            # LAPACK getrs directly: on the small systems that stay dense,
            # scipy's lu_solve wrapper costs more than the solve.  Like
            # lu_solve, a non-finite right-hand side is a ValueError.
            b = np.asarray_chkfinite(b)
            lu, piv = self._factors
            getrs, = sla.get_lapack_funcs(("getrs",), (lu, b))
            x, _ = getrs(lu, piv, b, trans=self._TRANS_DENSE[trans])
        else:
            b = np.asarray(b)
            if np.iscomplexobj(b) and not np.issubdtype(
                    self.dtype, np.complexfloating):
                # SuperLU solves in the factorization's dtype only.
                x = (self._factors.solve(np.ascontiguousarray(b.real),
                                         trans=trans)
                     + 1j * self._factors.solve(
                         np.ascontiguousarray(b.imag), trans=trans))
            else:
                x = self._factors.solve(
                    np.ascontiguousarray(b, dtype=self.dtype), trans=trans)
        if not np.isfinite(x).all():
            raise SingularCircuitError(
                "linear solve produced non-finite values — matrix is "
                "singular or badly scaled")
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b``."""
        return self._solve(b, "N")

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` (plain transpose, no conjugation)."""
        return self._solve(b, "T")

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᴴ x = b`` (conjugate transpose)."""
        return self._solve(b, "H")


def factorize(A: Any, prefer_sparse: bool | None = None) -> FactorizedOperator:
    """LU-factorize ``A`` once, auto-selecting dense or sparse storage.

    ``A`` may be a dense ndarray or any scipy sparse matrix.  Dense
    inputs switch to sparse when the matrix is both large
    (``SPARSE_SIZE_THRESHOLD``) and sparse enough
    (``SPARSE_DENSITY_THRESHOLD``); sparse inputs densify when tiny.
    ``prefer_sparse`` overrides the heuristic in either direction.
    Raises :class:`~repro.analysis.mna.SingularCircuitError` for a
    structurally or numerically singular matrix.
    """
    is_sparse_input = sp.issparse(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if prefer_sparse is None:
        if is_sparse_input:
            use_sparse = n >= SPARSE_SIZE_THRESHOLD or \
                A.nnz <= SPARSE_DENSITY_THRESHOLD * n * n
        elif n >= SPARSE_SIZE_THRESHOLD:
            density = np.count_nonzero(A) / (n * n)
            use_sparse = density <= SPARSE_DENSITY_THRESHOLD
        else:
            use_sparse = False
    else:
        use_sparse = prefer_sparse

    count("solver.factorizations")
    if use_sparse:
        count("solver.factor_sparse")
        # A CSC input goes to SuperLU as is; anything else converts.
        M = A if is_sparse_input and A.format == "csc" else sp.csc_matrix(A)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", spla.MatrixRankWarning)
                factors = spla.splu(M)
        except (RuntimeError, ValueError) as exc:
            raise SingularCircuitError(
                "sparse LU failed — matrix is singular") from exc
        return FactorizedOperator(factors, "sparse", n, M.dtype)

    count("solver.factor_dense")
    M = A.toarray() if is_sparse_input else np.asarray(A)
    if not np.isfinite(M).all():
        raise SingularCircuitError("dense LU failed — matrix is singular")
    # LAPACK getrf directly (what scipy's lu_factor calls, without its
    # wrapper overhead); a zero pivot shows up on the diagonal below.
    getrf, = sla.get_lapack_funcs(("getrf",), (M,))
    lu, piv, _ = getrf(M)
    if (np.diag(lu) == 0).any() or not np.isfinite(lu).all():
        raise SingularCircuitError(
            "MNA matrix is singular — check for floating nodes or "
            "voltage-source loops")
    return FactorizedOperator((lu, piv), "dense", n, M.dtype)


def solve_stack(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A[m] x[m] = b[m]`` for every member of a dense stack.

    ``A`` is ``(M, n, n)``; ``b`` is ``(M, n)`` or one ``(n,)``
    right-hand side shared by every member.  Returns the ``(M, n)``
    solutions from a single ``np.linalg.solve`` call.  Every failure
    mode becomes :class:`~repro.analysis.mna.SingularCircuitError`:
    non-finite matrix entries (a zero-valued resistor stamps an infinite
    conductance, and LAPACK returns NaNs instead of raising), LAPACK's
    ``LinAlgError`` (an exactly singular pivot) and non-finite solutions.
    """
    A = np.asarray(A)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(
            f"solve_stack expects an (M, n, n) matrix stack, got shape "
            f"{A.shape}; pass one system as A[None]")
    b = np.asarray(b)
    if b.shape == A.shape[1:2]:
        b = np.broadcast_to(b, A.shape[:2])
    if b.shape != A.shape[:2]:
        raise ValueError(
            f"solve_stack: rhs shape {b.shape} does not match matrix "
            f"stack {A.shape} (expected {A.shape[:2]} or "
            f"({A.shape[1]},))")
    members = A.shape[0]
    count("solver.factorizations", members)
    count("solver.factor_dense", members)
    count("solver.solves", members)
    if not np.all(np.isfinite(A)):
        raise SingularCircuitError(
            "MNA matrix contains non-finite entries — check for "
            "zero-valued resistors or capacitors")
    try:
        # NumPy >= 2.0 reads a 2-D rhs as a stack of matrices; the
        # explicit column axis keeps it a stack of vectors.
        x = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularCircuitError(
            "MNA matrix is singular — check for floating nodes or "
            "voltage-source loops") from exc
    if not np.all(np.isfinite(x)):
        raise SingularCircuitError("MNA solution contains non-finite values")
    return x


class FactorizationCache:
    """Keyed LRU of :class:`FactorizedOperator` instances.

    The key must capture everything the matrix depends on — the AC layer
    keys per frequency on a per-system cache, the transient layer per
    (step size, integration scheme).  Hits and misses are tracked both
    locally (``hits`` / ``misses``, for direct assertions) and on the
    active tracer (``solver.cache_hits`` / ``solver.cache_misses``, for
    the engine report and run manifest).
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, FactorizedOperator] = \
            OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def get_or_factorize(self, key: Hashable,
                         build: Callable[[], Any],
                         prefer_sparse: bool | None = None
                         ) -> FactorizedOperator:
        """The cached operator for ``key``, factorizing ``build()`` on miss."""
        op = self._entries.get(key)
        if op is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            count("solver.cache_hits")
            return op
        self.misses += 1
        count("solver.cache_misses")
        op = factorize(build(), prefer_sparse=prefer_sparse)
        self._entries[key] = op
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return op

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "hit_rate": self.hit_rate}


__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "FactorizationCache",
    "FactorizedOperator",
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_SIZE_THRESHOLD",
    "factorize",
    "solve_stack",
]
