"""Generic simulated annealing used across the toolkit.

One engine serves OPTIMAN-style circuit sizing, the OBLX numerical search,
the KOAN device placer, the WRIGHT floorplanner and the RAIL grid sizer —
the tutorial's observation that a decade of analog CAD was "cast mostly in
the form of numerical and combinatorial optimization tasks" made concrete.

The schedule is the standard geometric one with acceptance-ratio-derived
initial temperature and per-temperature move batches; everything is
deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

import numpy as np

from repro.engine.faults import is_failure
from repro.engine.trace import current_tracer

State = TypeVar("State")


@dataclass
class AnnealSchedule:
    """Cooling schedule parameters."""

    initial_acceptance: float = 0.8   # target fraction of uphill accepts
    cooling: float = 0.9              # geometric temperature factor
    moves_per_temperature: int = 100
    min_temperature_ratio: float = 1e-5
    stop_after_stale: int = 6         # temperatures without improvement
    max_evaluations: int = 200_000


@dataclass
class AnnealResult(Generic[State]):
    best_state: State
    best_cost: float
    evaluations: int
    temperatures: int
    history: list[float] = field(default_factory=list)  # best cost per temp
    failures: int = 0  # evaluations that came back as EvalFailure


class Annealer(Generic[State]):
    """Simulated annealing over an arbitrary state space.

    Parameters
    ----------
    cost:
        State → scalar cost (lower is better).
    propose:
        ``(state, rng, temperature_fraction) → new state``.  The move
        generator may use the temperature fraction (1 → hot, 0 → cold) to
        shrink move ranges as the anneal cools, as KOAN does.
    copy_state:
        Deep-copy hook; defaults to identity for immutable states.
    seed / rng:
        Either a seed (a fresh ``numpy.random.Generator`` is created) or an
        explicit generator threaded in by the caller; all stochastic
        decisions draw from it, so runs are reproducible either way.
    executor:
        Optional batch-evaluation hook — anything with
        ``map_evaluate(fn, states) -> list[float]``, e.g. a
        :class:`repro.engine.SerialExecutor`/``ParallelExecutor`` or a
        cache-aware :class:`repro.engine.KeyedEngine`.  All cost
        evaluations route through it.
    batch_size:
        Moves proposed (and evaluated as one batch) per acceptance round.
        1 reproduces the classic serial anneal exactly; larger values
        trade some search fidelity for executor throughput: the whole
        batch is proposed from the same state, then accepted sequentially.
        Results are identical for any executor at fixed (seed, batch_size)
        because proposals and acceptance draws stay in the caller.
    failure_cost:
        Cost assigned to an evaluation that comes back as an
        :class:`repro.engine.EvalFailure` (a resilient executor's
        out-of-retries result).  The default ``inf`` means a failed
        candidate is never accepted but the anneal keeps running — one
        bad point no longer kills the whole synthesis run.  The penalty
        is deterministic, so seeded serial and parallel runs under the
        same fault schedule stay bit-identical.
    surrogate:
        Optional :class:`repro.surrogate.SurrogateScreen`.  Every cost
        batch routes through ``surrogate.screen(raw_map, states)``
        instead of the raw executor path: only the candidates the
        trust-region policy selects are actually evaluated, the rest
        receive predicted costs.  The screen's winner-verification rule
        guarantees the returned ``best_cost`` always comes from a real
        evaluation, and its decisions are deterministic per (seed,
        config), so the batching/executor determinism contract is
        preserved.
    """

    def __init__(self, cost: Callable[[State], float],
                 propose: Callable[[State, np.random.Generator, float], State],
                 schedule: AnnealSchedule | None = None,
                 copy_state: Callable[[State], State] = lambda s: s,
                 seed: int = 1,
                 rng: np.random.Generator | None = None,
                 executor=None,
                 batch_size: int = 1,
                 failure_cost: float = float("inf"),
                 surrogate=None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cost = cost
        self.propose = propose
        self.schedule = schedule or AnnealSchedule()
        self.copy_state = copy_state
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.executor = executor
        self.batch_size = batch_size
        self.failure_cost = failure_cost
        self.surrogate = surrogate
        self.failures = 0

    def _raw_map(self, states: list[State]) -> list:
        """The unscreened evaluation path (executor or direct)."""
        if self.executor is None:
            return [self.cost(s) for s in states]
        return list(self.executor.map_evaluate(self.cost, states))

    def _map(self, states: list[State]) -> list[float]:
        if self.surrogate is not None:
            raw = self.surrogate.screen(self._raw_map, states)
        else:
            raw = self._raw_map(states)
        costs: list[float] = []
        for c in raw:
            if is_failure(c):
                self.failures += 1
                costs.append(self.failure_cost)
            else:
                costs.append(c)
        return costs

    # ------------------------------------------------------------------
    def initial_temperature(self, state: State, samples: int = 40) -> float:
        """Temperature at which ``initial_acceptance`` of uphill moves pass."""
        # The probe chain's proposals never look at costs, so the whole
        # chain can be proposed first and evaluated as one batch.
        chain: list[State] = []
        current = state
        for _ in range(samples):
            current = self.propose(self.copy_state(current), self.rng, 1.0)
            chain.append(current)
        costs = self._map([state] + chain)
        base = costs[0]
        # Failed (infinite-cost) probes carry no temperature information;
        # only finite uphill deltas enter the mean.
        uphill = [b - a for a, b in zip(costs, costs[1:])
                  if b > a and math.isfinite(b - a)]
        if not uphill:
            base_scale = abs(base) if math.isfinite(base) else 1.0
            return max(base_scale, 1.0) * 0.1
        mean_uphill = float(np.mean(uphill))
        p = min(max(self.schedule.initial_acceptance, 1e-3), 0.999)
        return mean_uphill / (-math.log(p))

    # ------------------------------------------------------------------
    def run(self, initial: State,
            temperature: float | None = None) -> AnnealResult[State]:
        tracer = current_tracer()
        sched = self.schedule
        self.failures = 0
        current = self.copy_state(initial)
        current_cost = self._map([current])[0]
        best = self.copy_state(current)
        best_cost = current_cost
        evaluations = 1
        t0 = temperature if temperature is not None else \
            self.initial_temperature(current)
        evaluations += 40 if temperature is None else 0
        t = max(t0, 1e-300)
        t_floor = t * sched.min_temperature_ratio
        stale = 0
        temps = 0
        history: list[float] = []
        while (t > t_floor and stale < sched.stop_after_stale
               and evaluations < sched.max_evaluations):
            improved = False
            frac = (math.log(max(t, t_floor)) - math.log(t_floor)) / (
                math.log(t0) - math.log(t_floor) + 1e-12)
            moves = 0
            while (moves < sched.moves_per_temperature
                   and evaluations < sched.max_evaluations):
                k = min(self.batch_size,
                        sched.moves_per_temperature - moves,
                        sched.max_evaluations - evaluations)
                trials = [self.propose(self.copy_state(current),
                                       self.rng, frac)
                          for _ in range(k)]
                for trial, trial_cost in zip(trials, self._map(trials)):
                    evaluations += 1
                    moves += 1
                    # inf - inf is nan; treat a failed trial against a
                    # failed current state as a plain uphill rejection so
                    # the acceptance draw is still consumed (determinism).
                    delta = trial_cost - current_cost
                    if math.isnan(delta):
                        delta = float("inf")
                    if delta <= 0 or self.rng.random() < math.exp(
                            -delta / max(t, 1e-300)):
                        current, current_cost = trial, trial_cost
                        if current_cost < best_cost:
                            best = self.copy_state(current)
                            best_cost = current_cost
                            improved = True
            history.append(best_cost)
            stale = 0 if improved else stale + 1
            t *= sched.cooling
            temps += 1
            if tracer is not None:
                tracer.event("anneal_temperature", index=temps - 1,
                             evaluations=evaluations, best_cost=best_cost,
                             improved=improved, failures=self.failures)
        if tracer is not None:
            tracer.event("anneal_done", temperatures=temps,
                         evaluations=evaluations, best_cost=best_cost,
                         failures=self.failures)
        return AnnealResult(best, best_cost, evaluations, temps, history,
                            failures=self.failures)


# ----------------------------------------------------------------------
# Convenience wrapper for continuous parameter vectors (OPTIMAN/OBLX use)
# ----------------------------------------------------------------------

@dataclass
class ContinuousSpace:
    """Box-bounded continuous search space with log-scale option.

    Log scaling matters for device sizes and currents, which span decades;
    it is what all the sizing tools effectively search in.  The bounds
    are fixed at construction, which computes the move generator's
    constants once.
    """

    names: list[str]
    lower: np.ndarray
    upper: np.ndarray
    log_scale: bool = True

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be below upper bounds")
        if self.log_scale and np.any(self.lower <= 0):
            raise ValueError("log-scale space requires positive bounds")
        # Coordinates moved per step, and the search box (in log space
        # when log-scaled) with its span.
        self._n_move = max(1, int(round(self.dim * 0.3)))
        if self.log_scale:
            self._lo, self._hi = np.log(self.lower), np.log(self.upper)
        else:
            self._lo, self._hi = self.lower, self.upper
        self._span = self._hi - self._lo

    @property
    def dim(self) -> int:
        return len(self.names)

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(self.dim)
        point = self._lo + u * self._span
        return np.exp(point) if self.log_scale else point

    def perturb(self, x: np.ndarray, rng: np.random.Generator,
                fraction: float) -> np.ndarray:
        """Move a random subset of coordinates, range scaled by fraction."""
        n_move = self._n_move
        idx = rng.choice(self.dim, size=n_move, replace=False)
        scale = 0.02 + 0.5 * max(fraction, 0.0)
        step = rng.normal(0.0, 1.0, size=n_move) * scale * self._span[idx]
        if self.log_scale:
            xl = np.log(x)
            xl[idx] += step
            return np.exp(np.clip(xl, self._lo, self._hi))
        x = x.copy()
        x[idx] += step
        return self.clip(x)

    def to_dict(self, x: np.ndarray) -> dict[str, float]:
        return dict(zip(self.names, x))


class _DictCost:
    """Vector-state adapter for a dict-based cost.

    A class (not a closure) so the annealer's cost function stays
    picklable whenever the user's cost is — which is what lets a
    ``ParallelExecutor`` ship it to worker processes.
    """

    def __init__(self, cost: Callable[[dict[str, float]], float],
                 space: ContinuousSpace):
        self.cost = cost
        self.space = space

    def __call__(self, x: np.ndarray) -> float:
        return self.cost(self.space.to_dict(x))


def anneal_continuous(cost: Callable[[dict[str, float]], float],
                      space: ContinuousSpace,
                      schedule: AnnealSchedule | None = None,
                      seed: int = 1,
                      x0: np.ndarray | None = None,
                      rng: np.random.Generator | None = None,
                      executor=None,
                      batch_size: int = 1,
                      failure_cost: float = float("inf"),
                      surrogate=None) -> AnnealResult[np.ndarray]:
    """Anneal a scalar cost over a named continuous box.

    Pass ``rng`` to thread one explicit generator through both the start
    point and the anneal itself; otherwise two generators are derived from
    ``seed`` (the historical behaviour).  ``executor``/``batch_size``/
    ``failure_cost``/``surrogate`` are forwarded to :class:`Annealer` for
    batched, failure-tolerant (optionally surrogate-screened) cost
    evaluation.
    """
    start_rng = rng if rng is not None else np.random.default_rng(seed)
    start = space.clip(x0) if x0 is not None else space.random_point(start_rng)

    annealer = Annealer(
        cost=_DictCost(cost, space),
        propose=lambda x, r, f: space.perturb(x, r, f),
        schedule=schedule,
        copy_state=lambda x: x.copy(),
        seed=seed,
        rng=rng,
        executor=executor,
        batch_size=batch_size,
        failure_cost=failure_cost,
        surrogate=surrogate,
    )
    return annealer.run(start)
