"""Performance specifications and scalarizing cost functions.

Every frontend tool in the DAC'96 tutorial — design plans, OPTIMAN-style
equation optimizers, FRIDGE-style simulation optimizers and ASTRX/OBLX —
consumes the same thing: a set of *specifications* (hard inequality
constraints such as ``gain >= 70 dB``) plus *objectives* (quantities to
minimize, such as power).  This module defines that vocabulary once.

The scalarization follows the ASTRX/OBLX good-value/bad-value recipe
[Ochotta et al.]: each constraint contributes a normalized hinge penalty,
each objective a normalized value, and the weighted sum is the cost the
numerical search minimizes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class SpecKind(enum.Enum):
    """How a specification constrains or scores a performance number."""

    MIN = "min"            # performance must be >= value
    MAX = "max"            # performance must be <= value
    EQUAL = "equal"        # performance must equal value (within tolerance)
    MINIMIZE = "minimize"  # objective: smaller is better
    MAXIMIZE = "maximize"  # objective: larger is better


#: The kinds that constrain a performance; the other kinds are objectives.
#: A tuple, not a frozenset: membership tests identity first, while set
#: lookup would call the Python-level ``Enum.__hash__``.
_CONSTRAINT_KINDS = (SpecKind.MIN, SpecKind.MAX, SpecKind.EQUAL)


@dataclass(frozen=True)
class Spec:
    """One performance specification.

    Parameters
    ----------
    name:
        Performance-metric name (``"gain_db"``, ``"power"``, ...).
    kind:
        Constraint sense or objective direction.
    value:
        Bound for constraints; normalizing "good value" for objectives
        (may be ``None`` for objectives, in which case 1.0 is used).
    weight:
        Relative importance in the scalarized cost.
    tolerance:
        Relative tolerance used by :attr:`SpecKind.EQUAL`.
    unit:
        Display unit, for reports only.
    """

    name: str
    kind: SpecKind
    value: float | None = None
    weight: float = 1.0
    tolerance: float = 0.01
    unit: str = ""

    # -- convenience constructors ------------------------------------
    @staticmethod
    def at_least(name: str, value: float, weight: float = 1.0, unit: str = "") -> "Spec":
        return Spec(name, SpecKind.MIN, value, weight, unit=unit)

    @staticmethod
    def at_most(name: str, value: float, weight: float = 1.0, unit: str = "") -> "Spec":
        return Spec(name, SpecKind.MAX, value, weight, unit=unit)

    @staticmethod
    def equal(name: str, value: float, tolerance: float = 0.01,
              weight: float = 1.0, unit: str = "") -> "Spec":
        return Spec(name, SpecKind.EQUAL, value, weight, tolerance, unit)

    @staticmethod
    def minimize(name: str, good: float | None = None,
                 weight: float = 1.0, unit: str = "") -> "Spec":
        return Spec(name, SpecKind.MINIMIZE, good, weight, unit=unit)

    @staticmethod
    def maximize(name: str, good: float | None = None,
                 weight: float = 1.0, unit: str = "") -> "Spec":
        return Spec(name, SpecKind.MAXIMIZE, good, weight, unit=unit)

    # -- evaluation ----------------------------------------------------
    def is_constraint(self) -> bool:
        return self.kind in _CONSTRAINT_KINDS

    def is_objective(self) -> bool:
        return self.kind not in _CONSTRAINT_KINDS

    def satisfied(self, measured: float) -> bool:
        """True when a constraint is met (objectives are always 'met')."""
        if self.kind not in _CONSTRAINT_KINDS:
            return True
        if measured is None or math.isnan(measured):
            return False
        assert self.value is not None
        if self.kind is SpecKind.MIN:
            return measured >= self.value
        if self.kind is SpecKind.MAX:
            return measured <= self.value
        ref = abs(self.value) if self.value != 0 else 1.0
        return abs(measured - self.value) <= self.tolerance * ref

    def violation(self, measured: float) -> float:
        """Normalized constraint violation (0 when satisfied).

        The normalization divides by ``|value|`` so that a spec violated by
        10% contributes 0.1 regardless of its physical magnitude.
        """
        if self.kind not in _CONSTRAINT_KINDS:
            return 0.0
        if measured is None or math.isnan(measured):
            return 10.0  # failed evaluation: large fixed penalty
        assert self.value is not None
        ref = abs(self.value) if self.value != 0 else 1.0
        if self.kind is SpecKind.MIN:
            return max(0.0, (self.value - measured) / ref)
        if self.kind is SpecKind.MAX:
            return max(0.0, (measured - self.value) / ref)
        return max(0.0, abs(measured - self.value) / ref - self.tolerance)

    def objective_value(self, measured: float) -> float:
        """Normalized objective contribution (smaller is better)."""
        if self.kind in _CONSTRAINT_KINDS:
            return 0.0
        if measured is None or math.isnan(measured):
            return 10.0
        good = self.value if self.value not in (None, 0) else 1.0
        scaled = measured / good
        if self.kind is SpecKind.MAXIMIZE:
            # Guard against division blow-up near zero.
            return 1.0 / max(scaled, 1e-12)
        return scaled


@dataclass
class SpecSet:
    """A collection of specifications evaluated against performance dicts."""

    specs: list[Spec] = field(default_factory=list)
    constraint_weight: float = 10.0

    def __post_init__(self) -> None:
        names = [s.name + ":" + s.kind.value for s in self.specs]
        if len(names) != len(set(names)):
            raise ValueError("duplicate spec entries in SpecSet")

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def add(self, spec: Spec) -> "SpecSet":
        """Append ``spec``; a second spec of the same name and kind is a
        ``ValueError``, as at construction."""
        if any(s.name == spec.name and s.kind is spec.kind
               for s in self.specs):
            raise ValueError("duplicate spec entries in SpecSet")
        self.specs.append(spec)
        return self

    @property
    def constraints(self) -> list[Spec]:
        return [s for s in self.specs if s.is_constraint()]

    @property
    def objectives(self) -> list[Spec]:
        return [s for s in self.specs if s.is_objective()]

    def metric_names(self) -> list[str]:
        seen: list[str] = []
        for s in self.specs:
            if s.name not in seen:
                seen.append(s.name)
        return seen

    def all_satisfied(self, performance: dict[str, float]) -> bool:
        return all(
            s.satisfied(performance.get(s.name, float("nan")))
            for s in self.constraints
        )

    def total_violation(self, performance: dict[str, float]) -> float:
        return sum(
            s.weight * s.violation(performance.get(s.name, float("nan")))
            for s in self.constraints
        )

    def cost(self, performance: dict[str, float]) -> float:
        """ASTRX-style scalarized cost: objectives + weighted hinge penalties.

        One pass over ``specs``; each sum adds its terms in spec order,
        as :attr:`objectives` and :meth:`total_violation` list them.  A
        missing metric reads as NaN.
        """
        nan = float("nan")
        objective_terms = []
        penalty_terms = []
        for s in self.specs:
            measured = performance.get(s.name, nan)
            if s.kind in _CONSTRAINT_KINDS:
                penalty_terms.append(s.weight * s.violation(measured))
            else:
                objective_terms.append(
                    s.weight * s.objective_value(measured))
        return (sum(objective_terms)
                + self.constraint_weight * sum(penalty_terms))

    def report(self, performance: dict[str, float]) -> "SpecReport":
        rows = []
        for s in self.specs:
            measured = performance.get(s.name, float("nan"))
            rows.append(SpecRow(
                spec=s,
                measured=measured,
                satisfied=s.satisfied(measured),
                violation=s.violation(measured),
            ))
        return SpecReport(rows=rows, cost=self.cost(performance))


@dataclass(frozen=True)
class SpecRow:
    spec: Spec
    measured: float
    satisfied: bool
    violation: float


@dataclass
class SpecReport:
    """Tabular spec-vs-measured summary, printable for EXPERIMENTS.md."""

    rows: list[SpecRow]
    cost: float

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.rows if r.spec.is_constraint())

    def to_text(self) -> str:
        lines = [f"{'metric':<18}{'kind':<10}{'target':>12}{'measured':>14}  ok"]
        for r in self.rows:
            target = "-" if r.spec.value is None else f"{r.spec.value:.4g}"
            ok = "yes" if r.satisfied else ("-" if r.spec.is_objective() else "NO")
            lines.append(
                f"{r.spec.name:<18}{r.spec.kind.value:<10}"
                f"{target:>12}{r.measured:>14.4g}  {ok}"
            )
        lines.append(f"cost = {self.cost:.6g}")
        return "\n".join(lines)
