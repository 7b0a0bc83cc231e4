"""Unit tests for the specification and cost-function system."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.specs import Spec, SpecKind, SpecSet


class TestSpec:
    def test_at_least_satisfied(self):
        s = Spec.at_least("gain_db", 70.0)
        assert s.satisfied(71.0)
        assert not s.satisfied(69.0)

    def test_at_most_satisfied(self):
        s = Spec.at_most("power", 1e-3)
        assert s.satisfied(0.5e-3)
        assert not s.satisfied(2e-3)

    def test_equal_with_tolerance(self):
        s = Spec.equal("gain", 20.0, tolerance=0.05)
        assert s.satisfied(20.9)
        assert not s.satisfied(22.0)

    def test_objective_always_satisfied(self):
        s = Spec.minimize("power")
        assert s.satisfied(1e9)

    def test_nan_constraint_fails(self):
        s = Spec.at_least("gain", 10.0)
        assert not s.satisfied(float("nan"))
        assert s.violation(float("nan")) > 1.0

    def test_violation_normalized(self):
        s = Spec.at_least("gain", 100.0)
        assert s.violation(90.0) == pytest.approx(0.1)
        assert s.violation(100.0) == 0.0
        assert s.violation(150.0) == 0.0

    def test_max_violation_normalized(self):
        s = Spec.at_most("power", 10.0)
        assert s.violation(11.0) == pytest.approx(0.1)

    def test_maximize_objective_decreases_with_perf(self):
        s = Spec.maximize("gain", good=100.0)
        assert s.objective_value(200.0) < s.objective_value(100.0)

    def test_minimize_objective_increases_with_perf(self):
        s = Spec.minimize("power", good=1e-3)
        assert s.objective_value(2e-3) > s.objective_value(1e-3)

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.floats(min_value=1.0, max_value=1e6))
    def test_violation_nonnegative(self, bound, measured):
        for kind in (SpecKind.MIN, SpecKind.MAX, SpecKind.EQUAL):
            s = Spec("x", kind, bound)
            assert s.violation(measured) >= 0.0

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.floats(min_value=1.0, max_value=1e6))
    def test_satisfied_iff_zero_violation(self, bound, measured):
        s = Spec.at_least("x", bound)
        assert s.satisfied(measured) == (s.violation(measured) == 0.0)


class TestSpecSet:
    def _specs(self) -> SpecSet:
        return SpecSet([
            Spec.at_least("gain_db", 60.0),
            Spec.at_most("power", 1e-3),
            Spec.minimize("area", good=1e-8),
        ])

    def test_all_satisfied(self):
        ss = self._specs()
        assert ss.all_satisfied({"gain_db": 70, "power": 0.5e-3, "area": 2e-8})
        assert not ss.all_satisfied({"gain_db": 50, "power": 0.5e-3, "area": 2e-8})

    def test_missing_metric_is_violation(self):
        ss = self._specs()
        assert not ss.all_satisfied({"gain_db": 70})

    def test_cost_prefers_feasible(self):
        ss = self._specs()
        feasible = ss.cost({"gain_db": 70, "power": 0.5e-3, "area": 2e-8})
        infeasible = ss.cost({"gain_db": 30, "power": 0.5e-3, "area": 2e-8})
        assert feasible < infeasible

    def test_cost_prefers_smaller_objective(self):
        ss = self._specs()
        small = ss.cost({"gain_db": 70, "power": 0.5e-3, "area": 1e-8})
        big = ss.cost({"gain_db": 70, "power": 0.5e-3, "area": 5e-8})
        assert small < big

    def test_duplicate_specs_rejected(self):
        with pytest.raises(ValueError):
            SpecSet([Spec.at_least("g", 1.0), Spec.at_least("g", 2.0)])

    def test_add_rejects_duplicate_like_construction(self):
        ss = SpecSet([Spec.at_least("g", 1.0)])
        with pytest.raises(ValueError, match="duplicate spec entries"):
            ss.add(Spec.at_least("g", 2.0))
        assert len(ss) == 1
        ss.add(Spec.at_most("g", 5.0))  # same metric, other kind: allowed
        assert [s.kind for s in ss] == [SpecKind.MIN, SpecKind.MAX]

    def test_same_metric_min_and_max_allowed(self):
        ss = SpecSet([Spec.at_least("v", 1.0), Spec.at_most("v", 2.0)])
        assert ss.all_satisfied({"v": 1.5})
        assert not ss.all_satisfied({"v": 2.5})

    def test_constraints_and_objectives_split(self):
        ss = self._specs()
        assert len(ss.constraints) == 2
        assert len(ss.objectives) == 1

    def test_report_text(self):
        ss = self._specs()
        report = ss.report({"gain_db": 70, "power": 2e-3, "area": 2e-8})
        text = report.to_text()
        assert "gain_db" in text
        assert "NO" in text  # power violated
        assert not report.all_satisfied

    def test_metric_names_unique(self):
        ss = SpecSet([Spec.at_least("v", 1.0), Spec.at_most("v", 2.0),
                      Spec.minimize("p")])
        assert ss.metric_names() == ["v", "p"]
