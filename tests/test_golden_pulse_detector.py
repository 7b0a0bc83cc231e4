"""Golden-file regression test for the Table 1 pulse-detector benchmark.

The pulse-detector synthesis (seed 1, fixed schedule) and the paper's
manual reference design are pinned to ``tests/golden/pulse_detector.json``.
Any drift in the analytic performance models, the spec-cost function, the
annealer's move/acceptance sequence, or the engine's determinism shows up
here as a concrete metric delta instead of a silent behaviour change.

Regeneration (after an *intentional* model change only)::

    PYTHONPATH=src REPRO_REGENERATE_GOLDEN=1 \
        python -m pytest -q tests/test_golden_pulse_detector.py

The manual design is a pure model evaluation and is compared tight
(rtol 1e-12); the synthesized point is the outcome of thousands of
floating-point annealing steps and gets rtol 1e-6 headroom for platform
libm differences.
"""

import json
import os
from pathlib import Path

import pytest

from repro.opt.anneal import AnnealSchedule
from repro.synthesis.pulse_detector import (
    MANUAL_DESIGN,
    pulse_detector_performance,
    synthesize_csa_batched,
    synthesize_pulse_detector,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "pulse_detector.json"
REGENERATE = bool(os.environ.get("REPRO_REGENERATE_GOLDEN"))

MANUAL_RTOL = 1e-12
SYNTH_RTOL = 1e-6


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _synthesize():
    golden = _load_golden()
    sched = golden["synthesized"]["schedule"]
    schedule = AnnealSchedule(
        moves_per_temperature=sched["moves_per_temperature"],
        cooling=sched["cooling"],
        max_evaluations=sched["max_evaluations"])
    return synthesize_pulse_detector(seed=golden["synthesized"]["seed"],
                                     schedule=schedule)


def _synthesize_batched():
    golden = _load_golden()["batched_sizing"]
    sched = golden["schedule"]
    schedule = AnnealSchedule(
        moves_per_temperature=sched["moves_per_temperature"],
        cooling=sched["cooling"],
        max_evaluations=sched["max_evaluations"],
        stop_after_stale=sched["stop_after_stale"])
    return synthesize_csa_batched(seed=golden["seed"], schedule=schedule,
                                  batch_size=golden["batch_size"])


def _assert_metrics(actual: dict, expected: dict, rtol: float,
                    context: str) -> None:
    assert set(actual) == set(expected), (
        f"{context}: metric set changed "
        f"(+{sorted(set(actual) - set(expected))} "
        f"-{sorted(set(expected) - set(actual))})")
    for name, want in expected.items():
        assert actual[name] == pytest.approx(want, rel=rtol, abs=1e-300), (
            f"{context}: {name} drifted from golden "
            f"{want!r} to {actual[name]!r}")


@pytest.mark.skipif(REGENERATE, reason="regenerating golden file")
class TestPulseDetectorGolden:
    def test_manual_design_performance(self):
        """The reference design's model evaluation is bit-stable."""
        golden = _load_golden()["manual_design"]
        assert MANUAL_DESIGN.sizes() == golden["sizes"]
        _assert_metrics(pulse_detector_performance(MANUAL_DESIGN.sizes()),
                        golden["performance"], MANUAL_RTOL, "manual design")

    def test_synthesized_design_matches_golden(self):
        """Seeded synthesis lands on the pinned sizing and performance."""
        golden = _load_golden()["synthesized"]
        result = _synthesize()
        assert result.feasible == golden["feasible"]
        assert result.cost == pytest.approx(golden["cost"], rel=SYNTH_RTOL)
        _assert_metrics(result.sizes, golden["sizes"], SYNTH_RTOL,
                        "synthesized sizes")
        _assert_metrics(result.performance, golden["performance"],
                        SYNTH_RTOL, "synthesized performance")

    def test_synthesis_is_run_to_run_deterministic(self):
        """Two fresh runs agree exactly — the golden can only break via a
        code change, never via run-to-run noise."""
        a, b = _synthesize(), _synthesize()
        assert a.sizes == b.sizes
        assert a.cost == b.cost
        assert a.performance == b.performance


@pytest.mark.skipif(REGENERATE, reason="regenerating golden file")
class TestBatchedSizingGolden:
    """The batched-annealing CSA sizing trajectory is pinned.

    Unlike the analytic synthesis above, this run goes through the full
    simulation stack — MNA stamping, the stacked AC solve, the engine's
    batched dispatch — so any numerical drift there surfaces here as a
    trajectory delta.
    """

    def test_batched_sizing_matches_golden(self):
        golden = _load_golden()["batched_sizing"]
        result = _synthesize_batched()
        assert result.feasible == golden["feasible"]
        assert result.evaluations == golden["evaluations"]
        assert result.cost == pytest.approx(golden["cost"], rel=SYNTH_RTOL)
        _assert_metrics(result.sizes, golden["sizes"], SYNTH_RTOL,
                        "batched sizes")
        _assert_metrics(result.performance, golden["performance"],
                        SYNTH_RTOL, "batched performance")
        assert len(result.history) == len(golden["history"])
        for step, (got, want) in enumerate(zip(result.history,
                                               golden["history"])):
            assert got == pytest.approx(want, rel=SYNTH_RTOL), (
                f"batched sizing history diverged at temperature {step}")


@pytest.mark.skipif(not REGENERATE, reason="set REPRO_REGENERATE_GOLDEN=1")
def test_regenerate_golden():
    golden = _load_golden()
    result = _synthesize()
    golden["manual_design"]["sizes"] = MANUAL_DESIGN.sizes()
    golden["manual_design"]["performance"] = \
        pulse_detector_performance(MANUAL_DESIGN.sizes())
    golden["synthesized"].update(
        feasible=result.feasible, cost=result.cost, sizes=result.sizes,
        performance=result.performance)
    batched = _synthesize_batched()
    golden["batched_sizing"].update(
        feasible=batched.feasible, cost=batched.cost, sizes=batched.sizes,
        performance=batched.performance, evaluations=batched.evaluations,
        history=list(batched.history))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
