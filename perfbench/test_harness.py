"""Tests of the benchmark harness's own statistics.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import os

import pytest

import run
import spans
from harness import (
    Checks,
    Ledger,
    Metric,
    RunResult,
    fastest_round,
    latencies_from_due,
    percentile,
    self_times,
)


class TestNearestRankPercentile:
    def test_textbook_example(self):
        values = [15, 20, 35, 40, 50]
        assert percentile(values, 5) == 15
        assert percentile(values, 30) == 20
        assert percentile(values, 40) == 20
        assert percentile(values, 50) == 35
        assert percentile(values, 100) == 50

    def test_returns_a_sample_never_an_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 75) == 3.0

    def test_p99_of_a_thousand_leaves_ten_above(self):
        values = list(range(1, 1001))
        p99 = percentile(values, 99)
        assert p99 == 990
        assert sum(1 for v in values if v > p99) == 10

    def test_order_of_input_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 0)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestFailedShare:
    def test_every_failure_kind_counts_against_attempts(self):
        ledger = Ledger()
        for _ in range(6):
            ledger.record(True)
        for reason in ("rejected", "expired", "errored", "evaluation failed"):
            ledger.record(False, reason)
        assert ledger.attempted == 10
        assert ledger.failed == 4
        assert ledger.failed_share == pytest.approx(0.4)
        assert ledger.reasons == {"rejected": 1, "expired": 1, "errored": 1,
                                  "evaluation failed": 1}

    def test_nothing_attempted_is_no_failure(self):
        assert Ledger().failed_share == 0.0


class TestLatencyFromDueTime:
    def test_latency_counts_from_due_not_from_send(self):
        # Request 1 was due at t=1 but a stalled generator sent it at
        # t=2.5; it completed at t=3.  Its latency is 2 s, not 0.5 s.
        due = [0.0, 1.0]
        done = [0.2, 3.0]
        assert latencies_from_due(due, done) == pytest.approx([0.2, 2.0])

    def test_unfinished_requests_are_skipped(self):
        assert latencies_from_due([0.0, 1.0, 2.0], [0.5, None, 2.25]) == \
            pytest.approx([0.5, 0.25])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            latencies_from_due([0.0], [])


class TestFastestRound:
    def test_each_job_counts_at_its_fastest_repeat(self):
        times = [[1.0, 3.0, 1.2], [2.0, 2.5], [0.5, 9.0]]
        per_s, job_s = fastest_round(times)
        assert per_s == pytest.approx(3 / 3.5)
        assert job_s == pytest.approx(1.0)   # geometric mean of 1, 2, 0.5

    def test_jobs_without_timings_are_left_out(self):
        assert fastest_round([[2.0], []]) == pytest.approx((0.5, 2.0))
        assert fastest_round([[], []]) == (0.0, 0.0)


class FakeWorkload:
    """Two job kinds costing nothing; ``drift`` makes one of them give a
    different output on every repeat."""

    kinds = ("a", "b")
    round_s = 1.0

    def __init__(self, drift=False):
        self.drift = drift
        self.calls = []

    def warm_job(self, kind):
        return 0

    def round_jobs(self):
        return [("a", 1), ("b", 2)]

    def run_job(self, kind, spec):
        self.calls.append((kind, spec))
        return len(self.calls) if self.drift and kind == "b" else spec

    def record(self, kind, spec, out, seconds):
        pass

    def summary(self, kind, out):
        return out

    def metrics(self, latencies, phase_s):
        return {"job_p50_ms": Metric(1.0, "ms", len(latencies))}

    def check(self, checks):
        pass

    def work(self):
        return {}

    def layer_extras(self):
        return {}


def _closed_loop(workload, seconds=0.0, rec=None):
    result = RunResult(workload="fake", seed=1, traced=rec is not None,
                       ledger=Ledger(), checks=Checks())
    run.closed_loop(workload, seconds, rec, result)
    return result


class TestClosedLoop:
    def test_untraced_run_finishes_whole_rounds_of_the_same_jobs(self):
        wl = FakeWorkload()
        result = _closed_loop(wl, seconds=0.0)
        # Two warm-ups, then one whole round even with no time left.
        assert wl.calls == [("a", 0), ("b", 0), ("a", 1), ("b", 2)]
        assert result.ledger.attempted == 2
        assert result.checks.ok
        assert result.metrics["jobs_per_s_fastest"].value > 0

    def test_traced_run_does_a_fixed_number_of_rounds(self):
        wl = FakeWorkload()
        _closed_loop(wl, seconds=3.0, rec=spans.SpanRecorder())
        assert wl.calls[2:] == [("a", 1), ("b", 2)] * 3

    def test_a_repeat_with_another_output_fails_a_check(self):
        result = _closed_loop(FakeWorkload(drift=True), seconds=2.0,
                              rec=spans.SpanRecorder())
        assert [name for name, _ in result.checks.failed] == \
            ["repeats_give_same_output"]


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent_only(self):
        # 0: [0, 10] root; 1: [1, 3] and 2: [4, 8] its children;
        # 3: [5, 6] a child of 2 (a grandchild of 0).
        starts = [0.0, 1.0, 4.0, 5.0]
        ends = [10.0, 3.0, 8.0, 6.0]
        parents = [-1, 0, 0, 2]
        assert self_times(starts, ends, parents) == \
            pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_are_not_subtracted_twice(self):
        starts = [0.0, 1.0, 3.0]
        ends = [10.0, 5.0, 7.0]
        assert self_times(starts, ends, [-1, 0, 0]) == \
            pytest.approx([4.0, 4.0, 4.0])

    def test_children_are_clipped_to_the_parent(self):
        starts = [0.0, 8.0]
        ends = [10.0, 12.0]
        assert self_times(starts, ends, [-1, 0])[0] == pytest.approx(8.0)


class TestSpanRecorder:
    def test_nesting_and_reentry(self):
        rec = spans.SpanRecorder()

        def inner(n):
            return inner_traced(n - 1) if n else 0

        inner_traced = rec.span("inner", inner)
        outer = rec.span("outer", lambda: inner_traced(3))
        rec.job_id = 7
        outer()
        names = [rec.names[i] for i in rec.name_id]
        # The recursive calls run inside the first "inner" span and are
        # not recorded again.
        assert names == ["outer", "inner"]
        assert list(rec.parent) == [-1, 0]
        assert list(rec.job) == [7, 7]
        assert all(e >= s for s, e in zip(rec.start, rec.end))

    def test_on_result_renames_and_counts(self):
        rec = spans.SpanRecorder()

        def classify(out):
            rec.counts["seen"] += out
            return "renamed"

        rec.span("original", lambda: 3, classify)()
        assert [rec.names[i] for i in rec.name_id] == ["renamed"]
        assert rec.counts["seen"] == 3

    def test_layer_metrics_skip_setup_spans(self):
        rec = spans.SpanRecorder()
        place = rec.span("layout.place", lambda: None)
        route = rec.span("layout.route", lambda: None)
        place()                 # set-up (job -1): excluded
        rec.job_id = 0
        place()
        route()
        metrics = spans.layer_metrics(rec)
        assert metrics["layout.place.calls"].value == 1
        assert metrics["layout.route.congested_share"].samples == 1


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.COMMON_METRICS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(spans.SPAN_METRICS) <= per_layer
