"""Unit tests for the benchmark's own arithmetic and checks.

Run with:  python3 -m pytest bench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ percentiles


def test_tail_percentile_needs_ten_beyond():
    assert harness.tail_percentile([1.0] * 10) is None
    # 20 samples: the median (k = 10) has exactly 10 beyond it; p75 has 5
    assert harness.tail_percentile([float(i) for i in range(1, 21)]) == (50.0, 10.0)


@pytest.mark.parametrize(
    "n, p",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, p):
    xs = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    got = harness.tail_percentile(xs)
    if p is None:
        assert got is None
        return
    k = math.ceil(p * n / 100)
    assert got == (p, float(k))
    assert n - k >= harness.MIN_BEYOND
    higher = [q for q in harness.PERCENTILES if q > p]
    assert all(n - math.ceil(q * n / 100) < harness.MIN_BEYOND for q in higher)


# ------------------------------------------------------------- fail rate


def test_tally_counts_failures_and_wrong_answers():
    t = harness.Tally()
    for _ in range(7):
        t.add("ok")
    t.add("failed", "traceback: RecursionError", "chain-2000 nbound")
    t.add("failed", "traceback: RecursionError", "chain-2000 nbound")
    t.add("wrong", "N=3, reference 4", "triangular nbound")
    assert (t.attempted, t.failed, t.wrong) == (10, 3, 1)
    assert t.fail_rate == pytest.approx(0.3)
    assert t.reasons == {
        "chain-2000 nbound: traceback: RecursionError": 2,
        "triangular nbound: N=3, reference 4": 1,
    }


def test_empty_tally_has_zero_fail_rate():
    assert harness.Tally().fail_rate == 0.0


# ------------------------------------------------------------- self time


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("classify.classify", 1.0, 9.0, 0),
        span("hall.max_surplus", 2.0, 5.0, 1),
        span("hall.max_matching", 3.0, 4.5, 2),
        span("hall.max_surplus", 6.0, 8.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 1.5, 2.0])
    # self times of a tree add up to the root's duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 4.0, 0), span("c", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_union_length_and_unattributed_share():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == pytest.approx(4.0)
    assert tracing.unattributed([(1.0, 3.0), (2.0, 4.0)], 0.0, 5.0) == pytest.approx(0.4)
    # spans sticking out of the op interval are clipped to it
    assert tracing.unattributed([(-1.0, 6.0)], 0.0, 5.0) == pytest.approx(0.0)


def test_tracer_nests_spans_and_counts(monkeypatch):
    tracer = tracing.Tracer()
    monkeypatch.setitem(tracing.COUNTERS, "t.inner", (lambda args, r: {"items": r, "depth_max": r}, True))
    inner = tracer.wrap("t.inner", lambda x: x)
    outer = tracer.wrap("t.outer", lambda: inner(3) + inner(5))
    tracer.op = 4
    assert outer() == 8
    names = [s[0] for s in tracer.spans]
    assert names == ["t.outer", "t.inner", tracing.COUNTER_SPAN, "t.inner", tracing.COUNTER_SPAN]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0, 0]
    assert {s[4] for s in tracer.spans} == {4}
    assert tracer.counters["t.inner"] == {"items": 8, "depth_max": 5}


# --------------------------------------------------------------- checks


def test_reference_surplus_matches_block_closed_form():
    tri = workloads.TRIANGULAR
    for m in range(1, 12):
        assert checks.surplus_sup(tri, m) == m * (m - 1) // 2
    # the closed form agrees with matching the explicit window
    for t in range(0, 8):
        sets = [checks.family_set(tri, j) for j in range(1, t + 1)]
        assert checks.window_surplus(tri, t, 4) == checks.max_surplus(sets, 4)
    assert checks.surplus_sup({"prefix": [], "tail": {"kind": "constant", "set": [1]}}, 1) is None


def _nbound_op(m):
    return workloads.Op(workloads.SMALL, "triangular",
                        ("nbound", "--family", workloads.FAMILY, "--m", str(m)), workloads.TRIANGULAR)


def test_judge_accepts_valid_and_rejects_wrong_answers():
    op = _nbound_op(4)
    good = {"m": 4, "N": 7, "attained_surplus": 6, "window": 3, "witness_F": [1, 2, 3]}
    assert checks.judge(op, 0, json.dumps(good), "") == (checks.OK, "")
    # another valid witness passes too: position 4 adds 4 - 4 = 0
    other = dict(good, witness_F=[1, 2, 3, 4], window=4)
    assert checks.judge(op, 0, json.dumps(other), "")[0] == checks.OK
    bad = dict(good, N=8)
    assert checks.judge(op, 0, json.dumps(bad), "")[0] == checks.WRONG


def test_judge_flags_tracebacks_exit_codes_and_refusals():
    op = _nbound_op(1)
    crash = "Traceback (most recent call last):\n  ...\nRecursionError: too deep\n"
    assert checks.judge(op, 1, "", crash) == (checks.FAILED, "traceback: RecursionError: too deep")
    assert checks.judge(op, 2, "", "error: bad\n")[0] == checks.FAILED
    refusal = workloads.Op(workloads.EDGE, "malformed", ("classify",), {"prefix": [[1, 1]]}, expect_exit=2)
    assert checks.judge(refusal, 2, "", "error: duplicate ground identifiers\n")[0] == checks.OK
    assert checks.judge(refusal, 2, "", "error: one\nerror: two\n")[0] == checks.FAILED
    assert checks.judge(refusal, 1, "", "error: x\n")[0] == checks.FAILED


def test_assignment_membership():
    # source set {1} relabels to {1}; alpha_1 adds marker nu(1, base 2) and k pool atoms
    src = frozenset({1})
    assert checks._member(["nu", 1, ["base", 1]], [1], src, 0)
    assert checks._member(["nu", 1, ["base", 2]], [1], src, 0)
    assert not checks._member(["nu", 0, ["base", 2]], [0], src, 0)
    assert checks._member(["batom", -1, 1], [-1], src, 1)
    assert not checks._member(["batom", -1, 2], [-1], src, 1)
    assert checks._member(["nu", -1, ["nu", 1, ["base", 1]]], [-1, 1], src, 0)
    assert not checks._member(["nu", 1, ["nu", -1, ["base", 1]]], [-1, 1], src, 0)


# ------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_seeded_and_have_enough_small_ops(name):
    assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build(name, 3) != workloads.build(name, 4)
    small = [op for op in workloads.build(name, 3) if op.kind == workloads.SMALL]
    assert harness.tail_percentile([0.0] * len(small)) is not None


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tracer = tracing.Tracer()
    reported = set(tracing.layer_metrics(tracer, []))
    reported |= {"cli.emit_bytes", "cli.import_s", "trace.overhead_s", "trace.unattributed_share_max"}
    assert {m["name"] for m in spec["per_layer"]} == reported
