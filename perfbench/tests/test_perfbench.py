"""Self-tests of the benchmark: span arithmetic, the p95 rule, seeded op
sequences, and metric names held to ``BENCHMARK.json``.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
from itertools import islice
from pathlib import Path

import pytest

from perfbench import bench, layers, stats
from perfbench.metrics import END_TO_END, PER_LAYER, STATEMENTS, WORKLOADS
from perfbench.spans import (
    Recorder,
    Span,
    by_rid,
    children_index,
    covered,
    gap,
    self_time,
    union_length,
)
from perfbench.workloads import Measured, Op, closed_loop, passes, statement_of

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time -----------------------------------------------------------


def test_union_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert union_length([], 0, 10) == 0


def test_self_time_on_a_hand_built_tree():
    op = Span("op", 0.0, 10.0, rid="r1")
    a = Span("a", 1.0, 4.0, rid="r1", parent=op)
    b = Span("b", 3.0, 6.0, rid="r1", parent=op)
    c = Span("c", 2.0, 3.0, rid="r1", parent=a)
    children = children_index([op, a, b, c])
    assert self_time(op, children) == 5.0  # children cover [1, 6]
    assert self_time(a, children) == 2.0
    assert self_time(c, children) == 1.0


def test_cross_thread_spans_join_by_request_id():
    client = Span("op", 0.0, 20.0, thread=1, rid="r1")
    handler = Span("serve.handle_line", 2.0, 18.0, thread=2, rid="r1")
    submit = Span("serve.submit", 3.0, 17.0, thread=2, rid="r1",
                  parent=handler)
    worker = Span("resilience.executor", 5.0, 15.0, thread=3, rid="r1")
    other = Span("resilience.executor", 0.0, 20.0, thread=3, rid="r2")
    requests = by_rid([client, handler, submit, worker, other])
    assert gap(requests["r1"], "op", "serve.handle_line") == 4.0
    assert gap(requests["r1"], "serve.submit", "resilience.executor") == 4.0
    assert gap(requests["r2"], "serve.submit", "resilience.executor") is None
    assert covered(client, requests["r1"]) == 16.0


def test_recorder_inherits_and_binds_request_ids():
    ambient = threading.local()
    rec = Recorder(lambda: getattr(ambient, "rid", None))
    with rec.span("serve.handle_line") as outer:
        with rec.span("serve.submit", "r7"):
            rec.bind_rid("r7")
            with rec.span("obs.sampler") as inner:
                pass

    def worker():
        ambient.rid = "r7"
        with rec.span("resilience.executor"):
            rec.add("gc", 0.0, 0.0)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()
    assert outer.rid == inner.rid == "r7"
    assert inner.parent.name == "serve.submit"
    names = sorted(s.name for s in by_rid(rec.drain())["r7"])
    assert names == ["gc", "obs.sampler", "resilience.executor",
                     "serve.handle_line", "serve.submit"]


def test_installed_wraps_and_restores():
    rec = Recorder()
    original = stats.median
    targets = [("perfbench.stats", "median", "median"),
               ("perfbench.workloads", "Measured.add_cache", "cache")]
    with layers.installed(rec, targets):
        assert stats.median([1, 2, 3]) == 2
        Measured().add_cache(*[{"hits": 0, "misses": 0,
                                "single_flight_waits": 0}] * 2)
    assert stats.median is original
    assert "add_cache" in vars(Measured)
    assert [s.name for s in rec.drain()] == ["median", "cache"]


# -- the p95 rule ----------------------------------------------------------


def test_p95_needs_200_samples():
    assert not stats.p95_valid(199)
    assert stats.p95_valid(200)
    samples = [0.001 * i for i in range(200)]
    assert stats.percentile(samples, 0.95) == pytest.approx(0.189)
    few = bench.report({"p95_ms": (9.0, 199)}, 199, 0, [], [], {})
    enough = bench.report({"p95_ms": (9.0, 200)}, 200, 0, [], [], {})
    assert len(few["flags"]) == 1 and "199 samples" in few["flags"][0]
    assert enough["flags"] == []


# -- seeded op sequences ------------------------------------------------------


def test_same_seed_same_ops_other_seed_other_ops():
    first = list(islice(passes("analytics", 3), 5))
    assert first == list(islice(passes("analytics", 3), 5))
    assert first != list(islice(passes("analytics", 4), 5))
    assert first != list(islice(passes("serve", 3, client=1), 5))
    assert all(sorted(order) == list(STATEMENTS) for order in first)


def test_closed_loop_runs_whole_passes_and_counts_failures():
    def run_op(q, rid):
        if q == 5:
            raise ValueError("boom")
        return q != 6

    ops = closed_loop(passes("adhoc", 1), 1e-9, lambda: run_op, None, "t")
    assert sorted(op.q for op in ops) == list(STATEMENTS)
    assert sorted(op.q for op in ops if not op.ok) == [5, 6]
    assert sorted(op.error for op in ops if op.error) == [
        "q5: ValueError: boom", "q6: wrong answer"]


def test_request_ids_name_their_statement():
    assert statement_of("p1c0-17-q07") == 7


# -- metric names ------------------------------------------------------------


def _spec(metrics):
    return [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics]


def test_benchmark_json_matches_the_registry():
    assert SPEC["end_to_end"] == [
        {**entry, "bound": m.bound}
        for entry, m in zip(_spec(END_TO_END), END_TO_END)
    ]
    assert SPEC["per_layer"] == _spec(PER_LAYER)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WORKLOADS
    assert SPEC["command"][1] == "perfbench/run.py"


def _measured(n=44):
    ops = [Op(q, 0.001 * q, True) for _ in range(n // 22) for q in STATEMENTS]
    return Measured(ops=ops, wall=1.0, hits=n, misses=0)


def test_printed_names_match_benchmark_json():
    e2e = bench.end_to_end_values(_measured(), [1.0, 2.0, 3.0])
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    spans = [Span("op", 0.0, 1.0, rid="p1c0-0-q01"),
             Span("compiler.execute", 0.1, 0.9, rid="p1c0-0-q01")]
    layer = bench.layer_values(spans, _measured(), [[], []], _measured())
    assert sorted(layer) == sorted(m["name"] for m in SPEC["per_layer"])
    assert layer["other_share"][0] == pytest.approx(0.2)
    assert layer["compiler.execute.q01_ms"][0] == pytest.approx(800.0)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
