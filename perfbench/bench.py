"""One benchmark run: set up, measure, check, and turn spans into metrics.

An untraced run (``trace=False``) sets the workload up :data:`SETUPS`
times, keeps the last set-up, and measures for ``seconds``; it reports the
end-to-end metrics.  A traced run measures ``seconds / 2`` untraced, then
``seconds / 2`` with a span recorder around every layer; it reports the
per-layer metrics, with ``trace.overhead`` comparing its two halves.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import layers, reference
from perfbench.metrics import END_TO_END, PER_LAYER, SCALE, STATEMENTS
from perfbench.spans import (
    Recorder, Span, by_rid, children_index, covered, gap, self_time,
)
from perfbench.stats import (
    P95_MIN_SAMPLES, geomean, median, p95_valid, percentile,
)
from perfbench.workloads import WORKLOADS, Measured, statement_of

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3

#: name -> (value, sample count)
Values = Dict[str, Tuple[float, int]]


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the report (see :func:`report`)."""
    from repro.obs import events

    answers = reference.load(build_dir(), SCALE)
    wl = WORKLOADS[workload](SCALE, answers)
    rec = Recorder(events.current_request_id) if trace else None
    setup_seconds: List[float] = []
    setup_spans: List[List[Span]] = []
    warm_failed: set = set()
    try:
        with layers.installed(rec, layers.SETUP_LAYERS) if rec else nullcontext():
            for i in range(SETUPS):
                if i:
                    wl.teardown()
                    gc.collect()
                t0 = time.perf_counter()
                wl.setup()
                setup_seconds.append(time.perf_counter() - t0)
                warm_failed.update(wl.warm_failures())
                if rec is not None:
                    setup_spans.append(rec.drain())
        gc.collect()
        if rec is None:
            phases = [wl.measure(seed, 0, seconds, None)]
            values = end_to_end_values(phases[0], setup_seconds)
        else:
            plain = wl.measure(seed, 0, seconds / 2, None)
            gc.collect()
            with layers.installed(rec, layers.OP_LAYERS, gc_hook=True):
                traced = wl.measure(seed, 1, seconds / 2, rec)
            phases = [plain, traced]
            values = layer_values(rec.drain(), traced, setup_spans, plain)
    finally:
        wl.teardown()
    attempted = sum(len(m.ops) for m in phases)
    failed = sum(not op.ok for m in phases for op in m.ops)
    errors = sorted({op.error for m in phases for op in m.ops if op.error})
    return report(values, attempted, failed, sorted(warm_failed), errors[:5], {
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": trace, "scale": SCALE, "setups": SETUPS,
    })


def report(values: Values, attempted: int, failed: int,
           warm_failed: Sequence[int], errors: Sequence[str],
           run_record: dict) -> dict:
    return {
        "correct": failed == 0 and not warm_failed,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "warm_failed": list(warm_failed),
        "errors": list(errors),
        "flags": [
            f"p95_ms rests on {values['p95_ms'][1]} samples, fewer than "
            f"{P95_MIN_SAMPLES}: not valid"
        ] if "p95_ms" in values and not p95_valid(values["p95_ms"][1]) else [],
        "metrics": {
            m.name: {"value": values[m.name][0], "unit": m.unit,
                     "samples": values[m.name][1]}
            for m in END_TO_END + PER_LAYER if m.name in values
        },
        "host": fingerprint(),
        "run": run_record,
    }


def end_to_end_values(m: Measured, setup_seconds: Sequence[float]) -> Values:
    n = len(m.ops)
    latencies = [op.seconds for op in m.ops]
    per_q = defaultdict(list)
    for op in m.ops:
        per_q[op.q].append(op.seconds)
    medians = [median(per_q[q]) * 1e3 for q in STATEMENTS if per_q[q]]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setup_seconds), len(setup_seconds)),
        "ops_per_s": (n / m.wall if m.wall else 0.0, n),
        "p50_ms": (percentile(latencies, 0.50) * 1e3, n),
        "p95_ms": (percentile(latencies, 0.95) * 1e3, n),
        "geomean_ms": (geomean(medians),
                       min((len(v) for v in per_q.values()), default=0)),
        "ok_ratio": (sum(op.ok for op in m.ops) / n if n else 0.0, n),
        "peak_rss_mb": (peak_kb / 1024, 1),
    }


def layer_values(spans: List[Span], m: Measured,
                 setup_spans: Sequence[List[Span]], plain: Measured) -> Values:
    """Per-layer metrics of the traced phase ``m`` (``plain`` is the
    untraced phase of the same run)."""
    n = max(1, len(m.ops))
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for sp in spans:
        total[sp.name] += sp.seconds
        calls[sp.name] += 1

    def per_op_ms(seconds: float) -> Tuple[float, int]:
        return seconds * 1e3 / n, n

    values: Values = {}
    for name, span_name, scale in (("tpch.generate_s", "tpch.generate", 1.0),
                                   ("storage.load_s", "storage.load", 1.0),
                                   ("catalog.stats_ms", "catalog.stats", 1e3)):
        per_setup = [sum(s.seconds for s in ss if s.name == span_name) * scale
                     for ss in setup_spans]
        values[name] = (median(per_setup), len(per_setup))
    for name, span_name in (("sql.shape_ms", "sql.shape"),
                            ("sql.plan_ms", "sql.plan"),
                            ("plan.rewrite_ms", "plan.rewrite"),
                            ("compiler.compile_ms", "compiler.compile"),
                            ("analysis.verify_ms", "analysis.verify"),
                            ("staging.render_py_ms", "staging.render_py"),
                            ("staging.render_c_ms", "staging.render_c"),
                            ("compiler.execute_ms", "compiler.execute"),
                            ("gc.pause_ms", "gc"),
                            ("obs.sampler_ms", "obs.sampler"),
                            ("obs.telemetry_ms", "obs.telemetry")):
        values[name] = per_op_ms(total[span_name])
    values["sql.plan_calls"] = (calls["sql.plan"] / n, n)
    values["gc.collections"] = (calls["gc"] / n, n)

    compiles = [s for s in spans if s.name == "compiler.compile"]
    values["compiler.codegen_ms"] = per_op_ms(
        sum(s.meta.get("codegen", 0.0) for s in compiles))
    values["compiler.host_compile_ms"] = per_op_ms(
        sum(s.meta.get("host_compile", 0.0) for s in compiles))
    residual = {statement_of(s.rid): s.meta["bytes"]
                for s in compiles if s.rid is not None and "bytes" in s.meta}
    values["compiler.residual_bytes"] = (sum(residual.values()), len(residual))

    runs = defaultdict(list)
    for s in spans:
        if s.name == "compiler.execute" and s.rid is not None:
            runs[statement_of(s.rid)].append(s.seconds)
    for q in STATEMENTS:
        values[f"compiler.execute.q{q:02d}_ms"] = (median(runs[q]) * 1e3,
                                                   len(runs[q]))

    lookups = m.hits + m.misses
    values["session.hit_ratio"] = (m.hits / lookups if lookups else 0.0,
                                   lookups)
    values["session.single_flight_waits"] = (m.waits / n, n)
    values["engine.fallbacks"] = (m.fallbacks / n, n)

    children = children_index(spans)
    values["resilience.self_ms"] = per_op_ms(sum(
        self_time(s, children) for s in spans
        if s.name == "resilience.executor"))
    requests = by_rid(spans)
    wire = queue = op_seconds = uncovered = 0.0
    for rid_spans in requests.values():
        wire += gap(rid_spans, "op", "serve.handle_line") or 0.0
        queue += gap(rid_spans, "serve.submit", "resilience.executor") or 0.0
        for op in rid_spans:
            if op.name == "op":
                op_seconds += op.seconds
                uncovered += op.seconds - covered(op, rid_spans)
    values["serve.wire_ms"] = per_op_ms(wire)
    values["serve.queue_ms"] = per_op_ms(queue)
    values["other_share"] = (uncovered / op_seconds if op_seconds else 0.0,
                             len(m.ops))
    traced_rate = len(m.ops) / m.wall if m.wall else 0.0
    plain_rate = len(plain.ops) / plain.wall if plain.wall else 0.0
    values["trace.overhead"] = (traced_rate / plain_rate if plain_rate else 0.0,
                                len(m.ops) + len(plain.ops))
    return values


def fingerprint() -> dict:
    """The host and source tree a report was measured on."""
    from repro.compiler.runtime import have_numpy

    if have_numpy():
        import numpy

        kernels = f"numpy {numpy.__version__}"
    else:
        kernels = "pure-Python kernels"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "numpy": kernels,
        "git_commit": git_commit(),
        "source_sha256": reference.source_digest(),
    }


def git_commit() -> Optional[str]:
    """HEAD's commit when the tree is a git checkout, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
