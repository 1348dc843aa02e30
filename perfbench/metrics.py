"""Every metric the benchmark prints: name, unit, direction and meaning.

``BENCHMARK.json`` lists the same names, units and directions (the
self-tests hold the two together).  For a per-layer metric, ``moves`` is
the end-to-end metric it should move and the workloads where it does, so
a change that claims a gain on one layer can name its prediction.

Per-layer times are milliseconds per measured op unless the name ends in
``_s`` (seconds per set-up); ``count/op`` metrics are counts per op.  A
layer a workload does not exercise reads 0 there.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = {
    "analytics": (
        "Fig 8 setting: a warm Session re-runs the 22 TPC-H statements, so "
        "execute and GC do the work and the compile cache skips the front end"
    ),
    "adhoc": (
        "Fig 13 setting: a fresh Session prepares each statement once, so "
        "parse, plan, codegen, verify and host compile do the work"
    ),
    "serve": (
        "2 closed-loop TCP clients on QueryService with telemetry and "
        "sampling: wire, queue, resilience, obs sinks and re-planning"
    ),
}

#: Statement numbers per pass, and the scale every workload loads.
STATEMENTS = tuple(range(1, 23))
SCALE = 0.01


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    what: str
    moves: str = ""
    bound: float = 0.0


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median set-up: datagen + load (+ service start) + warm pass",
           bound=0.25),
    Metric("ops_per_s", "1/s", "higher", "completed ops per second",
           bound=0.25),
    Metric("p50_ms", "ms", "lower", "median op latency", bound=0.25),
    Metric("p95_ms", "ms", "lower",
           "95th-percentile op latency (valid from 200 ops)", bound=0.25),
    Metric("geomean_ms", "ms", "lower",
           "geometric mean over the 22 statements of their median latency",
           bound=0.25),
    Metric("ok_ratio", "ratio", "higher",
           "1 - failed_ratio: ops answered correctly / ops attempted",
           bound=0.01),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory",
           bound=0.05),
)

_E2E_SETUP = "setup_s, all workloads"

PER_LAYER = (
    Metric("tpch.generate_s", "s", "lower",
           "repro.tpch.dbgen.generate_tables per set-up", _E2E_SETUP),
    Metric("storage.load_s", "s", "lower",
           "generate_database(tables=...) per set-up, with index builds",
           _E2E_SETUP),
    Metric("catalog.stats_ms", "ms", "lower",
           "collect_table_stats (first Database.stats per table) per set-up",
           _E2E_SETUP),
    Metric("sql.shape_ms", "ms", "lower", "statement_shape",
           "p50_ms on analytics, serve"),
    Metric("sql.plan_ms", "ms", "lower", "sql_to_plan",
           "p50_ms on adhoc, serve"),
    Metric("sql.plan_calls", "count/op", "lower", "sql_to_plan calls",
           "p50_ms on adhoc, serve (about 0.7 on serve, 0 on analytics)"),
    Metric("plan.rewrite_ms", "ms", "lower", "optimize_for_level",
           "p50_ms on adhoc, serve"),
    Metric("session.hit_ratio", "ratio", "higher",
           "Session.cache_info hits / (hits + misses), measured delta",
           "p95_ms on serve (0 on adhoc by design)"),
    Metric("session.single_flight_waits", "count/op", "lower",
           "Session.cache_info single_flight_waits, measured delta",
           "p95_ms on serve"),
    Metric("compiler.compile_ms", "ms", "lower", "LB2Compiler.compile",
           "p50_ms, p95_ms, geomean_ms on adhoc"),
    Metric("compiler.codegen_ms", "ms", "lower",
           "CompiledQuery.generation_seconds",
           "p50_ms, p95_ms, geomean_ms on adhoc"),
    Metric("compiler.host_compile_ms", "ms", "lower",
           "CompiledQuery.compile_seconds",
           "p50_ms, p95_ms, geomean_ms on adhoc"),
    Metric("analysis.verify_ms", "ms", "lower", "Verifier.run",
           "p50_ms on adhoc"),
    Metric("staging.render_py_ms", "ms", "lower",
           "repro.compiler.driver.generate_python", "p50_ms on adhoc"),
    Metric("staging.render_c_ms", "ms", "lower",
           "repro.compiler.driver.generate_c", "p50_ms on adhoc"),
    Metric("compiler.residual_bytes", "bytes", "lower",
           "len(CompiledQuery.source) summed over the 22 statements",
           "code size on adhoc; repeats exactly"),
    Metric("compiler.execute_ms", "ms", "lower", "CompiledQuery.run",
           "ops_per_s, geomean_ms on analytics, serve"),
) + tuple(
    Metric(f"compiler.execute.q{q:02d}_ms", "ms", "lower",
           f"median CompiledQuery.run of statement {q}",
           "geomean_ms on analytics")
    for q in STATEMENTS
) + (
    Metric("gc.pause_ms", "ms", "lower", "gc.callbacks start-to-stop",
           "p95_ms, ops_per_s on analytics, serve"),
    Metric("gc.collections", "count/op", "lower", "gc.callbacks collections",
           "p95_ms, ops_per_s on analytics, serve"),
    Metric("resilience.self_ms", "ms", "lower",
           "ResilientExecutor.query/execute_plan minus child spans",
           "p50_ms, ok_ratio on serve"),
    Metric("engine.fallbacks", "count/op", "lower",
           "answers not served by the first engine of the chain",
           "p50_ms, ok_ratio on serve"),
    Metric("serve.wire_ms", "ms", "lower",
           "client round trip minus QueryServer.handle_line",
           "p50_ms, p95_ms on serve"),
    Metric("serve.queue_ms", "ms", "lower",
           "QueryService.submit minus the worker's executor span",
           "p50_ms, p95_ms on serve"),
    Metric("obs.sampler_ms", "ms", "lower", "TailSampler.offer",
           "ops_per_s on serve"),
    Metric("obs.telemetry_ms", "ms", "lower", "TELEMETRY.record_*",
           "ops_per_s on serve"),
    Metric("other_share", "ratio", "lower",
           "share of op wall time no recorded span covers",
           "attribution check, all workloads"),
    Metric("trace.overhead", "ratio", "higher",
           "traced ops_per_s / untraced ops_per_s in the traced run",
           "attribution check, all workloads"),
)
