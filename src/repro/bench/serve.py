"""``repro-bench-serve``: sustained QPS and tail latency for the serve tier.

The workload is the mixed 22-query TPC-H suite (15 via SQL, 7 via
hand-written plans) fired at one :class:`~repro.serve.service.QueryService`
from concurrent client threads, every request carrying a deadline.  Two
measured runs land in the report (default ``BENCH_PR7.json``):

* **baseline** -- clean service, warm compiled-query cache;
* **faulted** -- the compiled-query cache cleared and a
  :class:`~repro.resilience.faults.FaultInjector` firing at the ``codegen``
  and ``host-compile`` sites, so a slice of requests degrades down the
  fallback chain (and some plan shapes trip the circuit breaker).

For each run: sustained QPS, latency percentiles (p50/p95/p99, ms),
outcome counts by error code, degraded counts, the breaker/metrics
counters, and the raw per-request samples (request id, shape digest,
tenant, latency, outcome, engine) that ``repro-doctor`` uses as a
regression baseline; a top-level ``shapes`` index maps each digest back
to its statement text.  The invariant checked before any number is
reported: every reply is rows or a *typed* error -- one raw exception
voids the run.

    repro-bench-serve                       # full run at REPRO_BENCH_SF
    repro-bench-serve --smoke               # CI mode: tiny scale, 1 round
    repro-bench-serve --clients 8 -r 5      # heavier sustained load
    repro-bench-serve --params              # literal-varying workload:
                                            # shape-keyed cache vs
                                            # per-literal compiles
                                            # (default BENCH_PR9.json)

In ``--params`` mode the workload is literal-varying: every round perturbs
the liftable literals of the 15 SQL queries, so statement *text* changes
each round while statement *shape* does not.  The same load runs twice --
once with session auto-parameterization off (every text variant compiles)
and once with the shape-keyed cache (each shape compiles exactly once) --
and the report carries both summaries plus the cache counters that prove
the compile counts.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import List, Optional, Sequence

from repro.bench.harness import bench_scale
from repro.obs.metrics import REGISTRY, percentile
from repro.obs.telemetry import shape_digest
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.serve.admission import TenantQuota
from repro.serve.service import QueryService, ServiceConfig, ServiceResponse
from repro.serve.workload import mixed_workload, parameterized_workload
from repro.session import Session
from repro.storage import OptimizationLevel
from repro.tpch.dbgen import generate_database, generate_tables


# ``percentile`` moved to repro.obs.metrics so the bench's exact math and
# the live bucketed histograms share one rank rule; re-exported above for
# existing importers.


def drive(
    service: QueryService,
    clients: int,
    rounds: int,
    deadline_seconds: float,
    varied: bool = False,
) -> tuple[List[ServiceResponse], float]:
    """``clients`` threads, each running ``rounds`` of the full workload;
    returns (responses, wall_seconds).  ``varied`` swaps in the
    literal-varying parameterized workload (same shapes, new text per
    round)."""
    lock = threading.Lock()
    responses: List[ServiceResponse] = []

    def one_client(idx: int) -> None:
        if varied:
            # Disjoint variation ranges per client: every client sends its
            # own literal values (as distinct tenants would), so a
            # text-keyed cache compiles per client per round while a
            # shape-keyed one still compiles each statement once.
            requests = parameterized_workload(
                rounds,
                tenant=f"bench-{idx}",
                deadline_seconds=deadline_seconds,
                first_round=idx * rounds,
            )
        else:
            requests = mixed_workload(
                rounds, tenant=f"bench-{idx}", deadline_seconds=deadline_seconds
            )
        for request in requests:
            response = service.submit(request)
            with lock:
                responses.append(response)

    threads = [
        threading.Thread(target=one_client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return responses, time.perf_counter() - started


def summarize(responses: Sequence[ServiceResponse], wall: float) -> dict:
    latencies = sorted(r.elapsed_seconds for r in responses)
    outcomes: dict = {}
    degraded = 0
    for r in responses:
        if r.ok:
            outcomes["ok"] = outcomes.get("ok", 0) + 1
            if r.degraded:
                degraded += 1
        else:
            code = r.code or "E_RUNTIME"
            if code == "E_RUNTIME":
                raise AssertionError(
                    f"raw exception crossed the service boundary: {r.error}"
                )
            outcomes[code] = outcomes.get(code, 0) + 1
    return {
        "requests": len(responses),
        "wall_seconds": wall,
        "qps": len(responses) / wall if wall else 0.0,
        "latency_ms": {
            "p50": percentile(latencies, 0.50) * 1e3,
            "p95": percentile(latencies, 0.95) * 1e3,
            "p99": percentile(latencies, 0.99) * 1e3,
            "max": (latencies[-1] if latencies else 0.0) * 1e3,
        },
        "outcomes": outcomes,
        "degraded": degraded,
        # Raw per-request samples: the regression baseline repro-doctor
        # compares a later run's tail against, per shape and tenant.
        "samples": [
            {
                "rid": r.request_id,
                "shape": shape_digest(r.shape) if r.shape else None,
                "tenant": r.tenant,
                "latency_ms": round(r.elapsed_seconds * 1e3, 3),
                "outcome": "ok" if r.ok else (r.code or "E_RUNTIME"),
                "engine": r.engine,
            }
            for r in responses
        ],
    }


def shape_index(responses: Sequence[ServiceResponse]) -> dict:
    """Digest -> truncated statement text, so sample rows stay joinable
    to human-readable shapes without repeating long SQL per request."""
    index: dict = {}
    for r in responses:
        if r.shape:
            index.setdefault(shape_digest(r.shape), r.shape[:120])
    return index


def bench_serve(
    scale: float,
    clients: int,
    rounds: int,
    workers: int,
    deadline_seconds: float,
    fault_every: int = 3,
) -> dict:
    db = generate_database(
        tables=dict(generate_tables(scale)), level=OptimizationLevel.COMPLIANT
    )
    session = Session(db, max_cache_size=256)
    config = ServiceConfig(
        workers=workers,
        max_queue_depth=clients * rounds * 22,  # bench measures latency, not shed
        default_deadline_seconds=deadline_seconds,
        default_quota=TenantQuota(),
        query_scale=scale,
    )
    report: dict = {
        "benchmark": "serve tier: mixed 22-query workload under concurrency",
        "scale": scale,
        "clients": clients,
        "rounds": rounds,
        "workers": workers,
        "deadline_seconds": deadline_seconds,
        "fault_every": fault_every,
    }
    with QueryService(session, config) as service:
        # Warmup: populate the compiled cache once so the baseline measures
        # the compile-once/execute-many steady state.
        warm, _ = drive(service, 1, 1, deadline_seconds)
        report["warmup_ok"] = sum(1 for r in warm if r.ok)

        REGISTRY.reset("serve.")
        responses, wall = drive(service, clients, rounds, deadline_seconds)
        report["baseline"] = summarize(responses, wall)
        report["baseline"]["counters"] = REGISTRY.counters_with_prefix("serve.")
        shapes = shape_index(responses)

        # Faulted run: cold cache + deterministic compile-site failures.
        session.clear_cache()
        REGISTRY.reset("serve.")
        with FaultInjector(
            FaultSpec(
                "codegen", at=frozenset(range(0, 1 << 20, fault_every)), times=None
            ),
            FaultSpec(
                "host-compile",
                at=frozenset(range(1, 1 << 20, fault_every)),
                times=None,
            ),
        ):
            responses, wall = drive(service, clients, rounds, deadline_seconds)
        report["faulted"] = summarize(responses, wall)
        report["faulted"]["counters"] = REGISTRY.counters_with_prefix("serve.")
        shapes.update(shape_index(responses))
        report["shapes"] = shapes
        report["cache"] = session.cache_info()
        del report["cache"]["statements"]  # keys are long; sizes suffice
    return report


def bench_params(
    scale: float,
    clients: int,
    rounds: int,
    workers: int,
    deadline_seconds: float,
) -> dict:
    """Literal-varying workload: per-literal compiles vs the shape cache.

    Two runs over identical request streams (every round changes literal
    values, never statement shape).  ``per_literal`` disables session
    auto-parameterization, so each text variant pays a full compile;
    ``shape_cached`` is the default path, where all variants of one
    statement share a single shape-keyed residual program.
    """
    db = generate_database(
        tables=dict(generate_tables(scale)), level=OptimizationLevel.COMPLIANT
    )
    report: dict = {
        "benchmark": (
            "serve tier: literal-varying 22-query workload -- "
            "per-literal compiles vs shape-keyed plan cache"
        ),
        "scale": scale,
        "clients": clients,
        "rounds": rounds,
        "workers": workers,
        "deadline_seconds": deadline_seconds,
    }
    config = ServiceConfig(
        workers=workers,
        max_queue_depth=clients * rounds * 22,
        default_deadline_seconds=deadline_seconds,
        default_quota=TenantQuota(),
        query_scale=scale,
    )
    for mode, auto in (("per_literal", False), ("shape_cached", True)):
        session = Session(db, max_cache_size=1024, auto_parameterize=auto)
        with QueryService(session, config) as service:
            # Warmup compiles round 0's texts (and, in shape mode, the
            # shapes); later rounds only hit the cache when shapes key it.
            warm, _ = drive(service, 1, 1, deadline_seconds, varied=True)
            warm_ok = sum(1 for r in warm if r.ok)
            warm_cache = session.cache_info()

            REGISTRY.reset("serve.")
            responses, wall = drive(
                service, clients, rounds, deadline_seconds, varied=True
            )
            entry = summarize(responses, wall)
            entry["warmup_ok"] = warm_ok
            entry["counters"] = REGISTRY.counters_with_prefix("serve.")
            cache = session.cache_info()
            del cache["statements"]
            # Compiles *paid during the measured phase* (warmup excluded):
            # the number the two modes are being compared on.  ``misses``
            # already counts shape-keyed misses.
            cache["measured_misses"] = cache["misses"] - warm_cache["misses"]
            entry["cache"] = cache
            report.setdefault("shapes", {}).update(shape_index(responses))
        report[mode] = entry
    base = report["per_literal"]["latency_ms"]
    shaped = report["shape_cached"]["latency_ms"]
    report["speedup"] = {
        "qps": report["shape_cached"]["qps"] / report["per_literal"]["qps"]
        if report["per_literal"]["qps"]
        else 0.0,
        "p50": base["p50"] / shaped["p50"] if shaped["p50"] else 0.0,
        "p95": base["p95"] / shaped["p95"] if shaped["p95"] else 0.0,
        "p99": base["p99"] / shaped["p99"] if shaped["p99"] else 0.0,
    }
    report["compiles"] = {
        "per_literal": report["per_literal"]["cache"]["measured_misses"],
        "shape_cached": report["shape_cached"]["cache"]["measured_misses"],
    }
    return report


def _print_params_report(report: dict) -> None:
    from repro.bench.report import print_table

    rows = []
    for run in ("per_literal", "shape_cached"):
        entry = report[run]
        rows.append(
            (
                run,
                [
                    entry["qps"],
                    entry["latency_ms"]["p50"],
                    entry["latency_ms"]["p95"],
                    entry["latency_ms"]["p99"],
                    entry["outcomes"].get("ok", 0),
                    entry["cache"]["measured_misses"],
                ],
            )
        )
    print_table(
        f"serve --params: {report['clients']} clients x {report['rounds']} "
        f"literal-varying rounds x 22 queries (sf={report['scale']}, "
        f"{report['workers']} workers)",
        ["qps", "p50 ms", "p95 ms", "p99 ms", "ok", "compiles"],
        rows,
    )


def _print_report(report: dict) -> None:
    from repro.bench.report import print_table

    rows = []
    for run in ("baseline", "faulted"):
        entry = report[run]
        rows.append(
            (
                run,
                [
                    entry["qps"],
                    entry["latency_ms"]["p50"],
                    entry["latency_ms"]["p95"],
                    entry["latency_ms"]["p99"],
                    entry["outcomes"].get("ok", 0),
                    entry["degraded"],
                    sum(v for k, v in entry["outcomes"].items() if k != "ok"),
                ],
            )
        )
    print_table(
        f"serve: {report['clients']} clients x {report['rounds']} rounds x 22 "
        f"queries (sf={report['scale']}, {report['workers']} workers)",
        ["qps", "p50 ms", "p95 ms", "p99 ms", "ok", "degraded", "rejected"],
        rows,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-bench-serve")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("-r", "--rounds", type=int, default=3)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--deadline", type=float, default=30.0)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny scale, small load, no report file")
    parser.add_argument("--params", action="store_true",
                        help="literal-varying workload: shape-keyed cache "
                             "vs per-literal compiles")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    out = args.out or ("BENCH_PR9.json" if args.params else "BENCH_PR7.json")
    bench = bench_params if args.params else bench_serve
    if args.smoke:
        scale = args.scale if args.scale is not None else 0.002
        report = bench(scale, clients=3, rounds=2 if args.params else 1,
                       workers=args.workers, deadline_seconds=args.deadline)
    else:
        scale = args.scale if args.scale is not None else bench_scale()
        report = bench(scale, args.clients, args.rounds, args.workers,
                       args.deadline)
    if args.params:
        _print_params_report(report)
    else:
        _print_report(report)
    if not args.smoke:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
