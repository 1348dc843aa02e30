"""The repository benchmark: three TPC-H workloads, end-to-end and per layer.

``python3 perfbench/run.py --workload {analytics,adhoc,serve,all}`` runs it;
``BENCHMARK.json`` at the repository root names the metrics and bounds and
:mod:`perfbench.metrics` says what each metric measures and which
end-to-end metric a per-layer metric should move.
"""
