"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # the three, one by one

Workloads: ``analytics``, ``adhoc``, ``serve`` (see ``BENCHMARK.json``).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` the per-layer ones.  Stdout carries a table (metric, value,
unit, sample count), a ``report`` line with the host fingerprint and run
record, and as its last line ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when every answer was right, 1 when one
was wrong, 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analytics", "adhoc", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so none inherits another's heap."""
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=600,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    from perfbench.metrics import PER_LAYER

    moves = {m.name: f"  -> {m.moves}" for m in PER_LAYER}
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:32} {m['value']:>14.6g} {m['unit']:9} "
              f"n={m['samples']}{moves.get(name, '')}")
    print(f"failed_ratio {result['failed_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for flag in result["flags"]:
        print(f"flag: {flag}")
    for error in result["errors"]:
        print(f"error: {error}")
    print("report " + json.dumps(result))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
