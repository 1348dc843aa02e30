"""Reference answers from the ``volcano`` interpreter, and the comparison.

Computing all 22 answers with the interpreter takes seconds, so they are
computed once per source tree, in a child process (its memory stays out
of the measured process's peak), and cached as JSON under the build
directory, keyed by a digest of every file under ``src/`` and the scale.

    python3 perfbench/reference.py --scale 0.01 --out answers.json
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

Rows = Tuple[tuple, ...]


def normalize(rows: Sequence[Sequence[object]], digits: int = 4) -> Rows:
    """Multiset form with floats rounded, as the engine-parity tests do."""
    return tuple(
        sorted(
            (
                tuple(round(v, digits) if isinstance(v, float) else v for v in row)
                for row in rows
            ),
            key=repr,
        )
    )


def source_digest(root: Path = ROOT) -> str:
    """sha256 over the paths and bytes of every file under ``src/``."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def compute(scale: float) -> Dict[int, List[list]]:
    """Every statement's answer on the volcano engine, normalized."""
    from repro.engine.volcano import iterate
    from repro.sql import sql_to_plan
    from repro.storage.database import OptimizationLevel
    from repro.tpch import dbgen
    from repro.tpch.queries import query_plan
    from repro.tpch.sql_queries import SQL_QUERIES

    db = dbgen.generate_database(scale, level=OptimizationLevel.COMPLIANT)
    answers = {}
    for q in range(1, 23):
        if q in SQL_QUERIES:
            plan = sql_to_plan(SQL_QUERIES[q], db)
        else:
            plan = query_plan(q, scale=scale)
        names = plan.field_names(db.catalog)
        rows = [tuple(r[n] for n in names) for r in iterate(plan, db, db.catalog)]
        answers[q] = [list(r) for r in normalize(rows)]
    return answers


def load(build_dir: Path, scale: float) -> Dict[int, Rows]:
    """The cached answers for this source tree, computed first if missing."""
    path = build_dir / f"reference-{source_digest()[:16]}-{scale}.json"
    if not path.is_file():
        build_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--scale", str(scale),
             "--out", str(tmp)],
            check=True,
            timeout=600,
        )
        os.replace(tmp, path)
    raw = json.loads(path.read_text())
    return {int(q): tuple(tuple(r) for r in rows) for q, rows in raw.items()}


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with open(args.out, "w") as fh:
        json.dump(compute(args.scale), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
