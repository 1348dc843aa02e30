"""Span recorders around the public entry point of each layer.

Nothing under ``src/`` records these spans: for the length of a traced
phase the benchmark replaces each entry point with a wrapper, at the
place its caller looks the name up (``repro.session.sql_to_plan``, not
``repro.sql.sql_to_plan``), and puts the original back afterwards.
"""

from __future__ import annotations

import gc
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence, Tuple

from perfbench.spans import Recorder

#: (module, attribute path, span name): set-up layers, wrapped for every
#: set-up of a traced run.
SETUP_LAYERS = (
    ("repro.tpch.dbgen", "generate_tables", "tpch.generate"),
    ("repro.tpch.dbgen", "generate_database", "storage.load"),
    ("repro.storage.database", "collect_table_stats", "catalog.stats"),
)

#: Per-op layers, wrapped for the traced phase only.
OP_LAYERS = (
    ("repro.session", "statement_shape", "sql.shape"),
    ("repro.sql.shape", "statement_shape", "sql.shape"),
    ("repro.session", "sql_to_plan", "sql.plan"),
    ("repro.session", "optimize_for_level", "plan.rewrite"),
    ("repro.compiler.driver", "LB2Compiler.compile", "compiler.compile"),
    ("repro.analysis.verifier", "Verifier.run", "analysis.verify"),
    ("repro.compiler.driver", "generate_python", "staging.render_py"),
    ("repro.compiler.driver", "generate_c", "staging.render_c"),
    ("repro.compiler.driver", "CompiledQuery.run", "compiler.execute"),
    ("repro.resilience.executor", "ResilientExecutor.query",
     "resilience.executor"),
    ("repro.resilience.executor", "ResilientExecutor.execute_plan",
     "resilience.executor"),
    ("repro.serve.server", "QueryServer.handle_line", "serve.handle_line"),
    ("repro.serve.service", "QueryService.submit", "serve.submit"),
    ("repro.obs.sampler", "TailSampler.offer", "obs.sampler"),
    ("repro.obs.telemetry", "TELEMETRY.record_compile", "obs.telemetry"),
    ("repro.obs.telemetry", "TELEMETRY.record_execution", "obs.telemetry"),
)


def _note_compile(span, compiled) -> None:
    span.meta["codegen"] = compiled.generation_seconds
    span.meta["host_compile"] = compiled.compile_seconds
    span.meta["bytes"] = len(compiled.source)


def _submit_rid(args) -> Optional[str]:
    return args[1].request_id  # QueryService.submit(self, request)


#: Span name -> what the wrapper reads off the call besides its time.
_AFTER = {"compiler.compile": _note_compile}
_RID_OF = {"serve.submit": _submit_rid}


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    after = _AFTER.get(name)
    rid_of = _RID_OF.get(name)

    def wrapper(*args, **kwargs):
        if rid_of is not None:
            rid = rid_of(args)
            sp = rec.open(name, rid)
            rec.bind_rid(rid)  # the enclosing handle_line span joins it
        else:
            sp = rec.open(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(sp, result)
            return result
        finally:
            rec.close(sp)

    return wrapper


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _gc_callback(rec: Recorder) -> Callable:
    starts: dict = {}

    def callback(phase: str, info: dict) -> None:
        tid = threading.get_ident()
        if phase == "start":
            starts[tid] = time.perf_counter()
            return
        t0 = starts.pop(tid, None)
        if t0 is not None:
            rec.add("gc", t0, time.perf_counter())

    return callback


@contextmanager
def installed(
    rec: Recorder, targets: Sequence[tuple], gc_hook: bool = False
) -> Iterator[None]:
    """Wrap every target (and optionally hook the collector) while open."""
    patched = []
    callback = _gc_callback(rec) if gc_hook else None
    try:
        for module, path, name in targets:
            owner, attr = _resolve(module, path)
            own = vars(owner)
            had = attr in own
            original = own[attr] if had else getattr(owner, attr)
            setattr(owner, attr, _wrap(rec, name, getattr(owner, attr)))
            patched.append((owner, attr, had, original))
        if callback is not None:
            gc.callbacks.append(callback)
        yield
    finally:
        if callback is not None:
            gc.callbacks.remove(callback)
        for owner, attr, had, original in reversed(patched):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
