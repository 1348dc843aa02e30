"""The engine fallback chain: compiled -> push interpreter -> Volcano.

The repo has three independent evaluation paths that answer every query
identically (the differential-testing backbone); this module turns that
redundancy into fault tolerance.  A :class:`ResilientExecutor` wraps a
:class:`repro.session.Session` and walks the chain: if the compiled path
fails -- codegen bug, verifier rejection, crash inside the residual
program -- the query transparently retries on the push interpreter, then
on Volcano, recording every attempt in an :class:`ExecutionReport`.  The
:class:`repro.resilience.policy.FallbackPolicy` decides which errors
degrade and which re-raise (a malformed plan fails everywhere; retrying it
is noise, not resilience).

Budgets ride along: with a :class:`repro.resilience.budget.Budget` set,
the compiled engine is built with ``Config(budget_checks=True)`` so the
residual scan loops tick cooperatively, and the interpreted engines tick
once per row reaching the result collector.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.errors import ReproError, error_code, error_phase
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.resilience.budget import Budget, BudgetGuard
from repro.resilience.faults import active_injector
from repro.resilience.policy import DEFAULT_POLICY, FallbackPolicy

#: The default degradation order: fastest first, most battle-tested last.
ENGINE_CHAIN = ("compiled", "push", "volcano")

#: Every available engine, including the opt-in batch-vectorized compiled
#: path.  "vector" is not in the default chain: it shares the compiled
#: engine's failure modes, so degrading vector -> compiled would usually
#: retry the same bug; chains that want it say so explicitly, e.g.
#: ``ResilientExecutor(session, engines=FULL_CHAIN)``.
FULL_CHAIN = ("vector",) + ENGINE_CHAIN

#: The engines that run a residual program (and share the compile cache).
COMPILED_ENGINES = ("vector", "compiled")


@dataclass
class EngineAttempt:
    """One engine's try at a query: outcome, timing, failure details."""

    engine: str
    seconds: float
    error: Optional[str] = None
    error_code: Optional[str] = None
    phase: Optional[str] = None
    fault_site: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def describe(self) -> str:
        if self.ok:
            return f"{self.engine}: ok ({self.seconds * 1e3:.2f} ms)"
        site = f" fault={self.fault_site}" if self.fault_site else ""
        return (
            f"{self.engine}: {self.error_code} in phase {self.phase}{site}"
            f" ({self.error})"
        )


@dataclass
class ExecutionReport:
    """What happened on the way to an answer (or to exhaustion)."""

    attempts: list[EngineAttempt] = field(default_factory=list)
    engine: Optional[str] = None  # the engine that produced the rows
    budget: Optional[Budget] = None
    budget_stats: Optional[dict] = None
    request_id: Optional[str] = None  # serve-tier correlation id
    # Per-operator telemetry, populated when the executor was built with
    # ``instrument=True`` and a compiled engine answered: label -> seconds,
    # label -> rows, and the vector backend's kernel counts.
    operator_times: Optional[dict] = None
    operator_rows: Optional[dict] = None
    kernels: Optional[dict] = None

    @property
    def engine_trail(self) -> tuple[str, ...]:
        return tuple(a.engine for a in self.attempts)

    @property
    def degraded(self) -> bool:
        return len(self.attempts) > 1

    @property
    def faults(self) -> tuple[str, ...]:
        """Fault-injection sites encountered across attempts."""
        return tuple(a.fault_site for a in self.attempts if a.fault_site)

    def describe(self) -> str:
        lines = [a.describe() for a in self.attempts]
        head = f"engine={self.engine or 'none'} trail={'->'.join(self.engine_trail)}"
        return "\n".join([head] + lines)


@dataclass
class ResilientResult:
    """Result rows plus the execution report that explains them."""

    rows: list[tuple]
    report: ExecutionReport

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class ResilientExecutor:
    """Fault-tolerant query execution over a :class:`Session`.

    ``engines`` is the ordered fallback chain (a subset/permutation of
    :data:`FULL_CHAIN`); ``budget`` bounds every attempt jointly --
    elapsed time and scanned rows accumulate across the chain, so a
    degraded query cannot spend three budgets.

    Compiled attempts go through the session cache under the attempt's
    own :meth:`compile_config`, so budget-checked, instrumented and
    vector builds each compile once per statement.
    """

    def __init__(
        self,
        session,
        policy: Optional[FallbackPolicy] = None,
        budget: Optional[Budget] = None,
        engines: Sequence[str] = ENGINE_CHAIN,
        instrument: bool = False,
        request_id: Optional[str] = None,
    ) -> None:
        unknown = [e for e in engines if e not in FULL_CHAIN]
        if unknown:
            raise ValueError(f"unknown engines {unknown}; pick from {FULL_CHAIN}")
        if not engines:
            raise ValueError("at least one engine is required")
        self.session = session
        self.policy = policy or DEFAULT_POLICY
        self.budget = budget
        self.engines = tuple(engines)
        # With ``instrument=True`` the compiled engines build with staged
        # per-operator timers (``Config(instrument=True)``, its own cache
        # key) and the report carries operator_times/operator_rows/kernels
        # -- what the serve tier feeds the workload-telemetry store.
        self.instrument = instrument
        # The serve tier's correlation id; attached to the report and to
        # every error leaving the chain.  An executor instance serves one
        # request at a time (the serve tier builds one per request).
        self.request_id = request_id

    # -- public surface -----------------------------------------------------

    def query(self, sql: str, params=None) -> ResilientResult:
        """Execute SQL with fallback; planning errors re-raise untouched
        (a bad query is a bad query on every engine).

        ``params`` binds explicit placeholders; statements without
        placeholders auto-parameterize eligible literals via
        :meth:`Session.resolve`, so the whole chain -- compiled shapes,
        interpreted substitution -- agrees on one parameterization.
        Binding errors (arity, names, Python types) raise ``E_PARAM``
        before the first attempt: a bad binding is bad on every engine.
        """
        session = self.session
        return session.apply(session.resolve(sql, params), self._execute)

    def execute_plan(self, plan, cache_key: Optional[str] = None) -> ResilientResult:
        """Execute a hand-built physical plan with fallback.

        With ``cache_key`` set, the compiled engines cache the build under
        that key (as :meth:`Session.prepare_plan` does); without it, every
        call compiles fresh.
        """
        plan.validate(self.session.db.catalog)
        return self._execute(self.session.resolve_plan(plan, cache_key))

    def compile_config(self, engine: str = "compiled"):
        """The ``Config`` a compiled attempt on ``engine`` builds under.

        The session config, plus scan checkpoints when this run must tick
        (budget or mid-scan fault), staged per-operator timers when
        instrumented, and the batch lowering for the ``vector`` engine.
        Each distinct config is its own cache entry.
        """
        overrides: dict = {}
        if self._needs_ticks():
            overrides["budget_checks"] = True
        if self.instrument:
            overrides["instrument"] = True
        if engine == "vector":
            overrides["codegen"] = "vector"
        return replace(self.session.config, **overrides)

    # -- the chain ----------------------------------------------------------

    def _execute(self, stmt) -> ResilientResult:
        # Plan and bind before the first attempt: plan and binding errors
        # are the query's fault, identical on every engine.
        vector = stmt.bind()
        report = ExecutionReport(
            budget=self.budget,
            request_id=self.request_id or events.current_request_id(),
        )
        guard = BudgetGuard(self.budget) if self._budget_active() else None
        last_error: Optional[BaseException] = None
        for engine in self.engines:
            start = time.perf_counter()
            ok = False
            compiled = engine in COMPILED_ENGINES
            run = self._run_compiled if compiled else self._run_interpreted
            with span("attempt", engine=engine) as sp:
                try:
                    rows = run(engine, stmt, vector, guard, report)
                    ok = True
                except BaseException as exc:  # noqa: BLE001 - the policy decides
                    report.attempts.append(
                        EngineAttempt(
                            engine=engine,
                            seconds=time.perf_counter() - start,
                            error=str(exc) or type(exc).__name__,
                            error_code=error_code(exc),
                            phase=error_phase(exc),
                            fault_site=getattr(exc, "site", None),
                        )
                    )
                    last_error = exc
                    REGISTRY.counter(f"engine.failed.{engine}")
                    events.emit(
                        "fallback",
                        request_id=report.request_id,
                        engine=engine,
                        code=error_code(exc),
                        phase=error_phase(exc) or "execute",
                    )
                    if sp:
                        sp.meta["error"] = error_code(exc) or type(exc).__name__
                    if compiled:
                        # Auto-invalidate: never serve a cached compiled query
                        # that just failed (stale plan, codegen bug...) --
                        # neither this attempt's build nor the plain one.
                        for config in (None, self.compile_config(engine)):
                            self.session.evict(stmt, config=config)
                    if not self.policy.should_degrade(exc):
                        self._attach(exc, report, guard)
                        raise
            if not ok:
                continue
            report.attempts.append(
                EngineAttempt(engine=engine, seconds=time.perf_counter() - start)
            )
            report.engine = engine
            REGISTRY.counter(f"engine.selected.{engine}")
            if report.degraded:
                REGISTRY.counter("engine.degraded")
            if guard is not None:
                report.budget_stats = guard.stats()
            self._merge_trail(report)
            return ResilientResult(rows, report)
        assert last_error is not None
        self._attach(last_error, report, guard)
        raise last_error

    @staticmethod
    def _merge_trail(report: ExecutionReport) -> None:
        """Merge the fallback trail into the active trace, if any."""
        with span("report") as sp:
            if sp:
                sp.meta["engine_trail"] = "->".join(report.engine_trail)
                sp.meta["engine"] = report.engine
                sp.meta["degraded"] = report.degraded

    def _attach(
        self,
        exc: BaseException,
        report: ExecutionReport,
        guard: Optional[BudgetGuard],
    ) -> None:
        """Decorate an outgoing error with the trail and partial stats."""
        if guard is not None:
            report.budget_stats = guard.stats()
        if isinstance(exc, ReproError):
            exc.with_trail(report.engine_trail)
            if report.request_id is not None and exc.request_id is None:
                exc.with_request(report.request_id)
        # Always reachable for post-mortems, taxonomy member or not.
        exc.execution_report = report  # type: ignore[attr-defined]

    # -- engines ------------------------------------------------------------

    def _budget_active(self) -> bool:
        return self.budget is not None and not self.budget.unlimited

    def _needs_ticks(self) -> bool:
        """Must the compiled engine emit scan checkpoints this run?"""
        if self._budget_active():
            return True
        injector = active_injector()
        return injector is not None and any(
            spec.site == "mid-scan" for spec in injector.specs
        )

    def _run_compiled(
        self,
        engine: str,
        stmt,
        vector: Optional[tuple],
        guard: Optional[BudgetGuard],
        report: ExecutionReport,
    ) -> list[tuple]:
        """A compiled engine: ``compiled`` (scalar) or ``vector`` codegen.

        Under an active budget the vector backend itself falls back to
        scalar code -- budget ticks are defined per row.
        """
        config = self.compile_config(engine)
        db = self.session.db
        if stmt.key is None:
            from repro.compiler.driver import LB2Compiler

            compiled = LB2Compiler(db.catalog, db, config).compile(stmt.plan)
        else:
            compiled = self.session.compile(stmt, config)
        with guard or nullcontext():
            rows = compiled.run(db, vector)
        if compiled.instrumented:
            # The staged instrumentation's per-operator views, taken
            # right after this request's run (the CompiledQuery object
            # is shared across requests of the same shape, so a late
            # read could see a sibling's numbers -- same shape, so the
            # aggregate telemetry stays correct either way).
            report.operator_times = dict(compiled.last_times or {})
            report.operator_rows = dict(compiled.last_stats or {})
            report.kernels = dict(compiled.last_kernels or {})
        return rows

    def _run_interpreted(
        self,
        engine: str,
        stmt,
        vector: Optional[tuple],
        guard: Optional[BudgetGuard],
        report: ExecutionReport,
    ) -> list[tuple]:
        """The push or Volcano interpreter; every result row ticks the
        budget.  Interpreters evaluate expressions directly, so they take
        the plan with the parameters substituted as consts (residual
        programs read the vector at run time instead)."""
        from repro.engine.push import build_op
        from repro.engine.volcano import iterate
        from repro.plan.params import bind_params

        db = self.session.db
        plan = stmt.plan if vector is None else bind_params(stmt.plan, vector)
        names = plan.field_names(db.catalog)
        out: list[tuple] = []

        def collect(row: dict) -> None:
            if guard is not None:
                guard.tick(1)
            out.append(tuple(row[n] for n in names))

        if engine == "push":
            build_op(plan, db, db.catalog).exec(collect)
        else:
            for row in iterate(plan, db, db.catalog):
                collect(row)
        return out
