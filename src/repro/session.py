"""A small session facade: SQL in, rows out, compiled queries cached.

This is the "downstream user" surface: it owns a database, plans SQL
through the optimizer, compiles with LB2, and caches compiled queries so
repeated statements skip planning and code generation (the paper:
"compilation times ... can often be amortized if queries are precompiled
and used multiple times").

Every cached compile takes one path, ``resolve -> compile``:

* :meth:`Session.resolve` decides a statement's cache identity -- the
  key text (normalized literal text, or the ``shape:`` key of a
  parameterized statement), and the bindings -- without planning it;
  the plan is built on first use, so a warm hit never plans.
* :meth:`Session.compile` is the only code that looks the LRU up,
  inserts, counts and evicts.  Its key is ``(key text, Config, database
  identity)``: a config change or a ``session.db`` swap misses cleanly.

``query``, ``prepare``, ``prepare_plan`` and ``prepare_statement`` are thin
callers of these two, and so is the resilience layer's executor.

The cache is a bounded LRU (``max_cache_size`` statements); hits, misses
and evictions feed :data:`repro.obs.metrics.REGISTRY` and are inspectable
via :meth:`Session.cache_info`.

The session is safe to share across threads -- the serving tier
(:mod:`repro.serve`) hammers one instance from a worker pool.  Cache
bookkeeping (LRU order, eviction, counters) is serialized under one lock,
and compilation is *single-flight*: when several threads miss on the same
key concurrently, exactly one compiles while the rest block on the
in-flight build and share its result (or its typed failure).  Compilation
itself runs outside the lock, so a slow compile never blocks cache hits
for other statements.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, TypeVar

from repro.compiler.driver import CompiledQuery, LB2Compiler
from repro.compiler.lb2 import Config
from repro.errors import ParamError
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.obs.telemetry import TELEMETRY
from repro.obs.trace import span
from repro.plan.explain import explain
from repro.plan.params import Bindings, ParamSlot, check_bindings, collect_params
from repro.plan.physical import PhysicalPlan
from repro.plan.rewrite import optimize_for_level
from repro.sql import sql_to_plan
from repro.sql.shape import StatementShape, normalize_statement, statement_shape
from repro.storage.database import Database

T = TypeVar("T")

#: The counters :meth:`Session.cache_info` reports, in report order.
_COUNTERS = (
    "hits", "misses", "evictions", "single_flight_waits",
    "shape_hits", "shape_misses",
)


class _Inflight:
    """One in-progress compilation that concurrent misses can wait on."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[CompiledQuery] = None
        self.error: Optional[BaseException] = None


@dataclass
class PreparedStatement:
    """A compiled statement bound to its session, executable many times.

    ``text`` is the canonical statement text (the cache key text); for a
    parameterized statement it shows the placeholders.  :meth:`execute`
    validates ``params`` against :attr:`signature` and runs the shared
    residual program -- one compile serves every binding.  Arity, name and
    Python-type mismatches raise the typed ``E_PARAM`` error.
    """

    session: "Session"
    text: str
    compiled: CompiledQuery

    @property
    def signature(self) -> tuple[ParamSlot, ...]:
        """The statement's parameter slots, in vector order."""
        return self.compiled.param_signature

    @property
    def source(self) -> str:
        """The residual Python program shared across bindings."""
        return self.compiled.source

    def execute(self, params: Optional[Bindings] = None) -> list[tuple]:
        """Run with ``params`` bound; returns result rows."""
        with span("execute", engine="compiled"):
            return self.compiled.run(self.session.db, params)


@dataclass
class ResolvedStatement:
    """One statement with its cache identity decided, for any engine.

    ``key`` is the cache text the compiled engines key on (and what
    :meth:`Session.cache_info` lists): the normalized literal text,
    ``"shape:"`` plus the shape text of a parameterized statement,
    ``"plan:"`` plus the caller's key for a hand-built plan, or None for a
    hand-built plan nobody caches.  ``sql`` is the canonical text the
    planner reads (None for a hand-built plan); ``bindings`` is what
    :func:`repro.plan.params.check_bindings` turns into the positional
    vector.  ``literal_sql`` is set only when the session lifted the
    statement's own literals: it is the text to fall back to when that
    shape fails with ``E_PARAM`` (see :meth:`Session.apply`).

    :attr:`plan` is built on first use, so a cache hit never plans.
    """

    session: "Session" = field(repr=False)
    key: Optional[str]
    sql: Optional[str] = None
    bindings: Optional[Bindings] = None
    literal_sql: Optional[str] = None
    _plan: Optional[PhysicalPlan] = field(default=None, repr=False)

    @property
    def parameterized(self) -> bool:
        return self.key is not None and self.key.startswith("shape:")

    @property
    def plan(self) -> PhysicalPlan:
        if self._plan is None:
            self._plan = self.session.plan(self.sql)
        return self._plan

    def bind(self) -> Optional[tuple]:
        """Plan the statement and validate its bindings.

        Returns the positional parameter vector, or None when the
        statement has no parameters (the slot types come from the plan);
        binding errors raise ``E_PARAM``.
        """
        plan = self.plan
        if not self.parameterized:
            return None
        return check_bindings(collect_params(plan), self.bindings)


class Session:
    """Compile-and-cache query execution against one database."""

    def __init__(
        self,
        db: Database,
        config: Optional[Config] = None,
        max_cache_size: int = 128,
        auto_parameterize: bool = True,
    ) -> None:
        if max_cache_size <= 0:
            raise ValueError("max_cache_size must be positive")
        self.db = db
        self.config = config if config is not None else Config()
        # When False, query()/resolve() never lift literals to parameters:
        # every distinct statement text compiles separately.  Explicit
        # placeholders still work.  Exists for A/B measurement
        # (``repro-bench-serve --params``) and as an escape hatch.
        self.auto_parameterize = auto_parameterize
        self.max_cache_size = max_cache_size
        self._cache: OrderedDict[tuple, CompiledQuery] = OrderedDict()
        self._inflight: dict[tuple, _Inflight] = {}
        self._lock = threading.RLock()
        self._counts: Counter = Counter()
        # Shape texts whose parameterized compile (or auto-binding) failed
        # with E_PARAM: resolve() hands out per-literal statements for
        # these instead of re-attempting the shape on every call.
        self._shape_fallbacks: set[str] = set()

    # -- planning ---------------------------------------------------------------

    def plan(self, sql: str) -> PhysicalPlan:
        """Parse + optimize one SQL statement into a physical plan.

        The database's :class:`~repro.storage.database.OptimizationLevel`
        decides which index rewrites apply.
        """
        with span("plan"):
            plan = sql_to_plan(sql, self.db)
            return optimize_for_level(plan, self.db, self.db.catalog)

    # -- resolution: which cache entry a statement uses --------------------------

    def resolve(
        self, sql: str, params: Optional[Bindings] = None
    ) -> ResolvedStatement:
        """Decide ``sql``'s cache key and bindings, without planning it.

        Explicit placeholders resolve to the shape key with the caller's
        ``params`` as bindings.  An eligible literal statement
        auto-parameterizes (its own literals become the bindings) unless
        its shape previously failed with ``E_PARAM``; that statement, and
        any with nothing to lift, resolves to its normalized literal text
        with no parameters.
        """
        shape = statement_shape(sql)
        if shape.explicit:
            return self._shaped(shape, params)
        if params:
            raise ParamError(
                "statement has no parameter placeholders but bindings "
                "were supplied",
                phase="execute",
            )
        if self.auto_parameterize and shape.param_count:
            with self._lock:
                known_bad = shape.text in self._shape_fallbacks
            if not known_bad:
                return self._shaped(shape, shape.values, literal_sql=sql)
        return self._literal(sql, shape)

    def resolve_plan(
        self, plan: PhysicalPlan, key: Optional[str] = None
    ) -> ResolvedStatement:
        """A hand-built plan as a statement, cached under ``plan:<key>``.

        The caller owns the key contract: one key must always name one
        plan shape.  Without a key the statement is not cacheable.
        """
        return ResolvedStatement(
            self, None if key is None else f"plan:{key}", _plan=plan
        )

    def _shaped(
        self,
        shape: StatementShape,
        bindings: Optional[Bindings] = None,
        literal_sql: Optional[str] = None,
    ) -> ResolvedStatement:
        return ResolvedStatement(
            self, f"shape:{shape.text}", shape.text, bindings, literal_sql
        )

    def _literal(
        self, sql: str, shape: Optional[StatementShape] = None
    ) -> ResolvedStatement:
        # With nothing lifted, the shape text is the normalized text.
        lifted = shape is None or shape.parameterized
        text = normalize_statement(sql) if lifted else shape.text
        return ResolvedStatement(self, text, text)

    def apply(
        self, stmt: ResolvedStatement, fn: Callable[[ResolvedStatement], T]
    ) -> T:
        """``fn(stmt)``, falling back to per-literal on a failed shape.

        When the session lifted ``stmt``'s literals and ``fn`` fails with
        ``E_PARAM`` (the shape does not plan, type or bind), the shape is
        remembered as bad and ``fn`` runs again on the per-literal
        statement -- results are identical either way.  Any other
        statement's ``E_PARAM`` propagates.
        """
        try:
            return fn(stmt)
        except ParamError:
            if stmt.literal_sql is None:
                raise
            with self._lock:
                self._shape_fallbacks.add(stmt.sql)
        return fn(self._literal(stmt.literal_sql))

    # -- the compile cache ------------------------------------------------------

    def _key(self, stmt: ResolvedStatement, config: Optional[Config]) -> tuple:
        """Everything a compiled query was specialized against.

        The residual program bakes in dictionary layouts, index choices,
        budget checkpoints and instrumentation, so the ``Config`` (a
        frozen, hashable dataclass) is part of the key; the database
        contributes its identity, so rebinding ``session.db`` misses.
        """
        return (stmt.key, self.config if config is None else config, id(self.db))

    def _count(self, name: str, shaped: bool = False) -> None:
        """Bump one cache counter and its REGISTRY mirror (lock held);
        a shape-keyed hit or miss also bumps its ``shape_`` twin."""
        for counter in (name, f"shape_{name}") if shaped else (name,):
            self._counts[counter] += 1
            REGISTRY.counter(f"session.cache.{counter}")

    def compile(
        self, stmt: ResolvedStatement, config: Optional[Config] = None
    ) -> CompiledQuery:
        """The compiled query for ``stmt`` under ``config``, cached.

        ``config`` overrides the session config for this build (the
        resilience layer caches budget-checked, instrumented and vector
        builds under their own keys); None means the session config.
        LRU semantics: a hit refreshes the entry's recency; inserting past
        ``max_cache_size`` evicts the least recently used entry.
        Concurrent misses on one key compile once (single-flight).
        """
        key = self._key(stmt, config)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._count("hits", stmt.parameterized)
                return cached
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _Inflight()
                self._count("misses", stmt.parameterized)
        if not leader:
            flight.event.wait()
            with self._lock:
                self._count("single_flight_waits")
            if flight.error is not None:
                # Each waiter raises its own shallow copy: exception
                # instances carry mutable state (tracebacks, engine
                # trails) that must not be shared across threads.
                raise copy.copy(flight.error)
            assert flight.result is not None
            return flight.result
        # This thread owns the compile; run it outside the lock.
        t0 = time.perf_counter()
        try:
            with span("compile", statement=stmt.key):
                compiled = LB2Compiler(self.db.catalog, self.db, key[1]).compile(
                    stmt.plan
                )
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        # Exactly one compile event / telemetry sample per actual
        # compilation: waiters and cache hits never reach this point.
        # The ambient request context (serve worker threads) supplies
        # the request id; the shape falls back to the cache key's
        # statement text for library callers.
        shape = events.current_shape() or stmt.key
        seconds = time.perf_counter() - t0
        events.emit(
            "compile",
            shape=shape,
            seconds=round(seconds, 6),
            generation_seconds=round(compiled.generation_seconds, 6),
            host_seconds=round(compiled.compile_seconds, 6),
        )
        TELEMETRY.record_compile(
            shape,
            seconds,
            generation_seconds=compiled.generation_seconds,
            host_seconds=compiled.compile_seconds,
        )
        with self._lock:
            self._cache[key] = compiled
            while len(self._cache) > self.max_cache_size:
                self._cache.popitem(last=False)
                self._count("evictions")
            self._inflight.pop(key, None)
        flight.result = compiled
        flight.event.set()
        return compiled

    def evict(
        self, stmt: ResolvedStatement, *, config: Optional[Config] = None
    ) -> bool:
        """Drop ``stmt``'s compiled query under ``config``; True when it
        was cached."""
        with self._lock:
            return self._cache.pop(self._key(stmt, config), None) is not None

    # -- thin callers ------------------------------------------------------------

    def prepare(
        self, sql: str, *, config: Optional[Config] = None
    ) -> CompiledQuery:
        """The compiled query for ``sql`` exactly as written (no literal
        lifting), cached under its normalized text + ``config``."""
        return self.compile(self._literal(sql), config)

    def prepare_plan(
        self, plan: PhysicalPlan, key: str, *, config: Optional[Config] = None
    ) -> CompiledQuery:
        """Compile-and-cache a hand-built plan under an explicit ``key``.

        The SQL cache amortizes compilation for front-end statements; this
        is the same economics for callers that build
        :class:`~repro.plan.physical.PhysicalPlan` trees directly (the
        TPC-H plan-only queries served by :mod:`repro.serve`).  The caller
        owns the key contract: one key must always name one plan shape.
        """
        return self.compile(self.resolve_plan(plan, key), config)

    def prepare_statement(
        self, sql: str, *, config: Optional[Config] = None
    ) -> PreparedStatement:
        """Prepare ``sql`` once; execute it many times with bindings.

        A statement with explicit placeholders (``?`` positional or
        ``:name`` named) compiles to one shape-keyed residual program that
        closes over the runtime parameter vector;
        :meth:`PreparedStatement.execute` supplies the bindings.  A
        statement without placeholders prepares exactly as written (no
        auto-parameterization -- the user drew the line themselves) and
        executes with no bindings.
        """
        shape = statement_shape(sql)
        stmt = self._shaped(shape) if shape.explicit else self._literal(sql, shape)
        return PreparedStatement(self, stmt.sql, self.compile(stmt, config))

    # -- execution -----------------------------------------------------------------

    def query(
        self, sql: str, params: Optional[Bindings] = None
    ) -> list[tuple]:
        """Execute SQL (compiled); returns result rows.

        With explicit placeholders in ``sql``, ``params`` supplies the
        bindings (sequence for ``?``, mapping or first-occurrence-ordered
        sequence for ``:name``) and the compiled shape is shared across
        bindings.  Without placeholders, eligible literals are
        auto-parameterized: statements differing only in those literal
        values share one compiled residual program, keyed by shape.  If
        the shape cannot be parameterized (``E_PARAM`` anywhere on the
        shape path), the statement transparently falls back to a
        per-literal compile -- results are identical either way.
        """
        return self.apply(self.resolve(sql, params), self._run)

    def _run(self, stmt: ResolvedStatement) -> list[tuple]:
        compiled = self.compile(stmt)
        with span("execute", engine="compiled"):
            return compiled.run(self.db, stmt.bindings)

    def execute_plan(self, plan: PhysicalPlan) -> list[tuple]:
        """Execute a hand-built physical plan (compiled, uncached)."""
        compiler = LB2Compiler(self.db.catalog, self.db, self.config)
        return compiler.compile(plan).run(self.db)

    def analyze(self, sql: str) -> tuple[list[tuple], dict[str, int]]:
        """Execute with per-operator row counters (EXPLAIN ANALYZE).

        Returns ``(rows, stats)`` where stats maps operator labels to the
        number of records each emitted.  Compiles a fresh instrumented
        query (not cached -- counters cost a little on the hot path).
        For the full annotated tree -- wall-time, selectivity, kernel
        counts, any engine -- use :meth:`explain_analyze`.
        """
        compiler = LB2Compiler(
            self.db.catalog, self.db, replace(self.config, instrument=True)
        )
        compiled = compiler.compile(self.plan(sql))
        rows = compiled.run(self.db)
        return rows, dict(compiled.last_stats or {})

    def explain_analyze(self, sql: str, engine: str = "compiled"):
        """The annotated operator tree: rows, wall-time, selectivity.

        ``engine`` is ``"compiled"`` (scalar codegen), ``"vector"``,
        ``"push"`` or ``"volcano"``; all four label operators identically,
        so their numbers are directly comparable.  Returns an
        :class:`repro.obs.explain.ExplainAnalyze`.
        """
        from repro.obs.explain import explain_analyze_plan

        with span("explain_analyze", engine=engine):
            return explain_analyze_plan(
                self.db, self.plan(sql), engine=engine, config=self.config
            )

    # -- introspection -----------------------------------------------------------------

    def explain(self, sql: str) -> str:
        """The optimized physical plan for ``sql``, pretty-printed."""
        return explain(self.plan(sql), self.db.catalog)

    def generated_code(self, sql: str) -> str:
        """The residual Python program for ``sql``."""
        return self.prepare(sql).source

    @property
    def cached_statements(self) -> int:
        with self._lock:
            return len(self._cache)

    def cache_info(self) -> dict:
        """Size, bound, keys (LRU -> MRU order) and hit/miss/evict counts."""
        with self._lock:
            return {
                "size": len(self._cache),
                "max_size": self.max_cache_size,
                **{name: self._counts[name] for name in _COUNTERS},
                "statements": [key[0] for key in self._cache],
            }

    def clear_cache(self) -> None:
        """Drop every cached compiled query, parameterized or not, and
        reset the shape-fallback memo so previously unparameterizable
        statements get a fresh chance after whatever changed."""
        with self._lock:
            self._cache.clear()
            self._shape_fallbacks.clear()

    def forget(self, sql: str, *, config: Optional[Config] = None) -> bool:
        """Evict one statement's compiled queries; True when any was cached.

        ``config`` selects which specialization to evict (the same default
        as :meth:`compile`: the session config).

        Parameterized-statement contract: a statement maps to up to two
        cache entries -- the per-literal compile (its normalized text, the
        :meth:`prepare` key) and the shape-keyed compile shared with every
        literal variant (the key :meth:`resolve` gives it, which
        :meth:`query`, :meth:`prepare_statement` and the resilience
        layer compile under).  ``forget`` evicts both, and clears the
        statement's shape-fallback memo, so the next execution recompiles
        from scratch no matter which path cached it.  Note the shape entry
        is shared: forgetting one literal variant forgets the compile for
        all of them.
        """
        shape = statement_shape(sql)
        dropped = self.evict(self._literal(sql), config=config)
        if shape.parameterized:
            dropped = self.evict(self._shaped(shape), config=config) or dropped
            with self._lock:
                self._shape_fallbacks.discard(shape.text)
        return dropped
