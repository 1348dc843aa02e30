"""The three workloads: how each sets up, issues its ops and checks them.

Every workload issues whole passes over the 22 TPC-H statements, each
pass in an order drawn from the seed, in a closed loop: a caller issues
its next op only when the previous one has completed.  Only whole passes
run, so every run weighs every statement equally.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from perfbench.metrics import STATEMENTS
from perfbench.reference import normalize
from perfbench.spans import Recorder


def passes(workload: str, seed: int, phase: int = 0, client: int = 0
           ) -> Iterator[List[int]]:
    """Endless statement orders, one permutation of the 22 per pass."""
    rng = random.Random(f"{workload}:{seed}:{phase}:{client}")
    while True:
        order = list(STATEMENTS)
        rng.shuffle(order)
        yield order


def statement_of(rid: str) -> int:
    """The statement number a request id ends with (``...-q07`` -> 7)."""
    return int(rid.rsplit("-q", 1)[1])


@dataclass
class Op:
    q: int
    seconds: float
    ok: bool
    error: str = ""


@dataclass
class Measured:
    ops: List[Op] = field(default_factory=list)
    wall: float = 0.0
    hits: int = 0
    misses: int = 0
    waits: int = 0
    fallbacks: int = 0

    def add_cache(self, before: dict, after: dict) -> None:
        self.hits += after["hits"] - before["hits"]
        self.misses += after["misses"] - before["misses"]
        self.waits += after["single_flight_waits"] - before["single_flight_waits"]


def closed_loop(
    orders: Iterator[List[int]],
    seconds: float,
    begin_pass: Callable[[], Callable[[int, str], bool]],
    rec: Optional[Recorder],
    tag: str,
) -> List[Op]:
    """Whole passes, at least one, until ``seconds`` have gone by;
    ``begin_pass`` returns the op function for one pass, which runs
    statement ``q`` as request ``rid`` and says whether its answer was
    right."""
    ops: List[Op] = []
    start = time.perf_counter()
    n = 0
    while not ops or time.perf_counter() - start < seconds:
        run_op = begin_pass()
        for q in next(orders):
            rid = f"{tag}-{n}-q{q:02d}"
            n += 1
            t0 = time.perf_counter()
            try:
                with rec.span("op", rid) if rec is not None else nullcontext():
                    ok = run_op(q, rid)
                error = "" if ok else f"q{q}: wrong answer"
            except Exception as exc:  # a failed op is counted, not fatal
                ok = False
                error = f"q{q}: {type(exc).__name__}: {exc}"
            ops.append(Op(q, time.perf_counter() - t0, ok, error))
    return ops


class Workload:
    """Loads SF ``scale`` TPC-H at the COMPLIANT level; checks answers
    against ``answers`` (statement -> normalized volcano rows)."""

    name = ""

    def __init__(self, scale: float, answers: Dict[int, tuple]) -> None:
        self.scale = scale
        self.answers = answers

    def load(self) -> None:
        from repro.storage.database import OptimizationLevel
        from repro.tpch import dbgen
        from repro.tpch.queries import query_plan
        from repro.tpch.sql_queries import SQL_QUERIES

        self.sql = SQL_QUERIES
        tables = dbgen.generate_tables(self.scale)
        self.db = dbgen.generate_database(
            self.scale, level=OptimizationLevel.COMPLIANT, tables=tables
        )
        self.plans = {
            q: query_plan(q, scale=self.scale)
            for q in STATEMENTS if q not in SQL_QUERIES
        }

    def right(self, q: int, rows) -> bool:
        return normalize(rows) == self.answers[q]

    def teardown(self) -> None:
        pass


class Analytics(Workload):
    name = "analytics"

    def setup(self) -> None:
        from repro.session import Session

        self.load()
        self.session = Session(self.db)
        self.warm = {q: self.execute(q) for q in STATEMENTS}

    def execute(self, q: int) -> list:
        if q in self.sql:
            return self.session.query(self.sql[q])
        return self.session.prepare_plan(self.plans[q], f"tpch:{q}").run(self.db)

    def warm_failures(self) -> List[int]:
        return [q for q, rows in self.warm.items() if not self.right(q, rows)]

    def measure(self, seed: int, phase: int, seconds: float,
                rec: Optional[Recorder]) -> Measured:
        out = Measured()
        before = self.session.cache_info()

        def run_op(q: int, rid: str) -> bool:
            return self.right(q, self.execute(q))

        start = time.perf_counter()
        out.ops = closed_loop(passes(self.name, seed, phase), seconds,
                              lambda: run_op, rec, f"p{phase}c0")
        out.wall = time.perf_counter() - start
        out.add_cache(before, self.session.cache_info())
        return out


class Adhoc(Workload):
    name = "adhoc"

    def setup(self) -> None:
        from repro.session import Session

        self.load()
        session = Session(self.db)
        self.warm = {q: self.prepare(session, q) for q in STATEMENTS}

    def prepare(self, session, q: int):
        if q in self.sql:
            return session.prepare_statement(self.sql[q])
        return session.prepare_plan(self.plans[q], f"tpch:{q}")

    def warm_failures(self) -> List[int]:
        """Executes the warm pass's statements; later passes must compile
        to the same residual source."""
        failed = []
        self.sources = {}
        for q, prepared in self.warm.items():
            if q in self.sql:
                rows = prepared.execute()
            else:
                rows = prepared.run(self.db)
            self.sources[q] = prepared.source
            if not self.right(q, rows):
                failed.append(q)
        return failed

    def measure(self, seed: int, phase: int, seconds: float,
                rec: Optional[Recorder]) -> Measured:
        from repro.session import Session

        out = Measured()
        session = None

        def begin_pass():
            nonlocal session
            if session is not None:
                out.add_cache(_ZERO_CACHE, session.cache_info())
            session = fresh = Session(self.db)

            def run_op(q: int, rid: str) -> bool:
                return self.prepare(fresh, q).source == self.sources[q]

            return run_op

        start = time.perf_counter()
        out.ops = closed_loop(passes(self.name, seed, phase), seconds,
                              begin_pass, rec, f"p{phase}c0")
        out.wall = time.perf_counter() - start
        out.add_cache(_ZERO_CACHE, session.cache_info())
        return out


_ZERO_CACHE = {"hits": 0, "misses": 0, "single_flight_waits": 0}

CLIENTS = 2


class Serve(Workload):
    name = "serve"

    def setup(self) -> None:
        from repro.obs.telemetry import TELEMETRY
        from repro.serve import QueryServer, QueryService, ServiceClient
        from repro.serve.service import ServiceConfig
        from repro.session import Session

        self.load()
        TELEMETRY.enable()
        TELEMETRY.reset()
        self.service = QueryService(
            Session(self.db),
            ServiceConfig(workers=2, telemetry=True, sampling=True,
                          query_scale=self.scale),
        )
        self.server = QueryServer(self.service).start()
        host, port = self.server.address
        self.clients = [ServiceClient(host, port) for _ in range(CLIENTS)]
        self.first_engine = self.service.config.engines[0]
        self.warm = {
            q: self.request(self.clients[0], q, f"w-q{q:02d}")
            for q in STATEMENTS
        }

    def request(self, client, q: int, rid: str) -> dict:
        digest = hashlib.sha256(rid.encode()).hexdigest()
        doc = {"tenant": "bench", "id": rid, "request_id": rid,
               "traceparent": f"00-{digest[:32]}-{digest[32:48]}-01"}
        if q in self.sql:
            doc["sql"] = self.sql[q]
        else:
            doc["tpch"] = q
        return client.request(doc)

    def reply_right(self, q: int, reply: dict) -> bool:
        if not reply.get("ok"):
            error = reply.get("error") or {}
            raise RuntimeError(f"{error.get('code')}: {error.get('message')}")
        return self.right(q, reply["rows"])

    def warm_failures(self) -> List[int]:
        return [q for q, r in self.warm.items()
                if not (r.get("ok") and self.right(q, r["rows"]))]

    def measure(self, seed: int, phase: int, seconds: float,
                rec: Optional[Recorder]) -> Measured:
        out = Measured()
        session = self.service.session
        before = session.cache_info()
        results: List[List[Op]] = [[] for _ in self.clients]
        fallbacks = [0] * len(self.clients)

        def client_loop(c: int) -> None:
            client = self.clients[c]

            def run_op(q: int, rid: str) -> bool:
                reply = self.request(client, q, rid)
                if reply.get("ok") and reply.get("engine") != self.first_engine:
                    fallbacks[c] += 1
                return self.reply_right(q, reply)

            results[c] = closed_loop(passes(self.name, seed, phase, c),
                                     seconds, lambda: run_op, rec,
                                     f"p{phase}c{c}")

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"bench-c{c}")
            for c in range(len(self.clients))
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out.wall = time.perf_counter() - start
        out.ops = [op for ops in results for op in ops]
        out.fallbacks = sum(fallbacks)
        out.add_cache(before, session.cache_info())
        return out

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.server.close()


WORKLOADS = {w.name: w for w in (Analytics, Adhoc, Serve)}
