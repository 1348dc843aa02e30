"""Tests for the top-level API (repro.execute) and the Session facade."""

import pytest

import repro
from repro.session import Session
from repro.plan import Agg, Scan, col, count
from tests.conftest import count_calls, normalize


# -- repro.execute ------------------------------------------------------------------


def test_execute_sql_default_engine(tiny_db):
    rows = repro.execute("select count(*) from Emp", tiny_db)
    assert rows == [(6,)]


def test_execute_plan_object(tiny_db):
    plan = Agg(Scan("Emp"), [], [("n", count())])
    assert repro.execute(plan, tiny_db) == [(6,)]


@pytest.mark.parametrize("engine", ("lb2", "push", "volcano", "template"))
def test_execute_all_engines_agree(tiny_db, engine):
    rows = repro.execute(
        "select sdep, sum(amount) t from Sales group by sdep order by t desc",
        tiny_db,
        engine=engine,
    )
    assert rows[0][0] == "CS"


def test_execute_rejects_bad_engine(tiny_db):
    with pytest.raises(ValueError, match="unknown engine"):
        repro.execute("select count(*) from Emp", tiny_db, engine="spark")


def test_execute_rejects_bad_query_type(tiny_db):
    with pytest.raises(TypeError):
        repro.execute(42, tiny_db)


def test_compile_plan_helper(tiny_db):
    compiled = repro.compile_plan(Scan("Dep"), tiny_db)
    assert len(compiled.run(tiny_db)) == 4


# -- Session -----------------------------------------------------------------------


def test_session_query(tiny_db):
    session = Session(tiny_db)
    rows = session.query("select dname from Dep where rank < 10 order by dname")
    assert [r[0] for r in rows] == ["BIO", "CS", "EE"]


def test_session_caches_compiled_statements(tiny_db):
    session = Session(tiny_db)
    sql = "select count(*) from Emp"
    first = session.prepare(sql)
    second = session.prepare("select  count(*)   from Emp")  # whitespace differs
    assert first is second
    assert session.cached_statements == 1
    session.clear_cache()
    assert session.cached_statements == 0


def test_session_repeated_queries_same_result(tiny_db):
    session = Session(tiny_db)
    sql = "select sdep, count(*) n from Sales group by sdep"
    assert normalize(session.query(sql)) == normalize(session.query(sql))


def test_session_explain(tiny_db):
    session = Session(tiny_db)
    text = session.explain("select dname from Dep where rank < 10")
    assert "Scan Dep" in text and "rank < 10" in text


def test_session_generated_code(tiny_db):
    session = Session(tiny_db)
    code = session.generated_code("select count(*) from Emp")
    assert "def query(db, out):" in code


def test_session_uses_index_rewrites_when_available(tiny_db_full):
    session = Session(tiny_db_full)
    text = session.explain(
        "select eid from Emp, Dep where edname = dname and rank < 10"
    )
    assert "IndexJoin" in text
    rows = session.query(
        "select eid from Emp, Dep where edname = dname and rank < 10"
    )
    assert len(rows) == 5  # CS x3, EE x1, BIO x1


@pytest.mark.parametrize(
    "sql",
    (
        "select count(*) from Sales where amount > 20.0",  # shape-keyed
        "select count(*) from Emp",  # nothing to lift: literal-keyed
    ),
)
def test_warm_query_is_one_lookup_and_no_planning(tiny_db, monkeypatch, sql):
    """The warm hit path: one cache lookup, no parse, no plan."""
    import repro.session as session_module

    session = Session(tiny_db)
    expected = session.query(sql)
    plans = count_calls(monkeypatch, session_module, "sql_to_plan")
    before = session.cache_info()
    assert session.query(sql) == expected
    after = session.cache_info()
    assert plans == []
    lookups = sum(
        after[k] - before[k] for k in ("hits", "misses", "single_flight_waits")
    )
    assert lookups == 1 and after["hits"] == before["hits"] + 1


def test_session_execute_plan(tiny_db):
    session = Session(tiny_db)
    rows = session.execute_plan(Agg(Scan("Emp"), [], [("n", count())]))
    assert rows == [(6,)]


def test_session_tpch(tpch_db):
    session = Session(tpch_db)
    rows = session.query(
        "select l_returnflag, count(*) n from lineitem group by l_returnflag "
        "order by l_returnflag"
    )
    assert [r[0] for r in rows] == ["A", "N", "R"]
