"""Template families at the manager: one execution per query shape.

Indexed SPJ views whose texts differ only in one alias's local
predicate form a family (``core/scheduler.py`` ``Family``). A routed
window in which only that alias's table changed runs one execution for
the whole family, and each member receives its own delta. Every other
read — a family of one, an unrouted cohort, a quarantined member, a
window that touched another table — runs the member's own execution.
"""

import pytest

from repro.core import CQManager, EvaluationStrategy
from repro.core.scheduler import query_shape
from repro.metrics import Metrics
from repro.relational import AttributeType
from repro.relational.sql import parse_query


def make_manager(db):
    return CQManager(db, strategy=EvaluationStrategy.PERIODIC, metrics=Metrics())


@pytest.fixture
def tables(db):
    a = db.create_table("a", [("k", AttributeType.INT), ("v", AttributeType.INT)])
    b = db.create_table("b", [("k", AttributeType.INT), ("v", AttributeType.INT)])
    a.insert_many([(k, k * 10) for k in range(10)])
    b.insert_many([(k, k) for k in range(10)])
    return a, b


def poll_executions(mgr):
    before = mgr.metrics.snapshot()
    mgr.poll()
    return mgr.metrics.diff(before).get(Metrics.EXECUTIONS, 0)


def assert_current(mgr, db):
    for cq in mgr.active():
        assert cq.previous_result == db.query(cq.query), cq.name


def register(mgr, texts):
    for i, sql in enumerate(texts):
        mgr.register_sql(f"q{i}", sql)
    mgr.drain()


def family_of(mgr, name):
    return mgr._views[mgr.get(name).sql_key].family


#: Four literals of one shape over a, and a view of another shape over
#: a that the tests' commits do not route: its cohort keeps routing.
FAMILY = [
    "SELECT k FROM a WHERE k = 1",
    "SELECT k FROM a WHERE k = 2",
    "SELECT k FROM a WHERE v >= 0 AND v < 25",
    "SELECT k FROM a WHERE v > 80 OR k = 3",
]
ASIDE = "SELECT k, v FROM a WHERE k = 9"


class TestShape:
    def test_literals_of_one_local_share_a_shape(self, db, tables):
        schemas = (db.table("a").schema,)
        keys = {query_shape(parse_query(sql), schemas)[0] for sql in FAMILY}
        assert keys == {("SELECT k FROM a", "a")}

    def test_the_parameter_alias_is_the_first_with_a_local(self, db, tables):
        schemas = (db.table("a").schema, db.table("b").schema)
        sql = "SELECT a.k, b.v FROM a, b WHERE a.k = b.k AND 1 = 1 AND b.v > 3"
        (text, alias), shape = query_shape(parse_query(sql), schemas)
        assert alias == "b"
        assert text == "SELECT a.k, b.v FROM a, b WHERE a.k = b.k AND 1 = 1"
        assert shape == parse_query(text)

    def test_no_local_or_a_repeated_table_has_no_shape(self, db, tables):
        a, b = db.table("a").schema, db.table("b").schema
        assert query_shape(parse_query("SELECT k FROM a"), (a,)) is None
        self_join = "SELECT x.k FROM a AS x, a AS y WHERE x.k = y.v AND x.v = 1"
        assert query_shape(parse_query(self_join), (a, a)) is None

    def test_the_shape_is_memoised_per_text(self, db, tables):
        schemas = (db.table("a").schema,)
        query = parse_query(FAMILY[0])
        assert query_shape(query, schemas) is query_shape(query, schemas)


class TestOneExecutionPerShape:
    def test_a_routed_family_runs_one_execution_per_window(self, db, tables):
        a, __ = tables
        mgr = make_manager(db)
        register(mgr, FAMILY + [ASIDE])
        assert len(mgr._families) == 2
        assert len(family_of(mgr, "q0").members) == 4
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 85))  # k 1 -> 1, v 10 -> 85
            txn.modify_in(a, 3, values=(2, 5))  # v 20 -> 5
        assert poll_executions(mgr) == 1
        assert_current(mgr, db)

    def test_a_member_moved_across_gets_a_delete_and_the_other_an_insert(
        self, db, tables
    ):
        """The projection drops ``v``: the old side routes to one member,
        the new side to another, and both project the row ``(k,)``."""
        a, __ = tables
        mgr = make_manager(db)
        register(mgr, FAMILY[2:] + [ASIDE])
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 90))  # v 10 -> 90: q0 -> q1
        before = mgr.metrics.snapshot()
        notes = {n.cq_name: n for n in mgr.poll()}
        assert mgr.metrics.diff(before)[Metrics.EXECUTIONS] == 1
        assert [(e.old, e.new) for e in notes["q0"].delta] == [((1,), None)]
        assert [(e.old, e.new) for e in notes["q1"].delta] == [(None, (1,))]
        assert_current(mgr, db)

    def test_a_family_of_one_runs_its_own_execution(self, db, tables):
        a, __ = tables
        mgr = make_manager(db)
        register(mgr, [FAMILY[0], "SELECT v FROM a WHERE k = 2", ASIDE])
        assert all(len(f.members) == 1 for f in mgr._families.values())
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 11))
            txn.modify_in(a, 3, values=(2, 21))
        assert poll_executions(mgr) == 2
        assert_current(mgr, db)

    def test_an_unrouted_cohort_runs_one_execution_per_key(self, db, tables):
        """A sweep that routes every lazy member stops routing, and its
        reads are unrouted: each member executes on its own."""
        a, __ = tables
        mgr = make_manager(db)
        register(mgr, FAMILY[:2])
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 11))
            txn.modify_in(a, 3, values=(2, 21))
        assert poll_executions(mgr) == 2
        assert not mgr._cohorts[("a",)].routing
        assert_current(mgr, db)

    def test_a_quarantined_member_runs_its_own_execution(self, db, tables):
        a, __ = tables
        mgr = make_manager(db)
        register(mgr, FAMILY + [ASIDE])
        key = mgr.get("q0").sql_key
        mgr.index._quarantine(key, keep_table="")
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 11))  # q0's, q2's
            txn.modify_in(a, 3, values=(2, 21))  # q1's, q2's
        # q1 and q2 share one; q0 reads unrouted and runs its own.
        assert poll_executions(mgr) == 2
        assert_current(mgr, db)

    def test_a_window_touching_another_table_runs_one_execution_per_key(
        self, db, tables
    ):
        a, b = tables
        mgr = make_manager(db)
        texts = [
            f"SELECT a.k, b.v FROM a, b WHERE a.k = b.k AND a.v = {v}"
            for v in (10, 20, 30)
        ]
        aside = "SELECT a.k, b.v FROM a, b WHERE a.k = b.k AND a.v = 999 AND b.v = 999"
        register(mgr, texts + [aside])
        family = family_of(mgr, "q0")
        assert family.key[1] == "a" and len(family.members) == 3
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 20))  # q0 -> q1
            # b has no local predicate: its sides route to every member.
            txn.modify_in(b, 5, values=(4, 44))
        assert poll_executions(mgr) == 3
        assert_current(mgr, db)
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 30))  # q1 -> q2
        assert poll_executions(mgr) == 1
        assert_current(mgr, db)


class TestLifecycle:
    def test_the_last_member_takes_the_family_and_its_plan(self, db, tables):
        a, __ = tables
        mgr = make_manager(db)
        register(mgr, FAMILY + [ASIDE])
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 11))
        mgr.poll()
        assert "SELECT k FROM a" in mgr.plans
        family = family_of(mgr, "q0")
        for i in range(len(FAMILY)):
            mgr.deregister(f"q{i}")
        assert family.key not in mgr._families
        assert "SELECT k FROM a" not in mgr.plans
        assert len(mgr.plans) == 1

    def test_a_live_view_keeps_the_plan_its_text_shares_with_a_shape(
        self, db, tables
    ):
        a, __ = tables
        mgr = make_manager(db)
        register(mgr, FAMILY[:2] + ["SELECT k FROM a", ASIDE])
        with db.begin() as txn:
            txn.modify_in(a, 2, values=(1, 11))
            txn.modify_in(a, 3, values=(2, 21))
        mgr.poll()
        family = family_of(mgr, "q0")
        mgr.deregister("q0")
        mgr.deregister("q1")
        assert family.key not in mgr._families
        assert "SELECT k FROM a" in mgr.plans
        assert_current(mgr, db)

    def test_aggregates_and_reevaluated_texts_join_no_family(self, db, tables):
        from repro.core import Engine

        mgr = make_manager(db)
        mgr.register_sql("sum", "SELECT SUM(v) AS s FROM a WHERE k = 1")
        mgr.register_sql("re", FAMILY[0], engine=Engine.REEVALUATE)
        mgr.register_sql("dra", FAMILY[1])
        (family,) = mgr._families.values()
        assert list(family.members) == [mgr.get("dra").sql_key]
