"""``parse_query`` is memoised by SQL text: a standing template is
parsed once, and every registration of it — manager CQ, server
subscription, cluster subscription — shares the one query object. That
is safe because a parsed query is a value (no field of an ``SPJQuery``
or ``AggregateQuery`` is assigned after ``__init__``), so after any
workload the shared object still equals a fresh parse of its text.
"""

import pytest

from repro import Database
from repro.cluster import ClusterRouter, LocalBackend
from repro.core import CQManager, EvaluationStrategy
from repro.errors import SQLSyntaxError, UnsupportedQueryError
from repro.metrics import Metrics
from repro.net.client import CQClient
from repro.net.server import CQServer
from repro.net.simnet import SimulatedNetwork
from repro.relational.sql import parse_query
from repro.relational.sql.parser import PARSE_MEMO_SIZE
from repro.workload.stocks import StockMarket

TEXTS = [
    "SELECT sid, price FROM stocks WHERE price > 500",
    "SELECT sid, name, price FROM stocks WHERE price < 200",
    "SELECT name FROM stocks WHERE price > 300 AND price < 700",
]


def fresh(text):
    return parse_query.__wrapped__(text)


def assert_memo_intact():
    for text in TEXTS:
        memo, parsed = parse_query(text), fresh(text)
        assert memo is not parsed
        assert memo == parsed
        assert memo.to_sql() == parsed.to_sql()


class TestMemo:
    def test_a_text_is_parsed_once(self):
        for text in (*TEXTS, "SELECT COUNT(*) AS n FROM stocks GROUP BY name"):
            first = parse_query(text)
            assert parse_query(text) is first
            assert fresh(text) == first
        assert parse_query(TEXTS[0]) is not parse_query(TEXTS[1])

    @pytest.mark.parametrize(
        "text, error",
        [
            ("SELECT sid FROM WHERE price >", SQLSyntaxError),
            ("SELECT DISTINCT name FROM stocks", UnsupportedQueryError),
        ],
    )
    def test_a_bad_text_raises_on_every_call_and_caches_nothing(self, text, error):
        before = parse_query.cache_info()
        for __ in range(3):
            with pytest.raises(error):
                parse_query(text)
        after = parse_query.cache_info()
        assert after.misses - before.misses == 3
        assert (after.hits, after.currsize) == (before.hits, before.currsize)

    def test_the_memo_is_bounded(self):
        assert parse_query.cache_info().maxsize == PARSE_MEMO_SIZE
        for i in range(PARSE_MEMO_SIZE + 8):
            parse_query(f"SELECT sid FROM stocks WHERE price > {i}")
        assert parse_query.cache_info().currsize == PARSE_MEMO_SIZE


class TestSharedAcrossTiers:
    """Register, refresh and deregister over shared texts at each tier;
    the memo's objects come out equal to a fresh parse, and every result
    equals complete re-evaluation."""

    def test_manager(self):
        db = Database()
        market = StockMarket(db, seed=7)
        market.populate(200)
        mgr = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            metrics=Metrics(),
        )
        live = []
        for cycle in range(12):
            for i in range(3):
                text = TEXTS[(cycle + i) % len(TEXTS)]
                name = f"m{cycle}.{i}"
                mgr.register_sql(name, text)
                live.append((name, text))
            while len(live) > 8:
                mgr.deregister(live.pop(0)[0])
            market.tick(15, p_insert=0.2, p_delete=0.2)
            mgr.poll()
        assert_memo_intact()
        for name, text in live:
            cq = mgr.get(name)
            assert cq.query is parse_query(text)
            assert cq.previous_result == db.query(text)

    def test_server(self):
        db = Database()
        market = StockMarket(db, seed=8)
        market.populate(200)
        server = CQServer(db, SimulatedNetwork(), metrics=Metrics())
        clients = {f"c{i}": CQClient(f"c{i}") for i in range(3)}
        for client in clients.values():
            server.attach(client)
        live = []
        for cycle in range(10):
            for i, (client_id, client) in enumerate(clients.items()):
                text = TEXTS[(cycle + i) % len(TEXTS)]
                name = f"s{cycle}"
                client.register(name, text)
                live.append((client_id, name, text))
            while len(live) > 7:
                client_id, name, __ = live.pop(0)
                server.deregister(client_id, name)
            market.tick(15, p_insert=0.2, p_delete=0.2)
            server.refresh_all()
        assert_memo_intact()
        for client_id, name, text in live:
            assert clients[client_id].result(name) == db.query(text)

    def test_cluster(self, tmp_path):
        router = ClusterRouter(
            shards=3,
            seed=3,
            backend=LocalBackend(wal_root=str(tmp_path)),
            backoff_base=0.0,
        )
        try:
            router.declare_table(
                "stocks",
                [("sid", int), ("name", str), ("price", int)],
                partition_key="name",
            )
            router.start()
            db, table, live = router.db, router.db.table("stocks"), []
            with db.begin() as txn:
                for sid in range(60):
                    txn.insert_into(table, (sid, f"S{sid % 9}", 17 * sid % 900))
            for cycle in range(8):
                for i in range(2):
                    text = TEXTS[(cycle + i) % len(TEXTS)]
                    name = f"r{cycle}.{i}"
                    router.subscribe("c", name, text)
                    live.append((name, text))
                while len(live) > 5:
                    router.unsubscribe("c", live.pop(0)[0])
                with db.begin() as txn:
                    for row in list(table.current)[cycle::7]:
                        price = row.values[2] + 90
                        txn.modify_in(table, row.tid, updates={"price": price})
                router.refresh()
            assert_memo_intact()
            for name, text in live:
                assert router.result("c", name) == db.query(text)
        finally:
            router.close()
