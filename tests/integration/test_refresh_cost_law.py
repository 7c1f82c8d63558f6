"""A refresh costs O(|Δ|), not O(|result|), at every tier.

The paper's case for DRA (Section 4) is that a re-execution costs what
the differential relations cost, not what the result costs. A view's
retained result is the integral of its deltas, moved in place, so a
one-row refresh over a result of 100 000 rows must allocate within a
small constant of the same refresh over 1 000 rows. Counted in bytes
(``tracemalloc``'s peak over the refresh), not in wall time, so the law
is deterministic; a ``dict`` copy is one C call, which counted Python
calls would not see.

In COMPLETE delivery the notification hands user code a snapshot of
the whole result: there the law is one result copy per delivered
notification and nothing else that grows with the result.
"""

import tempfile
import tracemalloc

from repro import Database
from repro.cluster import ClusterRouter, LocalBackend
from repro.core import CQManager, DeliveryMode, EvaluationStrategy
from repro.core.results import NotificationKind
from repro.metrics import Metrics
from repro.net import CQServer, Protocol, SimulatedNetwork
from repro.net.messages import DeltaMessage, RegisterMessage
from repro.relational import AttributeType

SMALL, LARGE = 1_000, 100_000
#: Every row qualifies: the result is as large as the table.
SQL = "SELECT k, v FROM t WHERE v >= 0"
#: Allocator noise and per-refresh bookkeeping that no result size moves.
SLACK = 64 * 1024


def peak_bytes(refresh):
    """``(peak bytes allocated during refresh(), what it returned)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = refresh()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def fill(table, rows):
    table.insert_many([(k, k % 97) for k in range(rows)])


def one_row_refreshes(table, refresh):
    """A warm-up refresh, then the measured one, each after a commit
    that modifies one row of the result."""
    table.modify(1, (0, 500))
    refresh()
    table.modify(1, (0, 501))
    return peak_bytes(refresh)


def manager(rows, mode):
    db = Database()
    table = db.create_table(
        "t", [("k", AttributeType.INT), ("v", AttributeType.INT)], indexes=[("k",)]
    )
    fill(table, rows)
    mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC, metrics=Metrics())
    for name in ("a", "b"):  # two members of one view, keeping the result
        mgr.register_sql(name, SQL, mode=mode, keep_result=True)
    mgr.drain()
    spent, notes = one_row_refreshes(table, mgr.poll)
    assert [n.kind for n in notes] == [NotificationKind.REFRESH] * 2
    assert mgr.get("a").previous_result == db.query(SQL)
    mgr.check_invariants()
    return spent, mgr.get("a").previous_result


def test_a_manager_refresh_costs_the_delta():
    small, __ = manager(SMALL, DeliveryMode.DIFFERENTIAL)
    large, __ = manager(LARGE, DeliveryMode.DIFFERENTIAL)
    assert large <= 2 * small + SLACK, (small, large)


def test_a_complete_manager_refresh_costs_one_copy_per_notification():
    small, __ = manager(SMALL, DeliveryMode.COMPLETE)
    large, result = manager(LARGE, DeliveryMode.COMPLETE)
    copy, __ = peak_bytes(result.copy)
    assert large <= 2 * copy + 2 * small + SLACK, (small, large, copy)


class Recorder:
    """A client endpoint that keeps the frames it is sent and applies
    none of them (the client cache's own copy is not the server's)."""

    def __init__(self, name):
        self.name = name
        self.server = None
        self.frames = []

    def receive(self, message):
        self.frames.append(message)


def server(rows):
    db = Database()
    table = db.create_table(
        "t", [("k", AttributeType.INT), ("v", AttributeType.INT)], indexes=[("k",)]
    )
    fill(table, rows)
    srv = CQServer(db, SimulatedNetwork())
    client = Recorder("c")
    srv.attach(client)
    for name in ("a", "b"):
        register = RegisterMessage(name, SQL, Protocol.DRA_DELTA.value)
        srv.handle_register("c", register)
    spent, reached = one_row_refreshes(table, srv.refresh_all)
    assert reached == 2 and isinstance(client.frames[-1], DeltaMessage)
    view = srv._views[srv.subscriptions()[0].sql_key]
    assert view.digest is not None and view.result == db.query(SQL)
    srv.check_invariants()
    return spent


def test_a_server_refresh_costs_the_delta():
    """DRA_DELTA members of one view, its running digest folded over
    the moved result."""
    small, large = server(SMALL), server(LARGE)
    assert large <= 2 * small + SLACK, (small, large)


def router(rows):
    with tempfile.TemporaryDirectory() as wal_root:
        router = ClusterRouter(
            shards=2, replicas=0, backend=LocalBackend(wal_root=wal_root), seed=1
        )
        router.declare_table(
            "t", [("k", int), ("v", int)], partition_key="k", indexes=[("k",)]
        )
        router.start()
        try:
            table = router.db.table("t")
            fill(table, rows)
            seen = []
            router.subscribe("c", "q", SQL, on_delta=lambda *note: seen.append(note))
            router.refresh()
            spent, notified = one_row_refreshes(table, router.refresh)
            assert notified == 1 and len(seen) == 2
            assert router.result("c", "q") == router.db.query(SQL)
            router.check_invariants()
            return spent
        finally:
            router.close()


def test_a_router_refresh_costs_the_delta():
    """Two ``LocalBackend`` shards, no replicas, the table partitioned:
    the router merges the stores' parts into its view's result."""
    small, large = router(SMALL), router(LARGE)
    assert large <= 2 * small + SLACK, (small, large)
