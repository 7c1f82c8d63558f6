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

import cProfile
import gc
import pstats
import tempfile
import tracemalloc

from repro import Database
from repro.cluster import ClusterRouter, ClusterShard, LocalBackend, TableDecl
from repro.core.scheduler import SharedView
from repro.core import CQManager, DeliveryMode, EvaluationStrategy
from repro.core.results import NotificationKind
from repro.core.triggers import Every
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.metrics import Metrics
from repro.net import CQServer, Protocol, SimulatedNetwork
from repro.net.client import CQClient
from repro.net.messages import (
    DeltaMessage,
    RegisterMessage,
    ScatterMessage,
    ShardSyncMessage,
)
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


def lagging_member(rows):
    """An ``Every(4)`` member registered before an ``OnEveryChange``
    rider of the same text, one modified row per poll: ``[(peak bytes
    of a poll, whether the member fired in it)]`` and the result."""
    db = Database()
    table = db.create_table(
        "t", [("k", AttributeType.INT), ("v", AttributeType.INT)], indexes=[("k",)]
    )
    fill(table, rows)
    mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC, metrics=Metrics())
    mgr.register_sql("every", SQL, trigger=Every(4), keep_result=True)
    mgr.register_sql("rider", SQL, keep_result=True)
    mgr.drain()
    polls = []
    for i in range(12):
        table.modify(1, (0, 500 + i))
        spent, notes = peak_bytes(mgr.poll)
        polls.append((spent, "every" in {n.cq_name for n in notes}))
    mgr.check_invariants()
    assert mgr.get("every").held == mgr.get("rider").held == db.query(SQL)
    return polls, mgr.get("rider").held


def test_a_member_catching_up_pays_one_copy_per_changing_execution():
    """The member's turn comes first, behind its view, which the rider
    moves each poll: the view takes over a copy of the member's result
    to move it, and the member moves its own by the same delta."""
    polls, result = lagging_member(LARGE)
    copy, __ = peak_bytes(result.copy)
    fired = [spent for spent, took in polls[2:] if took]
    quiet = [spent for spent, took in polls[2:] if not took]
    assert len(fired) >= 2 and quiet, polls
    assert max(quiet) <= SLACK, quiet
    assert max(fired) <= copy + SLACK, (fired, copy)


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


def client_cache(rows):
    db = Database()
    table = db.create_table(
        "t", [("k", AttributeType.INT), ("v", AttributeType.INT)], indexes=[("k",)]
    )
    fill(table, rows)
    srv = CQServer(db, SimulatedNetwork())
    client = CQClient("c")
    srv.attach(client)
    for name in ("a", "b"):
        client.register(name, SQL)
    spent, reached = one_row_refreshes(table, srv.refresh_all)
    assert reached == 2 and client.stale_deltas == client.digest_mismatches == 0
    assert client.result("a") is client.result("b")
    assert client.result("a") == db.query(SQL)
    return spent


def test_a_client_cache_applies_the_delta():
    """An in-process ``CQClient`` holding two members of one view: the
    frame's part addresses both, and their one cached relation moves."""
    small, large = client_cache(SMALL), client_cache(LARGE)
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


def router_catch_up(rows, lost_commit=True):
    """The router set-up above, its key left behind by a rejoin: the
    peak bytes of the refresh that catches it up after a one-row
    commit, measured without the stores' own GC. With ``lost_commit``
    a row also changes while the group is lost, so the rejoin replays
    a window."""
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
            router.kill_shard(0)
            if lost_commit:
                table.modify(2, (1, 500))
            router.recover_shard(0)
            [key] = router._behind
            table.modify(1, (0, 500))
            spent, __ = peak_bytes(lambda: router.refresh(collect=False))
            assert not router._behind and len(seen) == 1
            assert router.result("c", "q") == router.db.query(SQL)
            router.check_invariants()
            return spent
        finally:
            router.close()


def test_a_router_catch_up_costs_the_delta():
    """A key a rejoin left behind is caught up over its window, as a
    DRA re-execution: not by evaluating the whole result again."""
    small, large = router_catch_up(SMALL), router_catch_up(LARGE)
    assert large <= 2 * small + SLACK, (small, large)


def test_a_router_catch_up_after_a_quiet_loss_costs_the_delta():
    """No commit while the group is lost: the rejoin replays nothing,
    and the rejoined store's log, rebuilt from its journal, holds only
    what its views' zones keep — so its first append after the rejoin
    reallocates nothing that grows with the table."""
    small = router_catch_up(SMALL, lost_commit=False)
    large = router_catch_up(LARGE, lost_commit=False)
    assert large <= 2 * small + SLACK, (small, large)


# -- a refresh costs the routed views, not the registered ones ----------------
#
# The Section 5.2 relevance test proves an unrouted view's delta empty,
# so nothing needs to run for it: after a one-row commit, a view's
# window is read, evaluated and stepped only when routing selects it
# (or cannot vouch for it), and the refresh makes as many Python calls
# (``cProfile`` ncalls, builtins off) beside 1 000 quiet views as beside
# 10. A quiet view is moved by assignment.

FEW, MANY = 10, 1_000
#: The one view a commit of ``(tid, (tid, 0))`` routes to.
ROUTED = "SELECT k, v FROM t WHERE v = 0"


def quiet(n):
    """Views of the routed one's family that no commit here routes."""
    return [f"SELECT k, v FROM t WHERE v = {1_000 + i}" for i in range(n)]


def counted_calls(refresh):
    """Python calls ``refresh()`` makes, with the cyclic collector held
    off: a collection would count the ``gc.callbacks`` other code
    installed (hypothesis has one) wherever it happened to fall."""
    profile = cProfile.Profile(builtins=False)
    collecting = gc.isenabled()
    gc.disable()
    profile.enable()
    try:
        refresh()
    finally:
        profile.disable()
        if collecting:
            gc.enable()
    return pstats.Stats(profile).total_calls


def spied_keys(monkeypatch, refresh):
    """The ``sql_key`` of every view ``SharedView.read``, ``evaluate``
    or ``step`` ran for during ``refresh()``."""
    keys = set()
    for name in ("read", "evaluate", "step"):
        inner = getattr(SharedView, name)

        def spy(view, *args, __inner=inner, **kwargs):
            keys.add(view.sql_key)
            return __inner(view, *args, **kwargs)

        monkeypatch.setattr(SharedView, name, spy)
    try:
        refresh()
    finally:
        monkeypatch.undo()
    return keys


def sweep_manager(n, monkeypatch):
    db = Database()
    table = db.create_table("t", [("k", AttributeType.INT), ("v", AttributeType.INT)])
    mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC, metrics=Metrics())
    for i, sql in enumerate([ROUTED, *quiet(n)]):
        mgr.register_sql(f"q{i}", sql)
    mgr.drain()
    table.insert((1, 0))
    mgr.poll()  # warm
    table.insert((2, 0))
    calls = counted_calls(mgr.poll)
    table.insert((3, 0))
    notes = []
    keys = spied_keys(monkeypatch, lambda: notes.extend(mgr.poll()))
    assert [note.cq_name for note in notes] == ["q0"]
    assert {view.since for view in mgr._views.values()} == {db.now()}
    mgr.check_invariants()
    return calls, keys


def test_a_manager_poll_costs_the_routed_views(monkeypatch):
    """Lazy members of a PERIODIC manager: the poll's one sweep moves
    every view of the touched cohort, the quiet ones by assignment."""
    few, keys = sweep_manager(FEW, monkeypatch)
    many, keys_many = sweep_manager(MANY, monkeypatch)
    assert keys == keys_many == {ROUTED}
    assert few == many, (few, many)


class Socket(Recorder):
    """A session endpoint: its zones move on the client's acks."""

    defer_zone_advance = True


def sweep_server(n, monkeypatch):
    db = Database()
    table = db.create_table("t", [("k", AttributeType.INT), ("v", AttributeType.INT)])
    srv = CQServer(db, SimulatedNetwork())
    client = Socket("s")
    srv.attach(client)
    for i, sql in enumerate([ROUTED, *quiet(n)]):
        srv.handle_register("s", RegisterMessage(f"q{i}", sql, Protocol.DRA_DELTA.value))
    table.insert((1, 0))
    srv.refresh_all()  # warm
    table.insert((2, 0))
    calls = counted_calls(srv.refresh_all)
    table.insert((3, 0))
    keys = spied_keys(monkeypatch, srv.refresh_all)
    assert isinstance(client.frames[-1], DeltaMessage)
    assert list(client.frames[-1].cq_names) == ["q0"]
    assert {view.since for view in srv._views.values()} == {db.now()}
    assert {s.last_ts for s in srv.subscriptions()} == {db.now()}
    srv.check_invariants()
    return calls, keys


def test_a_server_refresh_costs_the_routed_views(monkeypatch):
    """A socket session's members, one routed view beside quiet ones."""
    few, keys = sweep_server(FEW, monkeypatch)
    many, keys_many = sweep_server(MANY, monkeypatch)
    assert keys == keys_many == {ROUTED}
    assert few == many, (few, many)


def sweep_store(n, monkeypatch):
    store = ClusterShard(0, [TableDecl("t", [("k", int), ("v", int)])])
    views = [ROUTED, *quiet(n)]
    store.handle(
        ShardSyncMessage(
            0, 1, 1, subscribe=[{"cq": sql, "sql": sql} for sql in views], group=0
        )
    )
    schema = store.db.table("t").schema

    def scatter(seq):
        row = DeltaEntry(seq, None, (seq, 0), seq)
        return ScatterMessage(0, seq, seq, {"t": DeltaRelation(schema, [row])}, group=0)

    store.handle(scatter(2))  # warm
    calls = counted_calls(lambda: store.handle(scatter(3)))
    replies = []
    keys = spied_keys(monkeypatch, lambda: replies.append(store.handle(scatter(4))))
    (reply,) = replies
    assert [(key, since, ts) for key, __, since, ts in reply.entries] == [
        (ROUTED, 3, 4)
    ]
    assert {view.since for view in store._views.values()} == {4}
    store.check_invariants()
    return calls, keys


def test_a_store_refresh_costs_the_routed_views(monkeypatch):
    """One ``ClusterShard``: its refresh frame."""
    few, keys = sweep_store(FEW, monkeypatch)
    many, keys_many = sweep_store(MANY, monkeypatch)
    assert keys == keys_many == {ROUTED}
    assert few == many, (few, many)
