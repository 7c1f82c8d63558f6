"""Generated schedules over template families at one shard store.

A cluster shard store holds one resultless view per ``sql_key`` and
enters it into its shape's family (``core/scheduler.py`` ``Family``),
so a routed window in which only the parameter alias's table changed
is one execution for every member the store holds, split back into
each ``sql_key``'s gather entry. The router retains the results; the
store only ships deltas.

These schedules reuse ``make_family_schedule``'s texts and commits and
drive one :class:`~repro.cluster.ClusterShard` with its two frame
types: the commits arrive as per-table delta slices (one window may
hold several transactions, some writing two tables at once), in the
install frames that subscribe and unsubscribe views mid-stream as well
as in refresh frames. An install frame must leave every other view's
window where it was. After every refresh frame, each view's gathered
delta — empty for a view with no entry — must take
``evaluate_as_of(q, store.db, since)`` at its window start to
``store.db.query(q)``; the store's laws must hold after every frame.
"""

import random

from repro import Database
from repro.cluster import ClusterShard, TableDecl
from repro.delta.capture import delta_since
from repro.delta.propagate import evaluate_as_of
from repro.net.messages import ScatterMessage, ShardSyncMessage
from repro.relational import AttributeType
from repro.relational.sql import parse_query
from tests.integration.test_family_equivalence import (  # noqa: F401 (fixture)
    N_SCHEDULES,
    make_family_schedule,
    seen,
)
from tests.integration.test_scheduler_equivalence import apply_txn

COLUMNS = [("k", AttributeType.INT), ("v", AttributeType.INT)]


class StoreRun:
    """One schedule's authoritative database, its store and the frames
    between them."""

    def __init__(self, tables, seed_rows, collect_odds):
        self.db = Database()
        for name in tables:
            self.db.create_table(name, COLUMNS, indexes=[("k",)]).insert_many(
                seed_rows[name]
            )
        decls = [TableDecl(name, COLUMNS, indexes=[("k",)]) for name in tables]
        self.store = ClusterShard(0, decls)
        self.tables = tables
        self.collect_odds = collect_odds
        self.sent = 0
        self.seq = 0
        #: Store members per text: a text's view lives while one does.
        self.holders = {}

    def frame(self, rng, subscribe=(), unsubscribe=()):
        """Ship every commit since the last frame as delta slices: with
        the view changes in an install frame, which must move no other
        window, else in a refresh frame, whose gather reply is checked."""
        db, store = self.db, self.store
        now = db.now()
        deltas = {}
        for name in self.tables:
            part = delta_since(db.table(name), self.sent)
            if not part.is_empty():
                deltas[name] = part
        self.sent, self.seq = now, self.seq + 1
        if subscribe or unsubscribe:
            since = {key: view.since for key, view in store._views.items()}
            reply = store.handle(
                ShardSyncMessage(
                    0,
                    self.seq,
                    now,
                    deltas=deltas,
                    subscribe=[{"cq": key, "sql": key} for key in subscribe],
                    unsubscribe=list(unsubscribe),
                    group=0,
                )
            )
            store.check_invariants()
            assert reply.entries == []
            for name in self.tables:
                assert store.db.table(name).current == db.table(name).current
            for key, view in store._views.items():
                assert view.since == since.get(key, now), key
            return
        # Q at each window start, read before the frame's GC moves past it.
        start = {
            key: evaluate_as_of(view.query, store.db, view.since)
            for key, view in store._views.items()
        }
        windows = {key: view.since for key, view in store._views.items()}
        reply = store.handle(
            ScatterMessage(
                0,
                self.seq,
                now,
                deltas=deltas,
                collect=rng.random() < self.collect_odds,
                group=0,
            )
        )
        store.check_invariants()
        gathered = {}
        for key, part, since, ts in reply.entries:
            assert key not in gathered and (since, ts) == (windows[key], now)
            gathered[key] = part
        assert gathered.keys() <= start.keys()
        for name in self.tables:
            assert store.db.table(name).current == db.table(name).current
        for key, view in store._views.items():
            part = gathered.get(key)
            got = start[key] if part is None else part.apply_to(start[key])
            assert got == store.db.query(view.query), f"{key!r} up to {now}"

    def join(self, rng, text):
        key = parse_query(text).to_sql()
        self.holders[key] = self.holders.get(key, 0) + 1
        if self.holders[key] == 1:
            self.frame(rng, subscribe=[key])

    def leave(self, rng, text):
        key = parse_query(text).to_sql()
        self.holders[key] -= 1
        if not self.holders[key]:
            del self.holders[key]
            self.frame(rng, unsubscribe=[key])


def run_store_schedule(seed):
    tables, seed_rows, cq_specs, __, steps = make_family_schedule(seed)
    rng = random.Random(seed)
    run = StoreRun(tables, seed_rows, collect_odds=0.3)
    handles = {name: run.db.table(name) for name in tables}
    texts = dict(cq_specs)
    # Most of the family subscribes up front, the rest mid-stream.
    late = [name for name in texts if rng.random() < 0.25]
    joined = [name for name in texts if name not in late]
    for name in joined:
        run.join(rng, texts[name])
    for step in steps:
        kind = step[0]
        if kind in ("txn", "txns"):
            apply_txn(run.db, handles, step)
            # Several commits often share one frame's window.
            if rng.random() < 0.4:
                run.frame(rng)
        elif kind == "register":
            texts[step[1]] = step[2]
            joined.append(step[1])
            run.join(rng, step[2])
        elif kind == "deregister":
            joined.remove(step[1])
            run.leave(rng, texts[step[1]])
        else:
            if late:
                joined.append(late[-1])
                run.join(rng, texts[late.pop()])
            run.frame(rng)
    for name in joined:
        run.leave(rng, texts[name])
    assert len(run.store.plans) == 0 and not run.store._families


def test_store_families_equal_complete_reevaluation(seen):
    """Every gathered delta takes Q's result at the view's window start
    to Q's result now, through families of one and many, two-table
    windows, cross-member modifies and mid-stream (un)subscribes."""
    for seed in range(N_SCHEDULES):
        run_store_schedule(23_000 + seed)
    assert all(seen.values()), seen
