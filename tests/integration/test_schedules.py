"""Generated schedules, replayed at every tier against one oracle.

The paper's correctness claim is DRA ≡ complete re-evaluation (§4.2).
A schedule is a symbolic step script generated once from a seed and
replayed from scratch by one driver, ``replay(schedule, tier)``, on any
of four tiers: the manager, a server with in-process clients, one shard
store fed frame by frame, and a ``ClusterRouter`` on three shards.

The alphabet: ``txn`` (one table) and ``txns`` (several in one commit)
of inserts, deletes and modifies whose row targets are symbolic floats
resolved against the live rows; ``register`` and ``deregister`` over a
pool of repeating texts under reused names; ``poll``; and after some
polls, from an rng stream of their own (so the steps above stay the
same for a seed), ``gc``, ``kill``, ``recover``, ``add`` and ``remove``
(shards) and ``detach`` and ``replay`` (clients), each with a symbolic
float that picks its target. A tier ignores the steps it has no method
for. The oracle: after every refresh each delivered result equals
``db.query``; ``check`` shrinks a failing schedule to its shortest
failing prefix. The router's runs are here, under the ``tests/cluster``
laws (``check_invariants()`` after every public mutating call, the
store laws after every frame).
"""

import json
import os
import random
import tempfile

import pytest

from repro import Database
from repro.cluster import ClusterRouter, ClusterShard, LocalBackend, TableDecl
from repro.core import (
    AfterExecutions,
    AnyOf,
    CountEpsilon,
    CQManager,
    DeliveryMode,
    EpsilonTrigger,
    EvaluationStrategy,
    Every,
    EverySinceResult,
    OnEveryChange,
    OnUpdate,
    manager_from_dict,
    manager_to_dict,
)
from repro.delta.capture import delta_since
from repro.delta.propagate import evaluate_as_of
from repro.metrics import Metrics
from repro.net.client import CQClient
from repro.net.messages import ScatterMessage, ShardSyncMessage
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.relational import AttributeType
from repro.relational.expressions import col, lit
from repro.relational.predicates import gt
from repro.relational.sql import parse_query
from tests.cluster.conftest import (  # noqa: F401 (autouse fixtures)
    invariants_after_every_operation,
    store_laws_after_every_frame,
)

COLUMNS = [("k", AttributeType.INT), ("v", AttributeType.INT)]
#: Names the churn steps register under, so names get reused.
CHURN_NAMES = [f"dyn{i}" for i in range(5)]
#: Control steps and their weights.
CONTROLS = dict(gc=2, kill=2, recover=3, add=1, remove=1, detach=2, replay=2)


def with_controls(seed, steps):
    """``steps`` with 0–2 control steps after each poll."""
    rng = random.Random(f"controls:{seed}")
    out = []
    for step in steps:
        out.append(step)
        if step[0] == "poll":
            for __ in range(rng.choice((0, 1, 1, 2))):
                kind = rng.choices(list(CONTROLS), list(CONTROLS.values()))[0]
                out.append((kind, rng.random()))
    return out


def ops(rng, n, inserts, deletes):
    """``n`` symbolic row changes: an insert below ``inserts``, a delete
    below ``deletes``, else a modify."""
    out = []
    for __ in range(n):
        roll = rng.random()
        if roll < inserts:
            out.append(("insert", rng.randrange(12), rng.randrange(100)))
        elif roll < deletes:
            out.append(("delete", rng.random()))
        else:
            out.append(("modify", rng.random(), rng.randrange(100)))
    return out


def churn(rng, live, register):
    """A step that deregisters a live name or ``register(name)``s a free one."""
    free = [name for name in CHURN_NAMES if name not in live]
    if live and (not free or rng.random() < 0.4):
        return ("deregister", live.pop(rng.randrange(len(live))))
    live.append(rng.choice(free))
    return register(live[-1])


def make_schedule(seed):
    """A symbolic (tables, seed rows, CQ specs, triggers, steps)
    schedule over 2–4 tables: selections, a join and an aggregate under
    mixed triggers, and churn over a small pool of repeating texts."""
    rng = random.Random(seed)
    tables = [f"t{i}" for i in range(rng.randint(2, 4))]
    seed_rows = {
        name: [
            (rng.randrange(12), rng.randrange(100))
            for __ in range(rng.randint(6, 18))
        ]
        for name in tables
    }
    cq_specs = [
        (f"sel_{name}", f"SELECT k, v FROM {name} WHERE v > {rng.randrange(20, 80)}")
        for name in tables
    ]
    a, b = rng.sample(tables, 2)
    cq_specs.append(
        (
            "join",
            f"SELECT {a}.v AS va, {b}.v AS vb FROM {a}, {b} "
            f"WHERE {a}.k = {b}.k AND {a}.v > {rng.randrange(10, 50)}",
        )
    )
    agg = f"SELECT SUM(v) AS total, COUNT(*) AS n FROM {rng.choice(tables)} "
    cq_specs.append(("agg", agg + f"WHERE v > {rng.randrange(10, 60)}"))
    trigger_specs = []
    for __ in cq_specs:
        roll = rng.random()
        if roll < 0.4:
            trigger_specs.append(("on_change",))
        elif roll < 0.6:
            trigger_specs.append(("every", rng.randint(2, 8)))
        elif roll < 0.8:
            trigger_specs.append(("epsilon", rng.randint(1, 6)))
        else:
            trigger_specs.append(("mixed", rng.randint(3, 10), rng.randint(2, 8)))
    # The same text is live under several names at once, again and again.
    pool = [
        (f"SELECT k, v FROM {name} WHERE v > {rng.randrange(20, 80)}", [name])
        for name in tables[:2]
    ]
    a, b = rng.sample(tables, 2)
    pool.append(
        (
            f"SELECT {a}.k AS k, {b}.v AS vb FROM {a}, {b} "
            f"WHERE {a}.k = {b}.k AND {b}.v > {rng.randrange(30, 70)}",
            [a, b],
        )
    )

    def register(name):
        stop = rng.randint(1, 3) if rng.random() < 0.25 else None
        sql, footprint = rng.choice(pool)
        roll = rng.random()
        if roll < 0.45:
            trigger = ("on_change",)
        elif roll < 0.65:
            trigger = ("on_update", rng.choice(footprint), rng.randrange(30, 90))
        elif roll < 0.8:
            trigger = ("epsilon", rng.randint(1, 4))
        else:
            trigger = ("every", rng.randint(2, 8))
        return ("register", name, sql, trigger, stop)

    steps, live = [], []
    for __ in range(rng.randint(4, 8)):
        # Churn lands between the round's commits, so a CQ may join a
        # cohort that has commits it has not swept yet.
        kinds = ["txn"] * rng.randint(1, 3) + ["churn"] * rng.randint(0, 3)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "txn":
                table = rng.choice(tables)
                steps.append(("txn", table, ops(rng, rng.randint(1, 5), 0.45, 0.7)))
            else:
                steps.append(churn(rng, live, register))
        steps.append(("poll",))
    return tables, seed_rows, cq_specs, trigger_specs, with_controls(seed, steps)


def build_trigger(spec):
    if spec[0] == "on_change":
        return OnEveryChange()
    if spec[0] == "every":
        return Every(spec[1])
    if spec[0] == "epsilon":
        return EpsilonTrigger(CountEpsilon(spec[1]))
    if spec[0] == "on_update":
        return OnUpdate(spec[1], gt(col("v"), lit(spec[2])))
    return AnyOf(EverySinceResult(spec[1]), EpsilonTrigger(CountEpsilon(spec[2])))


FAMILY_TABLES = ["t0", "t1", "t2"]
ON = ("on_change",)


def family_texts(rng):
    """Several literals for each of six shapes, P marked by the local."""

    def interval():
        lo = rng.randrange(0, 80)
        return lo, lo + rng.randrange(5, 40)

    texts = []
    for __ in range(3):
        # One shape, P = t0, three kinds of index entry.
        texts.append(f"SELECT k, v FROM t0 WHERE k = {rng.randrange(12)}")
        lo, hi = interval()
        texts.append(f"SELECT k, v FROM t0 WHERE v >= {lo} AND v < {hi}")
        texts.append(
            f"SELECT k, v FROM t0 WHERE v > {rng.randrange(100)} "
            f"OR k = {rng.randrange(12)}"
        )
        # The routed column projected away: a modify moving v across
        # members projects one row twice.
        lo, hi = interval()
        texts.append(f"SELECT k FROM t1 WHERE v >= {lo} AND v < {hi}")
        texts.append(f"SELECT k FROM t1 WHERE v < {rng.randrange(100)}")
        # P a joined alias: first in FROM ...
        lo, hi = interval()
        texts.append(
            "SELECT t0.k AS k, t1.v AS vb FROM t0, t1 "
            f"WHERE t0.k = t1.k AND t0.v >= {lo} AND t0.v < {hi}"
        )
        texts.append(
            "SELECT t0.k AS k, t1.v AS vb FROM t0, t1 "
            f"WHERE t0.k = t1.k AND t0.v = {rng.randrange(0, 100, 10)}"
        )
        # ... and second, its tid the second of the result's.
        texts.append(
            "SELECT t1.k AS k, t2.k AS k2 FROM t1, t2 "
            f"WHERE t1.k = t2.k AND t2.v > {rng.randrange(100)}"
        )
        # A second shape over the same footprint, P again t2, with a
        # constant conjunct that stays verbatim in the shape.
        texts.append(
            "SELECT t2.v AS v FROM t1, t2 "
            f"WHERE t1.k = t2.k AND 1 = 1 AND t2.v < {rng.randrange(100)}"
        )
    return texts


def make_family_schedule(seed):
    """A schedule in ``make_schedule``'s format over family-rich texts."""
    rng = random.Random(seed)
    seed_rows = {
        name: [(rng.randrange(12), rng.randrange(100)) for __ in range(16)]
        for name in FAMILY_TABLES
    }
    texts = family_texts(rng)
    cq_specs = [(f"f{i}", sql) for i, sql in enumerate(texts)]
    # Mostly lazy members, so cohorts route; a few visited every poll.
    trigger_specs = [
        ON if rng.random() < 0.8 else ("every", rng.randint(2, 6)) for __ in cq_specs
    ]
    steps, live = [], []
    for __ in range(rng.randint(5, 9)):
        kinds = ["txn"] * rng.randint(1, 3) + ["txns"] * rng.randint(0, 1)
        kinds += ["churn"] * rng.randint(0, 2)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "churn":
                register = lambda name: ("register", name, rng.choice(texts), ON, None)
                steps.append(churn(rng, live, register))
                continue
            parts = [
                (table, ops(rng, rng.randint(1, 6), 0.3, 0.45))
                for table in rng.sample(FAMILY_TABLES, 2 if kind == "txns" else 1)
            ]
            steps.append(("txn", *parts[0]) if kind == "txn" else ("txns", parts))
        steps.append(("poll",))
    return FAMILY_TABLES, seed_rows, cq_specs, trigger_specs, with_controls(seed, steps)


# -- the driver and the oracle ----------------------------------------------


def apply_txn(db, parts):
    """Commit ``[(table, ops), ...]`` in one transaction; symbolic row
    targets resolve against the table's committed rows."""
    with db.begin() as txn:
        for table_name, changes in parts:
            table = db.table(table_name)
            for op in changes:
                live = [row.tid for row in table.rows()]
                if op[0] == "insert" or not live:
                    k, v = (op[1], op[2]) if op[0] == "insert" else (0, 0)
                    txn.insert_into(table, (k, v))
                    continue
                tid = live[int(op[1] * len(live)) % len(live)]
                row = txn.read(table, tid)
                if row is not None and op[0] == "delete":
                    txn.delete_from(table, tid)
                elif row is not None:
                    txn.modify_in(table, tid, values=(row[0], op[2]))


def new_db(tables, seed_rows):
    db = Database()
    for name in tables:
        db.create_table(name, COLUMNS, indexes=[("k",)]).insert_many(seed_rows[name])
    return db


def pick(targets, at):
    return sorted(targets)[int(at * len(targets))]


def rows_of(relation):
    return tuple(sorted(tuple(row.values) for row in relation))


class Tier:
    """An adaptor: ``start`` builds the tier (``db`` is its authoritative
    database), one method per step kind it serves, ``finish`` its last
    check and its observation."""

    def commit(self, parts):
        apply_txn(self.db, parts)

    def close(self):
        pass


def replay(schedule, tier):
    """Replay ``schedule`` on ``tier``; return its observation."""
    tables, seed_rows, cq_specs, trigger_specs, steps = schedule
    try:
        tier.start(tables, seed_rows, cq_specs, trigger_specs)
        for kind, *args in steps:
            if kind in ("txn", "txns"):
                tier.commit([args] if kind == "txn" else args[0])
            elif hasattr(tier, kind):
                getattr(tier, kind)(*args)
        return tier.finish()
    finally:
        tier.close()


def failure(schedule, tiers):
    """``(fault, observations)``: the error a tier raised, or the tiers
    whose observation differs from the first's (None: no fault)."""
    try:
        seen = {name: replay(schedule, make()) for name, make in tiers.items()}
    except Exception as exc:  # an oracle's assertion or the tier's own
        return exc, None
    first = next(iter(seen.values()))
    return [name for name, got in seen.items() if got != first] or None, seen


def check(seed, schedule, tiers):
    """Every tier's observation of ``schedule``; raises unless all pass
    and agree, with the shortest failing prefix that ends at a poll."""
    fault, seen = failure(schedule, tiers)
    if fault is None:
        return seen
    *head, steps = schedule
    for end in [i + 1 for i, step in enumerate(steps) if step[0] == "poll"]:
        shrunk = failure((*head, steps[:end]), tiers)[0]
        if shrunk is not None:
            fault, steps = shrunk, steps[:end]
            break
    raise AssertionError(
        f"seed {seed}: {fault!r} on the {len(steps)}-step prefix:\n"
        + "\n".join(map(repr, steps))
    ) from (fault if isinstance(fault, Exception) else None)


class Manager(Tier):
    """A manager whose every CQ runs on ``engine`` under ``strategy``;
    with ``restore`` the site is checkpointed after every poll and the
    run continues on what loads back. It observes every notification
    with its complete result, then every live CQ's final result."""

    def __init__(self, engine, strategy=EvaluationStrategy.PERIODIC, restore=False):
        self.engine, self.strategy, self.restore = engine, strategy, restore

    def start(self, tables, seed_rows, cq_specs, trigger_specs):
        self.tables, self.db = tables, new_db(tables, seed_rows)
        self.mgr = CQManager(
            self.db, strategy=self.strategy, auto_gc=True, metrics=Metrics()
        )
        self.sqls, self.signature = {}, []
        for (name, sql), trigger in zip(cq_specs, trigger_specs):
            self.register(name, sql, trigger, None)
        self.mgr.drain()

    def register(self, name, sql, trigger, stop):
        self.sqls[name] = sql
        stop = AfterExecutions(stop) if stop else None
        trigger, mode = build_trigger(trigger), DeliveryMode.COMPLETE
        self.mgr.register_sql(name, sql, trigger, stop, mode, self.engine)

    def deregister(self, name):
        self.mgr.deregister(name)

    def gc(self, __):
        self.mgr.collect_garbage()

    def poll(self, restore=True):
        for note in self.mgr.poll():
            rows = None if note.result is None else rows_of(note.result)
            kind = note.kind.value
            self.signature.append((note.cq_name, kind, note.seq, note.ts, rows))
        if self.restore and restore:
            data = json.loads(json.dumps(manager_to_dict(self.mgr)))
            self.mgr = manager_from_dict(data, metrics=self.mgr.metrics)
            self.db = self.mgr.db

    def finish(self):
        # 6 result-affecting commits per table (fill every epsilon, wake
        # every data trigger, make joins match) and a large clock advance
        # (fires every time trigger): the last poll executes every CQ.
        for name in self.tables:
            self.commit([(name, [("insert", k, 99) for k in range(6)])])
        self.db.clock.advance_to(self.db.now() + 100_000)
        self.poll(restore=False)
        final = {}
        for cq in self.mgr.active():
            final[cq.name] = rows_of(cq.previous_result)
            # (Tested per commit, an OnUpdate on one table of a join
            # fires before the flush reaches the other: no anchor.)
            if self.strategy is EvaluationStrategy.PERIODIC or not isinstance(
                cq.trigger, OnUpdate
            ):
                want = self.db.query(self.sqls[cq.name])
                assert cq.previous_result == want, f"{cq.name} diverged from Q"
        assert len(self.mgr.stats) <= len(self.mgr), "stats outlived their CQs"
        return self.signature, final


CLIENTS = ("a", "b", "c")
#: Clients that detach and replay: DRA subscriptions only (a REEVAL_*
#: refresh raises for a detached client).
ROAMING = ("a", "b")


class Server(Tier):
    """A ``CQServer`` with in-process clients: every SPJ text subscribed
    by each client, churn by one, under a mix of all four protocols
    (``c`` holds the REEVAL_* ones). After every refresh each attached
    client's cache (a lazy one's after a fetch) equals ``db.query``; a
    detached client comes back through ``replay``."""

    def __init__(self, seed):
        self.rng = random.Random(seed ^ 0x5EED)

    def start(self, tables, seed_rows, cq_specs, __):
        self.db = new_db(tables, seed_rows)
        self.server = CQServer(self.db, SimulatedNetwork())
        self.clients = {name: CQClient(name) for name in CLIENTS}
        for client in self.clients.values():
            self.server.attach(client)
        self.attached, self.away = set(CLIENTS), {}  # away: client -> ts
        self.sqls, self.protocols, self.current = {}, {}, self.db.now()
        for name, sql in cq_specs:
            for client_id in CLIENTS:
                self.subscribe(client_id, name, sql)

    def subscribe(self, client_id, name, sql):
        if "SUM(" in sql or (client_id, name) in self.sqls:
            return
        dra = (Protocol.DRA_DELTA, Protocol.DRA_LAZY)
        protocol = self.rng.choice(dra if client_id in ROAMING else list(Protocol))
        self.clients[client_id].register(name, sql, protocol)
        self.sqls[client_id, name], self.protocols[client_id, name] = sql, protocol

    def register(self, name, sql, *__):
        self.subscribe(self.rng.choice(sorted(self.attached)), name, sql)

    def deregister(self, name):
        for key in [key for key in self.sqls if key[1] == name]:
            self.server.deregister(*key)
            del self.sqls[key]

    def poll(self):
        self.server.refresh_all()
        self.server.collect_garbage()
        self.current = self.db.now()
        self.check()

    def check(self):
        for (client_id, name), sql in self.sqls.items():
            if client_id in self.attached:
                client = self.clients[client_id]
                if self.protocols[client_id, name] is Protocol.DRA_LAZY:
                    client.fetch(name)
                assert client.result(name) == self.db.query(sql), (client_id, name)

    def detach(self, at):
        roaming = self.attached.intersection(ROAMING)
        if roaming:
            client_id = pick(roaming, at)
            self.server.detach(client_id)
            self.attached.discard(client_id)
            self.away[client_id] = self.current
            if at * len(roaming) % 1 < 0.5:
                self.server.release_zones(client_id)

    def replay(self, at):
        if self.away:
            client_id = pick(self.away, at)
            since = self.away.pop(client_id)
            self.server.attach(self.clients[client_id])
            self.attached.add(client_id)
            for cid, name in list(self.sqls):
                if cid == client_id:
                    self.server.replay(client_id, name, since)
            self.check()

    def finish(self):
        while self.away:
            self.replay(0)
        self.poll()


class Store(Tier):
    """One ``ClusterShard`` fed its two frame types: the commits arrive
    as per-table delta slices (a window may hold several transactions)
    in install frames, which subscribe and unsubscribe views mid-stream
    and must move no other window, and in refresh frames, after which
    each view's gathered delta (none: empty) takes ``evaluate_as_of`` at
    its window start to ``store.db.query``."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def start(self, tables, seed_rows, cq_specs, __):
        self.db, self.tables = new_db(tables, seed_rows), tables
        decls = [TableDecl(name, COLUMNS, indexes=[("k",)]) for name in tables]
        self.store, self.sent, self.seq = ClusterShard(0, decls), 0, 0
        self.holders = {}  # sql_key -> members: a view lives while one does
        self.texts = dict(cq_specs)
        # Most of the texts subscribe up front, the rest mid-stream.
        self.late = [name for name in self.texts if self.rng.random() < 0.25]
        self.joined = [name for name in self.texts if name not in self.late]
        for name in self.joined:
            self.join(self.texts[name])

    def frame(self, subscribe=(), unsubscribe=()):
        db, store, now, views = self.db, self.store, self.db.now(), self.store._views
        deltas = {name: delta_since(db.table(name), self.sent) for name in self.tables}
        deltas = {name: part for name, part in deltas.items() if part}
        self.sent, self.seq = now, self.seq + 1
        since = {key: view.since for key, view in views.items()}
        if subscribe or unsubscribe:
            specs = [{"cq": key, "sql": key} for key in subscribe]
            message = ShardSyncMessage(
                0, self.seq, now, deltas=deltas, group=0,
                subscribe=specs, unsubscribe=list(unsubscribe),
            )
            assert store.handle(message).entries == []
            for key, view in views.items():
                assert view.since == since.get(key, now), key
        else:
            # Q at each window start, read before the frame's GC moves past it.
            start = {
                key: evaluate_as_of(view.query, store.db, view.since)
                for key, view in views.items()
            }
            collect = self.rng.random() < 0.3
            message = ScatterMessage(
                0, self.seq, now, deltas=deltas, group=0, collect=collect
            )
            gathered = {}
            for key, part, was, ts in store.handle(message).entries:
                assert key not in gathered and (was, ts) == (since[key], now)
                gathered[key] = part
            for key, view in views.items():
                got = start[key]
                got = gathered[key].apply_to(got) if key in gathered else got
                assert got == store.db.query(view.query), f"{key!r} up to {now}"
        store.check_invariants()
        for name in self.tables:
            assert store.db.table(name).current == db.table(name).current

    def join(self, text):
        key = parse_query(text).to_sql()
        self.holders[key] = self.holders.get(key, 0) + 1
        if self.holders[key] == 1:
            self.frame(subscribe=[key])

    def leave(self, text):
        key = parse_query(text).to_sql()
        self.holders[key] -= 1
        if not self.holders[key]:
            del self.holders[key]
            self.frame(unsubscribe=[key])

    def commit(self, parts):
        super().commit(parts)
        if self.rng.random() < 0.4:  # several commits often share a window
            self.frame()

    def register(self, name, sql, *__):
        self.texts[name] = sql
        self.joined.append(name)
        self.join(sql)

    def deregister(self, name):
        self.joined.remove(name)
        self.leave(self.texts[name])

    def poll(self):
        if self.late:
            self.joined.append(self.late[-1])
            self.join(self.texts[self.late.pop()])
        self.frame()

    def finish(self):
        for name in self.joined:
            self.leave(self.texts[name])
        assert len(self.store.plans) == 0 and not self.store._families


class Router(Tier):
    """A ``ClusterRouter`` on 3 ``LocalBackend`` shards, ``t0``
    partitioned on ``v``: every SPJ text subscribed by clients a and b,
    churn by one; each member keeps its own copy. After every refresh
    each member whose key no lost group owns has a result and a copy
    equal to ``db.query``; at the end every dead host recovers, and then
    every member does. ``add`` stops at 5 hosts, dead ones included."""

    def __init__(self, seed, replicas, wal_root):
        self.seed, self.replicas, self.wal_root = seed, replicas, wal_root
        self.rng = random.Random(seed)

    def start(self, tables, seed_rows, cq_specs, __):
        self.router = router = ClusterRouter(
            shards=3,
            seed=self.seed,
            replicas=self.replicas,
            backend=LocalBackend(wal_root=tempfile.mkdtemp(dir=self.wal_root)),
            backoff_base=0.0,
        )
        for name in tables:
            sliced = "v" if name == "t0" else None
            router.declare_table(name, COLUMNS, partition_key=sliced, indexes=[("k",)])
        router.start()
        self.db = router.db
        for name in tables:
            self.db.table(name).insert_many(seed_rows[name])
        self.sqls, self.copies = {}, {}
        for name, sql in cq_specs:
            for client in CLIENTS[:2]:
                self.subscribe(client, name, sql)

    def subscribe(self, client, name, sql):
        if "SUM(" in sql or (client, name) in self.sqls:
            return

        def on_delta(cq, delta, ts):
            held = self.copies[client, cq]
            for entry in delta:
                assert held.get_or_none(entry.tid) == entry.old, (client, cq, entry)
                if entry.new is None:
                    held.discard(entry.tid)
                else:
                    held.add(entry.tid, entry.new)

        initial = self.router.subscribe(client, name, sql, on_delta)
        self.sqls[client, name], self.copies[client, name] = sql, initial

    def register(self, name, sql, *__):
        self.subscribe(self.rng.choice(CLIENTS), name, sql)

    def deregister(self, name):
        for key in [key for key in self.sqls if key[1] == name]:
            self.router.unsubscribe(*key)
            del self.sqls[key], self.copies[key]

    def poll(self):
        router = self.router
        router.refresh()
        for key, sql in self.sqls.items():
            if not router._lost_owner(router._subs[key].sql_key):
                want = self.db.query(sql)
                assert router.result(*key) == want and self.copies[key] == want, key

    def hosts(self, dead):
        return sorted(h for h, host in self.router._hosts.items() if host.dead == dead)

    def gc(self, __):
        self.router.collect_garbage()

    def kill(self, at):
        if len(self.hosts(False)) > 1:
            self.router.kill_shard(pick(self.hosts(False), at))

    def recover(self, at):
        if self.hosts(True):
            self.router.recover_shard(pick(self.hosts(True), at))

    def add(self, __):
        if len(self.router._hosts) < 5:
            self.router.add_shard()

    def remove(self, at):
        if len(self.hosts(False)) > 1:
            self.router.remove_shard(pick(self.hosts(False), at))

    def finish(self):
        for host in self.hosts(True):
            self.router.recover_shard(host)
        self.poll()
        assert not self.router.stats()["lost"]
        return self.router.metrics.snapshot()

    def close(self):
        if hasattr(self, "router"):
            self.router.close()


# -- the router's runs --------------------------------------------------------

#: Tier 1 replays every ``ROUTER_STRIDE``-th schedule on the router;
#: ``ROUTER_SCHEDULES=all`` replays all 200 + 24 (CI does, under two
#: hash seeds).
ROUTER_STRIDE = 1 if os.environ.get("ROUTER_SCHEDULES") == "all" else 4
#: The router paths every replica count must reach over its runs (a
#: promotion is a failover); ``_catch_up`` counts where it caught a key up.
REACHED = ("add_shard", "remove_shard", Metrics.MERGE_CONFLICTS)
REACHED_AT = {0: ("_rejoin_primary", "_catch_up"), 1: ("_promote", "_rejoin_replica")}


@pytest.fixture
def reached(monkeypatch):
    counts = dict.fromkeys(REACHED + REACHED_AT[0] + REACHED_AT[1], 0)

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            behind = set(self._behind)
            out = method(self, *args, **kwargs)
            counts[name] += name != "_catch_up" or bool(behind - self._behind)
            return out

        return wrapper

    for name in counts:
        if hasattr(ClusterRouter, name):
            method = counted(name, getattr(ClusterRouter, name))
            monkeypatch.setattr(ClusterRouter, name, method)
    return counts


@pytest.mark.parametrize("replicas", (0, 1, 2))
def test_router_schedules_equal_complete_reevaluation(replicas, reached, tmp_path):
    """The manager's 200 schedules and the families' 24 on the router,
    with shard kills, recoveries, adds and removes between polls."""
    seeds = [(seed, make_schedule) for seed in range(7_000, 7_200)]
    seeds += [(seed, make_family_schedule) for seed in range(23_000, 23_024)]
    for seed, make in seeds[::ROUTER_STRIDE]:
        tiers = {"router": lambda: Router(seed, replicas, tmp_path)}
        counts = check(seed, make(seed), tiers)["router"]
        reached[Metrics.MERGE_CONFLICTS] += counts.get(Metrics.MERGE_CONFLICTS, 0)
    expected = REACHED + REACHED_AT[min(replicas, 1)]
    assert all(reached[name] for name in expected), reached
