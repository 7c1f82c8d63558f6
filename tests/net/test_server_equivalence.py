"""Generated schedules replayed on a server: every client equals Q.

The manager's equivalence harness (``tests/integration/
test_scheduler_equivalence.py``) holds the result sequence against
complete re-evaluation; this replays the same generated schedules —
multi-statement transactions over 2–4 tables, registrations and
deregistrations over a pool of repeating SQL texts, polls — on a
``CQServer`` with in-process clients. Its SPJ texts (``sel_*``,
``join`` and the churn pool) are subscribed under a mix of all four
protocols, so ``sql_key`` views form with DRA_DELTA and DRA_LAZY
members side by side, dissolve and re-form, while the REEVAL_*
baselines refresh alone (client ``c`` holds them: a REEVAL_* refresh
raises for a detached client). Clients ``a`` and ``b`` detach between
polls (some releasing their zones, so GC may retire a view's window)
and come back through ``replay``.

After every ``refresh_all`` each attached client's cache must equal
``db.query(sql)``; a lazy one is checked after a fetch. The
``tests/net`` conftest runs ``CQServer.check_invariants()`` after every
public mutating call.
"""

import random

import pytest

from repro import Database
from repro.net.client import CQClient
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.relational import AttributeType
from tests.integration.test_scheduler_equivalence import apply_txn, make_schedule

N_SCHEDULES = 60
CLIENTS = ("a", "b", "c")
#: Clients that detach and replay: DRA subscriptions only.
ROAMING = ("a", "b")
DRA = (Protocol.DRA_DELTA, Protocol.DRA_LAZY)


def run_server_schedule(seed, schedule=None):
    """Replay ``schedule`` (default: the manager harness's for
    ``seed``) on a server; ``seed`` also drives the protocol choices,
    the detaches and the replays."""
    if schedule is None:
        schedule = make_schedule(seed)
    tables, seed_rows, cq_specs, __, steps = schedule
    rng = random.Random(seed ^ 0x5EED)
    db = Database()
    handles = {}
    for name in tables:
        table = db.create_table(
            name,
            [("k", AttributeType.INT), ("v", AttributeType.INT)],
            indexes=[("k",)],
        )
        table.insert_many(seed_rows[name])
        handles[name] = table
    server = CQServer(db, SimulatedNetwork())
    clients = {name: CQClient(name) for name in CLIENTS}
    for client in clients.values():
        server.attach(client)
    attached = set(CLIENTS)
    away = {}  # detached client -> the poll timestamp it is current at
    sqls = {}  # (client, cq) -> sql
    protocols = {}

    def subscribe(client_id, cq_name, sql):
        choices = DRA if client_id in ROAMING else list(Protocol)
        protocol = rng.choice(choices)
        clients[client_id].register(cq_name, sql, protocol)
        sqls[client_id, cq_name] = sql
        protocols[client_id, cq_name] = protocol

    for cq_name, sql in cq_specs:
        if "SUM(" in sql:
            continue  # the server serves SPJ queries only
        for client_id in CLIENTS:
            subscribe(client_id, cq_name, sql)

    def check(when):
        for (client_id, cq_name), sql in sqls.items():
            if client_id not in attached:
                continue
            client = clients[client_id]
            if protocols[client_id, cq_name] is Protocol.DRA_LAZY:
                client.fetch(cq_name)
            assert client.result(cq_name) == db.query(sql), (
                seed,
                when,
                client_id,
                cq_name,
                protocols[client_id, cq_name],
            )

    for i, step in enumerate(steps):
        kind = step[0]
        if kind == "poll":
            server.refresh_all()
            server.collect_garbage()
            check(i)
            for client_id in sorted(away):
                if rng.random() < 0.5:
                    server.attach(clients[client_id])
                    attached.add(client_id)
                    since = away.pop(client_id)
                    for (cid, cq_name) in list(sqls):
                        if cid == client_id:
                            server.replay(client_id, cq_name, since)
                    check(i)
            roaming = sorted(attached.intersection(ROAMING))
            if roaming and rng.random() < 0.3:
                client_id = rng.choice(roaming)
                server.detach(client_id)
                attached.discard(client_id)
                away[client_id] = db.now()
                if rng.random() < 0.5:
                    server.release_zones(client_id)
            continue
        if kind == "register":
            __, cq_name, sql, *__ = step
            client_id = rng.choice(sorted(attached))
            if (client_id, cq_name) not in sqls:
                subscribe(client_id, cq_name, sql)
            continue
        if kind == "deregister":
            for key in [key for key in sqls if key[1] == step[1]]:
                server.deregister(*key)
                del sqls[key]
            continue
        apply_txn(db, handles, step)
    for client_id, since in sorted(away.items()):
        server.attach(clients[client_id])
        attached.add(client_id)
        for (cid, cq_name) in list(sqls):
            if cid == client_id:
                server.replay(client_id, cq_name, since)
    server.refresh_all()
    check("end")
    return server


@pytest.mark.parametrize("chunk", range(4))
def test_server_schedules_equal_complete_reevaluation(chunk):
    per_chunk = N_SCHEDULES // 4
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        run_server_schedule(11_000 + seed)
