"""The four E18 workloads: closed-loop commit -> notify cycles.

Every workload exposes the same small surface to ``worker.py``:

``setup()``            build the database, start the service / cluster /
                       manager, register every standing subscription,
                       run the first refresh to quiescence
``cycle()``            commit one update transaction, refresh, wait for
                       every notification of the cycle to reach its
                       subscriber; returns ``(rows, notifications,
                       latency_s)``
``collect_garbage()``  the program's own update-log GC; returns rows pruned
``oracle()``           DRA == full re-evaluation (paper section 4.2) on a
                       fixed sample; returns ``(checked, mismatched)``
``counters()``         the public ``Metrics`` / ``stats()`` counters
``teardown()``         stop everything the set-up started

One writer, closed loop: the next commit is issued only after the
previous cycle's notifications were delivered, as in the README's
``tick -> refresh`` serving loop. All inputs derive from the seed; the
program sees only the generated rows and SQL. Sizes are constants —
``full`` for measurement, ``smoke`` for the self-check — never scaled
by elapsed time.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from collections import deque
from typing import Dict, List, Tuple

from repro import Database
from repro.cluster import ClusterRouter, ProcessBackend
from repro.core import CQManager, EvaluationStrategy
from repro.core.results import NotificationKind
from repro.metrics import Metrics
from repro.net.client import CQSession
from repro.net.service import CQService
from repro.relational import AttributeType
from repro.workload.fanout import FanoutWorkload
from repro.workload.stocks import StockMarket

#: A cycle whose notifications are not all delivered within this many
#: seconds counts as a failed operation.
DELIVERY_TIMEOUT_S = 10.0

#: One oracle check per this many subscriptions (a fixed 5 % sample).
ORACLE_STRIDE = 20

#: Zipf exponent of template popularity. At 1.0 the top template holds
#: a fifth of all subscribers and its rare hits arrive as bursts that a
#: 20 s run does not average out; 0.5 keeps the skew without the bursts.
POPULATION_SKEW = 0.5

INT = AttributeType.INT

# E15's 4-way star join and join + GROUP BY SUM, plus one filter.
JOIN_SQL = (
    "SELECT orders.oid, orders.amt, customers.seg, products.price, "
    "stores.region FROM orders, customers, products, stores "
    "WHERE orders.cid = customers.cid AND orders.pid = products.pid "
    "AND orders.sid = stores.sid AND orders.amt > 100 "
    "AND products.price < 800 AND stores.region < 90 "
    "AND customers.seg < products.price"
)
AGG_SQL = (
    "SELECT customers.seg, SUM(orders.amt) AS total "
    "FROM orders, customers "
    "WHERE orders.cid = customers.cid AND orders.amt > 100 "
    "GROUP BY customers.seg"
)
FILTER_SQL = "SELECT oid, amt FROM orders WHERE amt > 900"

SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "fanout_tcp": {
        "full": dict(rows=1000, subs=1000, templates=100, updates=20),
        "smoke": dict(rows=300, subs=120, templates=20, updates=10),
    },
    "join_agg_local": {
        "full": dict(orders=20000, updates=1500),
        "smoke": dict(orders=2000, updates=150),
    },
    "cluster_scatter": {
        "full": dict(rows=1000, subs=1000, templates=50, updates=60),
        "smoke": dict(rows=300, subs=120, templates=20, updates=20),
    },
    "manager_churn": {
        "full": dict(rows=2000, subs=1000, templates=100, updates=20, churn=20),
        "smoke": dict(rows=300, subs=120, templates=20, updates=10, churn=4),
    },
}

class CycleFailed(Exception):
    """A cycle did not deliver what the program said it sent."""


def _rng(seed: int, purpose: str) -> random.Random:
    # A string seed is hashed with SHA-512, so it does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"e18:{purpose}:{seed}")


def _sample(items: list) -> list:
    return items[::ORACLE_STRIDE] or items[:1]


def population(seed: int, templates: int, count: int) -> List[str]:
    """``count`` subscription SQL texts over ``FanoutWorkload``'s templates.

    Zipf-skewed like ``FanoutWorkload.subscriptions``, but *apportioned*
    (largest remainder) instead of sampled, then shuffled: every seed
    has the same number of subscribers per template rank, so seeds
    differ in predicate constants and data, not in how much work a
    cycle is. Sampled populations moved deliveries per cycle by 5-7 %
    between seeds, more than any bound could absorb.
    """
    sqls = FanoutWorkload(n_templates=templates, seed=seed).templates()
    weights = [(rank + 1) ** -POPULATION_SKEW for rank in range(templates)]
    total = sum(weights)
    quotas = [count * weight / total for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(templates), key=lambda r: quotas[r] - counts[r], reverse=True
    )
    for rank in by_remainder[: count - sum(counts)]:
        counts[rank] += 1
    out = [sql for sql, n in zip(sqls, counts) for _ in range(n)]
    _rng(seed, "population").shuffle(out)
    return out


class FanoutTcp:
    """``CQService`` on loopback TCP, two ``CQSession`` connections."""

    name = "fanout_tcp"
    warmup_cycles = 10
    counted_cycles = 12

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = SIZES[self.name][scale]

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        size = self.size
        self.db = Database()
        self.market = StockMarket(self.db, seed=self.seed)
        self.market.populate(size["rows"])
        # Heartbeats as in the README's serve.py: their acks carry the
        # sessions' applied horizons back, the only thing that lets a
        # socket session's replay zones (and so the log GC) advance.
        self.service = CQService(
            self.db, fanout=True, columnar=True, heartbeat_interval=0.5
        )
        host, port = await self.service.start()
        self.sessions = [CQSession(f"client{i}", host, port) for i in range(2)]
        for session in self.sessions:
            await session.connect()
        self.subs: List[Tuple[CQSession, str, str]] = []
        sqls = population(self.seed, size["templates"], size["subs"])
        for i, sql in enumerate(sqls):
            session = self.sessions[i % len(self.sessions)]
            await session.register(f"sub{i}", sql)
            self.subs.append((session, f"sub{i}", sql))
        await self._refresh_and_wait()

    def _applied(self) -> int:
        return sum(s.deltas_applied + s.full_results for s in self.sessions)

    def _resyncs(self) -> int:
        return sum(
            s.full_results + s.stale_deltas + s.digest_mismatches
            for s in self.sessions
        )

    async def _refresh_and_wait(self) -> int:
        before, resyncs = self._applied(), self._resyncs()
        sent = await self.service.refresh()
        deadline = time.perf_counter() + DELIVERY_TIMEOUT_S
        while self._applied() < before + sent:
            if time.perf_counter() > deadline:
                raise CycleFailed(
                    f"{before + sent - self._applied()} of {sent} "
                    f"notifications undelivered after {DELIVERY_TIMEOUT_S}s"
                )
            await asyncio.sleep(0)
        if self._resyncs() != resyncs:
            # A delta that needed a resync to apply was not delivered
            # differentially; healing it must not read as success.
            raise CycleFailed("a session fell back to a full resync")
        return sent

    async def _cycle(self) -> Tuple[int, int, float]:
        start = time.perf_counter()
        rows = self.market.tick(
            self.size["updates"], p_insert=0.1, p_delete=0.1
        )
        sent = await self._refresh_and_wait()
        return rows, sent, time.perf_counter() - start

    def cycle(self) -> Tuple[int, int, float]:
        return self.loop.run_until_complete(self._cycle())

    def collect_garbage(self) -> int:
        return sum(self.service.server.collect_garbage().values())

    def oracle(self) -> Tuple[int, int]:
        sample = _sample(self.subs)
        bad = sum(
            session.result(name) != self.db.query(sql)
            for session, name, sql in sample
        )
        return len(sample), bad

    def counters(self) -> Dict[str, int]:
        return self.service.metrics.snapshot()

    def teardown(self) -> None:
        async def stop() -> None:
            for session in self.sessions:
                await session.close()
            await self.service.stop()
            # The service's connection handlers outlive stop(): each sits
            # in a 1 s-bounded wait_closed() that never resolves once the
            # peer is gone. Cancel until nothing is pending, as
            # asyncio.run would, rather than pay that second per set-up.
            while True:
                pending = [
                    task
                    for task in asyncio.all_tasks()
                    if task is not asyncio.current_task()
                ]
                if not pending:
                    break
                for task in pending:
                    task.cancel()
                await asyncio.wait(pending, timeout=0.05)

        self.loop.run_until_complete(stop())
        self.loop.close()


class JoinAggLocal:
    """In-process ``CQManager``: star join, join + SUM, one filter."""

    name = "join_agg_local"
    warmup_cycles = 5
    counted_cycles = 8

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = SIZES[self.name][scale]

    def setup(self) -> None:
        rng = self.rng = _rng(self.seed, "join")
        db = self.db = Database()
        self.orders = db.create_table(
            "orders",
            [("oid", INT), ("cid", INT), ("pid", INT), ("sid", INT), ("amt", INT)],
        )
        customers = db.create_table("customers", [("cid", INT), ("seg", INT)])
        products = db.create_table("products", [("pid", INT), ("price", INT)])
        stores = db.create_table("stores", [("sid", INT), ("region", INT)])
        customers.insert_many([(c, rng.randint(0, 9)) for c in range(2000)])
        products.insert_many([(p, rng.randint(1, 999)) for p in range(500)])
        stores.insert_many([(s, rng.randint(0, 99)) for s in range(100)])
        self.tids = self.orders.insert_many(
            [
                (
                    o,
                    rng.randint(0, 1999),
                    rng.randint(0, 499),
                    rng.randint(0, 99),
                    rng.randint(0, 999),
                )
                for o in range(self.size["orders"])
            ]
        )
        self.manager = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            metrics=Metrics(),
            columnar=True,
        )
        self.delivered = 0
        self.cqs = [("join", JOIN_SQL), ("agg", AGG_SQL), ("filter", FILTER_SQL)]
        for name, sql in self.cqs:
            self.manager.register_sql(name, sql, on_notify=self._on_notify)
        self.manager.poll()

    def _on_notify(self, notification) -> None:
        if notification.kind is NotificationKind.REFRESH:
            self.delivered += 1

    def cycle(self) -> Tuple[int, int, float]:
        start = time.perf_counter()
        before = self.delivered
        orders, rng = self.orders, self.rng
        rows = rng.sample(self.tids, self.size["updates"])
        with self.db.begin() as txn:
            for tid in rows:
                oid, cid, pid, sid, _amt = orders.current.get(tid)
                txn.modify_in(
                    orders, tid, (oid, cid, pid, sid, rng.randint(0, 999))
                )
        produced = _refreshes(self.manager.poll())
        delivered = self.delivered - before
        if delivered != produced:
            raise CycleFailed(
                f"poll produced {produced} refreshes, {delivered} delivered"
            )
        return len(rows), delivered, time.perf_counter() - start

    def collect_garbage(self) -> int:
        return sum(self.manager.collect_garbage().values())

    def oracle(self) -> Tuple[int, int]:
        bad = sum(
            self.manager.get(name).previous_result != self.db.query(sql)
            for name, sql in self.cqs
        )
        return len(self.cqs), bad

    def counters(self) -> Dict[str, int]:
        return self.manager.metrics.snapshot()

    def teardown(self) -> None:
        """Nothing outlives the object: no sockets, tasks or processes."""


class ClusterScatter:
    """``ClusterRouter`` over two real shard processes."""

    name = "cluster_scatter"
    warmup_cycles = 10
    counted_cycles = 60
    # 2 shards, not 4: the sandbox has 2 cores.
    shards = 2

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = SIZES[self.name][scale]

    def setup(self) -> None:
        size = self.size
        self.router = ClusterRouter(
            shards=self.shards,
            seed=self.seed,
            backend=ProcessBackend(columnar=True),
            vnodes=256,
        )
        self.router.declare_table(
            "stocks",
            [("sid", int), ("name", str), ("price", int)],
            partition_key="sid",
            indexes=[("sid",)],
        )
        self.router.start()
        self.db = self.router.db  # the authoritative database
        self.stocks = self.db.table("stocks")
        rng = self.rng = _rng(self.seed, "cluster")
        with self.db.begin() as txn:
            self.tids = [
                txn.insert_into(
                    self.stocks, (sid, f"S{sid}", rng.randrange(0, 1000))
                )
                for sid in range(size["rows"])
            ]
        self.delivered = 0
        sqls = population(self.seed, size["templates"], size["subs"])
        self.subs = [(f"sub{i}", sql) for i, sql in enumerate(sqls)]
        for name, sql in self.subs:
            self.router.subscribe(name, "watch", sql, on_delta=self._on_delta)
        self.router.refresh()

    def _on_delta(self, cq_name, delta, ts) -> None:
        self.delivered += 1

    def cycle(self) -> Tuple[int, int, float]:
        start = time.perf_counter()
        before = self.delivered
        stocks, rng = self.stocks, self.rng
        rows = rng.sample(self.tids, self.size["updates"])
        with self.db.begin() as txn:
            for tid in rows:
                sid, name, price = stocks.current.get(tid)
                price = max(0, min(999, price + rng.randint(-50, 50)))
                txn.modify_in(stocks, tid, (sid, name, price))
        notified = self.router.refresh()
        latency = time.perf_counter() - start
        delivered = self.delivered - before
        if delivered != notified:
            raise CycleFailed(
                f"router notified {notified}, {delivered} delivered"
            )
        if latency > DELIVERY_TIMEOUT_S:
            raise CycleFailed(f"cycle took {latency:.1f}s")
        return len(rows), delivered, latency

    def collect_garbage(self) -> int:
        return sum(self.router.collect_garbage().values())

    def oracle(self) -> Tuple[int, int]:
        sample = _sample(self.subs)
        bad = sum(
            self.router.result(name, "watch") != self.db.query(sql)
            for name, sql in sample
        )
        return len(sample), bad

    def counters(self) -> Dict[str, int]:
        stats = self.router.stats()
        merged = dict(stats["shard_totals"])
        # Router counters win on a name clash: routing and scatter
        # accounting are the router's; the shards' own routing shows in
        # the shard-side work counters the router never charges.
        merged.update(stats["router"])
        merged["cluster_backend_stale_replies"] = (
            self.router.backend.stale_replies
        )
        return merged

    def teardown(self) -> None:
        self.router.close()


class ManagerChurn:
    """In-process fan-out ``CQManager`` with subscriptions coming and going."""

    name = "manager_churn"
    warmup_cycles = 5
    counted_cycles = 8

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = SIZES[self.name][scale]

    def setup(self) -> None:
        size = self.size
        self.db = Database()
        self.market = StockMarket(self.db, seed=self.seed)
        self.market.populate(size["rows"])
        self.manager = CQManager(
            self.db,
            strategy=EvaluationStrategy.PERIODIC,
            metrics=Metrics(),
            fanout=True,
            columnar=True,
        )
        # Arrivals replay the apportioned population round and round, so
        # the live set is always one full period of it: its make-up per
        # template never drifts, only its members' names do.
        self.arrivals = itertools.cycle(
            population(self.seed, size["templates"], size["subs"])
        )
        self.issued = 0
        self.delivered = 0
        self.live: deque = deque()
        self._register(size["subs"])
        self.manager.poll()

    def _register(self, count: int) -> None:
        for sql in itertools.islice(self.arrivals, count):
            name = f"sub{self.issued}"
            self.issued += 1
            self.manager.register_sql(name, sql, on_notify=self._on_notify)
            self.live.append((name, sql))

    def _on_notify(self, notification) -> None:
        if notification.kind is NotificationKind.REFRESH:
            self.delivered += 1

    def cycle(self) -> Tuple[int, int, float]:
        churn = self.size["churn"]
        for _ in range(churn):
            self.manager.deregister(self.live.popleft()[0])
        self._register(churn)
        start = time.perf_counter()
        before = self.delivered
        rows = self.market.tick(
            self.size["updates"], p_insert=0.1, p_delete=0.1
        )
        produced = _refreshes(self.manager.poll())
        delivered = self.delivered - before
        if delivered != produced:
            raise CycleFailed(
                f"poll produced {produced} refreshes, {delivered} delivered"
            )
        return rows, delivered, time.perf_counter() - start

    def collect_garbage(self) -> int:
        return sum(self.manager.collect_garbage().values())

    def oracle(self) -> Tuple[int, int]:
        sample = _sample(list(self.live))
        bad = sum(
            self.manager.get(name).previous_result != self.db.query(sql)
            for name, sql in sample
        )
        return len(sample), bad

    def counters(self) -> Dict[str, int]:
        return self.manager.metrics.snapshot()

    def teardown(self) -> None:
        """Nothing outlives the object: no sockets, tasks or processes."""


def _refreshes(notifications: list) -> int:
    return sum(n.kind is NotificationKind.REFRESH for n in notifications)


WORKLOADS = {
    cls.name: cls
    for cls in (FanoutTcp, JoinAggLocal, ClusterScatter, ManagerChurn)
}
