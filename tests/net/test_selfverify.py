"""Self-verifying deltas and connect-timeout behavior.

Every result-bearing message carries an order-insensitive digest of
the post-apply retained result. Clients recompute it after applying;
a mismatch means the cached copy is provably not what the server
shipped from, so the client discards it and resyncs — corruption is
*detected and healed*, never silently propagated. The server side of
the same defense is the sampled audit: every N-th differential
refresh is checked against a full re-evaluation.
"""

import asyncio
import socket
import time

import pytest

from repro.errors import ConnectTimeout, NetworkError
from repro.metrics import Metrics
from repro.net.client import CQClient, CQSession
from repro.net.digest import relation_digest, row_digest
from repro.net.messages import DeltaMessage, FullResultMessage
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.storage.database import Database

SCHEMA = [("id", AttributeType.INT), ("sym", AttributeType.STR), ("price", AttributeType.INT)]
CHEAP = "SELECT sym, price FROM stocks WHERE price < 80"


def build(audit_interval=0, fanout=False):
    db = Database()
    table = db.create_table("stocks", SCHEMA)
    table.insert_many([(1, "IBM", 100), (2, "MAC", 50), (3, "HP", 75)])
    server = CQServer(
        db,
        SimulatedNetwork(),
        metrics=Metrics(),
        audit_interval=audit_interval,
        fanout=fanout,
    )
    client = CQClient("c1")
    server.attach(client)
    return db, table, server, client


class TestRelationDigest:
    def schema(self):
        return Schema.of(("sym", AttributeType.STR), ("price", AttributeType.INT))

    def test_order_insensitive(self):
        a, b = Relation(self.schema()), Relation(self.schema())
        rows = [(1, ("MAC", 50)), (2, ("HP", 75)), ((3, 4), ("SUN", 60))]
        for tid, values in rows:
            a.add(tid, values)
        for tid, values in reversed(rows):
            b.add(tid, values)
        assert relation_digest(a) == relation_digest(b)

    def test_sensitive_to_values_tids_and_count(self):
        base = Relation(self.schema())
        base.add(1, ("MAC", 50))
        changed = Relation(self.schema())
        changed.add(1, ("MAC", 51))
        moved = Relation(self.schema())
        moved.add(2, ("MAC", 50))
        assert relation_digest(base) != relation_digest(changed)
        assert relation_digest(base) != relation_digest(moved)
        # The row count guards the XOR fold against cancellation:
        # a row twice is not the same as no row at all.
        assert relation_digest(base).startswith("1:")
        assert relation_digest(Relation(self.schema())).startswith("0:")

    def test_row_digest_treats_tuple_and_list_tids_alike(self):
        # Wire decoding rebuilds nested tids as tuples; the digest must
        # not depend on which side computed it.
        assert row_digest((3, 4), ("X", 1)) == row_digest((3, 4), ("X", 1))
        assert row_digest(3, ("X", 1)) != row_digest(4, ("X", 1))


class TestClientVerification:
    def test_clean_traffic_never_mismatches(self):
        db, table, server, client = build()
        client.register("cheap", CHEAP)
        for price in (60, 40, 90):
            table.insert((10 + price, "NEW", price))
            server.refresh_all()
        assert client.digest_mismatches == 0
        assert client.result("cheap") == db.query(CHEAP)

    def test_corrupt_delta_detected_and_healed(self):
        """A delta stamped with a digest that does not match what the
        client computes must produce exactly one mismatch, then a
        successful automatic resync back to the true result."""
        from repro.delta.differential import DeltaRelation

        db, table, server, client = build()
        client.register("cheap", CHEAP)
        table.insert((4, "SUN", 60))
        server.refresh_all()
        good = client.result("cheap").copy()
        # An empty delta stamped with a forged digest — what a
        # corrupted-but-CRC-valid frame or a server bug would look like.
        forged = DeltaMessage(
            "cheap",
            DeltaRelation(good.schema, []),
            db.now(),
            "9:ffffffffffffffff",
        )
        client.receive(forged)
        assert client.digest_mismatches == 1
        assert server.metrics.get(Metrics.DIGEST_MISMATCHES) == 1
        # The resync already healed the cache to the server's truth.
        assert client.result("cheap") == db.query(CHEAP)
        assert client.result("cheap") == good

    def test_corrupt_full_result_rejected_not_cached(self):
        db, table, server, client = build()
        client.register("cheap", CHEAP)
        bogus = Relation(Schema.of(("sym", AttributeType.STR), ("price", AttributeType.INT)))
        bogus.add(99, ("EVIL", 1))
        client.receive(FullResultMessage("cheap", bogus, db.now(), "1:0000000000000000"))
        assert client.digest_mismatches == 1
        # The poisoned copy never landed; the resync restored truth.
        assert client.result("cheap") == db.query(CHEAP)


class TestSampledAudit:
    fanout = False

    def test_clean_refreshes_audit_without_divergence(self):
        db, table, server, client = build(audit_interval=2, fanout=self.fanout)
        client.register("cheap", CHEAP)
        for i in range(6):
            table.insert((100 + i, "NEW", 10 + i))
            server.refresh_all()
        assert server.metrics.get(Metrics.AUDITS) == 3
        assert server.metrics.get(Metrics.AUDIT_DIVERGENCES) == 0

    def test_divergent_retained_copy_detected_and_healed(self):
        db, table, server, client = build(audit_interval=1, fanout=self.fanout)
        client.register("cheap", CHEAP)
        # Corrupt the server's retained copy behind the engine's back
        # (the failure mode the audit exists to catch). Under fan-out
        # the subscription aliases its group's result, so this corrupts
        # the copy the group path maintains.
        sub = server._subscriptions[("c1", "cheap")]
        sub.previous_result.add(999, ("GHOST", 1))
        table.insert((4, "SUN", 60))
        server.refresh_all()
        assert server.metrics.get(Metrics.AUDIT_DIVERGENCES) == 1
        # The audit healed the retained copy to the full re-evaluation.
        assert sub.previous_result == db.query(CHEAP)


class TestSampledAuditFanout(TestSampledAudit):
    """The same audit on the shared-group refresh path."""

    fanout = True


class TestConnectTimeout:
    def _dead_port(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            return s.getsockname()[1]

    def test_gives_up_after_max_attempts(self):
        async def scenario():
            session = CQSession(
                "c1", "127.0.0.1", self._dead_port(),
                backoff_base=0.01, max_attempts=2,
            )
            with pytest.raises(ConnectTimeout) as info:
                await session.connect(timeout=30.0)
            assert info.value.attempts >= 2
            assert isinstance(info.value, NetworkError)
            assert not session.connected
            assert session._task is None  # torn down, safe to retry

        asyncio.run(scenario())

    def test_timeout_is_a_total_deadline_across_backoff(self):
        async def scenario():
            # Long backoff + many attempts: a per-attempt budget would
            # keep dialing far past the deadline; the total deadline
            # must cut the whole loop off.
            session = CQSession(
                "c1", "127.0.0.1", self._dead_port(),
                backoff_base=0.5, backoff_cap=2.0, max_attempts=50,
            )
            start = time.monotonic()
            with pytest.raises(ConnectTimeout) as info:
                await session.connect(timeout=0.3)
            elapsed = time.monotonic() - start
            assert elapsed < 5.0
            assert info.value.attempts >= 1
            assert session._task is None

        asyncio.run(scenario())
