"""Wire-codec round trips for the cluster protocol messages.

Refresh, install and gather frames carry the heaviest payloads in the
protocol (per-table delta slices, baseline relations, view specs), so
every field must survive encode/decode bit-exactly — the process
backend ships every cycle through this codec.
"""

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.net.codec import decode_payload, encode_payload
from repro.net.messages import (
    GatherReplyMessage,
    ScatterMessage,
    ShardHelloMessage,
    ShardSyncMessage,
)

SCHEMA = Schema.of(
    ("sid", AttributeType.INT),
    ("name", AttributeType.STR),
    ("price", AttributeType.FLOAT),
)


def roundtrip(message):
    return decode_payload(encode_payload(message))


def sample_delta():
    return DeltaRelation(
        SCHEMA,
        [
            DeltaEntry(1, None, (1, "AAA", 10.0), 3),
            DeltaEntry(2, (2, "BBB", 20.0), None, 4),
            DeltaEntry(5, (5, "CCC", 30.0), (5, "CCC", 33.0), 5),
        ],
    )


def assert_sample_delta(delta):
    assert sorted(e.tid for e in delta) == [1, 2, 5]
    by_tid = {e.tid: e for e in delta}
    assert by_tid[1].new == (1, "AAA", 10.0) and by_tid[1].old is None
    assert by_tid[2].old == (2, "BBB", 20.0) and by_tid[2].new is None
    assert by_tid[5].ts == 5


def sample_relation():
    rel = Relation(SCHEMA)
    rel.add(1, (1, "AAA", 10.0))
    rel.add((2, (3, 4)), (9, "JOIN", 0.5))
    return rel


class TestShardHello:
    def test_round_trip(self):
        msg = ShardHelloMessage(
            2,
            17,
            groups={
                2: {"horizon": 17, "subs": ["SELECT ..."]},
                0: {"horizon": 20, "subs": []},
            },
        )
        out = roundtrip(msg)
        assert isinstance(out, ShardHelloMessage)
        assert out.shard_id == 2
        assert out.horizon == 17
        assert out.groups == {
            0: {"horizon": 20, "subs": []},
            2: {"horizon": 17, "subs": ["SELECT ..."]},
        }

    def test_empty_defaults(self):
        out = roundtrip(ShardHelloMessage(0, 0))
        assert out.groups == {}


class TestScatter:
    def test_full_round_trip(self):
        msg = ScatterMessage(
            1, 9, 42, deltas={"stocks": sample_delta()}, collect=True, group=1
        )
        out = roundtrip(msg)
        assert isinstance(out, ScatterMessage)
        assert out.shard_id == 1 and out.seq == 9 and out.ts == 42
        assert out.collect is True and out.group == 1
        assert_sample_delta(out.deltas["stocks"])

    def test_minimal_scatter(self):
        """The refresh frame of a cycle that routed nothing here."""
        out = roundtrip(ScatterMessage(4, 11, 99, collect=True, group=4))
        assert isinstance(out, ScatterMessage)
        assert out.shard_id == 4 and out.seq == 11 and out.group == 4
        assert out.ts == 99 and out.collect is True and out.deltas == {}


class TestGatherReply:
    def test_entries_and_counters_round_trip(self):
        msg = GatherReplyMessage(
            3,
            9,
            42,
            41,
            entries=[("sql-key", sample_delta(), 39, 40)],
            counters={"refreshes": 7, "terms_evaluated": 3},
        )
        out = roundtrip(msg)
        assert isinstance(out, GatherReplyMessage)
        assert out.shard_id == 3 and out.seq == 9
        assert out.ts == 42 and out.horizon == 41
        assert out.counters == {"refreshes": 7, "terms_evaluated": 3}
        [(key, delta, since, ts)] = out.entries
        assert key == "sql-key" and (since, ts) == (39, 40)
        assert sorted(e.tid for e in delta) == [1, 2, 5]

    def test_empty_reply(self):
        out = roundtrip(GatherReplyMessage(0, 1, 2, 2))
        assert out.entries == [] and out.counters == {}


class TestShardSync:
    def test_round_trip(self):
        msg = ShardSyncMessage(
            1,
            9,
            42,
            deltas={"stocks": sample_delta()},
            baselines={"positions": sample_relation()},
            subscribe=[{"cq": "k1", "sql": "SELECT sid FROM stocks"}],
            unsubscribe=["k0"],
            group=1,
        )
        out = roundtrip(msg)
        assert isinstance(out, ShardSyncMessage)
        assert out.shard_id == 1 and out.seq == 9 and out.ts == 42
        assert out.group == 1
        assert out.subscribe == [{"cq": "k1", "sql": "SELECT sid FROM stocks"}]
        assert out.unsubscribe == ["k0"]
        assert_sample_delta(out.deltas["stocks"])
        baseline = out.baselines["positions"]
        assert baseline.get((2, (3, 4))) == (9, "JOIN", 0.5)
        assert len(baseline) == 2

    def test_a_promotion_carries_views_only(self):
        spec = {"cq": "k1", "sql": "SELECT sid FROM stocks"}
        out = roundtrip(ShardSyncMessage(2, 6, 14, subscribe=[spec], group=0))
        assert out.subscribe == [spec] and out.group == 0
        assert out.deltas == {} and out.baselines == {} and out.unsubscribe == []
