"""Consistent-hash ring and partition-slice properties.

The placement layer must be deterministic (seeded), balanced enough to
share load, and *minimally disruptive*: adding a node may only move
keys onto the new node, never shuffle keys between survivors. The
partition helper the router slices with (``partition_filter``) must
neither invent nor lose entries — a cross-slice modify is a delete at
the old owner and an insert at the new, foreign entries vanish.
"""

import pytest

from repro.cluster import HashRing, Partition
from repro.cluster.ring import partition_filter
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType

SCHEMA = Schema(
    [
        Attribute("pid", AttributeType.INT),
        Attribute("client", AttributeType.STR),
        Attribute("shares", AttributeType.INT),
    ]
)


class TestHashRing:
    def test_seeded_placement_is_deterministic(self):
        a = HashRing([0, 1, 2], seed=42)
        b = HashRing([0, 1, 2], seed=42)
        keys = [f"key-{i}" for i in range(200)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_different_seeds_place_differently(self):
        a = HashRing([0, 1, 2], seed=1)
        b = HashRing([0, 1, 2], seed=2)
        keys = [f"key-{i}" for i in range(200)]
        assert [a.lookup(k) for k in keys] != [b.lookup(k) for k in keys]

    def test_every_node_gets_a_share(self):
        ring = HashRing([0, 1, 2, 3], seed=7)
        owners = {ring.lookup(f"key-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_balance_is_roughly_even(self):
        ring = HashRing([0, 1, 2, 3], seed=7)
        counts = {n: 0 for n in ring.nodes()}
        total = 4000
        for i in range(total):
            counts[ring.lookup(f"key-{i}")] += 1
        for node, count in counts.items():
            share = count / total
            assert 0.10 <= share <= 0.45, (node, share)

    def test_adding_a_node_only_moves_keys_onto_it(self):
        ring = HashRing([0, 1, 2], seed=9)
        keys = [f"key-{i}" for i in range(600)]
        before = {k: ring.lookup(k) for k in keys}
        ring.add_node(3)
        moved = 0
        for k in keys:
            after = ring.lookup(k)
            if after != before[k]:
                assert after == 3, (k, before[k], after)
                moved += 1
        assert 0 < moved < len(keys) // 2

    def test_removing_a_node_redistributes_only_its_keys(self):
        ring = HashRing([0, 1, 2, 3], seed=9)
        keys = [f"key-{i}" for i in range(600)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove_node(3)
        for k in keys:
            if before[k] != 3:
                assert ring.lookup(k) == before[k]
            else:
                assert ring.lookup(k) != 3

    def test_membership_protocol(self):
        ring = HashRing(seed=0)
        assert len(ring) == 0
        ring.add_node(5)
        assert 5 in ring and len(ring) == 1
        assert ring.lookup("anything") == 5

    def test_memoised_lookups_follow_every_membership_change(self):
        """``lookup`` remembers each token's node; adding or removing
        a node, weighted or not, must never leave an answer behind
        that a ring built fresh on the new node set would not give."""
        keys = [f"stocks:{i}" for i in range(400)]
        ring = HashRing([0, 1, 2], seed=11)
        weights = {0: 1.0, 1: 1.0, 2: 1.0}
        steps = [
            ("add", 3, 2.0),
            ("remove", 1, None),
            ("add", 1, 0.5),
            ("remove", 3, None),
            ("add", 4, 3.0),
            ("remove", 0, None),
        ]
        for op, node, weight in steps:
            for key in keys:  # fill the memo under the old node set
                ring.lookup(key)
            version = ring.version
            if op == "add":
                ring.add_node(node, weight=weight)
                weights[node] = weight
            else:
                ring.remove_node(node)
                del weights[node]
            assert ring.version > version
            fresh = HashRing(seed=11)
            for n, w in weights.items():
                fresh.add_node(n, weight=w)
            expected = [fresh.lookup(k) for k in keys]
            assert [ring.lookup(k) for k in keys] == expected, (op, node)
            assert [ring.lookup(k) for k in keys] == expected  # memo hits
        assert ring.lookup_n(keys[0], 1) == [ring.lookup(keys[0])]


def entry(tid, old, new, ts=1):
    return DeltaEntry(tid, old, new, ts)


class TestPartitionSlices:
    def _partitions(self, nodes=(0, 1, 2), seed=3):
        ring = HashRing(list(nodes), seed=seed)
        position = SCHEMA.position("client")
        return ring, {
            n: Partition("positions", "client", position, ring, n)
            for n in nodes
        }

    def test_row_accepted_by_exactly_one_partition(self):
        __, parts = self._partitions()
        for i in range(50):
            row = (i, f"client-{i}", 10)
            owners = [n for n, p in parts.items() if p.accepts(row)]
            assert len(owners) == 1, row

    def test_missing_row_is_accepted_nowhere(self):
        __, parts = self._partitions()
        assert not any(p.accepts(None) for p in parts.values())

    def test_none_key_value_still_lands_on_exactly_one_shard(self):
        __, parts = self._partitions()
        row = (1, None, 10)
        owners = [n for n, p in parts.items() if p.accepts(row)]
        assert len(owners) == 1

    @staticmethod
    def _slices(delta, parts):
        """What each node's ``partition_filter`` keeps (non-empty only)."""
        slices = {n: partition_filter(delta, p) for n, p in parts.items()}
        return {n: piece for n, piece in slices.items() if not piece.is_empty()}

    def _client_owned_by(self, ring, node):
        return next(
            f"client-{i}" for i in range(100)
            if ring.lookup(f"positions:client-{i}") == node
        )

    def test_partition_delta_covers_every_entry_once(self):
        __, parts = self._partitions()
        delta = DeltaRelation(
            SCHEMA,
            [
                entry(i, None, (i, f"client-{i}", 10), ts=i + 1)
                for i in range(40)
            ],
        )
        slices = self._slices(delta, parts)
        total = sum(len(s) for s in slices.values())
        assert total == len(delta)
        seen = set()
        for piece in slices.values():
            for e in piece:
                assert e.tid not in seen
                seen.add(e.tid)

    def test_cross_slice_modify_splits_into_delete_and_insert(self):
        ring, parts = self._partitions()
        a, b = self._client_owned_by(ring, 0), self._client_owned_by(ring, 1)
        old, new = (1, a, 10), (1, b, 10)
        delta = DeltaRelation(SCHEMA, [entry(7, old, new)])
        slices = self._slices(delta, parts)
        e0 = next(iter(slices[0]))
        e1 = next(iter(slices[1]))
        assert e0.old == old and e0.new is None
        assert e1.old is None and e1.new == new
        assert 2 not in slices

    def test_same_slice_modify_stays_whole(self):
        ring, parts = self._partitions()
        value = self._client_owned_by(ring, 2)
        old, new = (1, value, 10), (1, value, 99)
        delta = DeltaRelation(SCHEMA, [entry(7, old, new)])
        slices = self._slices(delta, parts)
        assert set(slices) == {2}
        e = next(iter(slices[2]))
        assert e.old == old and e.new == new

    def test_foreign_entries_vanish_and_a_row_moving_in_is_an_insert(self):
        """What ``CQManager.register(partition=)`` used to be tested
        for, on the function the router slices with: a shard sees no
        entry of another's slice, and a row that moves *into* its slice
        arrives as the insert half of the split modify."""
        ring, parts = self._partitions(nodes=(0, 1), seed=5)
        mine, theirs = self._client_owned_by(ring, 0), self._client_owned_by(ring, 1)
        delta = DeltaRelation(
            SCHEMA,
            [
                entry(1, None, (1, mine, 500)),
                entry(2, None, (2, theirs, 500)),
                entry(3, (3, theirs, 500), None),
                entry(4, (4, theirs, 500), (4, mine, 500)),
            ],
        )
        kept = {e.tid: e for e in partition_filter(delta, parts[0])}
        assert set(kept) == {1, 4}
        assert kept[4].old is None and kept[4].new == (4, mine, 500)


class TestWeightedRing:
    """Per-node weights scale vnode counts: a weight-2 node owns about
    twice the key space, and changing a node's weight stays minimally
    disruptive (keys only move onto the heavier node)."""

    def test_weight_two_owns_about_double_share(self):
        ring = HashRing(seed=7)
        for node in (0, 1, 2):
            ring.add_node(node)
        ring.add_node(3, weight=2.0)
        counts = {n: 0 for n in ring.nodes()}
        total = 6000
        for i in range(total):
            counts[ring.lookup(f"key-{i}")] += 1
        light = sum(counts[n] for n in (0, 1, 2)) / 3
        assert 1.5 <= counts[3] / light <= 2.6, counts

    def test_weight_defaults_to_one_and_is_queryable(self):
        ring = HashRing([0, 1], seed=3)
        ring.add_node(2, weight=2.5)
        assert ring.weight(0) == 1.0
        assert ring.weight(2) == 2.5
        assert ring.weights() == {0: 1.0, 1: 1.0, 2: 2.5}

    def test_invalid_weight_rejected(self):
        ring = HashRing(seed=1)
        with pytest.raises(ValueError):
            ring.add_node(0, weight=0.0)
        with pytest.raises(ValueError):
            ring.add_node(0, weight=-1.0)

    def test_heavier_join_only_moves_keys_onto_it(self):
        """The first ``vnodes`` tokens of a weighted node are the same
        as its unweighted tokens, so a heavy joiner still only *takes*
        keys — survivors never swap keys among themselves."""
        ring = HashRing([0, 1, 2], seed=9)
        keys = [f"key-{i}" for i in range(800)]
        before = {k: ring.lookup(k) for k in keys}
        ring.add_node(3, weight=3.0)
        moved = 0
        for k in keys:
            after = ring.lookup(k)
            if after != before[k]:
                assert after == 3, (k, before[k], after)
                moved += 1
        # A weight-3 joiner takes roughly 3/6 of the space.
        assert len(keys) // 4 < moved < 3 * len(keys) // 4

    def test_weighted_placement_superset_of_unweighted(self):
        """Raising a node's weight never moves its existing keys off:
        every key the unweighted node owned, the weighted one owns."""
        plain = HashRing([0, 1, 2], seed=5)
        heavy = HashRing(seed=5)
        heavy.add_node(0)
        heavy.add_node(1)
        heavy.add_node(2, weight=2.0)
        for i in range(600):
            key = f"key-{i}"
            if plain.lookup(key) == 2:
                assert heavy.lookup(key) == 2

    def test_remove_forgets_weight(self):
        ring = HashRing(seed=2)
        ring.add_node(0, weight=2.0)
        ring.add_node(1)
        ring.remove_node(0)
        assert ring.weights() == {1: 1.0}
        ring.add_node(0)  # rejoins at default weight, no stale state
        assert ring.weight(0) == 1.0
