"""Tests for differential aggregate maintenance."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import ReproError
from repro.relational import AttributeType, evaluate_aggregate, parse_query
from repro.delta.capture import deltas_since
from repro.delta.diff import diff
from repro.delta.differential import ChangeKind
from repro.dra.aggregates import DifferentialAggregate


@pytest.fixture
def bankdb(db):
    accounts = db.create_table(
        "accounts",
        [
            ("owner", AttributeType.STR),
            ("branch", AttributeType.STR),
            ("amount", AttributeType.INT),
        ],
    )
    accounts.insert_many(
        [
            ("alice", "north", 100),
            ("bob", "north", 250),
            ("carol", "south", 40),
        ]
    )
    return db, accounts


def check_against_complete(state, db, query):
    assert state.current() == evaluate_aggregate(query, db.relation)


class TestGlobal:
    def test_initialize_matches_complete(self, bankdb):
        db, __ = bankdb
        q = parse_query("SELECT SUM(amount) AS total, COUNT(*) AS n FROM accounts")
        state = DifferentialAggregate(q, db)
        result = state.initialize()
        assert result.get(()) == (390, 3)

    def test_update_requires_initialize(self, bankdb):
        db, accounts = bankdb
        q = parse_query("SELECT SUM(amount) AS total FROM accounts")
        state = DifferentialAggregate(q, db)
        with pytest.raises(ReproError):
            state.update({}, ts=1)

    def test_incremental_sum_count(self, bankdb):
        db, accounts = bankdb
        q = parse_query("SELECT SUM(amount) AS total, COUNT(*) AS n FROM accounts")
        state = DifferentialAggregate(q, db)
        state.initialize()
        ts = db.now()
        accounts.insert(("dave", "south", 60))
        tid = next(r.tid for r in accounts.rows() if r.values[0] == "alice")
        accounts.modify(tid, updates={"amount": 90})
        delta = state.update(deltas_since([accounts], ts), ts=db.now())
        entry = delta.get(())
        assert entry.old == (390, 3) and entry.new == (440, 4)
        check_against_complete(state, db, q)

    def test_global_survives_emptying(self, bankdb):
        db, accounts = bankdb
        q = parse_query("SELECT SUM(amount) AS total, COUNT(*) AS n FROM accounts")
        state = DifferentialAggregate(q, db)
        state.initialize()
        ts = db.now()
        for row in list(accounts.rows()):
            accounts.delete(row.tid)
        delta = state.update(deltas_since([accounts], ts), ts=db.now())
        assert delta.get(()).new == (None, 0)
        check_against_complete(state, db, q)

    def test_no_change_empty_delta(self, bankdb):
        db, accounts = bankdb
        q = parse_query("SELECT COUNT(*) AS n FROM accounts")
        state = DifferentialAggregate(q, db)
        state.initialize()
        assert state.update({}, ts=db.now()).is_empty()


class TestPredicatedAggregates:
    def test_only_matching_rows_counted(self, bankdb):
        db, accounts = bankdb
        q = parse_query(
            "SELECT SUM(amount) AS total FROM accounts WHERE amount > 50"
        )
        state = DifferentialAggregate(q, db)
        assert state.initialize().get(()) == (350,)
        ts = db.now()
        tid = next(r.tid for r in accounts.rows() if r.values[0] == "carol")
        accounts.modify(tid, updates={"amount": 80})  # crosses into the band
        delta = state.update(deltas_since([accounts], ts), ts=db.now())
        assert delta.get(()).new == (430,)
        check_against_complete(state, db, q)


class TestGrouped:
    def test_group_rows_appear_and_disappear(self, bankdb):
        db, accounts = bankdb
        q = parse_query(
            "SELECT branch, COUNT(*) AS n FROM accounts GROUP BY branch"
        )
        state = DifferentialAggregate(q, db)
        state.initialize()
        ts = db.now()
        tid = next(r.tid for r in accounts.rows() if r.values[0] == "carol")
        accounts.delete(tid)  # south empties out
        accounts.insert(("erin", "west", 10))  # new group
        delta = state.update(deltas_since([accounts], ts), ts=db.now())
        south = delta.get(("south",))
        assert south.kind is ChangeKind.DELETE
        west = delta.get(("west",))
        assert west.kind is ChangeKind.INSERT and west.new == ("west", 1)
        check_against_complete(state, db, q)

    def test_group_migration_on_key_change(self, bankdb):
        db, accounts = bankdb
        q = parse_query(
            "SELECT branch, SUM(amount) AS total FROM accounts GROUP BY branch"
        )
        state = DifferentialAggregate(q, db)
        state.initialize()
        ts = db.now()
        tid = next(r.tid for r in accounts.rows() if r.values[0] == "bob")
        accounts.modify(tid, updates={"branch": "south"})
        delta = state.update(deltas_since([accounts], ts), ts=db.now())
        assert delta.get(("north",)).new == ("north", 100)
        assert delta.get(("south",)).new == ("south", 290)
        check_against_complete(state, db, q)


class TestMinMax:
    def test_min_max_with_extremum_deletion(self, bankdb):
        db, accounts = bankdb
        q = parse_query(
            "SELECT MIN(amount) AS lo, MAX(amount) AS hi FROM accounts"
        )
        state = DifferentialAggregate(q, db)
        assert state.initialize().get(()) == (40, 250)
        ts = db.now()
        tid = next(r.tid for r in accounts.rows() if r.values[2] == 250)
        accounts.delete(tid)  # removes the max
        delta = state.update(deltas_since([accounts], ts), ts=db.now())
        assert delta.get(()).new == (40, 100)
        check_against_complete(state, db, q)


# -- the one-pass fold, against complete evaluation ---------------------------

INT = AttributeType.INT
AGGREGATES = (
    "SUM(orders.amt) AS total, COUNT(*) AS n, AVG(orders.amt) AS mean, "
    "MIN(orders.amt) AS lo, MAX(orders.amt) AS hi "
    "FROM orders, customers WHERE orders.cid = customers.cid"
)
FOLD_QUERIES = [
    f"SELECT customers.seg, {AGGREGATES} GROUP BY customers.seg",
    f"SELECT customers.seg, {AGGREGATES} GROUP BY customers.seg HAVING total > 6",
    f"SELECT customers.seg, {AGGREGATES} GROUP BY customers.seg HAVING n < 3",
    f"SELECT {AGGREGATES}",
    # The group-by column is an argument too, and orders.cid and
    # customers.cid share a bare name in the narrowed core.
    "SELECT customers.seg, SUM(customers.seg) AS segs, "
    "COUNT(orders.cid) AS owned, MAX(customers.cid) AS top, "
    "SUM(orders.amt) AS total FROM orders, customers "
    "WHERE orders.cid = customers.cid GROUP BY customers.seg",
    "SELECT MIN(orders.cid) AS lo, MAX(customers.cid) AS hi, "
    "AVG(orders.amt) AS mean FROM orders, customers "
    "WHERE orders.cid = customers.cid",
]

# Three segments over four customers and amounts 0..6 or NULL: groups
# empty and refill, extrema get deleted and HAVING flips all the time.
amounts = st.integers(0, 6) | st.none()
fold_operations = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 3), amounts),
    st.tuples(st.just("delete"), st.integers(0, 30)),
    st.tuples(st.just("amount"), st.integers(0, 30), amounts),
    st.tuples(st.just("owner"), st.integers(0, 30), st.integers(0, 3)),
    st.tuples(st.just("segment"), st.integers(0, 3), st.integers(0, 2)),
)


def fold_database(initial):
    db = Database()
    orders = db.create_table("orders", [("oid", INT), ("cid", INT), ("amt", INT)])
    customers = db.create_table("customers", [("cid", INT), ("seg", INT)])
    customers.insert_many([(0, 0), (1, 0), (2, 1), (3, 2)])
    orders.insert_many([(i, cid, amt) for i, (cid, amt) in enumerate(initial)])
    return db, orders, customers


def run_batch(db, orders, customers, batch):
    """One transaction; the same row may be touched more than once."""
    with db.begin() as txn:
        live = sorted(orders.current.tids())
        for kind, pick, *rest in batch:
            if kind == "insert":
                live.append(txn.insert_into(orders, (100 + len(live), pick, rest[0])))
            elif kind == "segment":
                txn.modify_in(customers, pick + 1, updates={"seg": rest[0]})
            elif live:
                tid = live[pick % len(live)]
                if kind == "delete":
                    live.remove(tid)
                    txn.delete_from(orders, tid)
                else:
                    column = "amt" if kind == "amount" else "cid"
                    txn.modify_in(orders, tid, updates={column: rest[0]})


def as_map(delta):
    return {entry.tid: (entry.old, entry.new) for entry in delta}


class TestOnePassFold:
    @settings(max_examples=150, deadline=None)
    @given(
        sql=st.sampled_from(FOLD_QUERIES),
        initial=st.lists(st.tuples(st.integers(0, 3), amounts), max_size=6),
        batches=st.lists(st.lists(fold_operations, max_size=8), min_size=1, max_size=4),
        columnar=st.booleans(),
    )
    def test_result_and_delta_match_complete_evaluation(
        self, sql, initial, batches, columnar
    ):
        db, orders, customers = fold_database(initial)
        query = parse_query(sql)
        state = DifferentialAggregate(query, db)
        state.initialize()
        for batch in batches:
            previous, ts = state.current(), db.now()
            run_batch(db, orders, customers, batch)
            delta = state.update(
                deltas_since([orders, customers], ts), ts=db.now(), columnar=columnar
            )
            check_against_complete(state, db, query)
            assert as_map(delta) == as_map(diff(previous, state.result))

    def test_group_emptied_and_recreated_inside_one_batch(self):
        db, orders, customers = fold_database([(2, 5), (2, 1)])
        query = parse_query(FOLD_QUERIES[0])
        state = DifferentialAggregate(query, db)
        state.initialize()
        ts = db.now()
        run_batch(
            db, orders, customers,
            [("delete", 0), ("delete", 0), ("insert", 2, 4), ("insert", 0, 3)],
        )
        delta = state.update(deltas_since([orders, customers], ts), ts=db.now())
        # Emission order is first touch: segment 1 (emptied, refilled), then 0.
        assert [entry.tid for entry in delta] == [(1,), (0,)]
        assert delta.get((1,)).old == (1, 6, 2, 3.0, 1, 5)
        assert delta.get((1,)).new == (1, 4, 1, 4.0, 4, 4)
        check_against_complete(state, db, query)

    def test_removing_a_row_never_added_raises(self):
        db, orders, customers = fold_database([(0, 5)])
        state = DifferentialAggregate(parse_query(FOLD_QUERIES[0]), db)
        state.initialize()
        tid = orders.insert((9, 2, 1))  # segment 1's only row ...
        ts = db.now()  # ... in a window the state is never shown
        orders.delete(tid)
        with pytest.raises(ReproError, match="underflow"):
            state.update(deltas_since([orders, customers], ts), ts=db.now())

    def test_narrowed_core_names_clashing_columns_apart(self):
        query = parse_query(FOLD_QUERIES[4])
        core = query.narrowed_core()
        assert [column.name for column in core.projection] == [
            "seg", "orders_cid", "customers_cid", "amt"
        ]
        db, orders, customers = fold_database([(0, 5), (2, None), (3, 1)])
        state = DifferentialAggregate(query, db)
        state.initialize()
        assert state.current().get((0,)) == (0, 0, 1, 0, 5)
        assert state.current().get((1,)) == (1, 1, 1, 2, None)
        check_against_complete(state, db, query)

    @pytest.mark.parametrize(
        "weights",
        [
            {((0, 0), (0, 5)): 2},
            {((0, 0), (0, 5)): -2},
            {((0, 0), (0, 5)): 1, ((0, 0), (0, 6)): 1},
        ],
    )
    def test_signed_sum_that_is_no_delta_raises(self, monkeypatch, weights):
        """A weight outside ±1, or two rows on one side of a result
        tid, is an algebra bug the fold refuses to absorb."""
        import repro.dra.aggregates as aggregates
        from repro.dra.assembly import DRAResult, WeightInvariantError

        db, orders, customers = fold_database([(0, 5)])
        state = DifferentialAggregate(parse_query(FOLD_QUERIES[0]), db)
        state.initialize()
        monkeypatch.setattr(
            aggregates,
            "dra_execute",
            lambda *args, **kwargs: DRAResult(weights, state.schema, None, 1),
        )
        with pytest.raises(WeightInvariantError):
            state.update({}, ts=db.now())


    @pytest.mark.parametrize(
        "modifies",
        [
            # (result tids, old values, new values) of pair rows: a pair
            # row's result tid is a single's ...
            ([(0, 0)], [(0, 4)], [(0, 6)]),
            # ... or another pair row's.
            ([(1, 0), (1, 0)], [(0, 4), (0, 5)], [(0, 6), (0, 7)]),
        ],
    )
    def test_pair_tid_that_meets_another_row_raises(self, monkeypatch, modifies):
        import repro.dra.aggregates as aggregates
        from repro.dra.assembly import DRAResult, WeightInvariantError

        db, orders, customers = fold_database([(0, 5)])
        state = DifferentialAggregate(parse_query(FOLD_QUERIES[0]), db)
        state.initialize()
        monkeypatch.setattr(
            aggregates,
            "dra_execute",
            lambda *args, **kwargs: DRAResult(
                {((0, 0), (0, 5)): -1}, state.schema, None, 1, modifies=modifies
            ),
        )
        with pytest.raises(WeightInvariantError):
            state.update({}, ts=db.now())


# -- modifies folded as pairs ---------------------------------------------------
#
# Only ``orders`` changes, and never its join key, so every modify whose
# sides both pass ``orders.amt > 0`` travels the core's one term as a pair
# row and folds as old at −1 and new at +1.

PAIR_AGGREGATES = (
    "SUM(orders.amt) AS total, COUNT(*) AS n, AVG(orders.amt) AS mean, "
    "MIN(orders.amt) AS lo, MAX(orders.amt) AS hi "
    "FROM orders, customers WHERE orders.cid = customers.cid AND orders.amt > 0"
)
PAIR_QUERIES = [
    # The group key comes from the seed alias: a modify moves rows.
    f"SELECT orders.tag, {PAIR_AGGREGATES} GROUP BY orders.tag",
    f"SELECT orders.tag, {PAIR_AGGREGATES} GROUP BY orders.tag HAVING total > 6",
    f"SELECT customers.seg, {PAIR_AGGREGATES} GROUP BY customers.seg HAVING n < 3",
    f"SELECT {PAIR_AGGREGATES}",
]
pair_operations = st.tuples(
    st.sampled_from(["amt", "tag"]), st.integers(0, 30), st.integers(0, 6) | st.none()
)


def pair_database(initial):
    db = Database()
    orders = db.create_table(
        "orders", [("oid", INT), ("cid", INT), ("tag", INT), ("amt", INT)]
    )
    customers = db.create_table("customers", [("cid", INT), ("seg", INT)])
    customers.insert_many([(0, 0), (1, 0), (2, 1), (3, 2)])
    orders.insert_many(
        [(i, cid, tag, amt) for i, (cid, tag, amt) in enumerate(initial)]
    )
    return db, orders, customers


def fold_pairs(db, orders, query, state, batch):
    """Apply one batch of orders modifies and fold it; returns the
    aggregate delta, its ``kernel_pairs`` and the eligible modifies
    counted off the orders delta."""
    from repro.metrics import Metrics

    previous, ts = state.current(), db.now()
    with db.begin() as txn:
        live = sorted(orders.current.tids())
        for column, pick, value in batch:
            txn.modify_in(orders, live[pick % len(live)], updates={column: value})
    deltas = deltas_since([orders], ts)
    eligible = sum(
        1
        for e in deltas.get("orders", ())
        if e.old is not None
        and e.new is not None
        and all(v[3] is not None and v[3] > 0 for v in (e.old, e.new))
    )
    metrics = Metrics()
    delta = state.update(deltas, ts=db.now(), metrics=metrics)
    assert state.current() == db.query(query)
    assert as_map(delta) == as_map(diff(previous, state.result))
    return delta, metrics.get(Metrics.KERNEL_PAIRS), eligible


class TestPairFold:
    @settings(max_examples=120, deadline=None)
    @given(
        sql=st.sampled_from(PAIR_QUERIES),
        initial=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2), amounts),
            min_size=1,
            max_size=6,
        ),
        batches=st.lists(st.lists(pair_operations, max_size=6), min_size=1, max_size=4),
    )
    def test_pair_fold_matches_complete_evaluation(self, sql, initial, batches):
        db, orders, customers = pair_database(initial)
        query = parse_query(sql)
        state = DifferentialAggregate(query, db)
        state.initialize()
        for batch in batches:
            __, pairs, eligible = fold_pairs(db, orders, query, state, batch)
            assert pairs == eligible

    def test_extremum_modified_away(self):
        db, orders, customers = pair_database([(0, 0, 2), (1, 0, 5), (2, 0, 9)])
        query = parse_query(PAIR_QUERIES[0])
        state = DifferentialAggregate(query, db)
        state.initialize()
        delta, pairs, __ = fold_pairs(
            db, orders, query, state, [("amt", 0, 6), ("amt", 2, 4)]
        )
        assert pairs == 2
        assert delta.get((0,)).old == (0, 16, 3, 16 / 3, 2, 9)
        assert delta.get((0,)).new == (0, 15, 3, 5.0, 4, 6)

    def test_seed_group_key_moves_a_row(self):
        db, orders, customers = pair_database([(0, 0, 2), (1, 1, 5)])
        query = parse_query(PAIR_QUERIES[0])
        state = DifferentialAggregate(query, db)
        state.initialize()
        delta, pairs, __ = fold_pairs(db, orders, query, state, [("tag", 0, 1)])
        assert pairs == 1
        assert delta.get((0,)).new is None
        assert delta.get((1,)).new == (1, 7, 2, 3.5, 2, 5)

    def test_having_crossings(self):
        db, orders, customers = pair_database([(0, 0, 2), (1, 1, 9)])
        query = parse_query(PAIR_QUERIES[1])
        state = DifferentialAggregate(query, db)
        state.initialize()
        assert (0,) not in state.current()
        delta, pairs, __ = fold_pairs(
            db, orders, query, state, [("amt", 0, 8), ("amt", 1, 3)]
        )
        assert pairs == 2
        assert delta.get((0,)).old is None and delta.get((0,)).new[1] == 8
        assert delta.get((1,)).old[1] == 9 and delta.get((1,)).new is None

    def test_global_aggregate(self):
        db, orders, customers = pair_database([(0, 0, 2), (3, 1, 5)])
        query = parse_query(PAIR_QUERIES[3])
        state = DifferentialAggregate(query, db)
        state.initialize()
        delta, pairs, __ = fold_pairs(db, orders, query, state, [("amt", 1, 1)])
        assert pairs == 1
        assert delta.get(()).new == (3, 2, 1.5, 1, 2)
