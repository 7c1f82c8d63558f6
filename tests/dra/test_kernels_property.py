"""Property tests for the columnar kernel evaluator (DESIGN.md §11).

The struct-of-arrays pipelines in :mod:`repro.dra.kernels` must be
observationally identical to the per-row term interpreter — same delta,
entry for entry — over arbitrary states, arbitrary update histories
(negative weights from deletes and the old sides of modifies, NULLs in
both join and filtered columns, empty and single-sided batches), and a
query family covering every kernel shape: spec-compiled local filters,
multi-conjunct locals, hash-join attaches, fused and unfusable
residuals, and the cartesian (no join key) fallback.

The row evaluator is the oracle: each sample runs both paths over the
same prepared plan and operand deltas and compares the results exactly.
"""

from hypothesis import given, settings, strategies as st

from repro import Database
from repro.relational import AttributeType, parse_query
from repro.delta.capture import deltas_since
from repro.dra.algorithm import dra_execute
from repro.dra.prepared import prepare_cq
from repro.metrics import Metrics

SMALL = st.integers(min_value=0, max_value=4)
VALUE = st.one_of(st.none(), SMALL)

#: One template per kernel shape. {t} is a draw-time constant.
QUERIES = [
    # Seed filter only (spec-compiled single comparison).
    "SELECT a, b FROM r WHERE b > {t}",
    # Multi-conjunct local (range → two spec entries).
    "SELECT a, b FROM r WHERE b >= {t} AND b < 4",
    # Hash join, locals on both sides.
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND r.b > {t} AND s.c < 3",
    # Join plus a fusable col-col residual (new side right).
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND r.b < s.c",
    # Fusable residual written with the literal on the left.
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND {t} < s.c",
    # Two residuals on one attach — beyond the single-pair fusion,
    # exercising the kernel's FILTER-stage fallback.
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND r.b < s.c AND r.b != s.c",
    # No equi-join key: the cartesian attach path.
    "SELECT r.b, s.c FROM r, s WHERE r.b < s.c",
]


@st.composite
def update_ops(draw, max_ops=12):
    """Abstract ops; indexes resolve against live tids at apply time."""
    n = draw(st.integers(min_value=0, max_value=max_ops))
    ops = []
    for __ in range(n):
        kind = draw(st.sampled_from(["insert", "delete", "modify"]))
        ops.append(
            (kind, draw(VALUE), draw(VALUE), draw(st.integers(0, 10_000)))
        )
    return ops


def build_db(r_rows, s_rows):
    db = Database()
    r = db.create_table(
        "r",
        [("a", AttributeType.INT), ("b", AttributeType.INT)],
        indexes=[("a",)],
    )
    s = db.create_table(
        "s",
        [("a", AttributeType.INT), ("c", AttributeType.INT)],
        indexes=[("a",)],
    )
    r.insert_many(r_rows)
    s.insert_many(s_rows)
    return db, r, s


def apply_ops(db, table, ops, txn_size=4):
    live = [row.tid for row in table.rows()]
    i = 0
    while i < len(ops):
        with db.begin() as txn:
            for kind, x, y, pick in ops[i : i + txn_size]:
                if kind == "insert" or not live:
                    live.append(txn.insert_into(table, (x, y)))
                elif kind == "delete":
                    tid = live.pop(pick % len(live))
                    txn.delete_from(table, tid)
                else:
                    tid = live[pick % len(live)]
                    if txn.read(table, tid) is not None:
                        txn.modify_in(table, tid, values=(x, y))
        i += txn_size


def assert_columnar_matches_row(db, tables, query, since):
    """Both evaluators, same plan and deltas; results must be equal."""
    deltas = deltas_since(tables, since)
    prepared = prepare_cq(query, db)
    row_metrics, col_metrics = Metrics(), Metrics()
    row = dra_execute(
        query, db, deltas=deltas, prepared=prepared, ts=99,
        metrics=row_metrics, columnar=False,
    )
    col = dra_execute(
        query, db, deltas=deltas, prepared=prepared, ts=99,
        metrics=col_metrics, columnar=True,
    )
    assert col.delta == row.delta
    assert col.skipped == row.skipped
    assert col.terms_evaluated == row.terms_evaluated
    # A columnar execution that did work must account for it.
    if not col.skipped and any(not d.is_empty() for d in deltas.values()):
        changed_locally = col.changed_aliases
        if changed_locally:
            assert col_metrics.get(Metrics.KERNEL_CALLS) > 0
    return row, col


ROWS = st.lists(st.tuples(VALUE, VALUE), max_size=8)


class TestColumnarEquivalence:
    @given(
        r_rows=ROWS,
        s_rows=ROWS,
        r_ops=update_ops(),
        s_ops=update_ops(),
        template=st.sampled_from(QUERIES),
        t=SMALL,
    )
    @settings(max_examples=120, deadline=None)
    def test_columnar_equals_row_oracle(
        self, r_rows, s_rows, r_ops, s_ops, template, t
    ):
        db, r, s = build_db(r_rows, s_rows)
        query = parse_query(template.format(t=t))
        since = db.now()
        apply_ops(db, r, r_ops)
        apply_ops(db, s, s_ops)
        assert_columnar_matches_row(db, [r, s], query, since)


# -- one-row attaches: a join from a foreign key to a primary key ------------

#: ``s.a`` is a key of ``s``; ``r.a`` may dangle (5..7) or be NULL.
UNIQUE_QUERIES = [
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a",
    # Local filters on the probed side (the literal on either side),
    # checked once per key, and a fused col-col residual (per row).
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND s.c < {t}",
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND {t} < s.c",
    "SELECT r.a, r.b, s.c FROM r, s WHERE r.a = s.a AND r.b < s.c",
    # Two-column key, probed through a scanned hash table (no index).
    "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b = s.c",
]
FOREIGN = st.one_of(st.none(), st.integers(0, 7))


@st.composite
def keyed_rows(draw):
    keys = draw(st.lists(st.integers(0, 4), unique=True, max_size=5))
    return [(k, draw(VALUE)) for k in keys]


class MapPathSpy:
    """Records which way each keyed base attach that found a match went:
    ``"map"`` (every probed key has one row) or ``"grouped"`` (some key
    fans out)."""

    def __init__(self):
        from repro.dra import kernels

        self.module = kernels
        self.originals = {
            "map": kernels._attach_by_map,
            "grouped": kernels._attach_by_group,
        }
        self.answers = []

    def __enter__(self):
        for answer, original in self.originals.items():

            def spy(*args, _answer=answer, _original=original):
                self.answers.append(_answer)
                return _original(*args)

            setattr(self.module, original.__name__, spy)
        return self

    def __exit__(self, *exc):
        for original in self.originals.values():
            setattr(self.module, original.__name__, original)


class TestOneRowAttach:
    """The per-row map attach and its grouped fallback, each against the
    row evaluator."""

    @given(
        r_rows=st.lists(st.tuples(FOREIGN, VALUE), max_size=8),
        s_rows=keyed_rows(),
        r_ops=update_ops(),
        template=st.sampled_from(UNIQUE_QUERIES),
        t=SMALL,
    )
    @settings(max_examples=80, deadline=None)
    def test_map_path(self, r_rows, s_rows, r_ops, template, t):
        """Only ``r`` changes: ``s`` is probed unchanged, one row a key."""
        db, r, s = build_db(r_rows, s_rows)
        query = parse_query(template.format(t=t))
        since = db.now()
        apply_ops(db, r, r_ops)
        with MapPathSpy() as spy:
            assert_columnar_matches_row(db, [r, s], query, since)
        assert set(spy.answers) <= {"map"}

    @given(
        r_rows=st.lists(st.tuples(FOREIGN, VALUE), max_size=8),
        s_rows=keyed_rows().filter(bool),
        r_ops=update_ops(),
        doubled=st.integers(0, 4),
        c=VALUE,
        inside=st.booleans(),
        template=st.sampled_from(UNIQUE_QUERIES),
        t=SMALL,
    )
    @settings(max_examples=80, deadline=None)
    def test_key_gains_a_second_row(
        self, r_rows, s_rows, r_ops, doubled, c, inside, template, t
    ):
        """A key of ``s`` fans out: before the window (probes of it
        group), or inside it (the old state still has one row)."""
        db, r, s = build_db(r_rows, s_rows)
        query = parse_query(template.format(t=t))
        since = db.now()
        s.insert((s_rows[doubled % len(s_rows)][0], c))
        if not inside:
            since = db.now()
        apply_ops(db, r, r_ops)
        assert_columnar_matches_row(db, [r, s], query, since)

    @given(
        r_rows=st.lists(st.tuples(FOREIGN, VALUE), max_size=8),
        s_rows=keyed_rows(),
        r_ops=update_ops(),
        s_ops=update_ops(max_ops=4),
        template=st.sampled_from(UNIQUE_QUERIES),
        t=SMALL,
    )
    @settings(max_examples=80, deadline=None)
    def test_probed_operand_changed(
        self, r_rows, s_rows, r_ops, s_ops, template, t
    ):
        """Both sides change: every base probe answers in the old state
        through the delta overlay."""
        db, r, s = build_db(r_rows, s_rows)
        query = parse_query(template.format(t=t))
        since = db.now()
        apply_ops(db, r, r_ops)
        apply_ops(db, s, s_ops)
        assert_columnar_matches_row(db, [r, s], query, since)

    def test_each_path_is_taken(self):
        """Directed: a key fanning out before the window groups; a key
        gaining its second row inside the window still maps (the old
        state has one), and dangling and NULL foreign keys drop out."""
        query = parse_query("SELECT r.a, r.b, s.c FROM r, s WHERE r.a = s.a")
        # (In the "changed" case the Δs term's probe of r finds nothing,
        # so only the Δr term's probe of s attaches.)
        cases = {"map": ["map"], "fan-out": ["grouped"], "changed": ["map"]}
        for case, expected in cases.items():
            db, r, s = build_db([(1, 0)], [(1, 5), (2, 6)])
            if case == "fan-out":
                s.insert((2, 7))
            since = db.now()
            with db.begin() as txn:
                txn.insert_into(r, (2, 1))
                txn.insert_into(r, (None, 2))
                txn.insert_into(r, (6, 3))
                if case == "changed":
                    txn.insert_into(s, (2, 7))
            with MapPathSpy() as spy:
                row, col = assert_columnar_matches_row(db, [r, s], query, since)
            assert spy.answers == expected, case
            news = sorted(entry.new for entry in col.delta)
            if case == "map":
                assert news == [(2, 1, 6)]
            else:
                assert news == [(2, 1, 6), (2, 1, 7)]


# -- key-unique probes: the probed operand answers in one C-level pass --------

#: ``s.a`` is a primary key; no filter, one comparison (either side of
#: the literal), and two comparisons (the grouped answer's filter).
KEY_QUERIES = [
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a",
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND s.c < {t}",
    "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND {t} <= s.c",
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND s.c >= {t} AND s.c < 4",
]
ONE_COMPARISON = 3  # KEY_QUERIES[:3] filter s by at most one comparison


class UniqueProbeSpy:
    """Records, per probe of ``s`` while unchanged and indexed, whether
    the one-pass unique answer was built (True) or the grouped one
    (False)."""

    def __init__(self):
        from repro.dra.operands import BaseOperand

        self.cls = BaseOperand
        self.original = BaseOperand._unique
        self.built = []

    def __enter__(self):
        def spy(operand, *args, _original=self.original):
            answer = _original(operand, *args)
            if operand.alias == "s":
                self.built.append(answer is not None)
            return answer

        self.cls._unique = spy
        return self

    def __exit__(self, *exc):
        self.cls._unique = self.original


class TestUniqueProbe:
    """A primary-key-shaped base operand against the row evaluator, the
    filter column and the probing keys both holding NULLs."""

    @given(
        r_rows=st.lists(st.tuples(FOREIGN, VALUE), max_size=8),
        s_rows=keyed_rows(),
        r_ops=update_ops(),
        which=st.integers(0, len(KEY_QUERIES) - 1),
        t=SMALL,
    )
    @settings(max_examples=100, deadline=None)
    def test_unchanged_key_operand(self, r_rows, s_rows, r_ops, which, t):
        db, r, s = build_db(r_rows, s_rows)
        query = parse_query(KEY_QUERIES[which].format(t=t))
        since = db.now()
        apply_ops(db, r, r_ops)
        with UniqueProbeSpy() as spy, MapPathSpy() as path:
            assert_columnar_matches_row(db, [r, s], query, since)
        assert set(path.answers) <= {"map"}
        if which < ONE_COMPARISON and None not in (c for __, c in s_rows):
            assert all(spy.built)
        if which >= ONE_COMPARISON:
            assert not any(spy.built)

    @given(
        r_rows=st.lists(st.tuples(FOREIGN, VALUE), max_size=8),
        s_rows=keyed_rows().filter(bool),
        r_ops=update_ops(),
        doubled=st.integers(0, 4),
        c=VALUE,
        which=st.integers(0, len(KEY_QUERIES) - 1),
        t=SMALL,
    )
    @settings(max_examples=100, deadline=None)
    def test_a_key_holds_two_rows(self, r_rows, s_rows, r_ops, doubled, c, which, t):
        """A second row under one key before the window: a probe that
        reads that key's bucket (two tids) must answer grouped."""
        db, r, s = build_db(r_rows, s_rows)
        query = parse_query(KEY_QUERIES[which].format(t=t))
        s.insert((s_rows[doubled % len(s_rows)][0], c))
        since = db.now()
        apply_ops(db, r, r_ops)
        assert_columnar_matches_row(db, [r, s], query, since)

    @given(
        r_rows=st.lists(st.tuples(FOREIGN, VALUE), max_size=8),
        s_rows=keyed_rows(),
        r_ops=update_ops(),
        s_ops=update_ops(max_ops=4),
        which=st.integers(0, len(KEY_QUERIES) - 1),
        t=SMALL,
    )
    @settings(max_examples=100, deadline=None)
    def test_key_operand_changes_in_the_window(
        self, r_rows, s_rows, r_ops, s_ops, which, t
    ):
        """``s`` changes too: its probes answer through the delta
        overlay, never the one-pass path."""
        db, r, s = build_db(r_rows, s_rows)
        query = parse_query(KEY_QUERIES[which].format(t=t))
        since = db.now()
        apply_ops(db, r, r_ops)
        apply_ops(db, s, s_ops)
        with UniqueProbeSpy() as spy:
            assert_columnar_matches_row(db, [r, s], query, since)
        if s.name in deltas_since([s], since):
            assert not any(spy.built)


class TestDirectedEdgeCases:
    def test_empty_delta_short_circuits(self):
        """No changes → skipped execution, zero kernel calls."""
        db, r, s = build_db([(1, 2)], [(1, 3)])
        query = parse_query("SELECT r.b, s.c FROM r, s WHERE r.a = s.a")
        since = db.now()
        metrics = Metrics()
        result = dra_execute(
            query, db, since=since, ts=99, metrics=metrics, columnar=True
        )
        assert result.skipped
        assert metrics.get(Metrics.KERNEL_CALLS) == 0

    def test_modify_produces_both_signs(self):
        """A modify seeds the kernel with a −1 old row and a +1 new row
        and must come back out as one modify entry."""
        db, r, s = build_db([(1, 0)], [(1, 5)])
        query = parse_query("SELECT r.b, s.c FROM r, s WHERE r.a = s.a")
        since = db.now()
        tid = next(iter(r.current.tids()))
        with db.begin() as txn:
            txn.modify_in(r, tid, values=(1, 9))
        row, col = assert_columnar_matches_row(db, [r, s], query, since)
        (entry,) = list(col.delta)
        assert entry.old is not None and entry.new is not None

    def test_local_filter_drops_one_side_of_a_modify(self):
        """A modify crossing the local predicate boundary keeps only
        one signed side — insert- or delete-shaped result entries."""
        db, r, s = build_db([(1, 0)], [(1, 5)])
        query = parse_query(
            "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND r.b > 2"
        )
        since = db.now()
        tid = next(iter(r.current.tids()))
        with db.begin() as txn:
            txn.modify_in(r, tid, values=(1, 4))  # 0 → 4 crosses b > 2
        row, col = assert_columnar_matches_row(db, [r, s], query, since)
        (entry,) = list(col.delta)
        assert entry.old is None and entry.new is not None

    def test_nulls_never_match_any_comparison(self):
        """NULL join keys and NULL filtered columns drop out of both
        paths identically (spec filters and residuals alike), and of
        complete evaluation: NULL = NULL is not true."""
        db, r, s = build_db([(None, 3), (1, None)], [(None, 2), (1, 4)])
        sql = (
            "SELECT r.a, s.a AS sa, r.b, s.c FROM r, s "
            "WHERE r.a = s.a AND r.b < s.c"
        )
        query = parse_query(sql)
        since = db.now()
        with db.begin() as txn:
            txn.insert_into(r, (None, 1))
            txn.insert_into(r, (1, 2))
            txn.insert_into(s, (1, None))
            txn.insert_into(s, (None, 5))  # meets r's new NULL key
        for columnar in (False, True):
            result = dra_execute(
                query, db, deltas=deltas_since([r, s], since), ts=99,
                columnar=columnar,
            )
            assert [e.new for e in result.delta] == [(1, 1, 2, 4)]
        assert db.query(sql).values_set() == {(1, 1, 2, 4)}
        row, col = assert_columnar_matches_row(db, [r, s], query, since)
        for entry in col.delta:
            assert None not in (entry.new or entry.old)

    def test_fused_residual_matches_filter_fallback(self):
        """The same residual evaluated fused (one comparison) and
        unfused (two) agrees with the row oracle both ways."""
        rows_r = [(i % 3, i % 5) for i in range(12)]
        rows_s = [(i % 3, (i * 2) % 5) for i in range(9)]
        for sql in (
            "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND r.b < s.c",
            "SELECT r.b, s.c FROM r, s "
            "WHERE r.a = s.a AND r.b < s.c AND r.b != s.c",
        ):
            db, r, s = build_db(rows_r, rows_s)
            query = parse_query(sql)
            since = db.now()
            tids = list(r.current.tids())
            with db.begin() as txn:
                txn.delete_from(r, tids[0])
                txn.modify_in(r, tids[1], values=(2, 4))
                txn.insert_into(r, (0, 1))
            assert_columnar_matches_row(db, [r, s], query, since)

    def test_both_operands_changed_runs_all_terms(self):
        """Three truth-table terms (Δr, Δs, ΔrΔs) all run columnar and
        sum to the row oracle's delta."""
        db, r, s = build_db([(1, 2), (2, 3)], [(1, 1), (2, 0)])
        query = parse_query(
            "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND s.c < 3"
        )
        since = db.now()
        with db.begin() as txn:
            txn.insert_into(r, (1, 7))
            txn.insert_into(s, (2, 2))
            txn.delete_from(s, next(iter(s.current.tids())))
        row, col = assert_columnar_matches_row(db, [r, s], query, since)
        assert col.terms_evaluated == 3

    def test_rows_per_kernel_call_accounting(self):
        """KERNEL_ROWS sums each kernel invocation's input batch size;
        a batch-heavy refresh therefore averages > 1 row per call."""
        db, r, s = build_db(
            [(i % 4, i % 3) for i in range(40)],
            [(i % 4, i % 5) for i in range(8)],
        )
        query = parse_query(
            "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND r.b > 0"
        )
        since = db.now()
        with db.begin() as txn:
            for i in range(30):
                txn.insert_into(r, (i % 4, 1 + i % 2))
        metrics = Metrics()
        dra_execute(
            query, db, since=since, ts=99, metrics=metrics, columnar=True
        )
        calls = metrics.get(Metrics.KERNEL_CALLS)
        rows = metrics.get(Metrics.KERNEL_ROWS)
        assert calls > 0
        assert rows / calls > 1.0


# -- modifies as pair rows ----------------------------------------------------
#
# ``p`` has a join key ``k``, a locally filtered column ``f``, a residual
# input ``x``, a projected-only column ``y`` and an unprojected column
# ``u``. A modify of ``p`` may travel the one term of an execution as
# one pair row only if both sides pass ``f > 1`` and ``k`` and ``x`` are
# unchanged; every other modify splits into signed sides.

PAIR_SQL = (
    "SELECT p.y, q.v FROM p, q WHERE p.k = q.k AND p.f > 1 AND p.x < q.v"
)
#: Which column each kind of modify moves.
PAIR_KINDS = {"key": 0, "filter": 1, "residual": 2, "projected": 3, "unprojected": 4}


def build_pair_db(p_rows, q_rows):
    db = Database()
    p = db.create_table(
        "p",
        [(name, AttributeType.INT) for name in ("k", "f", "x", "y", "u")],
        indexes=[("k",)],
    )
    q = db.create_table(
        "q", [("k", AttributeType.INT), ("v", AttributeType.INT)], indexes=[("k",)]
    )
    p.insert_many(p_rows)
    q.insert_many(q_rows)
    return db, p, q


def qualifying_modifies(delta):
    """Pair-eligible modifies of ``PAIR_SQL``, read off the delta: both
    sides pass ``f > 1`` and the join key and residual input agree."""

    def passes(values):
        return values[1] is not None and values[1] > 1

    return sum(
        1
        for e in delta
        if e.old is not None
        and e.new is not None
        and passes(e.old)
        and passes(e.new)
        and e.old[0] == e.new[0]
        and e.old[2] == e.new[2]
    )


def run_paired(db, tables, query, since):
    """The row oracle against the kernels; returns the kernels' result
    and its ``kernel_pairs``."""
    deltas = deltas_since(tables, since)
    prepared = prepare_cq(query, db)
    row = dra_execute(
        query, db, deltas=deltas, prepared=prepared, ts=99, columnar=False
    )
    metrics = Metrics()
    col = dra_execute(
        query, db, deltas=deltas, prepared=prepared, ts=99,
        metrics=metrics, columnar=True, explain=True,
    )
    assert col.delta == row.delta
    pairs = metrics.get(Metrics.KERNEL_PAIRS)
    assert sum(trace.paired for trace in col.traces or ()) == pairs
    return col, pairs


PAIR_VALUE = st.one_of(st.none(), st.integers(0, 3))
PAIR_ROWS = st.lists(st.tuples(*[PAIR_VALUE] * 5), min_size=1, max_size=8)


class TestPairRows:
    @given(
        p_rows=PAIR_ROWS,
        q_rows=st.lists(st.tuples(st.integers(0, 3), PAIR_VALUE), max_size=6),
        moves=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.lists(st.sampled_from(sorted(PAIR_KINDS)), min_size=1, max_size=2),
                st.lists(PAIR_VALUE, min_size=2, max_size=2),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_modifies_pair_exactly_when_eligible(
        self, p_rows, q_rows, moves
    ):
        """Modifies moving a join key, crossing the filter either way,
        moving a residual input, or only projected or unprojected
        columns: the kernels equal the row oracle, and exactly the
        eligible ones travel as pairs."""
        db, p, q = build_pair_db(p_rows, q_rows)
        query = parse_query(PAIR_SQL)
        since = db.now()
        tids = sorted(p.current.tids())
        with db.begin() as txn:
            for pick, kinds, values in moves:
                tid = tids[pick % len(tids)]
                row = list(txn.read(p, tid))
                for kind, value in zip(kinds, values):
                    row[PAIR_KINDS[kind]] = value
                txn.modify_in(p, tid, values=tuple(row))
        __, pairs = run_paired(db, [p, q], query, since)
        assert pairs == qualifying_modifies(deltas_since([p], since).get("p", ()))

    def one_modify(self, column, old, new, q_rows=((1, 5),)):
        """One row of ``p`` whose ``column`` goes ``old`` → ``new``."""
        row = [1, 2, 0, 7, 8]
        row[PAIR_KINDS[column]] = old
        db, p, q = build_pair_db([tuple(row)], list(q_rows))
        since = db.now()
        row[PAIR_KINDS[column]] = new
        p.modify(next(iter(p.current.tids())), tuple(row))
        return run_paired(db, [p, q], parse_query(PAIR_SQL), since)

    def test_projected_column_pairs_into_one_modify(self):
        col, pairs = self.one_modify("projected", 7, 9)
        assert pairs == 1
        (entry,) = list(col.delta)
        assert (entry.old, entry.new) == ((7, 5), (9, 5))
        assert "1 seed rows, 1 paired" in col.explain()

    def test_unprojected_column_pairs_into_nothing(self):
        col, pairs = self.one_modify("unprojected", 8, 0)
        assert pairs == 1
        assert col.delta.is_empty()

    def test_join_key_splits(self):
        col, pairs = self.one_modify("key", 1, 2, q_rows=((1, 5), (2, 6)))
        assert pairs == 0
        # The result tid names the q row matched: one leaves, one enters.
        assert sorted((e.old, e.new) for e in col.delta if e.old) == [
            ((7, 5), None)
        ]
        assert [e.new for e in col.delta if e.new] == [(7, 6)]

    def test_filter_crossing_splits_both_ways(self):
        col, pairs = self.one_modify("filter", 2, 0)
        assert pairs == 0
        (entry,) = list(col.delta)
        assert (entry.old, entry.new) == ((7, 5), None)
        col, pairs = self.one_modify("filter", 0, 3)
        assert pairs == 0
        (entry,) = list(col.delta)
        assert (entry.old, entry.new) == (None, (7, 5))

    def test_residual_input_splits(self):
        """``x`` is read only by the residual ``p.x < q.v``: moving it
        across makes the row leave the result. A rule that paired this
        modify would test the residual on the new side only and report
        no change."""
        col, pairs = self.one_modify("residual", 0, 9)
        assert pairs == 0
        (entry,) = list(col.delta)
        assert (entry.old, entry.new) == ((7, 5), None)

    def test_two_changed_tables_split(self):
        db, p, q = build_pair_db([(1, 2, 0, 7, 8)], [(1, 5)])
        since = db.now()
        with db.begin() as txn:
            txn.modify_in(p, next(iter(p.current.tids())), values=(1, 2, 0, 9, 8))
            txn.insert_into(q, (1, 6))
        col, pairs = run_paired(db, [p, q], parse_query(PAIR_SQL), since)
        assert pairs == 0
        assert col.terms_evaluated == 3

    def test_self_join_of_the_changed_table_splits(self):
        db, p, q = build_pair_db([(1, 2, 0, 7, 8), (1, 3, 1, 6, 0)], [])
        since = db.now()
        p.modify(next(iter(p.current.tids())), (1, 2, 0, 9, 8))
        query = parse_query(
            "SELECT a.y, b.y AS yb FROM p a, p b WHERE a.k = b.k AND a.f > 1"
        )
        col, pairs = run_paired(db, [p], query, since)
        assert pairs == 0
        assert not col.delta.is_empty()
