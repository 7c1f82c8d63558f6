"""End-to-end tracing of a scheduler-driven refresh.

At sample rate 1.0 a single poll over a joined CQ must surface every
pipeline stage as a span — trigger evaluation, delta consolidation,
DRA apply, notify — attributed to the right CQ and stitched into one
trace per refresh, with the per-CQ cost tables visible in
``describe()``.
"""

from repro import Database
from repro.core import CQManager, EvaluationStrategy
from repro.metrics import Metrics
from repro.obs import Tracer
from repro.relational import AttributeType


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def build():
    db = Database()
    for name in ("t0", "t1"):
        db.create_table(
            name,
            [("k", AttributeType.INT), ("v", AttributeType.INT)],
            indexes=[("k",)],
        ).insert_many([(i, 10 * i) for i in range(6)])
    tracer = Tracer(sample_rate=1.0, clock=FakeClock())
    mgr = CQManager(
        db,
        strategy=EvaluationStrategy.PERIODIC,
        metrics=Metrics(),
        tracer=tracer,
    )
    notes = []
    mgr.register_sql(
        "join_cq",
        "SELECT t0.v AS va, t1.v AS vb FROM t0, t1 "
        "WHERE t0.k = t1.k AND t0.v > 10",
        on_notify=notes.append,
    )
    mgr.register_sql(
        "sel_cq",
        "SELECT k, v FROM t0 WHERE v > 20",
        on_notify=notes.append,
    )
    mgr.drain()
    tracer.reset()
    return db, mgr, tracer, notes


def refresh_once(db, mgr):
    t0, t1 = db.table("t0"), db.table("t1")
    with db.begin() as txn:
        txn.insert_into(t0, (7, 70))
        txn.insert_into(t1, (7, 71))
    return mgr.poll()


class TestTracedRefreshPipeline:
    def test_every_stage_produces_spans(self):
        db, mgr, tracer, __ = build()
        refresh_once(db, mgr)
        names = {r["name"] for r in tracer.spans()}
        assert {
            "scheduler.poll",
            "cq.trigger",
            "cq.refresh",
            "delta.consolidate",
            "dra.apply",
            "cq.notify",
        } <= names

    def test_spans_carry_per_cq_attribution(self):
        db, mgr, tracer, __ = build()
        refresh_once(db, mgr)
        refreshes = {r["cq"]: r for r in tracer.spans("cq.refresh")}
        assert set(refreshes) == {"join_cq", "sel_cq"}
        assert refreshes["join_cq"]["tables"] == "t0,t1"
        assert refreshes["join_cq"]["latency_us"] > 0

        # Each stage span is stitched into its own CQ's refresh trace.
        for name in ("dra.apply", "cq.notify"):
            by_trace = {}
            for record in tracer.spans(name):
                by_trace.setdefault(record["trace"], []).append(record)
            for cq_name, refresh in refreshes.items():
                stage_records = by_trace.get(refresh["trace"], [])
                assert stage_records, f"no {name} span for {cq_name}"
        notify = {r["cq"] for r in tracer.spans("cq.notify")}
        assert notify == {"join_cq", "sel_cq"}

        consolidated = {r["table"] for r in tracer.spans("delta.consolidate")}
        assert consolidated == {"t0", "t1"}

    def test_refresh_spans_record_charged_counters(self):
        db, mgr, tracer, __ = build()
        refresh_once(db, mgr)
        join = next(
            r for r in tracer.spans("cq.refresh") if r["cq"] == "join_cq"
        )
        # The scoped tee attributed this refresh's work to the span:
        # a DRA refresh of a join reads deltas and scans seed rows.
        assert join.get(Metrics.DELTA_ROWS_READ, 0) > 0

    def test_poll_span_counts_runnable(self):
        db, mgr, tracer, __ = build()
        refresh_once(db, mgr)
        (poll,) = tracer.spans("scheduler.poll")
        assert poll["registered"] == 2
        assert poll["runnable"] == 2

    def test_describe_surfaces_per_cq_costs(self):
        db, mgr, tracer, __ = build()
        refresh_once(db, mgr)
        refresh_once(db, mgr)
        info = {row["name"]: row for row in mgr.describe()}
        join = info["join_cq"]
        assert join["refreshes"] == 2
        assert join["delta_rows_read"] > 0
        assert join["refresh_p95_us"] > 0

    def test_notifications_unaffected_by_tracing(self):
        db, mgr, __, notes = build()
        refresh_once(db, mgr)
        assert {n.cq_name for n in notes} == {"join_cq", "sel_cq"}

    def test_slow_refresh_log_records_threshold_breaches(self):
        db = Database()
        db.create_table(
            "t0", [("k", AttributeType.INT), ("v", AttributeType.INT)]
        ).insert_many([(i, 10 * i) for i in range(4)])
        mgr = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            slow_refresh_us=0.0,  # everything is "slow"
        )
        mgr.register_sql("q", "SELECT k, v FROM t0 WHERE v > 5")
        mgr.drain()
        with db.begin() as txn:
            txn.insert_into(db.table("t0"), (9, 90))
        mgr.poll()
        assert mgr.slow_refreshes
        event = mgr.slow_refreshes[-1]
        assert event["event"] == "slow_refresh"
        assert event["cq"] == "q"
        assert event["latency_us"] >= 0.0


class TestTracedServerReplay:
    def test_reconnect_replay_emits_term_spans(self):
        """A reconnect replay runs the same evaluate step as a refresh,
        so its DRA terms are as visible to tracing as any other."""
        from repro.net.client import CQClient
        from repro.net.server import CQServer
        from repro.net.simnet import SimulatedNetwork

        db = Database()
        t0 = db.create_table(
            "t0", [("k", AttributeType.INT), ("v", AttributeType.INT)]
        )
        t0.insert_many([(i, 10 * i) for i in range(4)])
        tracer = Tracer(sample_rate=1.0, clock=FakeClock())
        server = CQServer(db, SimulatedNetwork(), tracer=tracer)
        client = CQClient("c1")
        server.attach(client)
        client.register("q", "SELECT k, v FROM t0 WHERE v > 5")
        applied = db.now()
        t0.insert((9, 90))
        tracer.reset()
        assert server.replay("c1", "q", applied)
        assert tracer.spans("dra.term")
        assert client.result("q") == db.query("SELECT k, v FROM t0 WHERE v > 5")
