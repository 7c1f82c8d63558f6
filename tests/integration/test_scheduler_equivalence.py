"""Equivalence property harness for the refresh pipeline.

The paper's correctness claim is DRA ≡ complete re-evaluation (§4.2).
The manager has one refresh path; what can still vary is how it routes
and evaluates — the predicate index and the columnar kernels — so for
any workload the default manager, the predicate-index manager, the
columnar manager and the two together must each produce the result
sequence Q(S_1)..Q(S_n) that complete re-evaluation + Diff produces: the equivalence theorem
lifted from one refresh to the whole scheduling and compilation layers.

Schedules are randomized but fully deterministic given a seed: a
symbolic op script (inserts/deletes/modifies over 2–4 tables in
multi-statement transactions, interleaved with polls) is generated
once and replayed from scratch under every configuration. CQs span
selections, joins, and aggregates with mixed data (epsilon) and time
triggers. On divergence the harness shrinks to the shortest failing
script prefix before asserting, so failures arrive minimized.

Schedules also churn: between transactions, CQs over a small pool of
*repeating* SQL texts register and deregister under a handful of
reused names, with mixed triggers (``OnEveryChange``, ``OnUpdate``,
``EpsilonTrigger``, ``Every``) and ``AfterExecutions`` stops — so
``sql_key`` groups form, are joined by copying a live member's result
instead of running E_0, dissolve and re-form, and cohorts hold lazy,
always-visit and late members at once. Every notification — INITIAL
and STOPPED included — must match the oracle in order, seq, ts and
complete result, with ``auto_gc=True`` pruning behind every refresh.
"""

import json
import random

import pytest

from repro import Database
from repro.metrics import Metrics
from repro.core import (
    AnyOf,
    CountEpsilon,
    CQManager,
    DeliveryMode,
    Engine,
    EpsilonTrigger,
    EvaluationStrategy,
    Every,
    AfterExecutions,
    EverySinceResult,
    OnEveryChange,
    OnUpdate,
    manager_from_dict,
    manager_to_dict,
)
from repro.relational import AttributeType
from repro.relational.expressions import col, lit
from repro.relational.predicates import gt
from tests.core.conftest import MUTATORS
from tests.invariants import check_after_every_call

#: The oracle every other configuration is compared against.
BASE = "reeval"

CONFIGS = {
    # The paper's oracle: complete re-evaluation + Diff.
    BASE: dict(engine=Engine.REEVALUATE, manager=dict()),
    # The one refresh path: prepared plans, per-poll delta-batch cache,
    # grouped trigger skipping.
    "default": dict(engine=Engine.DRA, manager=dict()),
    # Predicate-index fan-out: one routing pass per poll decides which
    # CQs can skip their refresh with a provably-empty delta, and CQs
    # with identical SQL share one DRA evaluation per window.
    "predindex": dict(engine=Engine.DRA, manager=dict(fanout=True)),
    # Columnar kernel evaluation (DESIGN.md §11): every DRA refresh
    # runs the struct-of-arrays pipelines instead of the per-row
    # interpreter; the notification sequence must be bit-identical.
    "columnar": dict(engine=Engine.DRA, manager=dict(columnar=True)),
    # The pair E18's fan-out workloads and every ClusterShard run: the
    # index's routed entry seeds the kernels' operands, and a routed
    # group's later members receive the first one's evaluation.
    "fanout_columnar": dict(
        engine=Engine.DRA, manager=dict(fanout=True, columnar=True)
    ),
}

#: Compared against the oracle in runs of their own, not in every chunk.
EXTRA_CONFIGS = {
    # EAGER maintenance on an indexed manager: every commit is folded in
    # from the commit observer, over a window whose GC zone runs ahead
    # of the CQ's last execution.
    "eager": dict(engine=Engine.EAGER, manager=dict(fanout=True)),
}

N_SCHEDULES = 200
CHUNKS = 8
N_IMMEDIATE = 40
N_EAGER = 100

#: Names the churn steps register under, so names get reused.
CHURN_NAMES = [f"dyn{i}" for i in range(5)]


@pytest.fixture(autouse=True)
def invariants_after_every_operation(request, monkeypatch):
    """Every run below also checks ``CQManager.check_invariants()``
    after each register, deregister, poll and restore it makes — the
    200-schedule run in its first chunk only (one generator; checking
    re-evaluates every retained result after every call)."""
    callspec = getattr(request.node, "callspec", None)
    if callspec is None or not callspec.params.get("chunk"):
        check_after_every_call(monkeypatch, CQManager, MUTATORS)


# -- schedule generation ------------------------------------------------------


def make_schedule(seed):
    """A symbolic (tables, cq_specs, steps) triple; replay-only state.

    Row targets for deletes/modifies are symbolic floats resolved
    against the live rows at replay time, so the same script applies
    identically to every fresh database.
    """
    rng = random.Random(seed)
    n_tables = rng.randint(2, 4)
    tables = [f"t{i}" for i in range(n_tables)]
    seed_rows = {
        name: [
            (rng.randrange(12), rng.randrange(100))
            for __ in range(rng.randint(6, 18))
        ]
        for name in tables
    }

    cq_specs = []
    for i, name in enumerate(tables):
        threshold = rng.randrange(20, 80)
        cq_specs.append(
            (f"sel_{name}", f"SELECT k, v FROM {name} WHERE v > {threshold}")
        )
    if n_tables >= 2:
        a, b = rng.sample(tables, 2)
        cq_specs.append(
            (
                "join",
                f"SELECT {a}.v AS va, {b}.v AS vb FROM {a}, {b} "
                f"WHERE {a}.k = {b}.k AND {a}.v > {rng.randrange(10, 50)}",
            )
        )
    agg_table = rng.choice(tables)
    cq_specs.append(
        (
            "agg",
            f"SELECT SUM(v) AS total, COUNT(*) AS n FROM {agg_table} "
            f"WHERE v > {rng.randrange(10, 60)}",
        )
    )

    trigger_specs = []
    for i in range(len(cq_specs)):
        roll = rng.random()
        if roll < 0.4:
            trigger_specs.append(("on_change",))
        elif roll < 0.6:
            trigger_specs.append(("every", rng.randint(2, 8)))
        elif roll < 0.8:
            trigger_specs.append(("epsilon", rng.randint(1, 6)))
        else:
            trigger_specs.append(
                ("mixed", rng.randint(3, 10), rng.randint(2, 8))
            )

    # A small pool of repeating SQL texts for the churn steps: the same
    # text is live under several names at once, again and again.
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

    def churn_trigger(footprint):
        roll = rng.random()
        if roll < 0.45:
            return ("on_change",)
        if roll < 0.65:
            return ("on_update", rng.choice(footprint), rng.randrange(30, 90))
        if roll < 0.8:
            return ("epsilon", rng.randint(1, 4))
        return ("every", rng.randint(2, 8))

    steps = []
    live = []
    for __ in range(rng.randint(4, 8)):
        # Churn lands between the round's commits, so a CQ may join a
        # cohort that has commits it has not swept yet.
        kinds = ["txn"] * rng.randint(1, 3) + ["churn"] * rng.randint(0, 3)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "txn":
                table = rng.choice(tables)
                ops = []
                for __ in range(rng.randint(1, 5)):
                    roll = rng.random()
                    if roll < 0.45:
                        ops.append(
                            ("insert", rng.randrange(12), rng.randrange(100))
                        )
                    elif roll < 0.7:
                        ops.append(("delete", rng.random()))
                    else:
                        ops.append(("modify", rng.random(), rng.randrange(100)))
                steps.append(("txn", table, ops))
                continue
            free = [name for name in CHURN_NAMES if name not in live]
            if live and (not free or rng.random() < 0.4):
                name = live.pop(rng.randrange(len(live)))
                steps.append(("deregister", name))
            else:
                name = rng.choice(free)
                live.append(name)
                stop = rng.randint(1, 3) if rng.random() < 0.25 else None
                sql, footprint = rng.choice(pool)
                steps.append(
                    ("register", name, sql, churn_trigger(footprint), stop)
                )
        steps.append(("poll",))
    return tables, seed_rows, cq_specs, trigger_specs, steps


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


# -- replay -------------------------------------------------------------------


def run_schedule(
    schedule, config, strategy=EvaluationStrategy.PERIODIC, restore=False
):
    """Replay one schedule under one configuration; return the
    observable signature (per-poll notification tuples with complete
    result states), every live CQ's final result, and the number of
    delta consolidations the run served from the per-poll cache.

    With ``restore``, the site is checkpointed after every poll and the
    run continues on the manager (and database) loaded back from it."""
    tables, seed_rows, cq_specs, trigger_specs, steps = schedule
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

    mgr = CQManager(
        db,
        strategy=strategy,
        auto_gc=True,
        metrics=Metrics(),
        **config["manager"],
    )
    for (cq_name, sql), trig_spec in zip(cq_specs, trigger_specs):
        mgr.register_sql(
            cq_name,
            sql,
            trigger=build_trigger(trig_spec),
            mode=DeliveryMode.COMPLETE,
            engine=config["engine"],
        )
    mgr.drain()
    sqls = dict(cq_specs)

    signature = []

    def observe(notes):
        for note in notes:
            rows = (
                tuple(sorted(tuple(r.values) for r in note.result))
                if note.result is not None
                else None
            )
            signature.append(
                (note.cq_name, note.kind.value, note.seq, note.ts, rows)
            )

    for step in steps:
        if step[0] == "poll":
            observe(mgr.poll())
            if restore:
                data = json.loads(json.dumps(manager_to_dict(mgr)))
                mgr = manager_from_dict(data, metrics=mgr.metrics)
                db = mgr.db
                handles = {name: db.table(name) for name in tables}
            continue
        if step[0] == "register":
            __, cq_name, sql, trig_spec, stop = step
            sqls[cq_name] = sql
            mgr.register_sql(
                cq_name,
                sql,
                trigger=build_trigger(trig_spec),
                stop=AfterExecutions(stop) if stop else None,
                mode=DeliveryMode.COMPLETE,
                engine=config["engine"],
            )
            continue
        if step[0] == "deregister":
            mgr.deregister(step[1])
            continue
        __, table_name, ops = step
        table = handles[table_name]
        with db.begin() as txn:
            for op in ops:
                live = [row.tid for row in table.rows()]
                if op[0] == "insert" or not live:
                    k, v = (op[1], op[2]) if op[0] == "insert" else (0, 0)
                    txn.insert_into(table, (k, v))
                elif op[0] == "delete":
                    tid = live[int(op[1] * len(live)) % len(live)]
                    if txn.read(table, tid) is not None:
                        txn.delete_from(table, tid)
                else:
                    tid = live[int(op[1] * len(live)) % len(live)]
                    row = txn.read(table, tid)
                    if row is not None:
                        txn.modify_in(table, tid, values=(row[0], op[2]))
    # Flush: 6 result-affecting commits per table (fills every epsilon,
    # wakes every data trigger; k 0..5 guarantees join matches) plus a
    # large clock advance (fires every time trigger), so the final poll
    # executes every CQ and complete re-evaluation is a valid anchor.
    for name in tables:
        with db.begin() as txn:
            for k in range(6):
                txn.insert_into(handles[name], (k, 99))
    db.clock.advance_to(db.now() + 100_000)
    observe(mgr.poll())

    final = {}
    for cq in mgr.active():
        result = cq.previous_result
        final[cq.name] = tuple(sorted(tuple(r.values) for r in result))
        # (Tested per commit, an OnUpdate on one table of a join fires
        # before the flush reaches the other: no anchor, oracle only.)
        if strategy is EvaluationStrategy.PERIODIC or not isinstance(
            cq.trigger, OnUpdate
        ):
            assert result == db.query(sqls[cq.name]), (
                f"{cq.name} diverged from complete re-evaluation"
            )
    assert len(mgr.stats) <= len(mgr), "stats outlived their CQs"
    return signature, final, mgr.metrics[Metrics.DELTA_BATCHES_REUSED]


def signatures(schedule, configs=CONFIGS, **kwargs):
    known = {**CONFIGS, **EXTRA_CONFIGS}
    return {
        name: run_schedule(schedule, known[name], **kwargs) for name in configs
    }


def mismatches(results):
    # Compare the observable outputs (signature + final results) only;
    # consolidation counts legitimately differ across configurations.
    base = results[BASE][:2]
    return [name for name, got in results.items() if got[:2] != base]


def shrink(seed, schedule, **kwargs):
    """Shortest failing step-prefix of a diverging schedule."""
    tables, seed_rows, cq_specs, trigger_specs, steps = schedule
    for length in range(1, len(steps) + 1):
        prefix = steps[:length]
        if prefix[-1][0] != "poll":
            continue
        candidate = (tables, seed_rows, cq_specs, trigger_specs, prefix)
        try:
            results = signatures(candidate, **kwargs)
        except AssertionError:
            return candidate, ["<internal divergence>"]
        bad = mismatches(results)
        if bad:
            return candidate, bad
    return schedule, mismatches(signatures(schedule, **kwargs))


def check_seed(seed, **kwargs):
    schedule = make_schedule(seed)
    bad = mismatches(signatures(schedule, **kwargs))
    if bad:
        shrunk, still_bad = shrink(seed, schedule, **kwargs)
        raise AssertionError(
            f"seed {seed}: configs {still_bad} diverge from {BASE} "
            f"on {len(shrunk[4])}-step schedule:\n"
            + "\n".join(repr(s) for s in shrunk[4])
        )


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_scheduler_equivalence_randomized(chunk):
    per_chunk = N_SCHEDULES // CHUNKS
    for i in range(per_chunk):
        check_seed(7_000 + chunk * per_chunk + i)


@pytest.mark.parametrize("name", CONFIGS)
def test_restored_manager_equals_uninterrupted(name):
    """restore ≡ uninterrupted: replacing the manager by its own
    checkpoint after *every* poll — STOPPED CQs behind the GC horizon,
    aggregates whose zone ran ahead of their last execution, lazy
    members riding their cohort's sweep — changes no notification and
    no final result."""
    for i in range(N_SCHEDULES // CHUNKS):
        schedule = make_schedule(7_000 + i)
        uninterrupted = run_schedule(schedule, CONFIGS[name])
        restored = run_schedule(schedule, CONFIGS[name], restore=True)
        assert restored[:2] == uninterrupted[:2], f"seed {7_000 + i}"


def test_immediate_strategy_equivalence_randomized():
    """IMMEDIATE strategy: every commit tests every trigger through the
    manager's one observer per table; no member is lazy. The indexed
    manager must still match the oracle notification for notification."""
    for i in range(N_IMMEDIATE):
        check_seed(
            9_000 + i,
            configs=(BASE, "predindex", "fanout_columnar"),
            strategy=EvaluationStrategy.IMMEDIATE,
        )


def test_eager_engine_equivalence_randomized():
    """EAGER CQs read the log on every commit, from their own
    applied-through stamp, while ``auto_gc`` prunes behind their zone:
    they never ride a cohort's sweep, and they stay pending after GC
    has pruned the commits that made them so."""
    for i in range(N_EAGER):
        check_seed(7_000 + i, configs=(BASE, "eager"))


def test_all_four_configs_share_one_known_answer():
    """A deterministic spot check that the harness itself observes
    every configuration (the oracle and four ways of running DRA) doing
    real work (not vacuously equal)."""
    schedule = make_schedule(99)
    results = signatures(schedule)
    assert len(results) == len(CONFIGS) == 5
    base_signature, base_final, __ = results[BASE]
    assert base_signature, "schedule produced no notifications"
    assert mismatches(results) == []
    # The delta-batch cache actually shares (not vacuously equal).
    assert results["default"][2] > 0


def test_fanout_columnar_exercises_receives_and_seeds(monkeypatch):
    """The randomized runs above are only a safety net for what they
    reach: the first chunk's schedules must take the constant-time
    receive, run seeded executions (multi-alias ones included), meet
    late joiners, and refuse a receive because the window differed."""
    import repro.core.manager as manager_module

    seen = dict(receives=0, refused=0, seeded=0, multi_alias=0, late=0)
    receive, execute = CQManager._receive, manager_module.dra_execute

    def counted_receive(self, cq):
        cohort = self._cohorts[cq.table_names]
        group = self._sql_groups[cq.sql_key]
        before, now = group.last, self.db.now()
        # A lazy member whose window starts after its cohort's sweep.
        seen["late"] += cq.last_execution_ts > cohort.swept
        receive(self, cq)
        moved = cq.last_execution_ts == now
        # Took the evaluation an earlier member's turn left ...
        seen["receives"] += moved and group.last is before
        # ... or found one as of now, over another window, and evaluated.
        seen["refused"] += (
            moved
            and group.last is not before
            and before is not None
            and before[1] == now
        )

    def counted_execute(*args, seeds=None, **kwargs):
        seen["seeded"] += seeds is not None
        seen["multi_alias"] += seeds is not None and len(seeds) > 1
        return execute(*args, seeds=seeds, **kwargs)

    monkeypatch.setattr(CQManager, "_receive", counted_receive)
    monkeypatch.setattr(manager_module, "dra_execute", counted_execute)
    for i in range(N_SCHEDULES // CHUNKS):
        run_schedule(make_schedule(7_000 + i), CONFIGS["fanout_columnar"])
    assert all(seen.values()), seen
