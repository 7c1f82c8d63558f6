"""Generated schedules over template families: every member equals Q.

A *family* is the indexed SPJ views whose texts differ only in the
local predicate of one alias, P (``core/scheduler.py`` ``Family``): a
routed window in which only P's table changed is evaluated once on the
shape's plan, over the union of the P-sides routing sent the members,
and each member's delta is assembled from the outputs of its own
sides. These schedules are built to stress exactly that:

* many literals per shape, over equality, interval and scan-bucket
  locals (``v > c OR k = d``), so one window routes a side to several
  members and several sides to one;
* shapes whose P is a joined alias, first or second in FROM, so P's
  tid sits inside a composite result tid;
* projections that leave the routed column out, so a modify whose old
  side routes to one member and new side to another projects equal
  rows — a delete in the one, an insert in the other, which a signed
  sum over the union would cancel;
* inserts, deletes and modifies, plus transactions that write two
  tables at once, whose windows take each member's own execution.

They replay through the manager harness (``run_schedule``: complete
re-evaluation is the oracle, every notification must match it and every
final result equal ``db.query``) and through the server harness
(``run_server_schedule``: every in-process client's cache equals
``db.query`` after each refresh).
"""

import random

import pytest

import repro.core.scheduler as scheduler
from repro.core import CQManager
from repro.net.server import CQServer
from tests.core.conftest import MUTATORS
from tests.integration.test_scheduler_equivalence import (
    CHURN_NAMES,
    PINNED,
    mismatches,
    signatures,
)
from tests.invariants import check_after_every_call
from tests.net.conftest import MUTATORS as SERVER_MUTATORS
from tests.net.test_server_equivalence import run_server_schedule

N_SCHEDULES = 24
TABLES = ["t0", "t1", "t2"]


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
    """A (tables, seed rows, CQ specs, triggers, steps) schedule in the
    manager harness's format, over family-rich texts."""
    rng = random.Random(seed)
    seed_rows = {
        name: [(rng.randrange(12), rng.randrange(100)) for __ in range(16)]
        for name in TABLES
    }
    texts = family_texts(rng)
    cq_specs = [(f"f{i}", sql) for i, sql in enumerate(texts)]
    # Mostly lazy members, so cohorts route; a few visited every poll.
    trigger_specs = [
        ("on_change",) if rng.random() < 0.8 else ("every", rng.randint(2, 6))
        for __ in cq_specs
    ]
    steps, live = [], []
    for __ in range(rng.randint(5, 9)):
        kinds = ["txn"] * rng.randint(1, 3) + ["txns"] * rng.randint(0, 1)
        kinds += ["churn"] * rng.randint(0, 2)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "churn":
                free = [name for name in CHURN_NAMES if name not in live]
                if live and (not free or rng.random() < 0.4):
                    steps.append(("deregister", live.pop(rng.randrange(len(live)))))
                else:
                    name = rng.choice(free)
                    live.append(name)
                    steps.append(
                        ("register", name, rng.choice(texts), ("on_change",), None)
                    )
                continue
            chosen = rng.sample(TABLES, 2 if kind == "txns" else 1)
            parts = []
            for table in chosen:
                ops = []
                for __ in range(rng.randint(1, 6)):
                    roll = rng.random()
                    if roll < 0.3:
                        ops.append(("insert", rng.randrange(12), rng.randrange(100)))
                    elif roll < 0.45:
                        ops.append(("delete", rng.random()))
                    else:
                        ops.append(("modify", rng.random(), rng.randrange(100)))
                parts.append((table, ops))
            steps.append(("txn", *parts[0]) if kind == "txn" else ("txns", parts))
        steps.append(("poll",))
    return TABLES, seed_rows, cq_specs, trigger_specs, steps


#: Schedules replayed with both tiers' laws — the families' among them —
#: checked after every public mutating call (each check re-evaluates
#: every retained result, so not all of them).
N_CHECKED = 2


def replay(monkeypatch, run):
    """``run(seed)`` for every schedule, the first ``N_CHECKED`` under
    ``check_invariants`` after every call."""
    for seed in range(N_SCHEDULES):
        with monkeypatch.context() as patched:
            if seed < N_CHECKED:
                check_after_every_call(patched, CQManager, MUTATORS)
                check_after_every_call(patched, CQServer, SERVER_MUTATORS)
            run(seed)


@pytest.fixture
def seen(monkeypatch):
    """Counts what the schedules reach: family evaluations, routed
    executions of one view over a window that touched two tables, and
    sides whose outputs a signed sum over the union would have
    cancelled between two members."""
    counts = dict(families=0, two_tables=0, cancelled=0)
    evaluate, execute = scheduler.Family.evaluate, scheduler.dra_execute
    inside = []

    def counted_evaluate(self, *args, **kwargs):
        inside.append(self)
        try:
            shares = evaluate(self, *args, **kwargs)
        finally:
            inside.pop()
        counts["families"] += 1
        gone, came = {}, {}
        for key, delta in shares.items():
            for entry in delta:
                if entry.old is not None:
                    gone.setdefault((entry.tid, entry.old), set()).add(key)
                if entry.new is not None:
                    came.setdefault((entry.tid, entry.new), set()).add(key)
        counts["cancelled"] += sum(
            bool(came.get(side, set()) - keys) for side, keys in gone.items()
        )
        return shares

    def counted_execute(*args, **kwargs):
        counts["two_tables"] += (
            not inside
            and kwargs.get("seeds") is not None
            and len(kwargs["deltas"]) > 1
        )
        return execute(*args, **kwargs)

    monkeypatch.setattr(scheduler.Family, "evaluate", counted_evaluate)
    monkeypatch.setattr(scheduler, "dra_execute", counted_execute)
    return counts


@pytest.mark.parametrize("routing", ["observed", PINNED])
def test_manager_families_equal_complete_reevaluation(routing, seen, monkeypatch):
    """Every notification equals the oracle's and every final result
    ``db.query``'s, with each cohort's routing as observed and pinned
    on (every sweep routed, so every eligible window is a family's)."""
    if routing == PINNED:
        due = CQManager._due

        def routed_due(self, cohort):
            cohort.routing = True
            return due(self, cohort)

        monkeypatch.setattr(CQManager, "_due", routed_due)

    def run(seed):
        schedule = make_family_schedule(23_000 + seed)
        assert mismatches(signatures(schedule)) == [], f"seed {23_000 + seed}"

    replay(monkeypatch, run)
    assert all(seen.values()), seen


def test_server_families_equal_complete_reevaluation(seen, monkeypatch):
    """Every in-process client's cache equals ``db.query`` after every
    refresh, replays and lazy fetches included."""
    replay(
        monkeypatch,
        lambda seed: run_server_schedule(seed, make_family_schedule(23_000 + seed)),
    )
    assert all(seen.values()), seen
