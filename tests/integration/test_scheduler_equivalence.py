"""The manager on the generated schedules (``test_schedules.py``).

For any workload the manager's one refresh path must produce the result
sequence Q(S_1)..Q(S_n) that complete re-evaluation + Diff produces:
every notification, INITIAL and STOPPED included, in order, seq, ts and
complete result, with ``auto_gc=True`` pruning behind every refresh.
The churn makes ``sql_key`` groups form, take joiners by copying a live
member's result, dissolve and re-form, and cohorts hold lazy,
always-visit and late members at once.
"""

import pytest

from repro.core import CQManager, Engine, EvaluationStrategy
from repro.metrics import Metrics
from tests.core.conftest import MUTATORS
from tests.integration.test_schedules import (
    Manager,
    check,
    make_family_schedule,
    make_schedule,
    replay,
)
from tests.invariants import check_after_every_call

#: The oracle every other configuration is compared against.
BASE = "reeval"
CONFIGS = {
    # The paper's oracle: complete re-evaluation + Diff.
    BASE: Engine.REEVALUATE,
    # The one refresh path (DESIGN.md §11): while a cohort routes, one
    # pass per poll decides which CQs skip with a provably-empty delta,
    # the routed entry seeds the kernels' operands, and a routed group's
    # later members receive the first one's evaluation.
    "default": Engine.DRA,
    # EAGER maintenance (compared in runs of its own): every commit is
    # folded in from the commit observer, over a window whose GC zone
    # runs ahead of the CQ's last execution.
    "eager": Engine.EAGER,
}

N_SCHEDULES = 200
CHUNKS = 8
N_IMMEDIATE = 40
N_EAGER = 100
#: DRA with every cohort's routing pinned on: a restored manager's
#: cohorts start out routing, so this arm also compares both runs with
#: the routed path taken on every sweep, not only until a routed sweep
#: leaves no lazy member out.
PINNED = "predindex"


@pytest.fixture(autouse=True)
def invariants_after_every_operation(request, monkeypatch):
    """Every run below also checks ``CQManager.check_invariants()``
    after each register, deregister, poll, restore and GC it makes — the
    200-schedule run in its first chunk only (one generator; checking
    re-evaluates every retained result after every call)."""
    callspec = getattr(request.node, "callspec", None)
    if callspec is None or not callspec.params.get("chunk"):
        check_after_every_call(monkeypatch, CQManager, MUTATORS)


def pin_routing(monkeypatch):
    due = CQManager._due

    def routed_due(self, cohort):
        cohort.routing = True
        return due(self, cohort)

    monkeypatch.setattr(CQManager, "_due", routed_due)


def managers(names=("default",), **kwargs):
    """``check``'s tiers: the oracle first, then each of ``names``."""
    return {
        name: (lambda engine=CONFIGS[name]: Manager(engine, **kwargs))
        for name in (BASE, *names)
    }


def check_seed(seed, names=("default",), **kwargs):
    check(seed, make_schedule(seed), managers(names, **kwargs))


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_scheduler_equivalence_randomized(chunk):
    per_chunk = N_SCHEDULES // CHUNKS
    for i in range(per_chunk):
        check_seed(7_000 + chunk * per_chunk + i)


@pytest.mark.parametrize("name", [BASE, "default", PINNED])
def test_restored_manager_equals_uninterrupted(name, monkeypatch):
    """restore ≡ uninterrupted: replacing the manager by its own
    checkpoint after *every* poll — STOPPED CQs behind the GC horizon,
    aggregates whose zone ran ahead of their last execution, lazy
    members riding their cohort's sweep — changes no notification and
    no final result."""
    if name == PINNED:
        pin_routing(monkeypatch)
    engine = CONFIGS.get(name, Engine.DRA)
    tiers = {
        "uninterrupted": lambda: Manager(engine),
        "restored": lambda: Manager(engine, restore=True),
    }
    for i in range(N_SCHEDULES // CHUNKS):
        check(7_000 + i, make_schedule(7_000 + i), tiers)


def test_immediate_strategy_equivalence_randomized():
    """IMMEDIATE strategy: every commit tests every trigger through the
    manager's one observer per table; no member is lazy. The manager
    must still match the oracle notification for notification."""
    for i in range(N_IMMEDIATE):
        check_seed(9_000 + i, strategy=EvaluationStrategy.IMMEDIATE)


def test_eager_engine_equivalence_randomized():
    """EAGER CQs read the log on every commit, from their own
    applied-through stamp, while ``auto_gc`` prunes behind their zone:
    they never ride a cohort's sweep, and they stay pending after GC
    has pruned the commits that made them so."""
    for i in range(N_EAGER):
        check_seed(7_000 + i, names=("eager",))


def test_all_four_configs_share_one_known_answer():
    """A deterministic spot check that the harness itself observes
    every configuration (the oracle and DRA) doing real work (not
    vacuously equal)."""
    schedule = make_schedule(99)
    tiers = {name: Manager(CONFIGS[name]) for name in (BASE, "default")}
    results = {name: replay(schedule, tier) for name, tier in tiers.items()}
    assert results[BASE][0], "schedule produced no notifications"
    assert results["default"] == results[BASE]
    # The delta-batch cache actually shares (not vacuously equal).
    assert tiers["default"].mgr.metrics[Metrics.DELTA_BATCHES_REUSED] > 0


def test_fanout_columnar_exercises_receives_and_seeds(monkeypatch):
    """The randomized runs above are only a safety net for what they
    reach: the first chunk's schedules and the first family schedules
    must take the constant-time receive, run seeded executions
    (multi-alias ones included), meet late joiners, refuse a receive
    because the window differed (a late joiner's own, beside the view
    its cohort's sweep moved), and sweep touched cohorts both routed and
    unrouted."""
    import repro.core.scheduler as scheduler_module

    seen = dict(receives=0, refused=0, seeded=0, multi_alias=0, late=0)
    seen.update(routed_sweeps=0, unrouted_sweeps=0)
    receive, execute = CQManager._receive, scheduler_module.dra_execute
    due = CQManager._due

    def counted_due(self, cohort):
        if cohort.lazy and self._touched(cohort.tables, cohort.swept):
            seen["routed_sweeps" if cohort.routing else "unrouted_sweeps"] += 1
        return due(self, cohort)

    def counted_receive(self, cq):
        cohort = self._cohorts[cq.table_names]
        group = self._views[cq.sql_key]
        swept, now = self._window.moved.get(group), self.db.now()
        # A lazy member whose window starts after its cohort's sweep.
        seen["late"] += cq.last_execution_ts > cohort.swept
        took = receive(self, cq)
        # Took the evaluation the poll's sweep left ...
        seen["receives"] += took is True
        # ... or found the view swept as of now, over another window,
        # and evaluated its own.
        seen["refused"] += took is False and swept is not None and swept[1] == now
        return took

    def counted_execute(*args, seeds=None, **kwargs):
        seen["seeded"] += seeds is not None
        seen["multi_alias"] += seeds is not None and len(seeds) > 1
        return execute(*args, seeds=seeds, **kwargs)

    monkeypatch.setattr(CQManager, "_receive", counted_receive)
    monkeypatch.setattr(CQManager, "_due", counted_due)
    monkeypatch.setattr(scheduler_module, "dra_execute", counted_execute)
    for i in range(N_SCHEDULES // CHUNKS):
        replay(make_schedule(7_000 + i), Manager(Engine.DRA))
    for i in range(8):
        replay(make_family_schedule(23_000 + i), Manager(Engine.DRA))
    assert all(seen.values()), seen
