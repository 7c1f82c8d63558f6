"""Generated schedules over template families: every member equals Q.

A *family* is the indexed SPJ views whose texts differ only in the
local predicate of one alias, P (``core/scheduler.py`` ``Family``): a
routed window in which only P's table changed is evaluated once on the
shape's plan, over the union of the members' routed P-sides, and each
member's delta is assembled from the outputs of its own sides.
``make_family_schedule`` (``test_schedules.py``) stresses exactly that;
its schedules replay here at the manager (complete re-evaluation is the
oracle) and the server, and at one store and the router elsewhere.
"""

import pytest

import repro.core.scheduler as scheduler
from repro.core import CQManager
from repro.net.server import CQServer
from tests.core.conftest import MUTATORS
from tests.integration.test_scheduler_equivalence import PINNED, managers, pin_routing
from tests.integration.test_schedules import Server, check, make_family_schedule
from tests.invariants import check_after_every_call
from tests.net.conftest import MUTATORS as SERVER_MUTATORS

N_SCHEDULES = 24
#: Schedules replayed with both tiers' laws — the families' among them —
#: checked after every public mutating call (each check re-evaluates
#: every retained result, so not all of them).
N_CHECKED = 2


def check_all(monkeypatch, tiers):
    """``check`` every schedule on ``tiers(seed)``, the first
    ``N_CHECKED`` under ``check_invariants`` after every call."""
    for i in range(N_SCHEDULES):
        with monkeypatch.context() as patched:
            if i < N_CHECKED:
                check_after_every_call(patched, CQManager, MUTATORS)
                check_after_every_call(patched, CQServer, SERVER_MUTATORS)
            check(23_000 + i, make_family_schedule(23_000 + i), tiers(23_000 + i))


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
        pin_routing(monkeypatch)
    check_all(monkeypatch, lambda seed: managers())
    assert all(seen.values()), seen


def test_server_families_equal_complete_reevaluation(seen, monkeypatch):
    """Every in-process client's cache equals ``db.query`` after every
    refresh, replays and lazy fetches included."""
    check_all(monkeypatch, lambda seed: {"server": lambda: Server(seed)})
    assert all(seen.values()), seen
