"""Every cluster test checks the router's bookkeeping laws continuously:
``ClusterRouter.check_invariants()`` runs after every public mutating
call a test makes (see ``tests/invariants.py``)."""

import pytest

from repro.cluster import ClusterRouter
from tests.invariants import check_after_every_call

MUTATORS = (
    "subscribe",
    "unsubscribe",
    "refresh",
    "kill_shard",
    "recover_shard",
    "add_shard",
    "remove_shard",
    "collect_garbage",
)


@pytest.fixture(autouse=True)
def invariants_after_every_operation(monkeypatch):
    check_after_every_call(monkeypatch, ClusterRouter, MUTATORS)
