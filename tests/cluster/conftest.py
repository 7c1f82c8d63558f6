"""Every cluster test checks the bookkeeping laws continuously:
``ClusterRouter.check_invariants()`` runs after every public mutating
call a test makes (see ``tests/invariants.py``), and
``ClusterShard.check_invariants()`` after every frame a store handles.

A store handles frames on a ``LocalBackend`` pool thread, which turns
an exception into a host fault, so a broken store law is recorded
there and fails the test at teardown instead of being raised inside
the frame."""

import pytest

from repro.cluster import ClusterRouter, ClusterShard
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


@pytest.fixture(autouse=True)
def store_laws_after_every_frame(monkeypatch):
    broken = []
    handle = ClusterShard.handle

    def checked(store, message):
        reply = handle(store, message)
        try:
            store.check_invariants()
        except AssertionError as exc:
            broken.append(f"{store!r} after {type(message).__name__}: {exc}")
        return reply

    monkeypatch.setattr(ClusterShard, "handle", checked)
    yield
    assert not broken, "store laws broken:\n" + "\n".join(broken)
