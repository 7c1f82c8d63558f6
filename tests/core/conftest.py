"""Every core test checks the manager's record-keeping laws continuously:
``CQManager.check_invariants()`` runs after every public mutating call a
test makes (see ``tests/invariants.py``). A test marked ``bulk``
registers hundreds of CQs — re-evaluating every retained result after
every call would be quadratic — and checks once, itself."""

import pytest

from repro.core import CQManager
from tests.invariants import check_after_every_call

MUTATORS = ("register", "deregister", "poll", "restore", "collect_garbage")


@pytest.fixture(autouse=True)
def invariants_after_every_operation(request, monkeypatch):
    if request.node.get_closest_marker("bulk") is None:
        check_after_every_call(monkeypatch, CQManager, MUTATORS)
