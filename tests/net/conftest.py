"""Every net test checks the server's record-keeping laws continuously:
``CQServer.check_invariants()`` runs after every public mutating call a
test makes (see ``tests/invariants.py``)."""

import pytest

from repro.net.server import CQServer
from tests.invariants import check_after_every_call

MUTATORS = (
    "handle_register",
    "deregister",
    "refresh_all",
    "replay",
    "handle_fetch",
    "handle_resync",
    "attach",
    "detach",
)


@pytest.fixture(autouse=True)
def invariants_after_every_operation(monkeypatch):
    check_after_every_call(monkeypatch, CQServer, MUTATORS)
