"""The generated schedules (``test_schedules.py``) on a server with
in-process clients (``Server``): ``sql_key`` views form with DRA_DELTA
and DRA_LAZY members side by side, dissolve and re-form, while the
REEVAL_* baselines refresh alone; clients detach (some releasing their
zones, so GC may retire a view's window) and come back through
``replay``. After every refresh each attached client's cache equals
``db.query``; the ``tests/net`` conftest runs
``CQServer.check_invariants()`` after every public mutating call.
"""

import pytest

from tests.integration.test_schedules import Server, check, make_schedule

N_SCHEDULES = 60


@pytest.mark.parametrize("chunk", range(4))
def test_server_schedules_equal_complete_reevaluation(chunk):
    per_chunk = N_SCHEDULES // 4
    for seed in range(11_000 + chunk * per_chunk, 11_000 + (chunk + 1) * per_chunk):
        check(seed, make_schedule(seed), {"server": lambda: Server(seed)})
