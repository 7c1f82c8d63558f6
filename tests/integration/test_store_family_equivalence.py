"""The family schedules at one cluster shard store (``Store`` in
``test_schedules.py``): the store holds one resultless view per
``sql_key`` in its shape's family, ships deltas and retains no result;
each gathered delta must take Q's result at the view's window start to
Q's result now, and the store's laws must hold after every frame."""

from tests.integration.test_family_equivalence import (  # noqa: F401 (fixture)
    N_SCHEDULES,
    seen,
)
from tests.integration.test_schedules import Store, check, make_family_schedule


def test_store_families_equal_complete_reevaluation(seen):
    """Through families of one and many, two-table windows,
    cross-member modifies and mid-stream (un)subscribes."""
    for seed in range(23_000, 23_000 + N_SCHEDULES):
        check(seed, make_family_schedule(seed), {"store": lambda: Store(seed)})
    assert all(seen.values()), seen
