"""Every cluster test checks the router's bookkeeping laws continuously.

``ClusterRouter.check_invariants()`` runs after every public mutating
call a test makes (not after the calls those make internally: an
``add_shard`` is checked once it returns, not after its leading
refresh). A call that raises is not checked — the tests that expect an
error assert on the state themselves.
"""

import functools

import pytest

from repro.cluster import ClusterRouter

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
    depth = 0

    def checked(method):
        @functools.wraps(method)
        def wrapper(router, *args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                out = method(router, *args, **kwargs)
            finally:
                depth -= 1
            if not depth:
                router.check_invariants()
            return out

        return wrapper

    for name in MUTATORS:
        monkeypatch.setattr(
            ClusterRouter, name, checked(getattr(ClusterRouter, name))
        )
