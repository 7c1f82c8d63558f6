"""Continuous invariant checking for the stateful cores' test suites.

``check_after_every_call`` wraps the named public mutating methods of a
class so that ``check_invariants()`` runs after every call a test makes
(not after the calls those make internally: an ``add_shard`` is checked
once it returns, not after its leading refresh). A call that raises is
not checked — the tests that expect an error assert on the state
themselves.
"""

import functools


def check_after_every_call(monkeypatch, cls, names):
    depth = 0

    def checked(method):
        @functools.wraps(method)
        def wrapper(instance, *args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                out = method(instance, *args, **kwargs)
            finally:
                depth -= 1
            if not depth:
                instance.check_invariants()
            return out

        return wrapper

    for name in names:
        monkeypatch.setattr(cls, name, checked(getattr(cls, name)))
