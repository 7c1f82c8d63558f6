"""The constructor keywords of the serving and cluster classes, pinned.

Each on/off keyword doubles the configurations the equivalence harness
and the benchmarks have to cover, so adding one must be a deliberate
edit here, not a side effect of a feature. None of these takes
``**kwargs``, so any keyword outside these sets is a ``TypeError``.
"""

import inspect

import pytest

from repro.cluster import ClusterRouter, LocalBackend, ProcessBackend
from repro.core import CQManager
from repro.net.server import CQServer
from repro.net.service import CQService

SURFACE = {
    CQManager: {
        "db",
        "strategy",
        "auto_gc",
        "metrics",
        "history_limit",
        "durability",
        "tracer",
        "slow_refresh_us",
        "fanout",
        "columnar",
    },
    CQServer: {
        "db",
        "network",
        "name",
        "metrics",
        "audit_interval",
        "tracer",
        "fanout",
        "columnar",
    },
    CQService: {
        "db",
        "name",
        "metrics",
        "host",
        "port",
        "queue_limit",
        "heartbeat_interval",
        "miss_limit",
        "idle_timeout",
        "injector",
        "server",
        "durability",
        "audit_interval",
        "tracer",
        "fanout",
        "columnar",
    },
    ClusterRouter: {
        "shards",
        "seed",
        "metrics",
        "backend",
        "vnodes",
        "auto_gc",
        "replicas",
        "request_timeout",
        "retries",
        "suspect_after",
        "dead_after",
        "backoff_base",
        "weights",
    },
    LocalBackend: {"wal_root", "columnar", "fault_hook", "shuffle_seed"},
    ProcessBackend: {"wal_root", "columnar", "slow"},
}


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_constructor_keywords_are_exactly(cls):
    params = set(inspect.signature(cls.__init__).parameters) - {"self"}
    assert params == SURFACE[cls]
