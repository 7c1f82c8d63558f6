"""The constructor keywords of the serving and cluster classes, pinned
— and the state the three stateful cores carry.

Each on/off keyword doubles the configurations the equivalence harness
and the benchmarks have to cover, so adding one must be a deliberate
edit here, not a side effect of a feature. None of these takes
``**kwargs``, so any keyword outside these sets is a ``TypeError``.

``STATE`` pins the same way what a freshly constructed ``CQManager``,
``ClusterRouter`` and ``CQServer`` hold: state about one CQ, one
``sql_key``, one placement group, one host, one store or one
subscription lives on that record (``ContinualQuery``, ``_SqlGroup``,
``_Group``, ``_Host``, ``_Store``, ``Subscription``, ``SharedGroup``),
so a new instance attribute — the next parallel registry — is a
deliberate edit here too.
"""

import inspect

import pytest

from repro import Database
from repro.cluster import ClusterRouter, LocalBackend, ProcessBackend
from repro.core import CQManager
from repro.net.server import CQServer
from repro.net.service import CQService
from repro.net.simnet import SimulatedNetwork

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


STATE = {
    CQManager: {
        # configuration and collaborators
        "db",
        "strategy",
        "auto_gc",
        "metrics",
        "history_limit",
        "tracer",
        "slow_refresh_us",
        "columnar",
        "fanout_index",
        "plans",
        "zones",
        "stats",
        "slow_refreshes",
        # registries: by name, footprint, table, sql_key
        "_cqs",
        "_registered",
        "_cohorts",
        "_unsubscribes",
        "_watchers",
        "_sql_groups",
        "_outbox",
        # scoped to one poll or observed commit / one refresh
        "_window",
        "_scoped_metrics",
    },
    ClusterRouter: {
        # configuration and collaborators
        "metrics",
        "backend",
        "db",
        "seed",
        "ring",
        "index",
        "zones",
        "auto_gc",
        "replicas",
        "health",
        "_request_timeout",
        "_retries",
        "_engine",
        "_initial_weights",
        "_n_initial",
        "_decls",
        "_started",
        "_seq",
        # records: per sql_key, per subscription, per placement group,
        # per host (its stores by group)
        "_sql_groups",
        "_subs",
        "_groups",
        "_hosts",
    },
    CQServer: {
        # configuration and collaborators
        "db",
        "network",
        "name",
        "metrics",
        "audit_interval",
        "tracer",
        "columnar",
        "fanout_index",
        "plans",
        "zones",
        "stats",
        # records: endpoints, subscriptions (all / in no group), groups
        "_clients",
        "_subscriptions",
        "_solo",
        "_groups",
        "_holders",
        # scoped to one refresh / the audit sampler
        "_scoped_metrics",
        "_refreshes_since_audit",
    },
}

FRESH = {
    CQManager: [lambda: CQManager(Database())],
    ClusterRouter: [lambda: ClusterRouter(shards=1)],
    CQServer: [
        lambda: CQServer(Database(), SimulatedNetwork(), fanout=False),
        lambda: CQServer(Database(), SimulatedNetwork(), fanout=True),
    ],
}


@pytest.mark.parametrize("cls", STATE, ids=lambda cls: cls.__name__)
def test_instance_attributes_are_exactly(cls):
    for fresh in FRESH[cls]:
        assert set(vars(fresh())) == STATE[cls]
