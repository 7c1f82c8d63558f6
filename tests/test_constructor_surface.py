"""The constructor keywords of the serving and cluster classes, pinned
— and the state the stateful cores carry.

Each on/off keyword doubles the configurations the equivalence harness
and the benchmarks have to cover, so adding one must be a deliberate
edit here, not a side effect of a feature. None of these takes
``**kwargs``, so any keyword outside these sets is a ``TypeError``.
``TRUE_ONLY`` names the keywords kept only because existing callers pass
them ``True``: they select nothing, and ``False`` — the deleted arm —
is a ``TypeError`` too.

``STATE`` pins the same way what a freshly constructed ``CQManager``,
``ClusterRouter``, ``CQServer`` and ``ClusterShard`` hold: state about
one CQ, one ``sql_key``, one placement group, one host, one store or
one subscription lives on that record (``ContinualQuery``,
``SharedView``, ``_Group``, ``_Host``, ``_Store``, ``Subscription``;
the router's view of a ``sql_key`` is a ``SharedView`` too, with its
owner groups and whether it is behind kept beside it),
so a new instance attribute — the next parallel registry — is a
deliberate edit here too.
"""

import inspect

import pytest

from repro import Database
from repro.cluster import ClusterRouter, ClusterShard, LocalBackend, ProcessBackend
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
    LocalBackend: {"wal_root", "fault_hook", "shuffle_seed"},
    ProcessBackend: {"wal_root", "columnar", "slow"},
    ClusterShard: {"shard_id", "decls", "metrics", "group", "db"},
}

TRUE_ONLY = [
    (CQManager, "fanout", lambda **kw: CQManager(Database(), **kw)),
    (CQManager, "columnar", lambda **kw: CQManager(Database(), **kw)),
    (CQService, "fanout", lambda **kw: CQService(Database(), **kw)),
    (CQService, "columnar", lambda **kw: CQService(Database(), **kw)),
    (ProcessBackend, "columnar", lambda **kw: ProcessBackend(**kw)),
]


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_constructor_keywords_are_exactly(cls):
    params = set(inspect.signature(cls.__init__).parameters) - {"self"}
    assert params == SURFACE[cls]


def test_true_only_keywords_reject_the_deleted_arm():
    for cls, keyword, build in TRUE_ONLY:
        assert keyword in SURFACE[cls]
        assert inspect.signature(cls.__init__).parameters[keyword].default is True
        build(**{keyword: True})
        with pytest.raises(TypeError, match=f"{keyword}=False"):
            build(**{keyword: False})


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
        "index",
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
        "_views",
        # indexed SPJ views by shape (one execution per routed window)
        "_families",
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
        "plans",
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
        # records: per sql_key (its view, its owner groups, the keys a
        # promotion left behind), per subscription, per placement group,
        # per host (its stores by group)
        "_views",
        "_owners",
        "_behind",
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
        "index",
        "plans",
        "zones",
        "stats",
        # records: endpoints, subscriptions (all / in no view), views
        "_clients",
        "_subscriptions",
        "_solo",
        "_views",
        # views by shape (one execution per routed window)
        "_families",
        "_holders",
        # scoped to one refresh / the audit sampler
        "_scoped_metrics",
        "_refreshes_since_audit",
    },
    # A store is its tables plus one window per sql_key: no server, no
    # client endpoint, no network.
    ClusterShard: {
        # identity and collaborators
        "shard_id",
        "group",
        "metrics",
        "db",
        "plans",
        "index",
        "zones",
        # records: views by sql_key; replies by seq (retry dedup)
        "_views",
        "_reply_cache",
        # views by shape (one execution per routed window)
        "_families",
    },
}

FRESH = {
    CQManager: [lambda: CQManager(Database())],
    ClusterRouter: [lambda: ClusterRouter(shards=1)],
    CQServer: [lambda: CQServer(Database(), SimulatedNetwork())],
    ClusterShard: [lambda: ClusterShard(0, [])],
}


@pytest.mark.parametrize("cls", STATE, ids=lambda cls: cls.__name__)
def test_instance_attributes_are_exactly(cls):
    for fresh in FRESH[cls]:
        assert set(vars(fresh())) == STATE[cls]


def test_each_owner_names_its_own_deleted_arm():
    with pytest.raises(TypeError, match="the manager's unindexed arm"):
        CQManager(Database(), fanout=False)
    with pytest.raises(TypeError, match="the server's per-subscription"):
        CQService(Database(), fanout=False)
