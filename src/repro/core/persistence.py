"""Checkpoint, restore and crash recovery of a CQ manager or server.

A site checkpoint is the database — contents, update logs, clock —
plus each continual query's definition and position (its window's
start). No CQ state is built here: ``CQManager.restore`` and
``CQServer.restore`` install each one *as of* its position, so a
restored site resumes differentially — the first refresh processes
exactly the updates the checkpoint had not yet delivered.

Serializable trigger/stop conditions cover the declarative forms
(:class:`Every`, :class:`At`, epsilon specs, :class:`AfterExecutions`,
:class:`AtTime`, and their AnyOf/AllOf compositions). ``Custom`` and
``WhenCondition`` wrap arbitrary callables and are rejected with a
clear error — code cannot ride along in a JSON file.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.errors import CheckpointError, ReproError
from repro.relational.sql import parse_query
from repro.storage import wal as journal
from repro.storage.database import Database
from repro.storage.snapshots import (
    database_from_dict,
    database_to_dict,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.continual_query import ContinualQuery, CQStatus, DeliveryMode, Engine
from repro.core.epsilon import (
    CountEpsilon,
    MagnitudeEpsilon,
    NetChangeEpsilon,
    ResultDriftEpsilon,
)
from repro.core.manager import CQManager, EvaluationStrategy
from repro.core.termination import AfterExecutions, AtTime, Never
from repro.core.triggers import (
    AllOf,
    AnyOf,
    At,
    EpsilonTrigger,
    Every,
    EverySinceResult,
    OnEveryChange,
    OnUpdate,
)

FORMAT_VERSION = 1


class UnserializableCQ(ReproError):
    """The CQ uses a callable-based trigger or stop condition."""


# -- trigger serialization ---------------------------------------------------


def trigger_to_dict(trigger) -> Dict[str, Any]:
    if isinstance(trigger, OnEveryChange):
        return {"kind": "on_every_change"}
    if isinstance(trigger, Every):
        return {"kind": "every", "interval": trigger.interval}
    if isinstance(trigger, EverySinceResult):
        return {"kind": "every_since_result", "interval": trigger.interval}
    if isinstance(trigger, At):
        return {
            "kind": "at",
            "times": list(trigger.times),
            "next": trigger._next,
        }
    if isinstance(trigger, OnUpdate):
        return {
            "kind": "on_update",
            "table": trigger.table,
            "predicate_sql": trigger.predicate.to_sql(),
            "include_deletes": trigger.include_deletes,
            "armed": trigger._armed,
        }
    if isinstance(trigger, EpsilonTrigger):
        return {"kind": "epsilon", "spec": _spec_to_dict(trigger.spec)}
    if isinstance(trigger, (AnyOf, AllOf)):
        return {
            "kind": "any_of" if isinstance(trigger, AnyOf) else "all_of",
            "children": [trigger_to_dict(c) for c in trigger.children],
        }
    raise UnserializableCQ(
        f"trigger {trigger!r} cannot be checkpointed (callable-based)"
    )


def trigger_from_dict(data: Dict[str, Any]):
    kind = data["kind"]
    if kind == "on_every_change":
        return OnEveryChange()
    if kind == "every":
        return Every(data["interval"])
    if kind == "every_since_result":
        return EverySinceResult(data["interval"])
    if kind == "at":
        trigger = At(data["times"])
        trigger._next = data["next"]
        return trigger
    if kind == "on_update":
        # A bare predicate parses inside a dummy query.
        query = parse_query(f"SELECT * FROM t WHERE {data['predicate_sql']}")
        trigger = OnUpdate(
            data["table"], query.predicate, include_deletes=data["include_deletes"]
        )
        trigger._armed = data["armed"]
        return trigger
    if kind == "epsilon":
        return EpsilonTrigger(_spec_from_dict(data["spec"]))
    if kind in ("any_of", "all_of"):
        children = [trigger_from_dict(c) for c in data["children"]]
        return AnyOf(*children) if kind == "any_of" else AllOf(*children)
    raise ReproError(f"unknown trigger kind {kind!r}")


def _spec_to_dict(spec) -> Dict[str, Any]:
    if isinstance(spec, CountEpsilon):
        return {"kind": "count", "limit": spec.limit, "count": spec._count}
    if isinstance(spec, (NetChangeEpsilon, MagnitudeEpsilon)):
        return {
            "kind": "net_change" if isinstance(spec, NetChangeEpsilon) else "magnitude",
            "limit": spec.limit,
            "column": spec.column,
            "table": spec.table,
            "divergence": spec.divergence,
        }
    if isinstance(spec, ResultDriftEpsilon):
        reported = spec.reported
        return {
            "kind": "drift",
            "limit": spec.limit,
            "reported": None if reported is ResultDriftEpsilon._UNSET else reported,
            "current": spec.current,
            "unset": reported is ResultDriftEpsilon._UNSET,
        }
    raise UnserializableCQ(f"epsilon spec {spec!r} cannot be checkpointed")


def _spec_from_dict(data: Dict[str, Any]):
    kind = data["kind"]
    if kind == "count":
        spec = CountEpsilon(data["limit"])
        spec._count = data["count"]
        return spec
    if kind in ("net_change", "magnitude"):
        cls = NetChangeEpsilon if kind == "net_change" else MagnitudeEpsilon
        spec = cls(data["limit"], data["column"], data["table"])
        spec._divergence = data["divergence"]
        return spec
    if kind == "drift":
        spec = ResultDriftEpsilon(data["limit"])
        if not data["unset"]:
            spec.reported = data["reported"]
        spec.current = data["current"]
        return spec
    raise ReproError(f"unknown epsilon spec kind {kind!r}")


def _stop_to_dict(stop) -> Dict[str, Any]:
    if isinstance(stop, Never):
        return {"kind": "never"}
    if isinstance(stop, AtTime):
        return {"kind": "at_time", "deadline": stop.deadline}
    if isinstance(stop, AfterExecutions):
        return {"kind": "after_executions", "count": stop.count}
    raise UnserializableCQ(
        f"stop condition {stop!r} cannot be checkpointed (callable-based)"
    )


def _stop_from_dict(data: Dict[str, Any]):
    kind = data["kind"]
    if kind == "never":
        return Never()
    if kind == "at_time":
        return AtTime(data["deadline"])
    if kind == "after_executions":
        return AfterExecutions(data["count"])
    raise ReproError(f"unknown stop kind {kind!r}")


# -- manager serialization ----------------------------------------------------


def manager_to_dict(manager: CQManager) -> Dict[str, Any]:
    """One checkpoint of the manager and its database: each CQ's
    definition and position, and its retained result (``"retained"``)
    only where the logs cannot rebuild it — a CQ kept current ahead of
    an execution that garbage collection has since passed."""
    db = manager.db
    cqs = []
    last_result_ts = {}
    for record in manager.describe():
        cq = manager.get(record["name"])
        # Effective: a lazy CQ skipped by polls rides its cohort.
        last_ts = record["last_ts"]
        entry = {
            "name": cq.name,
            "sql": cq.query.to_sql(),
            "trigger": trigger_to_dict(cq.trigger),
            "stop": _stop_to_dict(cq.stop),
            "mode": cq.mode.value,
            "engine": cq.engine.value,
            "keep_result": cq.keep_result,
            "status": cq.status.value,
            "last_execution_ts": last_ts,
            "executions": cq.executions,
        }
        if cq.status is CQStatus.ACTIVE and any(
            db.table(name).log.pruned_through > last_ts
            for name in cq.table_names
        ):
            entry["retained"] = [
                [row.tid, list(row.values)] for row in cq.held
            ]
        cqs.append(entry)
        last_result_ts[cq.name] = cq.last_result_ts
    return {
        "format": FORMAT_VERSION,
        "database": database_to_dict(db),
        "strategy": manager.strategy.value,
        "auto_gc": manager.auto_gc,
        "history_limit": manager.history_limit,
        "last_result_ts": last_result_ts,
        "cqs": cqs,
    }


def _cq_from_dict(entry: Dict[str, Any]) -> ContinualQuery:
    """The CQ a checkpoint entry or a journal event defines. A journal
    holds None for a callable-based trigger or stop: the defaults."""
    trigger, stop = entry.get("trigger"), entry.get("stop")
    return ContinualQuery(
        entry["name"],
        parse_query(entry["sql"]),
        trigger=trigger_from_dict(trigger) if trigger else None,
        stop=_stop_from_dict(stop) if stop else None,
        mode=DeliveryMode(entry["mode"]),
        engine=Engine(entry["engine"]),
        keep_result=entry["keep_result"],
    )


def manager_from_dict(data: Dict[str, Any], metrics=None) -> CQManager:
    """Restore a manager (and database) from :func:`manager_to_dict`.

    :meth:`CQManager.restore` installs each CQ as of its checkpointed
    window start; the window itself (the updates after
    ``last_execution_ts``) is preserved in the restored logs. The
    ``columnar`` and ``fanout`` flags older checkpoints carry are
    ignored: DRA always runs the kernels, and every manager is indexed.
    """
    if data.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported manager checkpoint format {data.get('format')!r}"
        )
    manager = CQManager(
        database_from_dict(data["database"]),
        strategy=EvaluationStrategy(data["strategy"]),
        auto_gc=data["auto_gc"],
        metrics=metrics,
        history_limit=data.get("history_limit", 0),
    )
    last_result_ts = data.get("last_result_ts", {})
    manager.restore(
        (
            _cq_from_dict(entry),
            entry["last_execution_ts"],
            {
                "status": CQStatus(entry["status"]),
                "executions": entry["executions"],
                "last_result_ts": last_result_ts.get(entry["name"]),
                # Result tids are scalars or flat tuples (lists, in JSON).
                "retained": None
                if "retained" not in entry
                else [
                    (tuple(tid) if isinstance(tid, list) else tid, values)
                    for tid, values in entry["retained"]
                ],
            },
        )
        for entry in data["cqs"]
    )
    return manager


def save_manager(manager: CQManager, path: str) -> None:
    """Atomically checkpoint a manager; a journaling database also gets
    its WAL truncated and re-seeded (the checkpoint supersedes it)."""
    write_checkpoint(path, manager_to_dict(manager))
    _retire_wal(manager.db)


def load_manager(path: str, metrics=None) -> CQManager:
    return manager_from_dict(read_checkpoint(path), metrics)


def _retire_wal(db) -> None:
    """After a checkpoint lands, the journal restarts from the current
    table set; see :func:`repro.storage.wal.rebase_wal`."""
    if db.wal is not None and not db.wal.closed:
        journal.rebase_wal(db.wal, db)


# -- CQ server serialization --------------------------------------------------


def server_to_dict(server) -> Dict[str, Any]:
    """Checkpoint a :class:`~repro.net.server.CQServer`.

    Captures the database (contents *and* update logs, including
    pruned_through marks) plus every subscription's identity, protocol,
    and refresh position. Retained copies are a pure function of those
    and are re-derived on restore; a lazy subscription's un-fetched
    pending delta likewise — reconnecting clients resume through
    :meth:`CQServer.replay`, which recomputes their missed window.
    """
    return {
        "format": FORMAT_VERSION,
        "kind": "cq_server",
        "name": server.name,
        "database": database_to_dict(server.db),
        "subscriptions": _subscription_entries(server),
    }


def _subscription_entries(server) -> List[Dict[str, Any]]:
    return [
        {
            "client": sub.client_id,
            "cq": sub.cq_name,
            "sql": sub.sql_key,
            "protocol": sub.protocol.value,
            "last_ts": sub.last_ts,
        }
        for sub in server.subscriptions()
    ]


def server_from_dict(data: Dict[str, Any], metrics=None):
    """Restore a CQ server from :func:`server_to_dict`.

    :meth:`CQServer.restore` rebuilds each retained result as of its
    ``last_ts`` and re-registers the replay zones there, so the first
    post-restore garbage collection cannot prune a window a
    reconnecting client may still request.
    """
    from repro.net.server import CQServer
    from repro.net.simnet import SimulatedNetwork

    if data.get("format") != FORMAT_VERSION or data.get("kind") != "cq_server":
        raise CheckpointError(
            f"not a CQ server checkpoint (format={data.get('format')!r}, "
            f"kind={data.get('kind')!r})"
        )
    server = CQServer(
        database_from_dict(data["database"]),
        SimulatedNetwork(),
        name=data["name"],
        metrics=metrics,
    )
    server.restore(
        (e["client"], e["cq"], e["sql"], e["protocol"], e["last_ts"])
        for e in data["subscriptions"]
    )
    return server


def save_server(server, path: str) -> None:
    """Atomically checkpoint a server; a journaling database also gets
    its WAL truncated and re-seeded (the checkpoint supersedes it)."""
    write_checkpoint(path, server_to_dict(server))
    _retire_wal(server.db)
    if server.db.wal is not None and not server.db.wal.closed:
        # Re-seed subscription events too, so the journal alone can
        # rebuild the subscription set if the checkpoint file is lost.
        for entry in _subscription_entries(server):
            server.db.wal.log_event(
                journal.KIND_SUB_REGISTER, ts=entry.pop("last_ts"), **entry
            )


def load_server(path: str, metrics=None):
    return server_from_dict(read_checkpoint(path), metrics)


# -- crash recovery (checkpoint + WAL suffix) ---------------------------------


def _replay_wal(db, wal_path: str, prefix: str, key, metrics=None):
    """Scan + replay a journal on top of an (optionally restored) db
    (frames at or below its clock: covered by its checkpoint) and
    re-attach it: the recovered site journals like the crashed one did.
    The one journal scanner of every tier: manager, server and cluster
    shard store (``ClusterShard.recover``). Returns the ``<prefix>_register``/``_deregister`` events netted out
    per ``key(event)``: the last register event, or None (deregistered)."""
    __, __, summary = journal.recover_database(wal_path, metrics=metrics, base=db)
    desired: Dict[Any, Optional[Dict[str, Any]]] = {}
    for event in summary.cq_events:
        if event["k"] == prefix + "_register":
            desired[key(event)] = event
        elif event["k"] == prefix + "_deregister":
            desired[key(event)] = None
    return desired


def recover_manager(
    wal_path: str,
    checkpoint_path: Optional[str] = None,
    metrics=None,
) -> CQManager:
    """Rebuild a CQ manager after a crash: checkpoint + WAL suffix.

    Loads the last checkpoint when one exists, replays every journal
    frame newer than it (tolerating a torn tail), then re-applies CQ
    register/deregister events the checkpoint had not absorbed. A CQ
    recovered from a journal event is installed as of its registration
    timestamp when the recovered update logs still cover that window —
    its next refresh delivers everything since, differentially, and it
    is sent no second INITIAL — and as of recovery time otherwise.
    """
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        manager = load_manager(checkpoint_path, metrics)
    else:
        manager = CQManager(Database(), metrics=metrics)
    db = manager.db
    desired = _replay_wal(db, wal_path, "cq", lambda event: event["name"], metrics)
    for name, event in desired.items():
        if event is None:
            manager.deregister(name)
    manager.restore(
        (_cq_from_dict(event), event.get("ts", db.now()), {})
        for name, event in desired.items()
        if event is not None and name not in manager
    )
    return manager


def recover_server(
    wal_path: str,
    checkpoint_path: Optional[str] = None,
    metrics=None,
):
    """Rebuild a CQ server after a crash: checkpoint + WAL suffix, by
    :func:`recover_manager`'s rule — a journaled subscription is
    re-installed as of its registration while the recovered logs still
    cover that window (a reconnecting client resumes differentially)."""
    from repro.net.server import CQServer
    from repro.net.simnet import SimulatedNetwork

    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        server = load_server(checkpoint_path, metrics)
    else:
        server = CQServer(Database(), SimulatedNetwork(), metrics=metrics)
    db = server.db
    desired = _replay_wal(
        db, wal_path, "sub", lambda e: (e["client"], e["cq"]), server.metrics
    )
    held = {(sub.client_id, sub.cq_name) for sub in server.subscriptions()}
    for key, event in desired.items():
        if event is None and key in held:
            server.deregister(*key)
    server.restore(
        (*key, event["sql"], event["protocol"], event.get("ts", db.now()))
        for key, event in desired.items()
        if event is not None and key not in held
    )
    return server
