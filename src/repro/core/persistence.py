"""Checkpoint and restore of a CQ manager (with its database).

A site checkpoint must capture more than table contents: each
registered continual query owns a delta window (its last execution
timestamp) and a retained previous result, and the update logs must
cover every window. This module serializes the manager together with
its database so a restored site resumes *differentially* — the first
refresh after restore processes exactly the updates the checkpoint had
not yet delivered.

Serializable trigger/stop conditions cover the declarative forms
(:class:`Every`, :class:`At`, epsilon specs, :class:`AfterExecutions`,
:class:`AtTime`, and their AnyOf/AllOf compositions). ``Custom`` and
``WhenCondition`` wrap arbitrary callables and are rejected with a
clear error — code cannot ride along in a JSON file.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.errors import CheckpointError, ReproError
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
        predicate = _parse_predicate(data["predicate_sql"])
        trigger = OnUpdate(
            data["table"], predicate, include_deletes=data["include_deletes"]
        )
        trigger._armed = data["armed"]
        return trigger
    if kind == "epsilon":
        return EpsilonTrigger(_spec_from_dict(data["spec"]))
    if kind in ("any_of", "all_of"):
        children = [trigger_from_dict(c) for c in data["children"]]
        return AnyOf(*children) if kind == "any_of" else AllOf(*children)
    raise ReproError(f"unknown trigger kind {kind!r}")


def _parse_predicate(sql_condition: str):
    """Parse a bare predicate by wrapping it in a dummy query."""
    from repro.relational.sql import parse_query

    return parse_query(f"SELECT * FROM t WHERE {sql_condition}").predicate


def _spec_to_dict(spec) -> Dict[str, Any]:
    if isinstance(spec, CountEpsilon):
        return {"kind": "count", "limit": spec.limit, "count": spec._count}
    if isinstance(spec, NetChangeEpsilon):
        return {
            "kind": "net_change",
            "limit": spec.limit,
            "column": spec.column,
            "table": spec.table,
            "divergence": spec.divergence,
        }
    if isinstance(spec, MagnitudeEpsilon):
        return {
            "kind": "magnitude",
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
    """Serialize the manager and its database into one checkpoint."""
    cqs = []
    for cq in manager._cqs.values():
        cqs.append(
            {
                "name": cq.name,
                "sql": cq.query.to_sql(),
                "trigger": trigger_to_dict(cq.trigger),
                "stop": _stop_to_dict(cq.stop),
                "mode": cq.mode.value,
                "engine": cq.engine.value,
                "keep_result": cq.keep_result,
                "status": cq.status.value,
                # Effective: a lazy CQ skipped by polls rides its cohort.
                "last_execution_ts": manager._since(cq),
                "executions": cq.executions,
            }
        )
    return {
        "format": FORMAT_VERSION,
        "database": database_to_dict(manager.db),
        "strategy": manager.strategy.value,
        "auto_gc": manager.auto_gc,
        "history_limit": manager.history_limit,
        "last_result_ts": {
            cq.name: cq.last_result_ts for cq in manager._cqs.values()
        },
        "cqs": cqs,
    }


def manager_from_dict(data: Dict[str, Any]) -> CQManager:
    """Restore a manager (and database) from :func:`manager_to_dict`.

    Previous results are re-derived by evaluating each CQ over the
    restored contents *as of the checkpoint* — sound because the
    checkpointed database state is exactly the state at checkpoint
    time, and each CQ's pending window (updates after its
    last_execution_ts) is preserved in the restored logs. The first
    post-restore refresh is therefore differential over precisely the
    not-yet-delivered updates.
    """
    if data.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported manager checkpoint format {data.get('format')!r}"
        )
    db = database_from_dict(data["database"])
    manager = CQManager(
        db,
        strategy=EvaluationStrategy(data["strategy"]),
        auto_gc=data["auto_gc"],
        history_limit=data.get("history_limit", 0),
    )
    from repro.delta.capture import deltas_since
    from repro.delta.propagate import old_resolver
    from repro.relational.evaluate import evaluate_spj
    from repro.relational.sql import parse_query
    from repro.dra.aggregates import DifferentialAggregate

    for entry in data["cqs"]:
        query = parse_query(entry["sql"])
        cq = ContinualQuery(
            entry["name"],
            query,
            trigger=trigger_from_dict(entry["trigger"]),
            stop=_stop_from_dict(entry["stop"]),
            mode=DeliveryMode(entry["mode"]),
            engine=Engine(entry["engine"]),
            keep_result=entry["keep_result"],
        )
        cq.status = CQStatus(entry["status"])
        cq.executions = entry["executions"]
        last_ts = entry["last_execution_ts"]
        # Reconstruct the retained result at last_execution_ts: current
        # contents minus the pending window's effects. The aggregate
        # state and an EAGER maintained result are rebuilt as of now.
        pending = deltas_since(
            [db.table(name) for name in cq.table_names], last_ts
        )
        cq.applied_ts = db.now()
        if cq.is_aggregate:
            cq.aggregate_state = DifferentialAggregate(cq.query, db)
            current = cq.aggregate_state.initialize()
            if pending:
                # previous_result = result at last_ts: recompute by
                # unapplying the pending aggregate delta is intricate;
                # instead evaluate over the old base state directly.
                from repro.relational.aggregates import evaluate_aggregate

                cq.previous_result = evaluate_aggregate(
                    cq.query, old_resolver(db.relation, pending)
                )
            else:
                cq.previous_result = current
        else:
            if pending and cq.keep_result:
                cq.previous_result = evaluate_spj(
                    cq.query, old_resolver(db.relation, pending)
                )
            elif cq.keep_result:
                cq.previous_result = evaluate_spj(cq.query, db.relation)
            if cq.engine is Engine.EAGER:
                cq.maintained_result = evaluate_spj(cq.query, db.relation)
        manager._install(cq, last_ts)
        cq.last_result_ts = data.get("last_result_ts", {}).get(
            cq.name, last_ts
        )
    return manager


def save_manager(manager: CQManager, path: str) -> None:
    """Atomically checkpoint a manager; a journaling database also gets
    its WAL truncated and re-seeded (the checkpoint supersedes it)."""
    write_checkpoint(path, manager_to_dict(manager))
    _retire_wal(manager.db)


def load_manager(path: str) -> CQManager:
    return manager_from_dict(read_checkpoint(path))


def _retire_wal(db) -> None:
    """After a checkpoint lands, the journal restarts from the current
    table set; see :func:`repro.storage.wal.rebase_wal`."""
    if db.wal is not None and not db.wal.closed:
        from repro.storage.wal import rebase_wal

        rebase_wal(db.wal, db)


# -- CQ server serialization --------------------------------------------------


def server_to_dict(server) -> Dict[str, Any]:
    """Checkpoint a :class:`~repro.net.server.CQServer`.

    Captures the database (contents *and* update logs, including
    pruned_through marks) plus every subscription's identity, protocol,
    and refresh position. Retained result copies are not serialized —
    they are a pure function of the checkpointed state and are
    re-derived on restore. A lazy subscription's un-fetched pending
    delta is likewise not serialized: reconnecting clients resume
    through :meth:`CQServer.replay`, which recomputes their missed
    window from the restored logs, so nothing shipped to a client can
    be lost by flattening.
    """
    return {
        "format": FORMAT_VERSION,
        "kind": "cq_server",
        "name": server.name,
        "database": database_to_dict(server.db),
        "subscriptions": [
            {
                "client": sub.client_id,
                "cq": sub.cq_name,
                "sql": sub.sql_key,
                "protocol": sub.protocol.value,
                "last_ts": sub.last_ts,
            }
            for sub in server.subscriptions()
        ],
    }


def server_from_dict(
    data: Dict[str, Any],
    network=None,
    metrics=None,
    fanout: bool = False,
    columnar: bool = False,
):
    """Restore a CQ server from :func:`server_to_dict`.

    :meth:`CQServer.restore` rebuilds each retained result at its
    ``last_ts`` — the query over the restored base state with the
    pending window's effects unapplied, the same reconstruction
    :func:`manager_from_dict` uses — and re-registers the replay zones
    there, so the first post-restore garbage collection cannot prune a
    window a reconnecting client may still request.
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
        network if network is not None else SimulatedNetwork(),
        name=data["name"],
        metrics=metrics,
        fanout=fanout,
        columnar=columnar,
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
        from repro.storage.wal import KIND_SUB_REGISTER

        for sub in server.subscriptions():
            server.db.wal.log_event(
                KIND_SUB_REGISTER,
                client=sub.client_id,
                cq=sub.cq_name,
                sql=sub.sql_key,
                protocol=sub.protocol.value,
                ts=sub.last_ts,
            )


def load_server(path: str, network=None, metrics=None, fanout=False, columnar=False):
    return server_from_dict(
        read_checkpoint(path), network, metrics, fanout=fanout, columnar=columnar
    )


# -- crash recovery (checkpoint + WAL suffix) ---------------------------------


def _replay_wal(db, wal_path: str, metrics=None):
    """Scan + replay a journal on top of an (optionally restored) db.

    Frames at or below the database clock are already covered by the
    checkpoint the db came from. Returns the replay summary, whose
    ``cq_events`` the manager/server recovery below re-applies at its
    own level. Re-opens the journal for appending and attaches it."""
    from repro.metrics import Metrics
    from repro.storage.wal import WriteAheadLog, replay_entries, scan_wal

    recovery = scan_wal(wal_path, repair=True)
    summary = replay_entries(db, recovery.entries, base_ts=db.now())
    if metrics:
        metrics.count(Metrics.WAL_RECOVERED, len(recovery.entries))
        if recovery.torn:
            metrics.count(Metrics.WAL_TORN_TRUNCATIONS)
    wal = WriteAheadLog(wal_path, metrics=metrics)
    db.attach_wal(wal, journal_existing=False)
    return summary


def recover_manager(
    wal_path: str,
    checkpoint_path: Optional[str] = None,
    metrics=None,
) -> CQManager:
    """Rebuild a CQ manager after a crash: checkpoint + WAL suffix.

    Loads the last checkpoint when one exists, replays every journal
    frame newer than it (tolerating a torn tail), then re-applies CQ
    register/deregister events the checkpoint had not absorbed. A CQ
    recovered from a journal event re-runs its initial execution over
    the recovered state — its result stream resumes from recovery time,
    which is the strongest guarantee available without checkpointed
    result copies. The journal is re-opened and re-attached, so the
    recovered manager journals exactly like the crashed one did.
    """
    from repro.storage.database import Database

    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        manager = load_manager(checkpoint_path)
    else:
        manager = CQManager(Database(), metrics=metrics)
    if metrics is not None:
        manager.metrics = metrics
    summary = _replay_wal(manager.db, wal_path, metrics=metrics)
    # Net out the journal's lifecycle events: the last event per CQ
    # name wins (register, or deregister = None).
    desired: Dict[str, Optional[Dict[str, Any]]] = {}
    for event in summary.cq_events:
        if event["k"] == "cq_register":
            desired[event["name"]] = event
        elif event["k"] == "cq_deregister":
            desired[event["name"]] = None
    wal, manager.db.wal = manager.db.wal, None  # don't re-journal replays
    try:
        for name, event in desired.items():
            if event is None:
                manager.deregister(name)
            elif name not in manager:
                manager.register_query(
                    name,
                    event["sql"],
                    trigger=(
                        trigger_from_dict(event["trigger"])
                        if event.get("trigger")
                        else None
                    ),
                    stop=(
                        _stop_from_dict(event["stop"])
                        if event.get("stop")
                        else None
                    ),
                    mode=DeliveryMode(event["mode"]),
                    engine=Engine(event["engine"]),
                    keep_result=event["keep_result"],
                )
    finally:
        manager.db.wal = wal
    return manager


def recover_server(
    wal_path: str,
    checkpoint_path: Optional[str] = None,
    network=None,
    metrics=None,
    fanout: bool = False,
    columnar: bool = False,
):
    """Rebuild a CQ server after a crash: checkpoint + WAL suffix.

    Subscriptions journaled after the last checkpoint are re-installed
    as of their registration timestamp when the recovered update logs
    still cover that window (so a reconnecting client resumes
    differentially), and as of recovery time otherwise.
    """
    from repro.net.server import CQServer
    from repro.net.simnet import SimulatedNetwork
    from repro.storage.database import Database

    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        server = load_server(
            checkpoint_path, network, metrics, fanout=fanout, columnar=columnar
        )
    else:
        server = CQServer(
            Database(),
            network if network is not None else SimulatedNetwork(),
            metrics=metrics,
            fanout=fanout,
            columnar=columnar,
        )
    db = server.db
    summary = _replay_wal(db, wal_path, metrics=server.metrics)
    desired: Dict[tuple, Optional[Dict[str, Any]]] = {}
    for event in summary.cq_events:
        if event["k"] == "sub_register":
            desired[(event["client"], event["cq"])] = event
        elif event["k"] == "sub_deregister":
            desired[(event["client"], event["cq"])] = None
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
