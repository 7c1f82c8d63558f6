"""Wire messages and size accounting.

Every message type here round-trips through the length-prefixed wire
codec (:mod:`repro.net.codec`); :meth:`Message.wire_size` is the
*measured* size of the encoded frame, so byte comparisons between
protocols reflect what actually crosses a socket. The per-value
estimators (:func:`relation_wire_size`, :func:`delta_wire_size`) remain
as cheap nominal approximations for pending-size notices and horizon
accounting, where encoding the payload just to size it would defeat the
purpose of the lazy protocol.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.relational.relation import Relation
from repro.relational.types import value_wire_size
from repro.delta.differential import DeltaRelation
from repro.storage.timestamps import Timestamp

#: Nominal per-message envelope (headers, CQ id, sequence number) used
#: by the estimators below.
ENVELOPE_BYTES = 64
#: Nominal per-row overhead (tid + framing) used by the estimators.
ROW_OVERHEAD_BYTES = 12


def relation_wire_size(relation: Relation) -> int:
    """Nominal bytes to ship a complete relation (estimate)."""
    total = 0
    for row in relation:
        total += ROW_OVERHEAD_BYTES
        total += sum(value_wire_size(v) for v in row.values)
    return total


def delta_wire_size(delta: DeltaRelation) -> int:
    """Nominal bytes to ship a differential relation (estimate).

    Inserts and deletes ship one side; modifications ship both (the
    wide form of the paper's Example 1 table).
    """
    total = 0
    for entry in delta:
        total += ROW_OVERHEAD_BYTES + 8  # + timestamp
        if entry.old is not None:
            total += sum(value_wire_size(v) for v in entry.old)
        if entry.new is not None:
            total += sum(value_wire_size(v) for v in entry.new)
    return total


class Message:
    """Base class for CQ protocol messages.

    ``seq`` is the request/reply pairing contract for the cluster
    transports: the router stamps every scatter-cycle frame with a
    globally unique integer, the shard echoes it on the reply, and
    both the blocking ``ProcessBackend.send`` and the overlapped
    ``CycleEngine`` gather path pair replies to in-flight requests by
    that integer — a reply whose seq matches nothing in flight is
    stale (the late answer of a timed-out attempt) and is discarded,
    never matched by arrival order. Messages outside the scatter cycle
    leave it ``None``; transports that pair by seq refuse to send
    those rather than pair them by luck.
    """

    seq: Optional[int] = None
    _encoded: Optional[bytes] = None

    def encoded(self) -> bytes:
        """The encoded JSON payload, kept from the first encode, so
        sizing a frame and writing it are one encode. Messages are not
        modified once sized or sent."""
        if self._encoded is None:
            from repro.net.codec import encode_payload

            self._encoded = encode_payload(self)
        return self._encoded

    def wire_size(self) -> int:
        """Measured size in bytes of this message's encoded frame."""
        from repro.net.codec import encoded_size

        return encoded_size(self)


class RegisterMessage(Message):
    """Client -> server: install a continual query.

    ``protocol`` names the refresh protocol (a ``Protocol`` enum value)
    so registration carries everything needed over a real wire; the
    in-process path may still pass the protocol out of band.
    """

    def __init__(self, cq_name: str, sql: str, protocol: Optional[str] = None):
        self.cq_name = cq_name
        self.sql = sql
        self.protocol = protocol

    def __repr__(self) -> str:
        return f"RegisterMessage({self.cq_name!r})"


class InitialResultMessage(Message):
    """Server -> client: E_0, the complete first result.

    ``digest`` (when stamped) is the order-insensitive fingerprint of
    the shipped result (:func:`repro.net.digest.relation_digest`); the
    client verifies its copy against it after storing."""

    def __init__(
        self,
        cq_name: str,
        result: Relation,
        ts: int,
        digest: Optional[str] = None,
    ):
        self.cq_name = cq_name
        self.result = result
        self.ts = ts
        self.digest = digest

    def __repr__(self) -> str:
        return f"InitialResultMessage({self.cq_name!r}, {len(self.result)} rows)"


class DeltaMessage(Message):
    """Server -> client: the differential refresh (the DRA protocol).

    ``cq_names`` addresses one CQ, or every CQ of one routed group that
    the receiving connection holds: they share the frame's ``delta``,
    ``ts`` and ``digest``, so the group's delta crosses each connection
    once. The first argument is one name or a sequence of them.

    ``digest`` fingerprints the *post-apply* retained result: the state
    each addressed cached copy must reach after applying this delta. A
    mismatch after apply means that copy had silently diverged (or the
    frame was corrupted) — the client discards it and resyncs that CQ.
    ``body`` is ``delta`` already encoded (``codec.encode_delta_body``):
    a routed group encodes it once for all its frames."""

    def __init__(
        self,
        cq_names: Union[str, Sequence[str]],
        delta: DeltaRelation,
        ts: int,
        digest: Optional[str] = None,
        body: Optional[str] = None,
    ):
        self.cq_names = (
            (cq_names,) if isinstance(cq_names, str) else tuple(cq_names)
        )
        self.delta = delta
        self.ts = ts
        self.digest = digest
        self.body = body

    @property
    def cq_name(self) -> str:
        """The first addressed CQ (the only one of a one-name frame)."""
        return self.cq_names[0]

    def __repr__(self) -> str:
        return f"DeltaMessage({self.cq_names!r}, {self.delta!r})"


class DeltaAvailableMessage(Message):
    """Server -> client: a (possibly large) delta is pending; fetch at
    will. This is the lazy-transmission notice of Section 5.1 ("when
    the results turn out to be large ... a lazy evaluation and
    transmission of results is necessary")."""

    def __init__(self, cq_name: str, ts: int, entry_count: int, pending_bytes: int):
        self.cq_name = cq_name
        self.ts = ts
        self.entry_count = entry_count
        self.pending_bytes = pending_bytes

    def __repr__(self) -> str:
        return (
            f"DeltaAvailableMessage({self.cq_name!r}, {self.entry_count} "
            f"entries, {self.pending_bytes} bytes pending)"
        )


class FetchMessage(Message):
    """Client -> server: send me the pending delta for this CQ."""

    def __init__(self, cq_name: str):
        self.cq_name = cq_name

    def __repr__(self) -> str:
        return f"FetchMessage({self.cq_name!r})"


class FullResultMessage(Message):
    """Server -> client: a complete refreshed result (naive protocol,
    or the replay fallback when GC has passed a resuming client)."""

    def __init__(
        self,
        cq_name: str,
        result: Relation,
        ts: int,
        digest: Optional[str] = None,
    ):
        self.cq_name = cq_name
        self.result = result
        self.ts = ts
        self.digest = digest

    def __repr__(self) -> str:
        return f"FullResultMessage({self.cq_name!r}, {len(self.result)} rows)"


class ResyncMessage(Message):
    """Client -> server: my cached copy for this CQ is unusable (e.g. a
    delta arrived for a CQ I no longer hold after a restart); please
    re-send the complete result."""

    def __init__(self, cq_name: str):
        self.cq_name = cq_name

    def __repr__(self) -> str:
        return f"ResyncMessage({self.cq_name!r})"


class HelloMessage(Message):
    """Client -> server: first frame of every connection.

    ``resume`` maps CQ name -> the timestamp of the last refresh the
    client *applied*. On a fresh connect it is empty; on reconnect the
    server replays the missed window differentially from the update
    logs (paper Section 5.4's active delta zone bounds how far back
    that is possible)."""

    def __init__(self, client_id: str, resume: Optional[Dict[str, Timestamp]] = None):
        self.client_id = client_id
        self.resume = dict(resume or {})

    def __repr__(self) -> str:
        return f"HelloMessage({self.client_id!r}, resume={self.resume})"


class HelloAckMessage(Message):
    """Server -> client: connection accepted.

    ``resumed`` lists CQs whose missed window is being replayed (the
    replay follows as DeltaMessage or FullResultMessage frames);
    ``unknown`` lists resume requests the server has no subscription
    for — the client should re-register those."""

    def __init__(
        self,
        server_name: str,
        ts: Timestamp,
        resumed: Optional[List[str]] = None,
        unknown: Optional[List[str]] = None,
    ):
        self.server_name = server_name
        self.ts = ts
        self.resumed = list(resumed or [])
        self.unknown = list(unknown or [])

    def __repr__(self) -> str:
        return (
            f"HelloAckMessage({self.server_name!r}, ts={self.ts}, "
            f"resumed={self.resumed}, unknown={self.unknown})"
        )


class StatsMessage(Message):
    """Client -> server: admin introspection request.

    The server answers with a :class:`StatsReplyMessage` carrying its
    full :meth:`repro.net.service.CQService.stats` payload — live
    subscriptions, zone boundaries, per-session outbox depths and
    degraded sets, and the WAL/digest/backpressure counters."""

    def __repr__(self) -> str:
        return "StatsMessage()"


class StatsReplyMessage(Message):
    """Server -> client: the stats payload (a JSON-safe dict)."""

    def __init__(self, payload: Dict[str, object]):
        self.payload = dict(payload)

    def __repr__(self) -> str:
        return f"StatsReplyMessage({sorted(self.payload)})"


class ShardHelloMessage(Message):
    """Host -> router: identity frame on spawn, attach, or recovery.

    ``groups`` is ``{group: {"horizon": ts, "subs": [...]}}``, one
    entry per placement-group store the host holds: the store's
    applied-through timestamp — everything the router's update logs
    hold beyond it is the store's missed window — and the ``sql_key``
    CQs it still holds (recovered from its journal), so the router can
    re-seed any registration the store lost and drop any it retired.
    ``horizon`` is the minimum over the stores."""

    def __init__(
        self,
        shard_id: int,
        horizon: Timestamp,
        groups: Optional[Dict[int, Dict]] = None,
    ):
        self.shard_id = shard_id
        self.horizon = horizon
        self.groups = {
            int(g): dict(info) for g, info in (groups or {}).items()
        }

    def __repr__(self) -> str:
        return (
            f"ShardHelloMessage(shard={self.shard_id}, "
            f"horizon={self.horizon}, groups={sorted(self.groups)})"
        )


class ScatterMessage(Message):
    """Router -> shard: one refresh cycle's relevant work.

    ``deltas`` carries the consolidated per-table delta slices the
    shard must fold in (replicated tables get the whole window,
    partitioned tables only the shard's slice); ``baselines`` carries
    complete table states for (re-)seeding — the replay fallback and
    the index-handoff path. ``subscribe``/``unsubscribe`` piggyback
    registration control so a shard host needs exactly one inbound
    data-plane message type. ``collect`` asks the shard to run its own
    zone-bounded garbage collection after refreshing.

    ``group`` addresses the placement-group store the frame is for: a
    host carries its own group's store plus replica stores of other
    groups, and every router frame names one of them."""

    def __init__(
        self,
        shard_id: int,
        seq: int,
        ts: Timestamp,
        deltas: Optional[Dict[str, DeltaRelation]] = None,
        baselines: Optional[Dict[str, Relation]] = None,
        subscribe: Optional[List[Dict[str, str]]] = None,
        unsubscribe: Optional[List[str]] = None,
        collect: bool = False,
        *,
        group: int,
    ):
        self.shard_id = shard_id
        self.seq = seq
        self.ts = ts
        self.deltas = dict(deltas or {})
        self.baselines = dict(baselines or {})
        self.subscribe = list(subscribe or [])
        self.unsubscribe = list(unsubscribe or [])
        self.collect = collect
        self.group = group

    def __repr__(self) -> str:
        return (
            f"ScatterMessage(shard={self.shard_id}, seq={self.seq}, "
            f"ts={self.ts}, deltas={sorted(self.deltas)}, "
            f"baselines={sorted(self.baselines)})"
        )


class GatherReplyMessage(Message):
    """Shard -> router: the partial result deltas of one cycle.

    ``entries`` is ``[(sql_key, delta, ts), ...]`` — each affected
    shard-side group's result delta, to be merged (and residual-
    confirmed) at the router before member notification. ``counters``
    snapshots the shard's metrics bag for cluster-wide stats
    aggregation."""

    def __init__(
        self,
        shard_id: int,
        seq: int,
        ts: Timestamp,
        horizon: Timestamp,
        entries: Optional[List] = None,
        counters: Optional[Dict[str, int]] = None,
    ):
        self.shard_id = shard_id
        self.seq = seq
        self.ts = ts
        self.horizon = horizon
        self.entries = list(entries or [])
        self.counters = dict(counters or {})

    def __repr__(self) -> str:
        return (
            f"GatherReplyMessage(shard={self.shard_id}, seq={self.seq}, "
            f"{len(self.entries)} entries)"
        )


class ShardHeartbeatMessage(Message):
    """Router -> shard: an empty-scatter cycle.

    No batch was relevant to this shard's footprints, so there is
    nothing to evaluate — but the shard still advances its clock to
    ``ts``, moves every group's refresh window forward (the Section 5.2
    relevance theorem makes their deltas provably empty), and with
    ``collect`` prunes its update logs — GC zones advance cluster-wide
    without a single term evaluation."""

    def __init__(
        self,
        shard_id: int,
        seq: int,
        ts: Timestamp,
        collect: bool = False,
        *,
        group: int,
    ):
        self.shard_id = shard_id
        self.seq = seq
        self.ts = ts
        self.collect = collect
        self.group = group

    def __repr__(self) -> str:
        return (
            f"ShardHeartbeatMessage(shard={self.shard_id}, seq={self.seq}, "
            f"ts={self.ts})"
        )


class ShardPromoteMessage(Message):
    """Router -> shard: promote one replica store to group primary.

    ``ts`` is the group's *last served* timestamp — the horizon through
    which the failed primary's gathers were merged. The store registers
    each ``subscribe`` spec locally over its (hot, lockstep) tables at
    that timestamp, so the registration-era state matches the router's
    retained results exactly and the very next scatter's window
    ``(ts, now]`` yields the failed cycle's delta bit-identically. No
    baseline transfer, no downtime: promotion is a local evaluation
    over state the replica already holds."""

    def __init__(
        self,
        shard_id: int,
        group: int,
        seq: int,
        ts: Timestamp,
        subscribe: Optional[List[Dict[str, str]]] = None,
    ):
        self.shard_id = shard_id
        self.group = group
        self.seq = seq
        self.ts = ts
        self.subscribe = list(subscribe or [])

    def __repr__(self) -> str:
        return (
            f"ShardPromoteMessage(shard={self.shard_id}, "
            f"group={self.group}, seq={self.seq}, ts={self.ts}, "
            f"{len(self.subscribe)} subs)"
        )


class ShardDrainMessage(Message):
    """Router -> shard: detach one store gracefully.

    The planned inverse of placement: after ``remove_shard`` hands a
    group's slices and ownership to the survivors, the departing (or
    demoted) ``group`` store is drained — journal closed — instead of
    being crashed."""

    def __init__(
        self,
        shard_id: int,
        seq: int,
        ts: Timestamp,
        *,
        group: int,
    ):
        self.shard_id = shard_id
        self.seq = seq
        self.ts = ts
        self.group = group

    def __repr__(self) -> str:
        return (
            f"ShardDrainMessage(shard={self.shard_id}, "
            f"group={self.group}, seq={self.seq})"
        )


class HeartbeatMessage(Message):
    """Server -> client: liveness probe carrying the server clock."""

    def __init__(self, ts: Timestamp):
        self.ts = ts

    def __repr__(self) -> str:
        return f"HeartbeatMessage(ts={self.ts})"


class HeartbeatAckMessage(Message):
    """Client -> server: heartbeat reply.

    ``applied`` maps CQ name -> last applied refresh timestamp; the
    server advances the subscription's GC-protected zone boundary from
    it, so update logs are retained exactly as far back as a live
    client might still need for delta replay."""

    def __init__(self, ts: Timestamp, applied: Optional[Dict[str, Timestamp]] = None):
        self.ts = ts
        self.applied = dict(applied or {})

    def __repr__(self) -> str:
        return f"HeartbeatAckMessage(ts={self.ts}, applied={self.applied})"
