"""Length-prefixed wire codec for CQ protocol messages.

Frame layout::

    +----------------+---------------------------+
    | 4 bytes, BE    | UTF-8 JSON payload        |
    | payload length | {"t": <tag>, ...fields}   |
    +----------------+---------------------------+

JSON keeps the codec debuggable (a captured frame is readable) while
the length prefix gives unambiguous streaming over TCP.

A delta frame's payload is ``{"cq","ts","dg","t":"delta","delta":…}``:
the header, then the delta body, which a routed group encodes once and
splices into each of its frames. A frame carrying one group's delta to
several CQs on one connection adds ``"more"`` (the names after
``"cq"``) between ``"dg"`` and ``"t"``; a one-name frame has no such
field, so its bytes are those of any single-subscriber frame.

Tids are ints or nested tuples of tids (join provenance); tuples
encode as JSON arrays and decode back to tuples recursively, which is
unambiguous because scalar tids are never arrays. Attribute values are
scalars (int/float/str/bool/None), validated against the schema on
decode so a corrupted or hand-forged frame fails loudly instead of
poisoning a cached result.
"""

from __future__ import annotations

import functools
import json
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import CodecError, NetworkError
from repro.relational.relation import Relation, Tid, Values
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.net.messages import (
    DeltaAvailableMessage,
    DeltaMessage,
    FetchMessage,
    FullResultMessage,
    HeartbeatAckMessage,
    HeartbeatMessage,
    HelloAckMessage,
    HelloMessage,
    InitialResultMessage,
    Message,
    RegisterMessage,
    ResyncMessage,
    GatherReplyMessage,
    ScatterMessage,
    ShardDrainMessage,
    ShardHeartbeatMessage,
    ShardHelloMessage,
    ShardPromoteMessage,
    StatsMessage,
    StatsReplyMessage,
)

#: Frames above this are rejected: a length prefix this large is far
#: more likely stream corruption than a legitimate payload. Decoders
#: accept a per-instance override for deployments with bigger results.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# -- schema / relation / delta payloads ---------------------------------------


def _schema_to_json(schema: Schema) -> List[List[str]]:
    return [[a.name, a.type.value] for a in schema]


def _schema_from_json(data: List[List[str]]) -> Schema:
    """The schema a frame declares. Frames of one CQ repeat the same
    schema, and ``Schema`` is immutable, so equal declarations decode
    to one shared object."""
    return _schema_of(tuple(map(tuple, data)))


@functools.lru_cache(maxsize=256)
def _schema_of(pairs: Tuple[Tuple[str, str], ...]) -> Schema:
    return Schema.of(*((name, AttributeType(type_)) for name, type_ in pairs))


def _tid_to_json(tid: Tid) -> Any:
    if isinstance(tid, tuple):
        return [_tid_to_json(part) for part in tid]
    return tid


def _tid_from_json(data: Any) -> Tid:
    if isinstance(data, list):
        return tuple(_tid_from_json(part) for part in data)
    return data


def _values_from_json(data: Optional[List[Any]]) -> Optional[Values]:
    return None if data is None else tuple(data)


def _relation_to_json(relation: Relation) -> Dict[str, Any]:
    return {
        "schema": _schema_to_json(relation.schema),
        "rows": [
            [_tid_to_json(row.tid), list(row.values)] for row in relation
        ],
    }


def _relation_from_json(data: Dict[str, Any]) -> Relation:
    schema = _schema_from_json(data["schema"])
    out = Relation(schema)
    for tid, values in data["rows"]:
        out.add(_tid_from_json(tid), tuple(values))
    return out


def _delta_to_json(delta: DeltaRelation) -> Dict[str, Any]:
    return {
        "schema": _schema_to_json(delta.schema),
        "entries": [
            [
                _tid_to_json(e.tid),
                None if e.old is None else list(e.old),
                None if e.new is None else list(e.new),
                e.ts,
            ]
            for e in delta
        ],
    }


def encode_delta_body(delta: DeltaRelation) -> str:
    """The ``"delta"`` field of a delta frame as JSON text. A routed
    group encodes its delta once; :func:`encode_payload` splices the
    text into every member's frame."""
    return json.dumps(_delta_to_json(delta), separators=(",", ":"))


def _delta_header(message: DeltaMessage) -> Dict[str, Any]:
    """A delta frame's fields but the body. A one-name frame is
    ``{"cq", "ts", "dg"}``; only a frame addressing more CQs adds
    ``"more"``, the names after the first."""
    header = {"cq": message.cq_names[0], "ts": message.ts, "dg": message.digest}
    if len(message.cq_names) > 1:
        header["more"] = list(message.cq_names[1:])
    return header


def _delta_from_json(data: Dict[str, Any]) -> DeltaRelation:
    schema = _schema_from_json(data["schema"])
    return DeltaRelation(
        schema,
        (
            DeltaEntry(
                _tid_from_json(tid),
                _values_from_json(old),
                _values_from_json(new),
                ts,
            )
            for tid, old, new, ts in data["entries"]
        ),
    )


# -- per-message payloads -----------------------------------------------------

_TO_JSON: Dict[Type[Message], Tuple[str, Callable[[Message], Dict[str, Any]]]] = {
    RegisterMessage: (
        "register",
        lambda m: {"cq": m.cq_name, "sql": m.sql, "protocol": m.protocol},
    ),
    InitialResultMessage: (
        "initial_result",
        lambda m: {
            "cq": m.cq_name,
            "result": _relation_to_json(m.result),
            "ts": m.ts,
            "dg": m.digest,
        },
    ),
    FullResultMessage: (
        "full_result",
        lambda m: {
            "cq": m.cq_name,
            "result": _relation_to_json(m.result),
            "ts": m.ts,
            "dg": m.digest,
        },
    ),
    # The header only: encode_payload splices the "delta" body in.
    DeltaMessage: ("delta", _delta_header),
    DeltaAvailableMessage: (
        "delta_available",
        lambda m: {
            "cq": m.cq_name,
            "ts": m.ts,
            "entries": m.entry_count,
            "pending": m.pending_bytes,
        },
    ),
    FetchMessage: ("fetch", lambda m: {"cq": m.cq_name}),
    ResyncMessage: ("resync", lambda m: {"cq": m.cq_name}),
    HelloMessage: (
        "hello",
        lambda m: {"client": m.client_id, "resume": m.resume},
    ),
    HelloAckMessage: (
        "hello_ack",
        lambda m: {
            "server": m.server_name,
            "ts": m.ts,
            "resumed": m.resumed,
            "unknown": m.unknown,
        },
    ),
    HeartbeatMessage: ("heartbeat", lambda m: {"ts": m.ts}),
    HeartbeatAckMessage: (
        "heartbeat_ack",
        lambda m: {"ts": m.ts, "applied": m.applied},
    ),
    StatsMessage: ("stats", lambda m: {}),
    StatsReplyMessage: ("stats_reply", lambda m: {"payload": m.payload}),
    ShardHelloMessage: (
        "shard_hello",
        lambda m: {
            "shard": m.shard_id,
            "horizon": m.horizon,
            # JSON object keys must be strings; decode restores ints.
            "groups": {str(g): info for g, info in sorted(m.groups.items())},
        },
    ),
    ScatterMessage: (
        "scatter",
        lambda m: {
            "shard": m.shard_id,
            "seq": m.seq,
            "ts": m.ts,
            "deltas": {
                name: _delta_to_json(delta)
                for name, delta in sorted(m.deltas.items())
            },
            "baselines": {
                name: _relation_to_json(rel)
                for name, rel in sorted(m.baselines.items())
            },
            "sub": m.subscribe,
            "unsub": m.unsubscribe,
            "collect": m.collect,
            "group": m.group,
        },
    ),
    GatherReplyMessage: (
        "gather_reply",
        lambda m: {
            "shard": m.shard_id,
            "seq": m.seq,
            "ts": m.ts,
            "horizon": m.horizon,
            "entries": [
                [sql_key, _delta_to_json(delta), ts]
                for sql_key, delta, ts in m.entries
            ],
            "counters": m.counters,
        },
    ),
    ShardHeartbeatMessage: (
        "shard_heartbeat",
        lambda m: {
            "shard": m.shard_id,
            "seq": m.seq,
            "ts": m.ts,
            "collect": m.collect,
            "group": m.group,
        },
    ),
    ShardPromoteMessage: (
        "shard_promote",
        lambda m: {
            "shard": m.shard_id,
            "group": m.group,
            "seq": m.seq,
            "ts": m.ts,
            "sub": m.subscribe,
        },
    ),
    ShardDrainMessage: (
        "shard_drain",
        lambda m: {
            "shard": m.shard_id,
            "seq": m.seq,
            "ts": m.ts,
            "group": m.group,
        },
    ),
}

_FROM_JSON: Dict[str, Callable[[Dict[str, Any]], Message]] = {
    "register": lambda d: RegisterMessage(d["cq"], d["sql"], d.get("protocol")),
    "initial_result": lambda d: InitialResultMessage(
        d["cq"], _relation_from_json(d["result"]), d["ts"], d.get("dg")
    ),
    "full_result": lambda d: FullResultMessage(
        d["cq"], _relation_from_json(d["result"]), d["ts"], d.get("dg")
    ),
    "delta": lambda d: DeltaMessage(
        (d["cq"], *d.get("more", ())),
        _delta_from_json(d["delta"]),
        d["ts"],
        d.get("dg"),
    ),
    "delta_available": lambda d: DeltaAvailableMessage(
        d["cq"], d["ts"], d["entries"], d["pending"]
    ),
    "fetch": lambda d: FetchMessage(d["cq"]),
    "resync": lambda d: ResyncMessage(d["cq"]),
    "hello": lambda d: HelloMessage(d["client"], d["resume"]),
    "hello_ack": lambda d: HelloAckMessage(
        d["server"], d["ts"], d["resumed"], d["unknown"]
    ),
    "heartbeat": lambda d: HeartbeatMessage(d["ts"]),
    "heartbeat_ack": lambda d: HeartbeatAckMessage(d["ts"], d["applied"]),
    "stats": lambda d: StatsMessage(),
    "stats_reply": lambda d: StatsReplyMessage(d["payload"]),
    "shard_hello": lambda d: ShardHelloMessage(
        d["shard"], d["horizon"], groups=d["groups"]
    ),
    "scatter": lambda d: ScatterMessage(
        d["shard"],
        d["seq"],
        d["ts"],
        deltas={
            name: _delta_from_json(delta)
            for name, delta in d["deltas"].items()
        },
        baselines={
            name: _relation_from_json(rel)
            for name, rel in d["baselines"].items()
        },
        subscribe=d["sub"],
        unsubscribe=d["unsub"],
        collect=d["collect"],
        group=d["group"],
    ),
    "gather_reply": lambda d: GatherReplyMessage(
        d["shard"],
        d["seq"],
        d["ts"],
        d["horizon"],
        entries=[
            (sql_key, _delta_from_json(delta), ts)
            for sql_key, delta, ts in d["entries"]
        ],
        counters=d["counters"],
    ),
    "shard_heartbeat": lambda d: ShardHeartbeatMessage(
        d["shard"], d["seq"], d["ts"], d["collect"], group=d["group"]
    ),
    "shard_promote": lambda d: ShardPromoteMessage(
        d["shard"], d["group"], d["seq"], d["ts"], subscribe=d["sub"]
    ),
    "shard_drain": lambda d: ShardDrainMessage(
        d["shard"], d["seq"], d["ts"], group=d["group"]
    ),
}


# -- framing ------------------------------------------------------------------


def encode_payload(message: Message) -> bytes:
    """The JSON payload of one message, without the length prefix."""
    try:
        tag, to_json = _TO_JSON[type(message)]
    except KeyError:
        raise NetworkError(f"no codec for message type {type(message).__name__}")
    body = to_json(message)
    body["t"] = tag
    text = json.dumps(body, separators=(",", ":"))
    if isinstance(message, DeltaMessage):
        delta_json = message.body
        if delta_json is None:
            delta_json = encode_delta_body(message.delta)
        text = f'{text[:-1]},"delta":{delta_json}}}'
    return text.encode("utf-8")


def decode_payload(payload: bytes) -> Message:
    """Rebuild a message from one JSON payload.

    Raises :class:`~repro.errors.CodecError` (a ``NetworkError``
    subtype, so existing handlers keep working) on undecodable JSON,
    unknown tags, or field structure that fails validation. The frame
    *boundary* is still intact in these cases — callers that own a
    stream may count the error and continue with the next frame."""
    try:
        body = json.loads(payload.decode("utf-8"))
        tag = body["t"]
        from_json = _FROM_JSON[tag]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CodecError(f"undecodable frame payload: {exc}") from exc
    try:
        return from_json(body)
    except NetworkError:
        raise
    except Exception as exc:  # malformed field structure or bad values
        raise CodecError(f"malformed {tag!r} frame: {exc}") from exc


def encode_frame(message: Message) -> bytes:
    """One complete wire frame: 4-byte length prefix + payload."""
    payload = message.encoded()
    if len(payload) > MAX_FRAME_BYTES:
        raise NetworkError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(payload)) + payload


def encoded_size(message: Message) -> int:
    """Measured wire size (frame bytes) of one message."""
    return _LENGTH.size + len(message.encoded())


class FrameDecoder:
    """Incremental frame reassembly for a byte stream.

    Feed arbitrary chunks (as a socket delivers them); complete
    messages come out in order. Partial frames are buffered until the
    rest arrives.

    Hardened against hostile or damaged input: a length prefix above
    ``max_frame_bytes`` means stream framing is lost (everything after
    it is unparseable) and raises :class:`~repro.errors.CodecError`; a
    frame whose *payload* is malformed but whose boundary is intact is
    counted in :attr:`errors` and skipped, and decoding continues with
    the next frame — one poisoned message does not tear down the
    stream.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self.max_frame_bytes = max_frame_bytes
        #: Malformed-but-framed payloads skipped so far.
        self.errors = 0

    def feed(self, data: bytes) -> List[Message]:
        self._buffer.extend(data)
        out: List[Message] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return out
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise CodecError(
                    f"frame length {length} exceeds max_frame_bytes "
                    f"{self.max_frame_bytes} (corrupted stream?)"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return out
            payload = bytes(self._buffer[_LENGTH.size : end])
            del self._buffer[:end]
            try:
                out.append(decode_payload(payload))
            except CodecError:
                self.errors += 1

    def pending_bytes(self) -> int:
        return len(self._buffer)
