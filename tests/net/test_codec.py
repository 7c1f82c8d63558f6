"""Round-trip tests for the length-prefixed wire codec.

Every message type in the protocol must encode and decode without
loss — including relations with nested (join-provenance) tids and
deltas mixing inserts, deletes, and modifies.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError, NetworkError
from repro.jsonenc import compact_json
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.net.codec import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_payload,
    encode_frame,
    encode_payload,
    encoded_size,
)
from repro.net.messages import (
    DeltaAvailableMessage,
    DeltaBatchMessage,
    DeltaMessage,
    FetchMessage,
    FullResultMessage,
    GatherReplyMessage,
    HeartbeatAckMessage,
    HeartbeatMessage,
    HelloAckMessage,
    HelloMessage,
    InitialResultMessage,
    Message,
    RegisterMessage,
    ResyncMessage,
    ScatterMessage,
    ShardDrainMessage,
    ShardHelloMessage,
    ShardSyncMessage,
    StatsMessage,
    StatsReplyMessage,
)

SCHEMA = Schema.of(
    ("name", AttributeType.STR),
    ("price", AttributeType.INT),
    ("ratio", AttributeType.FLOAT),
    ("hot", AttributeType.BOOL),
)


def sample_relation():
    rel = Relation(SCHEMA)
    rel.add(1, ("AAA", 100, 1.5, True))
    rel.add(7, ("BBB", 200, 0.25, False))
    # Join rows carry nested tuple tids (provenance of the operands).
    rel.add((3, (4, 5)), ("CCC", 300, 2.0, True))
    return rel


def sample_delta():
    return DeltaRelation(
        SCHEMA,
        [
            DeltaEntry(1, None, ("AAA", 100, 1.5, True), 3),
            DeltaEntry(2, ("BBB", 200, 0.5, False), None, 3),
            DeltaEntry((9, 2), ("CCC", 1, 0.0, False), ("CCC", 2, 0.0, False), 4),
        ],
    )


def roundtrip(message: Message) -> Message:
    return decode_payload(encode_payload(message))


def fields(message: Message) -> dict:
    """A message's attributes, a batch's parts as their own."""
    out = dict(vars(message))
    out.pop("_encoded", None)
    if isinstance(message, DeltaBatchMessage):
        out["parts"] = [fields(part) for part in message.parts]
    return out


EVERY_MESSAGE = [
    RegisterMessage("watch", "SELECT name FROM stocks WHERE price > 10"),
    RegisterMessage("watch", "SELECT * FROM t", protocol="dra_lazy"),
    InitialResultMessage("watch", sample_relation(), ts=5),
    FullResultMessage("watch", sample_relation(), ts=6),
    DeltaMessage("watch", sample_delta(), ts=7),
    # Digest-stamped variants: the self-verification digest must
    # survive the wire (older peers simply leave it None).
    InitialResultMessage("watch", sample_relation(), 5, "3:00deadbeef001234"),
    FullResultMessage("watch", sample_relation(), 6, "3:00deadbeef001234"),
    DeltaMessage("watch", sample_delta(), 7, "2:00deadbeef005678"),
    # One refresh step's parts for one connection, in one frame.
    DeltaBatchMessage(
        [
            DeltaMessage(("watch", "peek"), sample_delta(), 7, "2:00dead"),
            DeltaMessage("other", sample_delta(), 7, "2:00beef"),
        ]
    ),
    DeltaAvailableMessage("watch", ts=8, entry_count=12, pending_bytes=456),
    FetchMessage("watch"),
    ResyncMessage("watch"),
    HelloMessage("client-1", {"watch": 4, "other": 9}),
    HelloAckMessage("server", 10, resumed=["watch"], unknown=["other"]),
    HeartbeatMessage(11),
    HeartbeatAckMessage(11, {"watch": 10}),
    StatsMessage(),
    StatsReplyMessage(
        {"server": "s", "counters": {"wal_appends": 3}, "zones": {"c:watch": 4}}
    ),
    # Cluster control/data plane (deep coverage in tests/cluster).
    ShardHelloMessage(
        2, 9, groups={2: {"horizon": 9, "subs": ["SELECT ..."]}}
    ),
    ScatterMessage(
        1, 4, 12, deltas={"stocks": sample_delta()}, collect=True, group=2
    ),
    GatherReplyMessage(
        1, 4, 12, 11, entries=[("k", sample_delta(), 11, 12)],
        counters={"executions": 3},
    ),
    ShardSyncMessage(
        2,
        6,
        14,
        deltas={"stocks": sample_delta()},
        baselines={"stocks": sample_relation()},
        subscribe=[{"cq": "k", "sql": "SELECT name FROM stocks"}],
        unsubscribe=["old-key"],
        group=0,
    ),
    ShardDrainMessage(2, 7, 15, group=0),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", EVERY_MESSAGE, ids=lambda m: type(m).__name__
    )
    def test_roundtrip_preserves_fields(self, message):
        decoded = roundtrip(message)
        assert type(decoded) is type(message)
        assert fields(decoded) == fields(message)

    def test_an_empty_scatter_round_trips(self):
        """A cycle that routed nothing to a store sends it a refresh
        frame without slices."""
        message = ScatterMessage(0, 5, 13, collect=True, group=1)
        assert fields(roundtrip(message)) == fields(message)

    def test_every_message_type_is_covered(self):
        from repro.net.codec import _FROM_JSON, _TO_JSON

        covered = {type(m) for m in EVERY_MESSAGE}
        assert covered == set(_TO_JSON)
        assert {tag for tag, __ in _TO_JSON.values()} == set(_FROM_JSON)

    def test_relation_tids_and_values_survive(self):
        decoded = roundtrip(InitialResultMessage("q", sample_relation(), 1))
        original = sample_relation()
        assert decoded.result == original
        assert {row.tid for row in decoded.result} == {
            row.tid for row in original
        }

    def test_delta_entries_survive(self):
        decoded = roundtrip(DeltaMessage("q", sample_delta(), 1))
        assert decoded.delta == sample_delta()
        kinds = sorted(str(e.kind) for e in decoded.delta)
        assert len(kinds) == 3

    def test_wire_size_matches_frame_length(self):
        for message in EVERY_MESSAGE:
            assert message.wire_size() == len(encode_frame(message))
            assert message.wire_size() == encoded_size(message)


class TestDeltaFrames:
    """A delta frame addresses one CQ or several on one connection."""

    def delta(self):
        schema = Schema.of(("sym", AttributeType.STR), ("price", AttributeType.INT))
        return DeltaRelation(
            schema,
            [
                DeltaEntry(1, None, ("X", 5), 7),
                DeltaEntry((2, 3), ("Y", 1), None, 7),
            ],
        )

    def test_one_name_payload_is_pinned(self):
        # A one-name frame carries no name list: these are the bytes
        # every single-subscriber delta frame has always had.
        message = DeltaMessage("q", self.delta(), 7, "1:00000000000000ab")
        assert encode_payload(message) == (
            b'{"cq":"q","ts":7,"dg":"1:00000000000000ab","t":"delta",'
            b'"delta":{"schema":[["sym","str"],["price","int"]],'
            b'"entries":[[1,null,["X",5],7],[[2,3],["Y",1],null,7]]}}'
        )

    def test_multi_name_frame_round_trips(self):
        message = DeltaMessage(("a", "b", "c"), self.delta(), 7, "1:00")
        payload = encode_payload(message)
        assert b'"more":["b","c"]' in payload
        back = decode_payload(payload)
        assert back.cq_names == ("a", "b", "c")
        assert (back.cq_name, back.delta, back.ts, back.digest) == (
            "a", self.delta(), 7, "1:00",
        )
        # A one-name frame decodes to a one-name tuple.
        assert decode_payload(
            encode_payload(DeltaMessage("a", self.delta(), 7))
        ).cq_names == ("a",)

    def test_batch_parts_are_delta_payloads_byte_for_byte(self):
        parts = [
            DeltaMessage(("a", "b"), self.delta(), 7, "1:00"),
            DeltaMessage("c", self.delta(), 7, "1:01"),
        ]
        payload = encode_payload(DeltaBatchMessage(parts))
        assert payload == (
            b'{"t":"delta_batch","parts":['
            + b",".join(encode_payload(part) for part in parts)
            + b"]}"
        )
        back = decode_payload(payload)
        assert back.cq_names == ("a", "b", "c")
        assert [(p.cq_names, p.delta, p.digest) for p in back.parts] == [
            (("a", "b"), self.delta(), "1:00"),
            (("c",), self.delta(), "1:01"),
        ]

    @pytest.mark.parametrize(
        "parts",
        [b"", b'{"cq":"q","ts":1,"dg":null,"t":"fetch"}'],
        ids=["empty", "not_a_delta"],
    )
    def test_a_batch_holds_delta_frames_only(self, parts):
        with pytest.raises(CodecError):
            decode_payload(b'{"t":"delta_batch","parts":[' + parts + b"]}")


class TestPinnedOutput:
    """Digests and frames come from one reused compact JSON encoder
    (``codec.compact_json``). These literals were computed with
    ``json.dumps(..., separators=(",", ":"))`` on a fresh encoder per
    call: a change that moves any of them moves every digest and frame
    already in flight or on disk."""

    SCHEMA = Schema.of(
        ("sym", AttributeType.STR),
        ("price", AttributeType.FLOAT),
        ("hot", AttributeType.BOOL),
        ("n", AttributeType.INT),
    )

    def delta(self):
        return DeltaRelation(
            self.SCHEMA,
            [
                DeltaEntry(1, None, ("IBM", 1.5, True, 3), 7),
                DeltaEntry((2, (3, 4)), ("MAC", -0.25, False, None), None, 7),
                DeltaEntry(9, ("A", 0.0, False, 1), ("B", 2.5, True, 2), 8),
            ],
        )

    def test_row_and_relation_digests(self):
        from repro.net.digest import relation_digest, row_digest

        assert row_digest(7, (1, 2)) == 5595837800081881141
        assert row_digest((3, (4, 5)), ("x", 1.5)) == 18098853627900251064
        assert row_digest(2, ("\u00e9", 2.25, True, None, False)) == (
            175541622349116211
        )
        rel = Relation(self.SCHEMA)
        rel.add(1, ("IBM", 1.5, True, 3))
        rel.add((2, (3, 4)), ("MAC", -0.25, False, None))
        rel.add(9, ('\u00e9"q', 1e20, True, -7))
        assert relation_digest(rel) == "3:245e814a2ba419bf"
        assert relation_digest(Relation(self.SCHEMA)) == "0:0000000000000000"

    ENTRIES = (
        b'"delta":{"schema":[["sym","str"],["price","float"],["hot","bool"],'
        b'["n","int"]],"entries":[[1,null,["IBM",1.5,true,3],7],'
        b'[[2,[3,4]],["MAC",-0.25,false,null],null,7],'
        b'[9,["A",0.0,false,1],["B",2.5,true,2],8]]}}'
    )

    def test_one_name_delta_payload(self):
        message = DeltaMessage("q", self.delta(), 8, "2:00000000000000ab")
        assert encode_payload(message) == (
            b'{"cq":"q","ts":8,"dg":"2:00000000000000ab","t":"delta",'
            + self.ENTRIES
        )

    def test_three_name_delta_payload(self):
        message = DeltaMessage(("a", "b", "c"), self.delta(), 8, "2:00000000000000ab")
        assert encode_payload(message) == (
            b'{"cq":"a","ts":8,"dg":"2:00000000000000ab","more":["b","c"],'
            b'"t":"delta",' + self.ENTRIES
        )


SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e20, 5e-324]
SPECIAL_TEXT = ['\u00e9"q', "\x00\x1f\n\t\\/", "\u2028\ud800", "\U0001f600"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(SPECIAL_TEXT),
)
#: Tids as the program holds them: ints, and tuples of tids.
tids = st.recursive(
    st.integers(), lambda inner: st.tuples(inner, inner), max_leaves=6
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)
UNSERIALISABLE = [object(), {1, 2}, b"raw", 1j]


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


class TestCompactJson:
    """``compact_json`` is one encoder built once; its bytes must stay
    ``json.dumps``'s, on every value and on both of its branches."""

    @given(values)
    def test_writes_what_json_dumps_writes(self, value):
        assert compact_json(value) == dumps(value)

    @given(tids, st.lists(scalars, max_size=5).map(tuple))
    def test_a_row_writes_what_json_dumps_writes(self, tid, row):
        assert compact_json((tid, row)) == dumps((tid, row))

    @given(values, st.sampled_from(UNSERIALISABLE))
    def test_an_unserialisable_value_raises_type_error(self, value, bad):
        payload = [value, {"k": bad}]
        with pytest.raises(TypeError):
            dumps(payload)
        for __ in range(2):  # the encoder keeps no state from a failed call
            with pytest.raises(TypeError):
                compact_json(payload)
        assert compact_json(value) == dumps(value)

    def test_the_pure_python_fallback_writes_the_pinned_bytes(self):
        """In a process that cannot import ``_json`` (the branch CPython
        builds never take) ``TestPinnedOutput`` still passes."""
        script = (
            "import sys\n"
            "sys.modules['_json'] = None\n"
            "import json.encoder, pytest, repro.jsonenc\n"
            "assert json.encoder.c_make_encoder is None\n"
            "assert not hasattr(repro.jsonenc, '_encode')\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1]]))\n"
        )
        root = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script, f"{__file__}::TestPinnedOutput"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr


class TestSchemaMemo:
    def test_equal_schemas_decode_to_one_object(self):
        first = roundtrip(InitialResultMessage("q", sample_relation(), 1))
        second = roundtrip(DeltaMessage("r", sample_delta(), 2))
        assert first.result.schema is second.delta.schema
        other = Schema.of(("name", AttributeType.STR))
        third = roundtrip(DeltaMessage("s", DeltaRelation(other, []), 3))
        assert third.delta.schema == other
        assert third.delta.schema is not first.result.schema

    def test_bad_type_name_still_raises(self):
        payload = (
            b'{"cq":"q","ts":1,"dg":null,"t":"delta",'
            b'"delta":{"schema":[["sym","no_such_type"]],"entries":[]}}'
        )
        for _ in range(2):  # a failed decode is not memoised
            with pytest.raises(CodecError):
                decode_payload(payload)


class TestFraming:
    def test_frame_is_length_prefixed(self):
        frame = encode_frame(FetchMessage("q"))
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4

    def test_decoder_reassembles_byte_by_byte(self):
        messages = [FetchMessage("a"), HeartbeatMessage(3), ResyncMessage("b")]
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert [type(m) for m in out] == [type(m) for m in messages]
        assert decoder.pending_bytes() == 0

    def test_decoder_handles_multiple_frames_per_chunk(self):
        messages = [HeartbeatMessage(i) for i in range(5)]
        stream = b"".join(encode_frame(m) for m in messages)
        out = FrameDecoder().feed(stream)
        assert [m.ts for m in out] == [0, 1, 2, 3, 4]

    def test_partial_frame_stays_buffered(self):
        frame = encode_frame(FetchMessage("q"))
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes() == len(frame) - 1
        (message,) = decoder.feed(frame[-1:])
        assert message.cq_name == "q"


class TestMalformedInput:
    def test_garbage_payload_rejected(self):
        with pytest.raises(NetworkError):
            decode_payload(b"\xff\xfe not json")

    def test_unknown_tag_rejected(self):
        with pytest.raises(NetworkError):
            decode_payload(b'{"t":"no_such_message"}')

    def test_missing_fields_rejected(self):
        with pytest.raises(NetworkError):
            decode_payload(b'{"t":"delta","cq":"q"}')

    def test_unencodable_message_rejected(self):
        class Mystery(Message):
            pass

        with pytest.raises(NetworkError):
            encode_payload(Mystery())

    def test_oversized_length_prefix_rejected(self):
        bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(NetworkError):
            FrameDecoder().feed(bogus)


class TestHardening:
    """Damaged input must be *contained*: a malformed payload inside an
    intact frame is counted and skipped; only a corrupted length prefix
    (framing lost) is fatal. Every error is a typed ``CodecError``, a
    ``NetworkError`` subtype, so existing handlers keep working."""

    def test_errors_are_typed_codec_errors(self):
        with pytest.raises(CodecError):
            decode_payload(b"{truncated json")
        with pytest.raises(CodecError):
            decode_payload(b'{"t":"delta","cq":"q"}')
        with pytest.raises(CodecError):
            FrameDecoder().feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        assert issubclass(CodecError, NetworkError)

    def test_truncated_payload_in_intact_frame_is_skipped(self):
        good = encode_frame(HeartbeatMessage(1))
        payload = encode_payload(FetchMessage("q"))[:-4]  # torn JSON
        bad = len(payload).to_bytes(4, "big") + payload
        decoder = FrameDecoder()
        out = decoder.feed(bad + good)
        # The poisoned frame is counted; the stream continues.
        assert decoder.errors == 1
        assert [type(m) for m in out] == [HeartbeatMessage]

    def test_bit_flipped_frame_is_skipped_stream_survives(self):
        frames = [
            encode_frame(HeartbeatMessage(1)),
            encode_frame(FetchMessage("q")),
            encode_frame(HeartbeatMessage(2)),
        ]
        # Flip a payload byte in the middle frame (length prefix kept
        # intact so framing survives).
        middle = bytearray(frames[1])
        middle[6] ^= 0xFF
        decoder = FrameDecoder()
        out = decoder.feed(frames[0] + bytes(middle) + frames[2])
        assert decoder.errors == 1
        assert [m.ts for m in out if isinstance(m, HeartbeatMessage)] == [1, 2]

    def test_every_bit_flip_is_detected_or_harmless(self):
        """Flip each payload byte of one frame in turn: the decoder
        either skips it (counted) or decodes a well-formed message —
        it never raises and never stalls the stream."""
        frame = encode_frame(HeartbeatMessage(7))
        trailer = encode_frame(FetchMessage("q"))
        for i in range(4, len(frame)):  # payload bytes only
            damaged = bytearray(frame)
            damaged[i] ^= 0x40
            decoder = FrameDecoder()
            out = decoder.feed(bytes(damaged) + trailer)
            assert decoder.errors in (0, 1)
            assert type(out[-1]) is FetchMessage

    def test_custom_frame_limit(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(CodecError):
            decoder.feed((65).to_bytes(4, "big") + b"x" * 65)
        small = encode_frame(HeartbeatMessage(1))
        assert len(small) - 4 <= 64
        assert FrameDecoder(max_frame_bytes=64).feed(small)[0].ts == 1

    def test_frameconnection_counts_codec_errors(self):
        """Over a real socket pair: a poisoned frame is skipped and
        counted on the connection; later frames still arrive."""
        import asyncio

        from repro.net.transport import TcpTransport

        async def scenario():
            received = []
            done = asyncio.Event()

            async def on_connection(conn):
                while True:
                    message = await conn.recv()
                    if message is None:
                        break
                    received.append(message)
                    if len(received) == 2:
                        done.set()
                server_conns.append(conn)

            server_conns = []
            transport = TcpTransport()
            server, (host, port) = await transport.serve(
                "127.0.0.1", 0, on_connection
            )
            conn = await transport.connect(host, port)
            await conn.send(HeartbeatMessage(1))
            # Hand-forged poisoned frame: intact framing, broken JSON.
            payload = b'{"t":"delta","cq":"q"}'
            conn._writer.write(len(payload).to_bytes(4, "big") + payload)
            await conn._writer.drain()
            await conn.send(HeartbeatMessage(2))
            await asyncio.wait_for(done.wait(), 5)
            conn.close()
            await conn.wait_closed()
            server.close()
            await server.wait_closed()
            assert [m.ts for m in received] == [1, 2]
            assert server_conns[0].codec_errors == 1

        asyncio.run(scenario())
