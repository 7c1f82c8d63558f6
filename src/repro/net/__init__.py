"""Client-server deployment of continual queries.

See DESIGN.md S7 and paper Section 5.1. Two deployment styles share
one server core: the deterministic in-process simulation
(:class:`SimulatedNetwork` + :class:`CQClient`) and real asyncio TCP
(:class:`CQService` + :class:`CQSession`) over the length-prefixed
wire codec in :mod:`repro.net.codec`.
"""

from repro.net.client import CQClient, CQSession
from repro.net.codec import (
    FrameDecoder,
    decode_payload,
    encode_frame,
    encode_payload,
    encoded_size,
)
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
    delta_wire_size,
    relation_wire_size,
)
from repro.net.server import CQServer, Protocol, Subscription
from repro.net.service import CQService
from repro.net.simnet import LinkStats, SimulatedNetwork
from repro.net.transport import (
    FaultInjector,
    FrameConnection,
    TcpTransport,
)

__all__ = [
    "CQClient",
    "CQServer",
    "CQService",
    "CQSession",
    "DeltaAvailableMessage",
    "DeltaMessage",
    "FaultInjector",
    "FetchMessage",
    "FrameConnection",
    "FrameDecoder",
    "FullResultMessage",
    "HeartbeatAckMessage",
    "HeartbeatMessage",
    "HelloAckMessage",
    "HelloMessage",
    "InitialResultMessage",
    "LinkStats",
    "Message",
    "Protocol",
    "RegisterMessage",
    "ResyncMessage",
    "SimulatedNetwork",
    "Subscription",
    "TcpTransport",
    "decode_payload",
    "delta_wire_size",
    "encode_frame",
    "encode_payload",
    "encoded_size",
    "relation_wire_size",
]
