"""The TCP transport: how encoded CQ messages cross a real socket.

:class:`TcpTransport` opens asyncio TCP streams. Frames produced by
:mod:`repro.net.codec` cross a loopback (or actual) network; the
:class:`FrameConnection` wrapper handles framing, byte accounting,
and injected frame drops for crash/recovery tests. (In-process
delivery goes through :class:`~repro.net.simnet.SimulatedNetwork`
directly.)
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Optional, Tuple

from repro.errors import CodecError, NetworkError
from repro.metrics import Metrics
from repro.net.codec import MAX_FRAME_BYTES, _LENGTH, decode_payload, encode_frame
from repro.net.messages import Message


class FaultInjector:
    """Deterministic fault plan shared by TCP connections.

    ``drop_rate`` silently discards outbound frames (application-level
    loss: the frame is simply never written, so stream framing stays
    intact). The "kill the connection mid-stream" fault reconnect tests
    inject is :meth:`repro.net.service.CQService.sever_connections`.
    """

    def __init__(self, drop_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= drop_rate <= 1.0:
            raise NetworkError("drop rate must be in [0, 1]")
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)
        self.frames_dropped = 0

    def should_drop(self) -> bool:
        if self.drop_rate <= 0.0:
            return False
        if self._rng.random() < self.drop_rate:
            self.frames_dropped += 1
            return True
        return False


class FrameConnection:
    """One framed message stream over an asyncio TCP connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        metrics: Optional[Metrics] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self._reader = reader
        self._writer = writer
        self.metrics = metrics
        self.injector = injector
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Malformed frames skipped on this connection (intact framing,
        #: undecodable payload). Oversized length prefixes are fatal
        #: instead — framing is lost — and close the connection.
        self.codec_errors = 0
        self.closed = False

    async def send(self, message: Message) -> int:
        """Encode and write one frame; returns bytes written (0 if the
        frame was dropped by the fault injector)."""
        if self.closed:
            raise NetworkError("connection is closed")
        frame = encode_frame(message)
        if self.injector is not None and self.injector.should_drop():
            return 0
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self.closed = True
            raise NetworkError(f"send failed: {exc}") from exc
        self.bytes_sent += len(frame)
        if self.metrics:
            self.metrics.count(Metrics.BYTES_ENCODED, len(frame))
        return len(frame)

    async def recv(self) -> Optional[Message]:
        """Read one message; None on clean or abrupt EOF.

        A malformed payload inside an intact frame is counted
        (``codec_errors``) and skipped — the read loop continues with
        the next frame instead of tearing the session down. An
        oversized length prefix means framing is lost: the connection
        closes (returns None) after counting the error, because no
        later byte can be trusted as a frame boundary."""
        while True:
            try:
                prefix = await self._reader.readexactly(_LENGTH.size)
                (length,) = _LENGTH.unpack(prefix)
                if length > MAX_FRAME_BYTES:
                    self._count_codec_error()
                    self.close()
                    return None
                payload = await self._reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                self.closed = True
                return None
            self.bytes_received += len(payload) + _LENGTH.size
            try:
                return decode_payload(payload)
            except CodecError:
                self._count_codec_error()
                continue

    def _count_codec_error(self) -> None:
        self.codec_errors += 1
        if self.metrics:
            self.metrics.count(Metrics.CODEC_ERRORS)

    def abort(self) -> None:
        """Drop the connection without flushing (simulates a cut link)."""
        self.closed = True
        transport = self._writer.transport
        if transport is not None:
            transport.abort()

    def close(self) -> None:
        # ``closed`` alone does not mean the transport was closed:
        # recv() sets it on EOF, and returning early then left the
        # writer open, so wait_closed() always ran into its bound.
        self.closed = True
        if self._writer.is_closing():
            return
        try:
            self._writer.close()
        except (ConnectionError, OSError):  # already torn down
            pass

    async def wait_closed(self, timeout: float = 1.0) -> None:
        """Wait (bounded) for the transport to finish closing.

        Bounded because ``StreamWriter.wait_closed`` can block
        indefinitely on an already-reset connection; teardown must
        never hang on a peer that is gone.
        """
        try:
            # Shielded: the close waiter is one shared future per
            # connection, and a timeout here must not cancel it for
            # every other waiter.
            await asyncio.wait_for(
                asyncio.shield(self._writer.wait_closed()), timeout
            )
        except (
            asyncio.TimeoutError,
            asyncio.CancelledError,
            ConnectionError,
            OSError,
        ):
            pass


class TcpTransport:
    """Factory for framed connections over real asyncio TCP sockets."""

    def __init__(
        self,
        metrics: Optional[Metrics] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.metrics = metrics
        self.injector = injector

    async def connect(self, host: str, port: int) -> FrameConnection:
        reader, writer = await asyncio.open_connection(host, port)
        return FrameConnection(reader, writer, self.metrics, self.injector)

    async def serve(
        self,
        host: str,
        port: int,
        on_connection: Callable[[FrameConnection], "asyncio.Future"],
    ) -> Tuple[asyncio.AbstractServer, Tuple[str, int]]:
        """Listen and hand each accepted connection to ``on_connection``
        (a coroutine function). Returns the server and its bound address
        (useful with ``port=0``)."""

        async def handler(reader, writer):
            connection = FrameConnection(
                reader, writer, self.metrics, self.injector
            )
            await on_connection(connection)

        server = await asyncio.start_server(handler, host, port)
        sock = server.sockets[0].getsockname()
        return server, (sock[0], sock[1])
