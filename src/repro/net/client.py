"""CQ clients: registering queries and maintaining cached results.

"Caching the results on the client side makes the servers more
scalable with respect to the number of clients" (Section 5.1): a
client applies shipped deltas to its local copy instead of re-pulling
the full result.

Two client kinds live here:

* :class:`CQClient` — the in-process endpoint used with
  :class:`~repro.net.simnet.SimulatedNetwork` deployments (benchmarks,
  deterministic tests);
* :class:`CQSession` — the asyncio endpoint for a real
  :class:`~repro.net.service.CQService`: it dials over a transport,
  heartbeats, reconnects with exponential backoff + jitter, and on
  resume asks the server to replay its missed window differentially.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConnectTimeout, NetworkError, ReproError
from repro.relational.relation import Relation
from repro.storage.timestamps import Timestamp
from repro.net.digest import apply_delta, relation_digest
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
    StatsMessage,
    StatsReplyMessage,
    ResyncMessage,
)
from repro.net.server import Protocol
from repro.net.transport import FrameConnection, TcpTransport

_RESULT_FRAMES = (InitialResultMessage, FullResultMessage, DeltaMessage)


class ResultCache:
    """One cached result per CQ, each beside the running digest of
    exactly that copy: the apply-and-verify step of both client kinds.

    A delta frame may address several CQs: the members of one routed
    group that this client holds. Those whose copies had the same
    running digest before the frame apply its delta once and share the
    resulting relation, as the server's members share their group's
    result. A cached relation is therefore replaced on every change and
    never mutated in place; callers must not mutate one either."""

    def __init__(self) -> None:
        self._results: Dict[str, Relation] = {}
        # CQ name -> (the copy the digest describes, its digest). A
        # result put into _results by other means (a session cloned
        # for a resume) is a different object and digests itself in
        # full on its first delta.
        self._digests: Dict[str, Tuple[Relation, str]] = {}
        #: Deltas this cache could not apply: no cached result for the
        #: CQ (a normal race after a client restart), or a delete of a
        #: row it does not hold (frames were lost).
        self.stale_deltas = 0
        #: Results whose post-apply digest did not match the server's
        #: stamp; each one discarded the cached copy.
        self.digest_mismatches = 0

    def _absorb(self, message) -> Tuple[List[str], List[str]]:
        """Store a complete result, or apply a delta to every CQ the
        frame addresses, advancing each running digest with it, and
        compare each against the server's stamp. Returns the CQs that
        took the frame and those whose copy is unusable — counted in
        ``stale_deltas`` or ``digest_mismatches`` and, on a mismatch,
        discarded: the caller asks for a resync of each of those."""
        if isinstance(message, DeltaMessage):
            outcomes = self._apply(message)
        else:
            result = message.result.copy()
            outcomes = [(message.cq_name, result, relation_digest(result))]
        applied: List[str] = []
        failed: List[str] = []
        for cq_name, result, digest in outcomes:
            if result is None:
                self.stale_deltas += 1
            elif message.digest is not None and digest != message.digest:
                self.digest_mismatches += 1
                self._results.pop(cq_name, None)
                self._digests.pop(cq_name, None)
            else:
                self._results[cq_name] = result
                self._digests[cq_name] = (result, digest)
                applied.append(cq_name)
                continue
            failed.append(cq_name)
        return applied, failed

    def _apply(
        self, message: DeltaMessage
    ) -> List[Tuple[str, Optional[Relation], Optional[str]]]:
        """``(cq, result, digest)`` after the frame for each addressed
        CQ, ``result`` None where the delta cannot apply (no cached
        copy, or a delete of a row it does not hold). The delta is
        applied once per distinct pre-frame digest."""
        after: Dict[str, Tuple[Optional[Relation], Optional[str]]] = {}
        outcomes = []
        for cq_name in message.cq_names:
            held = self._results.get(cq_name)
            if held is None:
                outcomes.append((cq_name, None, None))
                continue
            described, digest = self._digests.get(cq_name, (None, None))
            if described is not held:
                digest = relation_digest(held)
            if digest not in after:
                try:
                    after[digest] = apply_delta(message.delta, held, digest)
                except (KeyError, ReproError):
                    after[digest] = (None, None)
            outcomes.append((cq_name, *after[digest]))
        return outcomes


class CQClient(ResultCache):
    """A subscriber endpoint holding one cached result per CQ."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.server = None  # set by CQServer.attach
        self._history: List[Message] = []
        # Lazy protocol: the latest pending-delta notice per CQ.
        self._pending: Dict[str, DeltaAvailableMessage] = {}

    # -- outbound ------------------------------------------------------------

    def _send(self, message: Message) -> bool:
        """Charge one client->server message; False when the network
        lost it (injected faults)."""
        if self.server is None:
            raise NetworkError(f"client {self.name!r} is not attached")
        duration = self.server.network.send(
            self.name, self.server.name, message.wire_size(), self.server.metrics
        )
        return duration is not None

    def register(
        self, cq_name: str, sql: str, protocol: Protocol = Protocol.DRA_DELTA
    ) -> None:
        """Install a CQ at the attached server."""
        message = RegisterMessage(cq_name, sql, protocol.value)
        if self._send(message):
            self.server.handle_register(self.name, message, protocol)

    # -- inbound -----------------------------------------------------------------

    def receive(self, message: Message) -> None:
        self._history.append(message)
        if isinstance(message, DeltaAvailableMessage):
            self._pending[message.cq_name] = message
            return
        if not isinstance(message, _RESULT_FRAMES):
            raise NetworkError(f"unexpected message {message!r}")
        mismatches = self.digest_mismatches
        applied, failed = self._absorb(message)
        if isinstance(message, DeltaMessage):
            for cq_name in applied:
                self._pending.pop(cq_name, None)
        # A delta we cannot apply is normal after a client restart (the
        # server refreshed before seeing the new session), a mismatch
        # is a copy that is provably not what the server shipped from:
        # either way ask for the full copy instead of failing.
        if self.digest_mismatches > mismatches and self.server is not None:
            from repro.metrics import Metrics

            self.server.metrics.count(
                Metrics.DIGEST_MISMATCHES, self.digest_mismatches - mismatches
            )
        for cq_name in failed:
            self._resync(cq_name)

    def _resync(self, cq_name: str) -> None:
        if self.server is not None and self._send(ResyncMessage(cq_name)):
            self.server.handle_resync(self.name, ResyncMessage(cq_name))

    # -- lazy protocol --------------------------------------------------------

    def pending_notice(self, cq_name: str):
        """The latest unfetched DeltaAvailableMessage, or None."""
        return self._pending.get(cq_name)

    def fetch(self, cq_name: str) -> bool:
        """Pull the accumulated pending delta from the server.

        Returns True if a delta arrived (the cached result is then
        current as of the last refresh the server performed).
        """
        if self._send(FetchMessage(cq_name)):
            return self.server.handle_fetch(self.name, FetchMessage(cq_name))
        return False

    # -- inspection -----------------------------------------------------------------

    def result(self, cq_name: str) -> Relation:
        """The cached result; it may be shared with other CQs of the
        same group and must not be mutated (copy it to edit)."""
        try:
            return self._results[cq_name]
        except KeyError:
            raise NetworkError(
                f"client {self.name!r} has no result for {cq_name!r}"
            ) from None

    def forget(self, cq_name: str) -> None:
        """Drop the cached result (simulates client state loss)."""
        self._results.pop(cq_name, None)
        self._pending.pop(cq_name, None)

    def history(self) -> List[Message]:
        return list(self._history)

    def __repr__(self) -> str:
        return f"CQClient({self.name!r}, {len(self._results)} cached results)"


class CQSession(ResultCache):
    """An asyncio CQ subscriber over a real transport.

    The session dials the service, identifies itself with a Hello
    frame, and keeps cached results current by applying pushed deltas.
    When the connection dies it reconnects with exponential backoff
    plus jitter, resuming with its last-applied timestamp per CQ so the
    server can replay exactly the missed window as one consolidated
    delta (or fall back to a full result when garbage collection has
    passed the session's horizon).
    """

    def __init__(
        self,
        client_id: str,
        host: str,
        port: int,
        transport: Optional[TcpTransport] = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        backoff_jitter: float = 0.5,
        max_attempts: int = 20,
        seed: int = 0,
        auto_fetch: bool = True,
    ):
        super().__init__()
        self.client_id = client_id
        self.host = host
        self.port = port
        self.transport = transport if transport is not None else TcpTransport()
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self.max_attempts = max_attempts
        self.auto_fetch = auto_fetch
        self._rng = random.Random(seed)
        self._conn: Optional[FrameConnection] = None
        self._task: Optional[asyncio.Task] = None
        self._closing = False
        #: CQ name -> last refresh timestamp applied locally. This is
        #: the resume map sent in every Hello and heartbeat ack.
        self.applied: Dict[str, Timestamp] = {}
        self._registered: Dict[str, tuple] = {}
        self._updated = asyncio.Event()
        self.server_name: Optional[str] = None
        # Visible session counters (tests and ops assertions).
        self.reconnects = 0
        self.heartbeats = 0
        self.full_results = 0
        self.deltas_applied = 0
        self.lazy_notices = 0
        self.connect_attempts = 0
        self.stats_replies = 0
        #: The most recent StatsReply payload (see :meth:`stats`).
        self.last_stats: Optional[Dict[str, object]] = None

    # -- lifecycle ---------------------------------------------------------

    async def connect(self, timeout: float = 10.0) -> None:
        """Dial and handshake; starts the background reader.

        ``timeout`` is a *total* deadline spanning every dial attempt
        and backoff sleep, not a per-attempt budget. On expiry — or as
        soon as the retry loop exhausts ``max_attempts``, whichever
        comes first — the session is torn down and
        :class:`~repro.errors.ConnectTimeout` reports how many dial
        attempts were made, so callers can retry cleanly.
        """
        if self._task is not None:
            raise NetworkError(f"session {self.client_id!r} already running")
        self._closing = False
        self.connect_attempts = 0
        self._task = asyncio.ensure_future(self._run())
        try:
            await self._wait_for(
                lambda: self.connected or self._task.done(), timeout
            )
        except NetworkError:
            await self.close()
            raise ConnectTimeout(
                f"session {self.client_id!r} could not connect to "
                f"{self.host}:{self.port} within {timeout}s "
                f"({self.connect_attempts} attempts)",
                attempts=self.connect_attempts,
            ) from None
        if not self.connected:
            # The retry loop gave up (max_attempts) before the deadline.
            await self.close()
            raise ConnectTimeout(
                f"session {self.client_id!r} gave up connecting to "
                f"{self.host}:{self.port} after "
                f"{self.connect_attempts} attempts",
                attempts=self.connect_attempts,
            )

    async def close(self) -> None:
        self._closing = True
        if self._conn is not None:
            self._conn.close()
            await self._conn.wait_closed()
            self._conn = None
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None

    async def redial(self, host: str, port: int, timeout: float = 10.0) -> None:
        """Point the session at a different address (server restart)
        and reconnect there, resuming differentially."""
        self.host = host
        self.port = port
        if self._conn is not None and not self._conn.closed:
            self._conn.abort()
        await self._wait_for(lambda: self.connected, timeout)

    @property
    def connected(self) -> bool:
        return self._conn is not None and not self._conn.closed

    # -- requests ----------------------------------------------------------

    async def register(
        self,
        cq_name: str,
        sql: str,
        protocol: Protocol = Protocol.DRA_DELTA,
        timeout: float = 10.0,
    ) -> Relation:
        """Install a CQ and wait for its initial result."""
        self._registered[cq_name] = (sql, protocol.value)
        await self._send(RegisterMessage(cq_name, sql, protocol.value))
        await self._wait_for(lambda: cq_name in self._results, timeout)
        return self._results[cq_name]

    async def fetch(self, cq_name: str) -> None:
        """Request the pending lazy delta for one CQ."""
        await self._send(FetchMessage(cq_name))

    async def stats(self, timeout: float = 10.0) -> Dict[str, object]:
        """Ask the server for its live stats payload (admin
        introspection over the wire) and wait for the reply."""
        target = self.stats_replies + 1
        await self._send(StatsMessage())
        await self._wait_for(lambda: self.stats_replies >= target, timeout)
        assert self.last_stats is not None
        return self.last_stats

    async def wait_applied(
        self, cq_name: str, ts: Timestamp, timeout: float = 10.0
    ) -> None:
        """Block until the local cache reflects refresh time ``ts``."""
        await self._wait_for(
            lambda: self.applied.get(cq_name, -1) >= ts, timeout
        )

    def result(self, cq_name: str) -> Relation:
        """The cached result; it may be shared with other CQs of the
        same group and must not be mutated (copy it to edit)."""
        try:
            return self._results[cq_name]
        except KeyError:
            raise NetworkError(
                f"session {self.client_id!r} has no result for {cq_name!r}"
            ) from None

    # -- internals ---------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return delay * (1.0 + self.backoff_jitter * self._rng.random())

    def _notify(self) -> None:
        self._updated.set()

    async def _wait_for(
        self, predicate: Callable[[], bool], timeout: float
    ) -> None:
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while not predicate():
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise NetworkError(
                    f"session {self.client_id!r} timed out waiting"
                )
            self._updated.clear()
            if predicate():  # re-check after clear to avoid a lost wakeup
                return
            try:
                await asyncio.wait_for(self._updated.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    async def _send(self, message: Message) -> None:
        if self._conn is None or self._conn.closed:
            raise NetworkError(f"session {self.client_id!r} is not connected")
        await self._conn.send(message)

    async def _dial(self) -> None:
        self.connect_attempts += 1
        conn = await self.transport.connect(self.host, self.port)
        await conn.send(HelloMessage(self.client_id, dict(self.applied)))
        ack = await conn.recv()
        if not isinstance(ack, HelloAckMessage):
            conn.close()
            raise NetworkError(f"expected HelloAck, got {ack!r}")
        self.server_name = ack.server_name
        self._conn = conn
        # CQs the server does not know (it restarted without us, or we
        # registered while disconnected): install them now.
        for cq_name in ack.unknown:
            spec = self._registered.get(cq_name)
            if spec is not None:
                await conn.send(RegisterMessage(cq_name, spec[0], spec[1]))
        self._notify()

    async def _run(self) -> None:
        attempt = 0
        first = True
        while not self._closing:
            if self._conn is None or self._conn.closed:
                if not first:
                    attempt += 1
                    if attempt > self.max_attempts:
                        self._notify()
                        return
                    await asyncio.sleep(self._backoff(attempt))
                try:
                    await self._dial()
                except (NetworkError, OSError):
                    if first:
                        attempt += 1
                        if attempt > self.max_attempts:
                            self._notify()
                            return
                        await asyncio.sleep(self._backoff(attempt))
                    continue
                attempt = 0
                first = False
                continue
            message = await self._conn.recv()
            if message is None:
                self._conn = None
                if not self._closing:
                    self.reconnects += 1
                continue
            try:
                await self._handle(message)
            except NetworkError:
                continue  # connection died mid-reply; reconnect loop

    async def _handle(self, message: Message) -> None:
        if isinstance(message, _RESULT_FRAMES):
            applied, failed = self._absorb(message)
            for cq_name in applied:
                self.applied[cq_name] = message.ts
            if isinstance(message, FullResultMessage):
                self.full_results += len(applied)
            elif isinstance(message, DeltaMessage):
                self.deltas_applied += len(applied)
            for cq_name in failed:
                # Our cache is not what the server believes we hold
                # (lost or altered frames); a full copy resynchronizes.
                await self._send(ResyncMessage(cq_name))
        elif isinstance(message, DeltaAvailableMessage):
            self.lazy_notices += 1
            if self.auto_fetch:
                await self._send(FetchMessage(message.cq_name))
        elif isinstance(message, StatsReplyMessage):
            self.last_stats = message.payload
            self.stats_replies += 1
        elif isinstance(message, HeartbeatMessage):
            self.heartbeats += 1
            await self._send(
                HeartbeatAckMessage(message.ts, dict(self.applied))
            )
        # HelloAck outside the handshake and anything unknown: ignore.
        self._notify()

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return (
            f"CQSession({self.client_id!r}, {state}, "
            f"{len(self._results)} cached results)"
        )
