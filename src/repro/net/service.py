"""CQService: a CQServer hosted behind real asyncio TCP sockets.

The in-process :class:`~repro.net.server.CQServer` stays the single
source of truth for subscriptions, protocols, retained result copies,
and GC zones; this module adds the machinery a real deployment needs
around it:

* per-connection **sessions** keyed by client id, with a handshake
  (Hello/HelloAck) that resumes existing subscriptions differentially
  via :meth:`CQServer.replay`;
* **heartbeats** with a miss limit and an optional idle timeout, so
  dead peers are evicted and their replay zones released;
* **bounded outbound queues**: when a session's outbox backs up past
  ``queue_limit``, its push (DRA_DELTA) subscriptions degrade to the
  lazy DeltaAvailable protocol — the server keeps consolidating deltas
  server-side and ships one small notice instead of every delta — and
  are restored (with the accumulated delta shipped once) when the
  queue drains. The limit counts frames, and a refresh sends a
  connection one frame whatever number of routed groups it holds, so a
  consumer that stops reading degrades after ``queue_limit`` cycles of
  backlog.

Zone discipline: socket sessions set ``defer_zone_advance``, so a
subscription's replay boundary only moves when the client's heartbeat
ack reports the refresh as *applied* — through ``last_ts`` once the
client has applied the frame that last changed the retained copy
(:meth:`Subscription.horizon`), so a quiet subscription does not pin the
log. Everything a connected client might still need stays
GC-protected; :meth:`CQServer.release_zones` on disconnect lets GC
move on.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.errors import NetworkError, RegistrationError, reject_deleted_arms
from repro.metrics import Metrics
from repro.obs.stats import cost_columns
from repro.storage.database import Database
from repro.net.messages import (
    DeltaAvailableMessage,
    FetchMessage,
    HeartbeatAckMessage,
    HeartbeatMessage,
    HelloAckMessage,
    HelloMessage,
    Message,
    RegisterMessage,
    ResyncMessage,
    StatsMessage,
    StatsReplyMessage,
)
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.net.transport import FaultInjector, FrameConnection, TcpTransport


class _Session:
    """Server-side state for one connected client."""

    #: The CQServer must not advance replay zones on delivery: a frame
    #: in flight when the connection dies would otherwise lose its
    #: replay window. Heartbeat acks advance zones instead.
    defer_zone_advance = True

    def __init__(self, service: "CQService", client_id: str, conn: FrameConnection):
        self.service = service
        self.name = client_id  # CQServer.attach reads .name
        self.client_id = client_id
        self.conn = conn
        self.server = None  # set by CQServer.attach
        self.outbox: Deque[Message] = deque()
        self._wake = asyncio.Event()
        self.closed = False
        self.unacked_heartbeats = 0
        self.last_seen = asyncio.get_event_loop().time()
        #: CQs degraded to DRA_LAZY by backpressure, to restore later.
        self.degraded = set()
        self._tasks = []

    # -- CQServer endpoint interface ---------------------------------------

    def receive(self, message: Message) -> None:
        """Enqueue one outbound message (called synchronously by
        CQServer delivery paths)."""
        if self.closed:
            return
        if isinstance(message, DeltaAvailableMessage):
            # Coalesce: a newer pending-delta notice supersedes any
            # queued one for the same CQ.
            self.outbox = deque(
                queued
                for queued in self.outbox
                if not (
                    isinstance(queued, DeltaAvailableMessage)
                    and queued.cq_name == message.cq_name
                )
            )
        self.outbox.append(message)
        self._wake.set()

    @property
    def backlogged(self) -> bool:
        return len(self.outbox) >= self.service.queue_limit

    # -- tasks -------------------------------------------------------------

    def start(self) -> None:
        self._tasks = [
            asyncio.ensure_future(self._writer()),
            asyncio.ensure_future(self._heartbeats()),
        ]

    async def _writer(self) -> None:
        while not self.closed:
            if not self.outbox:
                self._wake.clear()
                if not self.outbox:
                    await self._wake.wait()
                continue
            message = self.outbox.popleft()
            try:
                await self.conn.send(message)
            except NetworkError:
                break

    async def _heartbeats(self) -> None:
        interval = self.service.heartbeat_interval
        if not interval:
            return
        metrics = self.service.metrics
        while not self.closed:
            await asyncio.sleep(interval)
            if self.closed:
                break
            now = asyncio.get_event_loop().time()
            idle = self.service.idle_timeout
            if idle and now - self.last_seen > idle:
                self.abort()
                break
            if self.unacked_heartbeats:
                metrics.count(Metrics.HEARTBEATS_MISSED)
                if self.unacked_heartbeats >= self.service.miss_limit:
                    self.abort()
                    break
            self.unacked_heartbeats += 1
            self.receive(HeartbeatMessage(self.service.db.now()))

    async def _reader(self) -> None:
        while not self.closed:
            message = await self.conn.recv()
            if message is None:
                break
            self.last_seen = asyncio.get_event_loop().time()
            self._handle(message)

    def _handle(self, message: Message) -> None:
        server = self.service.server
        try:
            if isinstance(message, RegisterMessage):
                server.handle_register(self.client_id, message)
            elif isinstance(message, FetchMessage):
                server.handle_fetch(self.client_id, message)
            elif isinstance(message, ResyncMessage):
                server.handle_resync(self.client_id, message)
            elif isinstance(message, StatsMessage):
                # Admin introspection: answer with the live service
                # stats payload over the same connection.
                self.receive(StatsReplyMessage(self.service.stats()))
            elif isinstance(message, HeartbeatAckMessage):
                self.unacked_heartbeats = 0
                for cq_name, ts in message.applied.items():
                    server.advance_zone(self.client_id, cq_name, ts)
            # Anything else (stray Hello, result frames) is ignored.
        except RegistrationError:
            # A duplicate register or a fetch for a dropped CQ is a
            # client/server race, not a reason to kill the session:
            # re-ship the retained copy so the client converges.
            if isinstance(message, (RegisterMessage, FetchMessage)):
                server.handle_resync(
                    self.client_id, ResyncMessage(message.cq_name)
                )

    # -- teardown ----------------------------------------------------------

    def abort(self) -> None:
        """Cut the socket without flushing (eviction, fault injection)."""
        self.closed = True
        self._wake.set()
        self.conn.abort()

    async def shutdown(self) -> None:
        self.closed = True
        self._wake.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        self.conn.close()
        await self.conn.wait_closed()


class CQService:
    """Hosts a :class:`CQServer` behind a listening TCP socket.

    ``queue_limit`` bounds each session's outbox in frames. A refresh
    queues at most one result frame per connection — every routed
    group's part of it together — so a stalled session is degraded to
    the lazy protocol at the start of the refresh after its
    ``queue_limit``-th unsent cycle, whether it holds one group or
    hundreds (heartbeats and notices queue beside those frames).
    """

    def __init__(
        self,
        db: Database,
        name: str = "server",
        metrics: Optional[Metrics] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        heartbeat_interval: float = 0.0,
        miss_limit: int = 3,
        idle_timeout: Optional[float] = None,
        injector: Optional[FaultInjector] = None,
        server: Optional[CQServer] = None,
        durability=None,
        audit_interval: int = 0,
        tracer=None,
        fanout: bool = True,
        columnar: bool = True,
    ):
        reject_deleted_arms("CQService", fanout=fanout, columnar=columnar)
        self.db = db
        self.metrics = metrics if metrics is not None else (
            server.metrics if server is not None else Metrics()
        )
        #: ``durability=`` accepts a WriteAheadLog or a path; commits
        #: and subscription register/deregister events journal through
        #: it, and :meth:`CQService.recover` rebuilds a crashed service
        #: from the journal (plus the latest checkpoint, if any).
        if durability is not None and db.wal is None:
            if isinstance(durability, str):
                from repro.storage.wal import WriteAheadLog

                durability = WriteAheadLog(durability, metrics=self.metrics)
            db.attach_wal(durability)
        if server is None:
            # Message-level accounting still flows through a (lossless,
            # zero-latency) simulated network; the wire-level truth is
            # in bytes_encoded from the TCP frames.
            server = CQServer(
                db,
                SimulatedNetwork(latency_seconds=0.0),
                name=name,
                metrics=self.metrics,
                audit_interval=audit_interval,
                tracer=tracer,
            )
        else:
            if audit_interval and not server.audit_interval:
                server.audit_interval = audit_interval
            if tracer is not None:
                server.tracer = tracer
        self.server = server
        self.tracer = server.tracer
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.heartbeat_interval = heartbeat_interval
        self.miss_limit = miss_limit
        self.idle_timeout = idle_timeout
        self.transport = TcpTransport(self.metrics, injector)
        self.address: Optional[Tuple[str, int]] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[str, _Session] = {}
        self._known_clients = set()

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def recover(
        cls,
        wal_path: str,
        checkpoint_path: Optional[str] = None,
        metrics: Optional[Metrics] = None,
        **kwargs,
    ) -> "CQService":
        """Rebuild a crashed service from its journal (+ checkpoint).

        Replays the write-ahead log on top of the latest checkpoint
        (tolerating a torn tail), re-creates journaled subscriptions,
        and returns a service ready to :meth:`start` — reconnecting
        sessions then resume differentially through the normal
        Hello/replay handshake. ``kwargs`` pass through to the
        constructor (host, port, heartbeat_interval, ...)."""
        from repro.core.persistence import recover_server

        metrics = metrics if metrics is not None else Metrics()
        server = recover_server(
            wal_path, checkpoint_path=checkpoint_path, metrics=metrics
        )
        return cls(server.db, metrics=metrics, server=server, **kwargs)

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        if self._listener is not None:
            raise NetworkError(f"service {self.server.name!r} already started")
        self._listener, self.address = await self.transport.serve(
            self.host, self.port, self._on_connection
        )
        return self.address

    async def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        for session in list(self._sessions.values()):
            await session.shutdown()
        # _on_connection handlers run their own cleanup, but the
        # listener may be gone before they finish; be idempotent.
        for client_id in list(self._sessions):
            self._drop_session(client_id)

    def sessions(self) -> Dict[str, _Session]:
        return dict(self._sessions)

    def evict(self, client_id: str) -> bool:
        """Forcibly cut one client's connection."""
        session = self._sessions.get(client_id)
        if session is None or session.closed:
            return False
        session.abort()
        return True

    def sever_connections(self) -> int:
        """Abort every live session socket mid-stream (fault
        injection for reconnect tests); returns the count."""
        count = 0
        for session in list(self._sessions.values()):
            if not session.closed:
                session.abort()
                count += 1
        return count

    # -- refresh -----------------------------------------------------------

    async def refresh(self) -> int:
        """Run one server refresh cycle and let writers make progress.

        Applies backpressure policy first: sessions whose outbox is at
        or past ``queue_limit`` have their DRA_DELTA subscriptions
        degraded to DRA_LAZY before the cycle computes anything, so a
        slow consumer costs one notice per cycle instead of a delta.
        """
        self._apply_backpressure()
        sent = self.server.refresh_all()
        await asyncio.sleep(0)
        return sent

    def _apply_backpressure(self) -> None:
        for session in self._sessions.values():
            if session.closed:
                continue
            if session.backlogged:
                for sub in self.server.subscriptions_for(session.client_id):
                    if sub.protocol is Protocol.DRA_DELTA:
                        sub.protocol = Protocol.DRA_LAZY
                        session.degraded.add(sub.cq_name)
                        self.metrics.count(Metrics.BACKPRESSURE_DEGRADES)
            elif session.degraded:
                self._restore(session)

    def _restore(self, session: _Session, deliver: bool = True) -> None:
        """Undo a backpressure degrade: ship the delta accumulated
        while lazy as one consolidated push (or, the peer gone, just
        fold it into the retained copy), then resume DRA_DELTA."""
        for sub in self.server.subscriptions_for(session.client_id):
            if sub.cq_name not in session.degraded:
                continue
            sub.protocol = Protocol.DRA_DELTA
            if deliver:
                self.server.handle_fetch(
                    session.client_id, FetchMessage(sub.cq_name)
                )
            else:
                sub.fold()
        session.degraded.clear()

    # -- connection handling -----------------------------------------------

    async def _on_connection(self, conn: FrameConnection) -> None:
        hello = await conn.recv()
        if not isinstance(hello, HelloMessage):
            conn.close()
            await conn.wait_closed()
            return
        client_id = hello.client_id
        stale = self._sessions.pop(client_id, None)
        if stale is not None:
            await stale.shutdown()
        if client_id in self._known_clients:
            self.metrics.count(Metrics.RECONNECTS)
        self._known_clients.add(client_id)
        session = _Session(self, client_id, conn)
        self._sessions[client_id] = session
        self.server.attach(session)
        session.start()
        try:
            known = {
                sub.cq_name
                for sub in self.server.subscriptions_for(client_id)
            }
            resumed = sorted(cq for cq in hello.resume if cq in known)
            unknown = sorted(cq for cq in hello.resume if cq not in known)
            await conn.send(
                HelloAckMessage(
                    self.server.name, self.db.now(), resumed, unknown
                )
            )
            # Pin replay boundaries at the client's applied horizon
            # before any refresh can run, then replay missed windows.
            self.server.pin_zones(client_id, hello.resume)
            for cq_name in resumed:
                self.server.replay(client_id, cq_name, hello.resume[cq_name])
            await session._reader()
        except NetworkError:
            pass
        finally:
            # Drop before the (bounded, possibly slow) socket teardown:
            # zone release must not lag behind the disconnect.
            if self._sessions.get(client_id) is session:
                self._drop_session(client_id)
            await session.shutdown()

    def _drop_session(self, client_id: str) -> None:
        session = self._sessions.pop(client_id, None)
        if session is not None and session.degraded:
            # Disconnecting while degraded must not park the
            # subscription on DRA_LAZY forever: the next connection
            # starts with a fresh (empty) degraded set, so _restore
            # would never fire for it. No delivery — the peer is gone,
            # and a reconnect replays from the update logs anyway.
            self._restore(session, deliver=False)
        self.server.release_zones(client_id)
        self.server.detach(client_id)

    # -- introspection -----------------------------------------------------

    #: Counters every stats payload reports even at zero, so operators
    #: (and the wire protocol's consumers) can rely on their presence.
    _STATS_COUNTERS = (
        Metrics.WAL_APPENDS,
        Metrics.WAL_RECOVERED,
        Metrics.WAL_TORN_TRUNCATIONS,
        Metrics.DIGEST_MISMATCHES,
        Metrics.AUDITS,
        Metrics.AUDIT_DIVERGENCES,
        Metrics.BACKPRESSURE_DEGRADES,
        Metrics.CODEC_ERRORS,
        Metrics.BYTES_ENCODED,
        Metrics.BYTES_SENT,
        Metrics.RECONNECTS,
        Metrics.HEARTBEATS_MISSED,
        Metrics.REPLAYS,
        Metrics.REPLAY_FALLBACKS,
        Metrics.RESYNCS,
        Metrics.PREDINDEX_PROBES,
        Metrics.PREDINDEX_MATCHES,
        Metrics.PREDINDEX_INVALIDATIONS,
        Metrics.SHARED_GROUPS,
        Metrics.SHARED_GROUP_HITS,
        Metrics.KERNEL_CALLS,
        Metrics.KERNEL_ROWS,
    )

    def stats(self) -> Dict[str, object]:
        """The live introspection payload (JSON-safe): counters,
        histograms, subscriptions, per-CQ cost tables, session queue
        depths and degraded sets, and GC zone boundaries. This is what
        a :class:`~repro.net.messages.StatsMessage` gets back."""
        counters = self.metrics.snapshot()
        for name in self._STATS_COUNTERS:
            counters.setdefault(name, 0)
        histograms = {}
        for name, hist in self.metrics.histograms().items():
            histograms[name] = {
                "count": hist.count,
                "total": hist.total,
                "min": hist.min,
                "max": hist.max,
                "buckets": [[exp, n] for exp, n in hist.buckets()],
            }
        sessions = [
            {
                "client": session.client_id,
                "outbox": len(session.outbox),
                "degraded": sorted(session.degraded),
                "unacked_heartbeats": session.unacked_heartbeats,
                "closed": session.closed,
            }
            for session in self._sessions.values()
        ]
        return {
            "server": self.server.name,
            "now": self.db.now(),
            "counters": counters,
            # Kernel efficiency (DESIGN.md §11): average rows per kernel
            # invocation; 0 until a DRA refresh runs.
            "rows_per_kernel_call": cost_columns(counters)["rows_per_kernel_call"],
            "histograms": histograms,
            "subscriptions": self.server.describe(),
            "per_cq": self.server.stats.to_dict(),
            "sessions": sessions,
            "zones": self.server.zones.boundaries(),
        }

    def prometheus(self) -> str:
        """The service metrics in Prometheus text exposition format."""
        from repro.obs.export import prometheus_text

        return prometheus_text(self.metrics)

    def status_report(self) -> str:
        return self.server.status_report()

    def __repr__(self) -> str:
        addr = self.address if self.address else "not started"
        return (
            f"CQService({self.server.name!r}, {addr}, "
            f"{len(self._sessions)} sessions)"
        )
