"""The one way a frame leaves the router: dispatch, gather, retry.

Every request the router makes — a refresh cycle's scatters, heartbeats
and lockstep replica slices, and every control request (subscribe,
promote, rebuild, rejoin, re-slice, drain) — is submitted to a
:class:`CycleEngine` and driven to a reply or to an exhausted host by
:meth:`CycleEngine.run`. Frames to one host stay FIFO with at most one
outstanding request (the shard worker on the far side of a pipe is
single-threaded); hosts are driven concurrently, so a cycle's
wall-clock is bounded by its slowest host, not the fleet sum.

**The backend contract.** The engine and the router drive any object
with these nine methods (:class:`~repro.cluster.local.LocalBackend`
in-process, :class:`~repro.cluster.proc.ProcessBackend` over pipes):

* ``spawn(shard_id, decls)`` — start a fresh host. It may return
  before the host is ready: the backend completes the handshake before
  the host's first ``post``, so a fleet boots side by side, and a host
  that fails to boot surfaces as that ``post``'s ``ClusterError``.
* ``recover(shard_id, decls)`` — restart a host from its journal (or
  reattach to one that never actually died) and return its
  ``ShardHelloMessage``, which the router reads; a failed boot raises
  ``ClusterError``.
* ``kill(shard_id)`` / ``stop(shard_id)`` — crash without a handshake /
  planned clean shutdown; ``close()`` stops everything.
* ``alive()`` — ids of the hosts the backend is running.
* ``post(shard_id, message)`` — non-blocking dispatch; raises
  ``ClusterError`` when the host is not reachable.
* ``collect(timeout)`` — ``(shard_id, seq, payload)`` for every outcome
  ready within ``timeout``; ``payload`` is the decoded reply, a
  ``ShardTimeout`` (a transport-detected deadline miss) or another
  exception (a torn connection).
* ``host_alive(shard_id)`` — process-level liveness, the fail-fast
  signal.

Bookkeeping rules the router relies on:

* **One clock.** Every per-request deadline and retry timer is a
  ``time.monotonic`` instant; the gather wait is sized to the nearest
  timer, so a host backing off never stalls another host's gather.
* **One failure policy.** A deadline miss counts a scatter timeout and
  one health failure, a fired retry counts a scatter retry, and
  exhaustion hands the host to ``ClusterRouter._on_host_down`` — for
  every kind of request but a best-effort drain. A torn connection
  whose process is actually gone (``not host_alive(host)``) fails fast
  instead of burning the remaining ``retries × backoff`` wall-clock;
  the health machine still ends at *dead* through the same transitions.
* **Exactly-once.** Retries re-post the *same* frame (same ``seq``),
  so the shard-side seq-dedup reply cache keeps at-least-once delivery
  exactly-once application; late replies from timed-out attempts never
  pair with a later request and are discarded (counted as stale).
* **Arrival-independent merge.** The engine only *records* a reply on
  its request; the router absorbs a cycle's replies after ``run()`` in
  planning order, so merge and notification order never depend on
  which host answered first.
* **Failover inside the run.** When a host exhausts its schedule
  ``_on_host_down`` runs immediately; the promotions it triggers are
  submitted at the *front* of the target host's queue, so a promote
  precedes the new primary's scatter whenever that frame has not been
  dispatched yet (the bit-identical failover path). If the lockstep
  frame already ran, the promote's horizon mismatch queues the exact
  reconcile.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import ClusterError, ShardTimeout
from repro.metrics import Metrics
from repro.net.messages import GatherReplyMessage, Message

#: Request kinds: a ``request``'s reply is read off the request by
#: whoever submitted it; a ``promote``'s reply completes a failover via
#: ``_finish_promote``; a ``drain`` is best-effort — the one kind whose
#: exhaustion does not take the host down.
REQUEST = "request"
PROMOTE = "promote"
DRAIN = "drain"


class _Request:
    """One frame: its target, retry state, timers, and — once answered
    — its reply (None after ``run()`` means the host never answered)."""

    __slots__ = (
        "host",
        "message",
        "kind",
        "attempt",
        "deadline",
        "retry_at",
        "reply",
    )

    def __init__(self, host: int, message: Message, kind: str):
        seq = getattr(message, "seq", None)
        if not isinstance(seq, int):
            raise ClusterError(
                f"frames need an integer seq to pair replies; got "
                f"{seq!r} on {type(message).__name__}"
            )
        self.host = host
        self.message = message
        self.kind = kind
        self.attempt = 1
        self.deadline: Optional[float] = None  # set when posted
        self.retry_at: Optional[float] = None  # set while backing off
        self.reply: Optional[GatherReplyMessage] = None

    @property
    def seq(self) -> int:
        return self.message.seq


class CycleEngine:
    """Dispatch-all-then-gather driver for everything a router sends."""

    def __init__(self, router, max_wait: float = 0.25):
        self.router = router
        self.backend = router.backend
        self.metrics: Metrics = router.metrics
        #: Upper bound on a single gather wait, so newly submitted work
        #: (a promote queued by a failover on another host) is picked
        #: up promptly even while every timer is far away.
        self.max_wait = max_wait
        self._queues: Dict[int, Deque[_Request]] = {}
        #: At most one outstanding request per host (the worker on the
        #: other side is serial; pipelining buys nothing and would
        #: break request/reply pairing on timeout).
        self._outstanding: Dict[int, _Request] = {}

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        host: int,
        message: Message,
        kind: str = REQUEST,
        front: bool = False,
    ) -> _Request:
        """Queue one frame for ``host``; dispatched FIFO per host.

        ``front=True`` (promotions) jumps the not-yet-dispatched part
        of the queue: the promote precedes the new primary's lockstep
        scatter when that scatter has not gone out yet, which is what
        keeps a same-cycle failover bit-identical.
        """
        request = _Request(host, message, kind)
        queue = self._queues.setdefault(host, deque())
        if front:
            queue.appendleft(request)
        else:
            queue.append(request)
        return request

    # -- the gather loop ----------------------------------------------------

    def run(self) -> None:
        """Drive every queued frame to a reply or an exhausted host."""
        self._pump()
        while self._outstanding or any(self._queues.values()):
            now = time.monotonic()
            self._fire_timers(now)
            self._pump()
            if not self._outstanding and not any(self._queues.values()):
                break
            timeout = self._next_wait(time.monotonic())
            for host, seq, payload in self.backend.collect(timeout):
                if isinstance(payload, ShardTimeout):
                    self._on_timeout(self._outstanding.get(host))
                elif isinstance(payload, Exception):
                    self._on_torn(self._outstanding.get(host))
                else:
                    self._on_reply(host, seq, payload)
            self._pump()
        # Between runs the engine holds nothing: hosts are pumped in
        # the order this run's frames were submitted, not in the order
        # hosts were first ever seen.
        self._queues.clear()

    def _pump(self) -> None:
        """Post the head of every idle live host's queue."""
        for host in list(self._outstanding):
            # A failover cascade can declare a host dead while another
            # of its frames is still in flight; waiting out that
            # frame's deadline would only charge a dead host more
            # failures, so drop it on the floor here.
            if self.router._hosts[host].dead:
                self._abandon(host)
        for host, queue in list(self._queues.items()):
            if not queue or host in self._outstanding:
                continue
            if self.router._hosts[host].dead:
                self._abandon(host)
                continue
            request = queue.popleft()
            self._post(request)

    def _post(self, request: _Request) -> None:
        try:
            self.backend.post(request.host, request.message)
        except ClusterError:
            # The post itself failed (conn torn and reaped during a
            # backoff window, host never spawned, ...). Clear the
            # timers *before* dispatching the failure: a stale past
            # ``retry_at`` would make ``_fire_timers`` re-fire every
            # iteration while ``_on_torn``'s backing-off guard
            # swallowed the event — a busy livelock that never reaches
            # the exhaustion check.
            request.retry_at = None
            request.deadline = None
            self._outstanding[request.host] = request
            self._on_torn(request)
            return
        # Stamped after ``post`` returns: a host's first post may wait
        # out its boot, which is not the request's time.
        timeout = self.router._request_timeout
        request.deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        request.retry_at = None
        self._outstanding[request.host] = request

    def _next_wait(self, now: float) -> float:
        horizon = now + self.max_wait
        for request in self._outstanding.values():
            if request.retry_at is not None:
                horizon = min(horizon, request.retry_at)
            elif request.deadline is not None:
                horizon = min(horizon, request.deadline)
        return max(0.0, horizon - now)

    def _fire_timers(self, now: float) -> None:
        for host in list(self._outstanding):
            request = self._outstanding.get(host)
            if request is None:
                continue
            if request.retry_at is not None:
                if now >= request.retry_at:
                    self.metrics.count(Metrics.SCATTER_RETRIES)
                    request.attempt += 1
                    del self._outstanding[host]
                    self._post(request)
            elif request.deadline is not None and now >= request.deadline:
                self._on_timeout(request)

    # -- event handling -----------------------------------------------------

    def _on_reply(self, host: int, seq, reply) -> None:
        request = self._outstanding.get(host)
        if (
            request is None
            or not isinstance(seq, int)
            or seq != request.seq
        ):
            # Either a seqless frame (never pairable), the original
            # answer of a timed-out attempt whose retry already paired
            # (same seq, already in the completed set), or a leftover
            # from a previous run. All are discarded, never matched.
            self.metrics.count(Metrics.STALE_REPLIES)
            return
        del self._outstanding[host]
        self.router.health.success(host)
        request.reply = reply
        if request.kind == PROMOTE:
            self.router._finish_promote(request.message, reply)

    def _on_timeout(self, request: Optional[_Request]) -> None:
        """A deadline miss (engine timer or transport-raised)."""
        if request is None or request.retry_at is not None:
            return
        self.metrics.count(Metrics.SCATTER_TIMEOUTS)
        self.router._record_failure(request.host)
        self._retry_or_exhaust(request)

    def _on_torn(self, request: Optional[_Request]) -> None:
        """A torn connection (EOF/injected crash) on the host's pipe."""
        if request is None:
            return
        # A torn pipe is a real failure even while the request is
        # backing off (timeout -> backoff -> process dies is exactly
        # how the conn gets reaped): cancel the pending retry rather
        # than swallow the event, then exhaust/fail-fast below.
        request.retry_at = None
        request.deadline = None
        self.router._record_failure(request.host)
        if not self.backend.host_alive(request.host):
            # The process behind the pipe is gone: no backoff schedule
            # can heal this connection, so skip straight to failover
            # instead of burning retries × backoff of wall-clock.
            self.metrics.count(Metrics.SCATTER_FAILFASTS)
            self._exhaust(request)
            return
        self._retry_or_exhaust(request)

    def _retry_or_exhaust(self, request: _Request) -> None:
        if request.attempt >= max(1, self.router._retries + 1):
            self._exhaust(request)
            return
        delay = self.router.health.backoff(request.attempt)
        request.retry_at = time.monotonic() + delay
        request.deadline = None

    def _exhaust(self, request: _Request) -> None:
        host = request.host
        self._outstanding.pop(host, None)
        if request.kind != DRAIN:
            self.router._on_host_down(host)
            self._abandon(host)

    def _abandon(self, host: int) -> None:
        """Drop a downed host's remaining frames (it left the run)."""
        queue = self._queues.get(host)
        if queue:
            queue.clear()
        self._outstanding.pop(host, None)
