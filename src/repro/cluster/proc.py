"""Shards as separate OS processes (crash-realistic backend).

Functionally identical to :class:`~repro.cluster.local.LocalBackend`
(the contract both implement is stated in
:mod:`repro.cluster.dispatch`), but each shard host lives in its own
``multiprocessing`` process and talks to the router over a pipe
carrying codec-encoded frames — the same wire representation the
simulated network uses, so every scatter and gather reply round-trips
through serialization for real.

``spawn`` launches a worker and returns at once, so a fleet boots side
by side; the worker's hello is read when its first frame is posted
(``recover`` reads it before returning, the router needs it). A worker
that dies before its hello, or sends none within ``_BOOT_TIMEOUT``, is
stopped and reported as a ``ClusterError`` naming the shard.

``post`` writes a frame and returns; ``collect`` multiplexes every
shard pipe and hands back whatever arrived. Deadlines are the
engine's: a wedged (not dead) worker simply never shows up in
``collect`` and the engine's timer fires instead of the router hanging
forever. The engine keeps one outstanding request per host, so
anything already buffered on a pipe when the next frame is posted
answers an attempt that was given up on — ``post`` drains and counts
it (``stale_replies``); a stale reply surfacing *after* that drain is
discarded by the engine's seq pairing, and the shard-side seq-dedup
reply cache keeps timeout + retry exactly-once either way. ``kill``
terminates the worker without any shutdown handshake — the honest
version of the crash :meth:`ClusterRouter.kill_shard` simulates —
escalating to ``Process.kill`` when the process ignores SIGTERM;
``stop`` is the planned counterpart (drain sentinel, clean join) used
by ``remove_shard``. Recovery replays the host's journals exactly as
the in-process backend does. This is the backend E18's
``cluster_scatter`` workload measures (2 real processes).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import ClusterError
from repro.net.codec import decode_payload, encode_payload
from repro.net.messages import Message, ShardHelloMessage
from repro.cluster.shard import ShardHost, TableDecl

#: Pipe sentinel asking the worker to exit cleanly (planned removal and
#: tests' teardown; a *crash* is ``Process.terminate`` and never sends
#: this).
_SHUTDOWN = b"\0shutdown"

#: Seconds a launched worker has to send its hello (interpreter start,
#: imports, journal recovery) before it counts as failed to boot.
_BOOT_TIMEOUT = 60.0


def _shard_worker(
    conn,
    shard_id: int,
    decls: Sequence[TableDecl],
    wal_root: Optional[str],
    columnar: bool,
    recovered: bool,
    delay: float = 0.0,
) -> None:
    """Worker main loop: host one shard host, answer codec frames.

    ``delay`` sleeps before handling each frame — the injected slow
    shard the bounded-by-slowest test uses to make evaluation time
    visible without real query load.
    """
    if recovered:
        host = ShardHost.recover(
            shard_id, decls, wal_root, columnar=columnar
        )
    else:
        host = ShardHost(
            shard_id, decls, wal_root=wal_root, columnar=columnar
        )
    conn.send_bytes(encode_payload(host.hello()))
    try:
        while True:
            payload = conn.recv_bytes()
            if payload == _SHUTDOWN:
                break
            if delay > 0.0:
                time.sleep(delay)
            reply = host.handle(decode_payload(payload))
            conn.send_bytes(encode_payload(reply))
    except (EOFError, OSError):
        pass  # router side went away; nothing to clean up beyond the WAL
    finally:
        host.close()


class ProcessBackend:
    """One ``multiprocessing`` process per shard host, framed over pipes."""

    def __init__(
        self,
        wal_root: Optional[str] = None,
        columnar: bool = False,
        slow: Optional[Dict[int, float]] = None,
    ):
        self.wal_root = wal_root
        self.columnar = columnar
        #: Per-shard injected handling delay in seconds (the
        #: bounded-by-slowest test).
        self.slow = dict(slow or {})
        #: Replies found already buffered when the next frame was
        #: posted (late answers of attempts the engine gave up on).
        self.stale_replies = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._conns: Dict[int, object] = {}
        #: Launched workers whose hello has not been read yet.
        self._booting: Set[int] = set()

    def _launch(
        self, shard_id: int, decls: Sequence[TableDecl], recovered: bool
    ) -> None:
        """Start the worker; its hello is read by :meth:`_handshake`."""
        if shard_id in self._procs:
            raise ClusterError(f"shard {shard_id} already running")
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                child,
                shard_id,
                list(decls),
                self.wal_root,
                self.columnar,
                recovered,
                self.slow.get(shard_id, 0.0),
            ),
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[shard_id] = proc
        self._conns[shard_id] = parent
        self._booting.add(shard_id)

    def _handshake(self, shard_id: int) -> ShardHelloMessage:
        """Wait (at most ``_BOOT_TIMEOUT``) for a launched worker's
        hello. A worker that dies or stays silent first is stopped and
        forgotten, and the failure is a ``ClusterError`` naming it."""
        self._booting.discard(shard_id)
        conn = self._conns[shard_id]
        try:
            if conn.poll(_BOOT_TIMEOUT):
                hello = decode_payload(conn.recv_bytes())
                if isinstance(hello, ShardHelloMessage):
                    return hello
                problem = f"sent {type(hello).__name__} instead of hello"
            else:
                problem = f"sent no hello within {_BOOT_TIMEOUT:g} s"
        except (EOFError, OSError):
            problem = "died before its hello"
        self.kill(shard_id)
        raise ClusterError(f"shard {shard_id} {problem}")

    def spawn(self, shard_id: int, decls: Sequence[TableDecl]) -> None:
        """Launch a fresh worker without waiting for it: the handshake
        completes before its first frame is posted."""
        self._launch(shard_id, decls, recovered=False)

    # -- dispatch (the CycleEngine transport trio) --------------------------

    def post(self, shard_id: int, message: Message) -> None:
        """Non-blocking dispatch: frame goes out, reply is collected
        later by the engine's multiplex loop."""
        if shard_id in self._booting:
            self._handshake(shard_id)
        conn = self._conns.get(shard_id)
        if conn is None:
            raise ClusterError(f"shard {shard_id} is not running")
        try:
            # A previous request may have timed out after the worker
            # applied the frame: its late reply is still in the pipe.
            # With one outstanding request per host, whatever is
            # buffered now is stale by definition.
            while conn.poll(0):
                conn.recv_bytes()
                self.stale_replies += 1
            conn.send_bytes(encode_payload(message))
        except (EOFError, OSError, BrokenPipeError):
            raise ClusterError(
                f"shard {shard_id} died mid-request"
            ) from None

    def collect(self, timeout: float) -> List[tuple]:
        """Replies ready across *all* shard pipes within ``timeout``.

        ``multiprocessing.connection.wait`` — a ``selectors`` multiplex
        over the pipes' file descriptors — blocks until any pipe is
        readable (or torn), then every buffered frame is drained
        without further blocking. Returns ``(shard_id, seq, payload)``
        tuples where payload is a decoded message or a
        :class:`~repro.errors.ClusterError` for a torn pipe.
        """
        conns = {
            conn: sid
            for sid, conn in self._conns.items()
            if sid not in self._booting
        }
        if not conns:
            if timeout > 0:
                time.sleep(timeout)
            return []
        ready = multiprocessing.connection.wait(
            list(conns), timeout=max(0.0, timeout)
        )
        out: List[tuple] = []
        for conn in ready:
            sid = conns[conn]
            try:
                while conn.poll(0):
                    reply = decode_payload(conn.recv_bytes())
                    out.append((sid, getattr(reply, "seq", None), reply))
            except (EOFError, OSError, BrokenPipeError):
                # A torn pipe stays permanently "ready": reap it here
                # or every later wait returns immediately and the
                # gather loop busy-spins until the cycle ends.
                self._reap(sid)
                out.append(
                    (
                        sid,
                        None,
                        ClusterError(f"shard {sid} died mid-request"),
                    )
                )
        return out

    def _reap(self, shard_id: int) -> None:
        """Forget a connection whose worker died underneath us."""
        self._booting.discard(shard_id)
        conn = self._conns.pop(shard_id, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        proc = self._procs.pop(shard_id, None)
        if proc is not None:
            proc.join(timeout=1)

    def host_alive(self, shard_id: int) -> bool:
        """Process-level liveness (the fail-fast signal): a torn pipe
        whose worker is gone cannot heal within any backoff schedule."""
        proc = self._procs.get(shard_id)
        return proc is not None and proc.is_alive()

    def kill(self, shard_id: int) -> None:
        proc = self._procs.pop(shard_id, None)
        if proc is None:
            raise ClusterError(f"shard {shard_id} is not running")
        self._booting.discard(shard_id)
        conn = self._conns.pop(shard_id)
        proc.terminate()
        proc.join(timeout=10)
        if proc.is_alive():
            # SIGTERM was ignored (wedged worker, masked signal):
            # escalate to SIGKILL rather than leak the process.
            proc.kill()
            proc.join(timeout=10)
        conn.close()

    def stop(self, shard_id: int) -> None:
        """Planned departure: drain sentinel, clean join, escalate only
        if the worker ignores it."""
        proc = self._procs.pop(shard_id, None)
        if proc is None:
            raise ClusterError(f"shard {shard_id} is not running")
        self._booting.discard(shard_id)
        conn = self._conns.pop(shard_id)
        try:
            conn.send_bytes(_SHUTDOWN)
        except (OSError, BrokenPipeError):
            pass
        proc.join(timeout=10)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10)
        conn.close()

    def recover(
        self, shard_id: int, decls: Sequence[TableDecl]
    ) -> ShardHelloMessage:
        if self.wal_root is None:
            raise ClusterError(
                "recovery needs a wal_root; this backend lost everything"
            )
        if shard_id in self._procs:
            # Declared dead by deadline, not by crash: the wedged
            # worker is still running and still holds its journals.
            self.kill(shard_id)
        self._launch(shard_id, decls, recovered=True)
        return self._handshake(shard_id)

    def alive(self) -> List[int]:
        return sorted(self._procs)

    def close(self) -> None:
        for shard_id in list(self._procs):
            self.stop(shard_id)
