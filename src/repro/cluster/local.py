"""Shard hosts as in-process objects (tests, benchmarks, examples)."""

from __future__ import annotations

import queue
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ClusterError
from repro.cluster.shard import ShardHost, TableDecl
from repro.net.messages import Message, ShardHelloMessage


class LocalBackend:
    """The in-process backend (contract: :mod:`repro.cluster.dispatch`).

    ``kill`` abandons the host object without closing its journals —
    the crash the recovery path is built for (recovery therefore needs
    a ``wal_root``; a purely in-memory backend raises instead).
    ``stop`` is the planned shutdown :meth:`ClusterRouter.remove_shard`
    uses. ``fault_hook`` (usually a
    :class:`~repro.cluster.health.FaultInjector`) is consulted before
    and after each ``handle`` so chaos tests can script timeouts and
    connection drops at exact protocol points — including the
    "frame applied, reply lost" window the seq-dedup cache covers.

    ``post`` runs each frame on a thread pool and ``collect`` drains
    finished replies through a queue — hosts run concurrently, frames
    to one host stay serial (the engine keeps one outstanding request
    per host, like a real pipe to a single-threaded worker).
    ``shuffle_seed`` reorders each ``collect`` batch deterministically,
    the out-of-order equivalence tests' way of proving the merge is
    arrival-independent.
    """

    def __init__(
        self,
        wal_root: Optional[str] = None,
        columnar: bool = False,
        fault_hook: Optional[Callable[[int, Message, str], None]] = None,
        shuffle_seed: Optional[int] = None,
    ):
        self.wal_root = wal_root
        self.columnar = columnar
        self.fault_hook = fault_hook
        self.shards: Dict[int, ShardHost] = {}
        self._rng = (
            random.Random(shuffle_seed) if shuffle_seed is not None else None
        )
        self._pool: Optional[ThreadPoolExecutor] = None
        self._results: "queue.Queue[tuple]" = queue.Queue()
        #: Per-shard serialization: the engine bounds *outstanding*
        #: requests to one per host, but a retry fired while a slow
        #: handle() still occupies a pool thread would otherwise run a
        #: second concurrent handle() on the same (non-thread-safe)
        #: ShardHost. A real pipe queues the retried frame behind the
        #: stalled attempt; so do we.
        self._serial: Dict[int, threading.Lock] = {}

    def spawn(self, shard_id: int, decls: Sequence[TableDecl]) -> None:
        if shard_id in self.shards:
            raise ClusterError(f"shard {shard_id} already running")
        self.shards[shard_id] = ShardHost(
            shard_id, decls, wal_root=self.wal_root, columnar=self.columnar
        )

    def kill(self, shard_id: int) -> None:
        if self.shards.pop(shard_id, None) is None:
            raise ClusterError(f"shard {shard_id} is not running")

    def stop(self, shard_id: int) -> None:
        host = self.shards.pop(shard_id, None)
        if host is None:
            raise ClusterError(f"shard {shard_id} is not running")
        host.close()

    def recover(
        self, shard_id: int, decls: Sequence[TableDecl]
    ) -> ShardHelloMessage:
        host = self.shards.get(shard_id)
        if host is not None:
            # The host never actually died — a wedged/slow false
            # positive the health machine cannot distinguish from a
            # crash. Reattach to the live object instead of replaying
            # journals under it.
            return host.hello()
        if self.wal_root is None:
            raise ClusterError(
                "recovery needs a wal_root; this backend is in-memory only"
            )
        host = ShardHost.recover(
            shard_id, decls, self.wal_root, columnar=self.columnar
        )
        self.shards[shard_id] = host
        return host.hello()

    def alive(self) -> List[int]:
        return sorted(self.shards)

    # -- dispatch (the CycleEngine transport trio) --------------------------

    def post(self, shard_id: int, message: Message) -> None:
        """Non-blocking dispatch: ``handle`` runs on a pool thread and
        the outcome (reply or raised fault) lands in the result queue."""
        if shard_id not in self.shards:
            raise ClusterError(f"shard {shard_id} is not running")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=16, thread_name_prefix="local-shard"
            )
        seq = getattr(message, "seq", None)
        serial = self._serial.setdefault(shard_id, threading.Lock())

        def run() -> None:
            try:
                with serial:
                    host = self.shards.get(shard_id)
                    if host is None:
                        raise ClusterError(f"shard {shard_id} is not running")
                    if self.fault_hook is not None:
                        self.fault_hook(shard_id, message, "send")
                    reply = host.handle(message)
                    if self.fault_hook is not None:
                        self.fault_hook(shard_id, message, "reply")
            except Exception as exc:  # delivered as a typed event
                self._results.put((shard_id, seq, exc))
            else:
                self._results.put((shard_id, seq, reply))

        self._pool.submit(run)

    def collect(self, timeout: float) -> List[tuple]:
        """All finished outcomes, blocking up to ``timeout`` for the
        first; shuffled deterministically when ``shuffle_seed`` is set."""
        out: List[tuple] = []
        try:
            out.append(self._results.get(timeout=max(0.0, timeout)))
        except queue.Empty:
            return out
        while True:
            try:
                out.append(self._results.get_nowait())
            except queue.Empty:
                break
        if self._rng is not None and len(out) > 1:
            self._rng.shuffle(out)
        return out

    def host_alive(self, shard_id: int) -> bool:
        return shard_id in self.shards

    def host(self, shard_id: int) -> ShardHost:
        return self.shards[shard_id]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for host in self.shards.values():
            host.close()
