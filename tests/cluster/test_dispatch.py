"""CycleEngine failure-path unit tests against a scripted backend.

The chaos soaks drive the engine through a real router; these tests
pin the engine's *timer bookkeeping* on the narrow sequences that a
soak only hits probabilistically — in particular the
torn-while-backing-off window: a request times out, backs off, and
the host's process dies during the backoff, so the conn is reaped and
every later re-post fails. The engine must fail the host fast (one
retry count, one fail-fast, one ``_on_host_down``), never swallow the
torn event behind the backoff guard and busy-spin on a stale
``retry_at`` that re-fires forever without ever reaching the
exhaustion check.
"""

from collections import defaultdict
from types import SimpleNamespace

import pytest

from repro.cluster.dispatch import CycleEngine
from repro.errors import ClusterError
from repro.metrics import Metrics
from repro.net.messages import ScatterMessage


class _StubHealth:
    def __init__(self, backoff=0.0):
        self._backoff = backoff
        self.successes = []

    def backoff(self, attempt):
        return self._backoff

    def success(self, host):
        self.successes.append(host)


class _StubRouter:
    def __init__(self, backend, backoff=0.0, retries=1, timeout=5.0):
        self.backend = backend
        self.metrics = Metrics()
        self.health = _StubHealth(backoff)
        self._request_timeout = timeout
        self._retries = retries
        self._hosts = defaultdict(lambda: SimpleNamespace(dead=False))
        self.failures = []
        self.downed = []

    def _record_failure(self, host):
        self.failures.append(host)

    def _on_host_down(self, host):
        self.downed.append(host)
        self._hosts[host].dead = True


class _TornOnRetryBackend:
    """Post #1 lands, then the pipe tears: the first attempt comes
    back as a torn-connection event while the process still looks
    alive (so the engine backs off), and every re-post raises
    ``ClusterError`` with the process gone — the reaped-conn state a
    real ``ProcessBackend`` reaches when the host dies during the
    backoff window."""

    LIVELOCK_VALVE = 25

    def __init__(self):
        self.posts = 0
        self._torn_delivered = False

    def post(self, host, message):
        self.posts += 1
        if self.posts > self.LIVELOCK_VALVE:
            raise RuntimeError("livelock: engine re-posting forever")
        if self.posts > 1:
            raise ClusterError("conn gone")

    def collect(self, timeout):
        if self.posts == 1 and not self._torn_delivered:
            self._torn_delivered = True
            return [(0, 7, ClusterError("pipe torn"))]
        return []

    def host_alive(self, host):
        return self.posts <= 1

    def alive(self):
        return [0] if self.host_alive(0) else []


class _TornTwiceBackend:
    """The torn event arrives *while the request is already backing
    off* (huge backoff, so the retry never fires first) and the
    process is gone by then: the engine must treat it as a real
    failure and fail fast, not ignore it and sleep out the backoff."""

    COLLECT_VALVE = 25

    def __init__(self):
        self.posts = 0
        self.collects = 0

    def post(self, host, message):
        self.posts += 1

    def collect(self, timeout):
        self.collects += 1
        if self.collects > self.COLLECT_VALVE:
            raise RuntimeError("livelock: engine waiting out a dead host")
        if self.collects <= 2:
            # First torn: host still alive -> backoff. Second torn:
            # host dead -> must fail fast despite the pending retry.
            return [(0, 7, ClusterError("pipe torn"))]
        return []

    def host_alive(self, host):
        return self.collects < 2

    def alive(self):
        return [0] if self.host_alive(0) else []


def _run_engine(backend, **router_kwargs):
    router = _StubRouter(backend, **router_kwargs)
    engine = CycleEngine(router, max_wait=0.01)
    request = engine.submit(0, ScatterMessage(0, 7, 1, group=0))
    engine.run()
    return router, request


class TestTornDuringBackoff:
    def test_failed_repost_fails_fast_instead_of_livelocking(self):
        """timeout/torn -> backoff -> process dies -> retry re-post
        raises: the engine must clear the stale retry timer, route the
        failure through fail-fast, and hand the host to
        ``_on_host_down`` — not busy-spin re-firing the dead timer."""
        backend = _TornOnRetryBackend()
        router, request = _run_engine(backend)
        assert router.downed == [0]
        assert backend.posts == 2  # the original + exactly one re-post
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.SCATTER_RETRIES) == 1
        assert snapshot.get(Metrics.SCATTER_FAILFASTS) == 1
        assert request.reply is None

    def test_torn_event_for_backing_off_request_is_not_swallowed(self):
        """A torn event arriving mid-backoff with the process gone is
        a real failure: cancel the retry and fail over now, instead of
        waiting out the rest of the backoff schedule."""
        backend = _TornTwiceBackend()
        router, request = _run_engine(backend, backoff=30.0)
        assert router.downed == [0]
        assert backend.posts == 1  # never re-posted to a dead host
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.SCATTER_FAILFASTS) == 1
        # Both torn events were charged to the health machine.
        assert router.failures == [0, 0]

    def test_reply_after_backoff_still_pairs(self):
        """Control: the healthy retry path is unchanged — a torn event
        on a live host backs off, the retry posts, and its reply
        settles normally."""

        class _HealsBackend:
            def __init__(self):
                self.posts = 0
                self._torn_delivered = False

            def post(self, host, message):
                self.posts += 1

            def collect(self, timeout):
                if not self._torn_delivered:
                    self._torn_delivered = True
                    return [(0, 7, ClusterError("flaky pipe"))]
                if self.posts >= 2:
                    return [(0, 7, "reply")]
                return []

            def host_alive(self, host):
                return True

            def alive(self):
                return [0]

        backend = _HealsBackend()
        router, request = _run_engine(backend)
        assert router.downed == []
        assert backend.posts == 2
        assert request.reply == "reply"
        assert router.health.successes == [0]
