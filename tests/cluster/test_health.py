"""HealthMonitor state machine and FaultInjector scripting."""

import pytest

from repro.cluster.health import (
    ALIVE,
    DEAD,
    SUSPECT,
    FaultInjector,
    HealthMonitor,
)
from repro.errors import ClusterError, ShardTimeout
from repro.net.messages import ScatterMessage, ShardHeartbeatMessage


class TestHealthMonitor:
    def test_unknown_host_is_alive(self):
        monitor = HealthMonitor()
        assert monitor.state(7) == ALIVE

    def test_failures_walk_alive_suspect_dead(self):
        monitor = HealthMonitor(suspect_after=1, dead_after=3)
        assert monitor.failure(0) == SUSPECT
        assert monitor.failure(0) == SUSPECT
        assert monitor.failure(0) == DEAD

    def test_success_heals_a_suspect(self):
        monitor = HealthMonitor(suspect_after=1, dead_after=2)
        monitor.failure(0)
        assert monitor.state(0) == SUSPECT
        monitor.success(0)
        assert monitor.state(0) == ALIVE
        # The failure streak reset too: one new miss is suspicion
        # again, not death.
        assert monitor.failure(0) == SUSPECT

    def test_mark_dead_and_forget(self):
        monitor = HealthMonitor()
        monitor.mark_dead(3)
        assert monitor.state(3) == DEAD
        monitor.forget(3)
        assert monitor.state(3) == ALIVE

    def test_backoff_grows_exponentially_and_caps(self):
        monitor = HealthMonitor(
            backoff_base=0.1, backoff_cap=1.0, jitter=0.0
        )
        assert monitor.backoff(1) == pytest.approx(0.1)
        assert monitor.backoff(2) == pytest.approx(0.2)
        assert monitor.backoff(3) == pytest.approx(0.4)
        assert monitor.backoff(10) == pytest.approx(1.0)  # capped

    def test_backoff_jitter_is_bounded_and_seeded(self):
        a = HealthMonitor(backoff_base=0.1, jitter=0.5, seed=42)
        b = HealthMonitor(backoff_base=0.1, jitter=0.5, seed=42)
        for attempt in range(1, 6):
            delay_a = a.backoff(attempt)
            assert delay_a == b.backoff(attempt)  # deterministic
            base = min(0.1 * 2 ** (attempt - 1), a.backoff_cap)
            assert base <= delay_a <= base * 1.5

    def test_snapshot_reports_non_alive_hosts(self):
        monitor = HealthMonitor(suspect_after=1, dead_after=2)
        monitor.failure(1)
        monitor.mark_dead(2)
        monitor.success(0)
        snapshot = monitor.snapshot()
        assert snapshot[1] == SUSPECT
        assert snapshot[2] == DEAD
        assert 0 not in snapshot  # alive hosts stay out of the report


class TestFaultInjector:
    def test_hang_raises_shard_timeout_then_expires(self):
        injector = FaultInjector()
        injector.hang(1, times=2)
        message = ShardHeartbeatMessage(1, 1, 1, group=1)
        with pytest.raises(ShardTimeout):
            injector(1, message, "send")
        with pytest.raises(ShardTimeout):
            injector(1, message, "send")
        injector(1, message, "send")  # budget spent: passes through
        assert len(injector.fired) == 2

    def test_crash_raises_cluster_error(self):
        injector = FaultInjector()
        injector.crash(0, times=1)
        with pytest.raises(ClusterError):
            injector(0, ShardHeartbeatMessage(0, 1, 1, group=0), "send")

    def test_faults_are_scoped_to_host_and_phase(self):
        injector = FaultInjector()
        injector.hang(1, phase="reply", times=1)
        message = ShardHeartbeatMessage(1, 1, 1, group=1)
        injector(0, message, "reply")  # other host: untouched
        injector(1, message, "send")  # other phase: untouched
        with pytest.raises(ShardTimeout):
            injector(1, message, "reply")

    def test_match_predicate_selects_message_types(self):
        injector = FaultInjector()
        injector.hang(
            2, times=5, match=lambda m: isinstance(m, ScatterMessage)
        )
        injector(2, ShardHeartbeatMessage(2, 1, 1, group=2), "send")  # no match
        with pytest.raises(ShardTimeout):
            injector(2, ScatterMessage(2, 2, 2, group=2), "send")
        assert len(injector.fired) == 1
