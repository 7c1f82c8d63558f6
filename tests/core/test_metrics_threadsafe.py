"""Concurrency stress: exact counters and atomic log pruning.

Two shared structures are reached from several threads at once — the
cluster's ``LocalBackend`` pool and user threads all charge one
:class:`Metrics`, and a garbage collection can race a delta
consolidation on one ``UpdateLog``. These tests hammer both from many
threads and assert exactness — lost counter updates or a half-pruned
``since`` read are hard failures, not flakes.
"""

import threading

from repro import Database
from repro.core import CQManager, EvaluationStrategy
from repro.metrics import Histogram, Metrics
from repro.storage.update_log import UpdateKind, UpdateLog, UpdateRecord
from repro.workload.stocks import StockMarket

THREADS = 8


def _run_threads(target, n=THREADS):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMetricsThreadSafety:
    def test_count_totals_are_exact_under_contention(self):
        metrics = Metrics()
        per_thread = 10_000

        def worker(i):
            for __ in range(per_thread):
                metrics.count("shared")
                metrics.count(f"mine_{i}", 2)

        _run_threads(worker)
        assert metrics["shared"] == THREADS * per_thread
        for i in range(THREADS):
            assert metrics[f"mine_{i}"] == 2 * per_thread

    def test_merge_of_per_worker_counters_is_exact(self):
        workers = [Metrics() for __ in range(THREADS)]

        def worker(i):
            for __ in range(5_000):
                workers[i].count("ops")
                workers[i].observe("latency", i + 1)

        _run_threads(worker)
        total = Metrics()
        total.count("ops", 17)  # pre-existing counts survive merges
        for m in workers:
            total.merge(m)
        assert total["ops"] == THREADS * 5_000 + 17
        hist = total.histogram("latency")
        assert hist.count == THREADS * 5_000
        assert hist.min == 1 and hist.max == THREADS

    def test_concurrent_observe_is_exact(self):
        metrics = Metrics()

        def worker(i):
            for v in range(1_000):
                metrics.observe("lat", v % 50)

        _run_threads(worker)
        assert metrics.histogram("lat").count == THREADS * 1_000

    def test_truthiness_contract(self):
        # Engine code guards charging with a bare `if metrics:`; a
        # freshly minted per-worker instance must already be truthy.
        assert bool(Metrics())
        m = Metrics()
        m.count("x")
        m.reset()
        assert bool(m)


class TestHistogramPercentileEdges:
    def test_percentile_never_exceeds_observed_max(self):
        # All samples identical: the covering bucket's upper bound is
        # 128, but no observed value exceeds 100 — the estimate must
        # clamp to the true max, not overshoot to the bucket edge.
        h = Histogram()
        for __ in range(1_000):
            h.observe(100)
        assert h.percentile(50) == 100
        assert h.percentile(99) == 100
        assert h.percentile(100) == 100

    def test_percentile_zero_is_min(self):
        h = Histogram()
        for v in (7, 40, 3, 900):
            h.observe(v)
        assert h.percentile(0) == 3
        assert h.percentile(100) == 900

    def test_percentile_of_empty_histogram_is_zero(self):
        h = Histogram()
        assert h.percentile(0) == 0.0
        assert h.percentile(50) == 0.0
        assert h.percentile(99) == 0.0

    def test_interior_percentiles_stay_bucket_bounds(self):
        # Clamping only bites at the top: interior percentiles still
        # report the covering bucket's upper bound.
        h = Histogram()
        for v in (1, 2, 3, 4, 5, 6, 7, 8):
            h.observe(v)
        assert h.percentile(50) == 4  # bucket e=2 covers (2, 4]
        assert h.percentile(100) == 8

    def test_percentile_bounds_hold_for_mixed_samples(self):
        h = Histogram()
        samples = [3, 3, 3, 3, 3, 3, 3, 3, 3, 100]
        for v in samples:
            h.observe(v)
        for p in (0, 10, 50, 90, 99, 100):
            estimate = h.percentile(p)
            assert min(samples) <= estimate <= max(samples)


class TestLogPruneAtomicity:
    def test_since_never_sees_half_pruned_log(self):
        log = UpdateLog()
        total = 4_000
        for ts in range(1, total + 1):
            log.append(
                UpdateRecord(UpdateKind.INSERT, ts, None, (ts,), ts, ts)
            )
        boundary = total // 2
        errors = []

        def reader(i):
            for __ in range(300):
                records = log.since(boundary)
                # Atomic view: a suffix starting exactly after the
                # boundary, ending at the latest record.
                if records and (
                    records[0].ts != boundary + 1
                    or records[-1].ts != total
                    or len(records) != total - boundary
                ):
                    errors.append([r.ts for r in records[:3]])

        def pruner(i):
            for ts in range(0, boundary + 1, 10):
                log.prune_before(ts)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=pruner, args=(0,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert log.pruned_through == boundary

    def test_parallel_refresh_with_auto_gc_stays_consistent(self):
        """Sixteen CQs refreshing off shared batches with aggressive
        GC: every CQ's maintained result must match complete
        re-evaluation and no refresh may trip the pruned-region
        guard."""
        db = Database()
        market = StockMarket(db, seed=23)
        market.populate(150)
        metrics = Metrics()
        mgr = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            auto_gc=True,
            metrics=metrics,
        )
        queries = {
            f"q{i}": f"SELECT sid, price FROM stocks WHERE price > {60 * i}"
            for i in range(16)
        }
        for name, sql in queries.items():
            mgr.register_sql(name, sql)
        for __ in range(6):
            market.tick(40, p_insert=0.2, p_delete=0.2)
            mgr.poll()  # raises if any refresh saw a half-pruned log
        for name, sql in queries.items():
            assert mgr.get(name).previous_result == db.query(sql)
        assert metrics[Metrics.CQ_REFRESHES] >= 6 * len(queries)
        assert metrics[Metrics.DELTA_BATCHES_REUSED] > 0
