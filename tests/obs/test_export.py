"""Exporter round-trips: Prometheus text exposition and the JSONL
trace sink.

The parser is intentionally strict — it doubles as the format check in
the smoke bench — so both directions are exercised here: valid output
parses back to the exact values, malformed lines raise.
"""

import pytest

from repro.metrics import Metrics
from repro.obs import (
    JsonlTraceSink,
    Tracer,
    counter_value,
    parse_prometheus_text,
    prometheus_text,
    read_spans,
)


class TestPrometheusText:
    def test_counters_round_trip(self):
        metrics = Metrics()
        metrics.count(Metrics.CQ_REFRESHES, 3)
        metrics.count(Metrics.ROWS_SCANNED, 41)
        parsed = parse_prometheus_text(prometheus_text(metrics))
        assert counter_value(parsed, "repro_cq_refreshes") == 3
        assert counter_value(parsed, "repro_rows_scanned") == 41

    def test_histograms_are_cumulative_with_inf_bucket(self):
        metrics = Metrics()
        for v in (1, 3, 3, 100):
            metrics.observe("lat_us", v)
        parsed = parse_prometheus_text(prometheus_text(metrics))
        buckets = parsed["repro_lat_us_bucket"]
        # Cumulative counts never decrease along increasing bounds.
        ordered = sorted(
            (
                (float("inf") if le == "+Inf" else float(le), count)
                for ((__, le),), count in buckets.items()
            )
        )
        counts = [count for __, count in ordered]
        assert counts == sorted(counts)
        assert ordered[-1] == (float("inf"), 4)
        assert counter_value(parsed, "repro_lat_us_sum") == 107
        assert counter_value(parsed, "repro_lat_us_count") == 4

    def test_namespace_and_names_are_sanitized(self):
        metrics = Metrics()
        metrics.count("weird name-here", 1)
        parsed = parse_prometheus_text(
            prometheus_text(metrics, namespace="my app")
        )
        assert counter_value(parsed, "my_app_weird_name_here") == 1

    def test_labels_attach_to_every_counter_sample(self):
        metrics = Metrics()
        metrics.count(Metrics.CQ_REFRESHES, 5)
        text = prometheus_text(metrics, labels={"shard": "2"})
        assert 'repro_cq_refreshes{shard="2"} 5' in text
        parsed = parse_prometheus_text(text)
        assert parsed["repro_cq_refreshes"][(("shard", "2"),)] == 5
        # The label-free sample is absent — nothing leaks unlabelled.
        assert counter_value(parsed, "repro_cq_refreshes") is None

    def test_labels_merge_with_histogram_le(self):
        metrics = Metrics()
        for v in (1, 3, 100):
            metrics.observe("lat_us", v)
        parsed = parse_prometheus_text(
            prometheus_text(metrics, labels={"shard": "0"})
        )
        buckets = parsed["repro_lat_us_bucket"]
        for labels in buckets:
            pairs = dict(labels)
            assert pairs["shard"] == "0"
            assert "le" in pairs
        inf = buckets[tuple(sorted((("shard", "0"), ("le", "+Inf"))))]
        assert inf == 3
        assert parsed["repro_lat_us_sum"][(("shard", "0"),)] == 104
        assert parsed["repro_lat_us_count"][(("shard", "0"),)] == 3

    def test_multi_label_round_trip_is_order_insensitive(self):
        metrics = Metrics()
        metrics.count("refreshes", 9)
        parsed = parse_prometheus_text(
            prometheus_text(
                metrics, labels={"shard": "1", "role": "worker"}
            )
        )
        key = tuple(sorted((("role", "worker"), ("shard", "1"))))
        assert parsed["repro_refreshes"][key] == 9

    def test_shard_bags_concatenate_without_collisions(self):
        """The cluster router's aggregation pattern: one exposition per
        shard bag, distinct label values, concatenated text parses to
        one series per shard."""
        chunks = []
        for shard in range(3):
            bag = Metrics()
            bag.count("refreshes", shard + 1)
            chunks.append(
                prometheus_text(bag, labels={"shard": str(shard)})
            )
        parsed = parse_prometheus_text("".join(chunks))
        samples = parsed["repro_refreshes"]
        assert {
            dict(labels)["shard"]: value
            for labels, value in samples.items()
        } == {"0": 1.0, "1": 2.0, "2": 3.0}

    @pytest.mark.parametrize(
        "bad",
        [
            "just_a_name\n",
            "metric not_a_number\n",
            'metric{le="unterminated 3\n',
            'metric{le=unquoted} 3\n',
            "bad~metric 3\n",
        ],
    )
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_comments_and_blank_lines_are_ignored(self):
        parsed = parse_prometheus_text("\n# TYPE x counter\n\nx 1\n")
        assert counter_value(parsed, "x") == 1

    def test_fanout_counters_export(self):
        """The predicate-index fan-out counters ride the same
        exposition path as every other counter."""
        metrics = Metrics()
        metrics.count(Metrics.PREDINDEX_PROBES, 12)
        metrics.count(Metrics.PREDINDEX_MATCHES, 4)
        metrics.count(Metrics.PREDINDEX_INVALIDATIONS, 1)
        metrics.count(Metrics.SHARED_GROUPS, 2)
        metrics.count(Metrics.SHARED_GROUP_HITS, 9)
        parsed = parse_prometheus_text(prometheus_text(metrics))
        assert counter_value(parsed, "repro_predindex_probes") == 12
        assert counter_value(parsed, "repro_predindex_matches") == 4
        assert counter_value(parsed, "repro_predindex_invalidations") == 1
        assert counter_value(parsed, "repro_shared_groups") == 2
        assert counter_value(parsed, "repro_shared_group_hits") == 9

    def test_fanout_counters_export_from_live_server(self, db):
        """End-to-end: a fan-out refresh cycle leaves the routing
        counters in the scrape, and the strict parser accepts it."""
        from repro.net.client import CQClient
        from repro.net.server import CQServer
        from repro.net.simnet import SimulatedNetwork
        from repro.workload.stocks import StockMarket

        market = StockMarket(db, seed=3)
        market.populate(100)
        metrics = Metrics()
        server = CQServer(db, SimulatedNetwork(), metrics=metrics)
        for i in range(2):
            client = CQClient(f"c{i}")
            server.attach(client)
            client.register(
                "watch", "SELECT name, price FROM stocks WHERE price > 500"
            )
        market.tick(20, p_insert=0.2)
        server.refresh_all()
        parsed = parse_prometheus_text(prometheus_text(metrics))
        assert counter_value(parsed, "repro_shared_groups") == 1
        assert counter_value(parsed, "repro_shared_group_hits") >= 1
        assert counter_value(parsed, "repro_predindex_probes") >= 1


class TestKernelCountersExport:
    def test_kernel_counters_and_derived_gauge_export(self):
        """Columnar kernel counters ride the standard exposition, and
        the derived rows-per-call gauge is emitted alongside them."""
        metrics = Metrics()
        metrics.count(Metrics.KERNEL_CALLS, 4)
        metrics.count(Metrics.KERNEL_ROWS, 48)
        parsed = parse_prometheus_text(prometheus_text(metrics))
        assert counter_value(parsed, "repro_kernel_calls") == 4
        assert counter_value(parsed, "repro_kernel_rows") == 48
        assert counter_value(parsed, "repro_rows_per_kernel_call") == 12.0

    def test_no_gauge_without_kernel_calls(self):
        """Zero kernel calls would make the ratio meaningless, so the
        gauge is simply absent from the scrape."""
        parsed = parse_prometheus_text(prometheus_text(Metrics()))
        assert "repro_rows_per_kernel_call" not in parsed

    def test_kernel_counters_export_from_live_server(self, db):
        """End-to-end: a refresh cycle leaves the kernel counters in the
        scrape, and every member's record carries the evaluation its
        group ran once for all of them."""
        from repro.net.client import CQClient
        from repro.net.server import CQServer
        from repro.net.simnet import SimulatedNetwork
        from repro.workload.stocks import StockMarket

        market = StockMarket(db, seed=3)
        market.populate(100)
        metrics = Metrics()
        server = CQServer(db, SimulatedNetwork(), metrics=metrics)
        for i in range(2):
            client = CQClient(f"c{i}")
            server.attach(client)
            client.register(
                "watch", "SELECT name, price FROM stocks WHERE price > 500"
            )
        market.tick(20, p_insert=0.2)
        server.refresh_all()
        parsed = parse_prometheus_text(prometheus_text(metrics))
        assert counter_value(parsed, "repro_kernel_calls") >= 1
        assert counter_value(parsed, "repro_kernel_rows") >= 1
        assert counter_value(parsed, "repro_rows_per_kernel_call") > 0
        records = server.describe()
        assert len(records) == 2
        for record in records:
            assert record["delta_rows_read"] > 0
            assert record["kernel_calls"] >= 1
            assert record["rows_per_kernel_call"] > 0
        (group,) = server._views.values()
        assert group.cost[Metrics.EXECUTIONS] == metrics[Metrics.EXECUTIONS]
        assert "kernels:" in server.status_report()


class TestJsonlTraceSink:
    def test_tracer_spans_land_in_the_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sink=JsonlTraceSink(path))
        with tracer.span("refresh", cq="q0"):
            pass
        (record,) = read_spans(path)
        assert record["name"] == "refresh"
        assert record["cq"] == "q0"
        assert record["dur_us"] >= 0

    def test_rotation_caps_generations(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlTraceSink(path, max_bytes=200, max_files=2)
        for i in range(50):
            sink.write({"name": "s", "i": i})
        assert sink.written == 50
        assert sink.rotations > 0
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "trace.jsonl.1").exists()
        assert not (tmp_path / "trace.jsonl.3").exists()
        # Nothing kept exceeds the cap, every surviving line parses,
        # and the live file holds the newest records.
        for name in ("trace.jsonl", "trace.jsonl.1", "trace.jsonl.2"):
            if (tmp_path / name).exists():
                assert (tmp_path / name).stat().st_size <= 200
        live = read_spans(path)
        assert live[-1]["i"] == 49

    def test_rejects_bad_limits(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlTraceSink(str(tmp_path / "t"), max_bytes=0)
        with pytest.raises(ValueError):
            JsonlTraceSink(str(tmp_path / "t"), max_files=0)
