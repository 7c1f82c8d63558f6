"""Tests for the benchmark harness utilities and metrics."""

from repro.bench.harness import time_fn
from repro.metrics import Metrics
from repro.obs import format_table


class TestFormatTable:
    def test_aligned_output(self):
        rows = [
            {"name": "a", "value": 1},
            {"name": "long-name", "value": 12345},
        ]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in text and "12,345" in text
        # All data lines align to the same width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_float_formatting(self):
        rows = [{"x": 0.00042}, {"x": 3.14159}, {"x": 123456.0}]
        text = format_table(rows)
        assert "0.0004" in text
        assert "3.14" in text
        assert "123,456" in text

    def test_none_renders_dash(self):
        assert "-" in format_table([{"x": None}])

    def test_empty_rows(self):
        assert "no rows" in format_table([], title="E")


class TestStats:
    def test_time_fn_returns_positive(self):
        assert time_fn(lambda: sum(range(100)), repeat=2) > 0


class TestMetrics:
    def test_count_and_get(self):
        metrics = Metrics()
        metrics.count("x")
        metrics.count("x", 4)
        assert metrics["x"] == 5
        assert metrics.get("missing") == 0

    def test_truthiness_when_empty(self):
        # Engine code does `if metrics:` — must hold before any count.
        assert bool(Metrics()) is True
        assert len(Metrics()) == 0

    def test_snapshot_and_diff(self):
        metrics = Metrics()
        metrics.count("a", 2)
        snap = metrics.snapshot()
        metrics.count("a", 3)
        metrics.count("b")
        assert metrics.diff(snap) == {"a": 3, "b": 1}

    def test_merge(self):
        a, b = Metrics(), Metrics()
        a.count("x", 1)
        b.count("x", 2)
        b.count("y", 7)
        a.merge(b)
        assert a["x"] == 3 and a["y"] == 7

    def test_reset_and_iter(self):
        metrics = Metrics()
        metrics.count("b")
        metrics.count("a")
        assert [name for name, __ in metrics] == ["a", "b"]  # sorted
        metrics.reset()
        assert metrics.snapshot() == {}
