"""Shared builders for the experiment benchmarks.

Each bench file reproduces one performance claim from the paper (see
DESIGN.md Section 3). Scenarios are deterministic: a seeded workload
perturbs a seeded initial state, and the *claims* are asserted on
operation counts (never on wall-clock), while pytest-benchmark reports
the timings that illustrate the same shapes.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.delta.capture import deltas_since
from repro.workload.stocks import StockMarket


class Scenario:
    """A populated market plus one captured update window."""

    def __init__(
        self,
        base_rows: int,
        updates: int,
        seed: int = 7,
        p_insert: float = 0.1,
        p_delete: float = 0.1,
        with_trades: bool = False,
        trades_per_stock: int = 0,
    ):
        self.db = Database()
        self.market = StockMarket(self.db, seed=seed, with_trades=with_trades)
        self.market.populate(base_rows, trades_per_stock=trades_per_stock)
        self.ts_before = self.db.now()
        if updates:
            self.market.tick(updates, p_insert=p_insert, p_delete=p_delete)
        self.tables = [self.market.stocks]
        if with_trades:
            self.tables.append(self.market.trades)
        self.deltas = deltas_since(self.tables, self.ts_before)

    def old_resolver(self):
        from repro.delta.propagate import old_resolver

        return old_resolver(self.db.relation, self.deltas)


@pytest.fixture(scope="module")
def print_table():
    """Print a formatted results table (visible with -s; always in
    captured output on failure)."""
    from repro.obs import format_table

    def emit(rows, columns=None, title=None):
        print()
        print(format_table(rows, columns, title))

    return emit
