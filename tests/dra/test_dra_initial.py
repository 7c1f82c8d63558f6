"""``dra_initial``: E_0 as the one DRA term seeded by a whole relation.

Equality with the row evaluator over generated histories lives in
``tests/delta/test_evaluate_as_of.py``; here, what that cannot see:
which alias seeds the term, what the install charges, and the weight
invariant it enforces on the signed sum.
"""

import pytest

from repro import Database
from repro.dra.algorithm import dra_initial
from repro.dra.assembly import WeightInvariantError
from repro.dra.prepared import PreparedCQ, prepare_cq
from repro.metrics import Metrics
from repro.relational.sql import parse_query
from repro.relational.types import AttributeType

INT = AttributeType.INT
CHAIN = (
    "SELECT a.v AS av, c.v AS cv, b.v AS bv FROM a, c, b "
    "WHERE a.k = c.k AND c.v = b.k"
)


@pytest.fixture
def db():
    db = Database()
    for name, rows in (("a", 3), ("b", 4), ("c", 12)):
        table = db.create_table(name, [("k", INT), ("v", INT)])
        table.insert_many([(i % 4, i % 3) for i in range(rows)])
    return db


def test_the_largest_table_seeds_the_term(db):
    query = parse_query(CHAIN)
    prepared = prepare_cq(query, db)
    result = dra_initial(query, db, prepared=prepared)
    assert result == db.query(CHAIN)
    # The one term compiled: c substituted by its whole relation.
    assert list(prepared._term_kernels) == [(frozenset({"c"}), "c")]


def test_charges_the_seed_scan_and_no_plan(db):
    query = parse_query(CHAIN)
    prepared = prepare_cq(query, db)
    metrics = Metrics()
    dra_initial(query, db, prepared=prepared, metrics=metrics)
    assert metrics.get(Metrics.BASE_SCANS) == 1
    assert metrics.get(Metrics.ROWS_SCANNED) == 12
    assert metrics.get(Metrics.KERNEL_CALLS) > 0
    assert metrics.get(Metrics.PLANS_PREPARED) == 0
    assert metrics.get(Metrics.EXECUTIONS) == 0


class _Rigged:
    """A term kernel that sums the given weights, as a broken
    expansion would."""

    def __init__(self, weights):
        self.weights = weights

    def execute(self, delta_operands, base_operands, weights, stats=None):
        weights.update(self.weights)
        return len(self.weights)


@pytest.mark.parametrize(
    "rigged, message",
    [
        ({(1, (5,)): 2}, "weight 2"),
        ({(1, (5,)): 1, (1, (6,)): 1}, "two rows for one result tid"),
    ],
    ids=["weight", "tid"],
)
def test_the_signed_sum_must_be_one_row_per_tid_at_plus_one(
    db, monkeypatch, rigged, message
):
    query = parse_query("SELECT v FROM c")
    prepared = prepare_cq(query, db)
    monkeypatch.setattr(
        PreparedCQ, "term_kernel", lambda self, row, seed: _Rigged(rigged)
    )
    with pytest.raises(WeightInvariantError, match=message):
        dra_initial(query, db, prepared=prepared)
