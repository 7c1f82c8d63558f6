"""E2 — §5.1 ¶2: "if the volume of relevant updates is smaller than the
results (which is the common case), then we are further reducing the
network traffic."

Client-server simulation over a 5k-row stocks table with a result of
~1000 rows; the per-refresh update volume is swept from 0.1% to 50% of
the base. Claim shape: DRA ships bytes proportional to the *relevant
delta*, the naive protocol ships the full result every time; DRA wins
until deltas approach the result size.
"""

import pytest

from repro.net.client import CQClient
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro import Database
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 800"
BASE_ROWS = 5_000
ROUNDS = 5
UPDATE_FRACTIONS = [0.001, 0.01, 0.1, 0.5]


def run_deployment(update_fraction):
    db = Database()
    market = StockMarket(db, seed=int(update_fraction * 10_000) + 3)
    market.populate(BASE_ROWS)
    net = SimulatedNetwork()
    server = CQServer(db, net)
    clients = {}
    for name, protocol in [
        ("dra", Protocol.DRA_DELTA),
        ("reeval_delta", Protocol.REEVAL_DELTA),
        ("naive_full", Protocol.REEVAL_FULL),
    ]:
        client = CQClient(name)
        server.attach(client)
        client.register("watch", WATCH, protocol)
        clients[name] = client
    # Ignore registration traffic; measure refresh traffic only.
    net.reset()
    updates_per_round = max(1, int(BASE_ROWS * update_fraction))
    for __ in range(ROUNDS):
        market.tick(updates_per_round, p_insert=0.1, p_delete=0.1)
        server.refresh_all()
    truth = db.query(WATCH)
    for client in clients.values():
        assert client.result("watch") == truth
    return {
        name: net.link("server", name).bytes for name in clients
    }, updates_per_round


@pytest.fixture(scope="module")
def sweep():
    return {
        fraction: run_deployment(fraction) for fraction in UPDATE_FRACTIONS
    }


def test_traffic_vs_update_volume(sweep, print_table, benchmark):
    rows = []
    for fraction in UPDATE_FRACTIONS:
        bytes_by_protocol, updates = sweep[fraction]
        rows.append(
            {
                "update_frac": fraction,
                "updates/round": updates,
                "dra_bytes": bytes_by_protocol["dra"],
                "reeval_delta_bytes": bytes_by_protocol["reeval_delta"],
                "naive_full_bytes": bytes_by_protocol["naive_full"],
                "dra_savings_x": round(
                    bytes_by_protocol["naive_full"]
                    / max(1, bytes_by_protocol["dra"]),
                    1,
                ),
            }
        )
    print_table(rows, title="E2: refresh traffic (bytes over 5 rounds)")

    # Sparse updates: DRA ships orders of magnitude less than naive.
    sparse = sweep[UPDATE_FRACTIONS[0]][0]
    assert sparse["dra"] * 50 < sparse["naive_full"]
    # The two delta-shipping protocols ship identical content.
    for fraction in UPDATE_FRACTIONS:
        bp, __ = sweep[fraction]
        assert bp["dra"] == bp["reeval_delta"]
    # DRA traffic grows with update volume; naive stays result-sized.
    assert (
        sweep[UPDATE_FRACTIONS[-1]][0]["dra"]
        > sweep[UPDATE_FRACTIONS[0]][0]["dra"] * 10
    )
    benchmark(lambda: run_deployment(0.01))


def test_refresh_round_dra(benchmark):
    db = Database()
    market = StockMarket(db, seed=5)
    market.populate(BASE_ROWS)
    net = SimulatedNetwork()
    server = CQServer(db, net)
    client = CQClient("c")
    server.attach(client)
    client.register("watch", WATCH, Protocol.DRA_DELTA)

    def round_trip():
        market.tick(20)
        server.refresh_all()

    benchmark(round_trip)


def test_refresh_round_naive(benchmark):
    db = Database()
    market = StockMarket(db, seed=5)
    market.populate(BASE_ROWS)
    net = SimulatedNetwork()
    server = CQServer(db, net)
    client = CQClient("c")
    server.attach(client)
    client.register("watch", WATCH, Protocol.REEVAL_FULL)

    def round_trip():
        market.tick(20)
        server.refresh_all()

    benchmark(round_trip)


# -- real-socket smoke entry point (CI) ---------------------------------------


def real_smoke(rows=2_000, rounds=5, updates_per_round=20, durability=None):
    """Replay the E2 claim over loopback TCP with *measured* bytes.

    Two sessions subscribe to the same CQ — one on DRA_DELTA, one on
    REEVAL_FULL — and the per-connection encoded byte counts after
    ``rounds`` refresh cycles must show the delta protocol well under
    the naive one. Raises AssertionError when the claim fails.
    ``durability`` optionally journals every commit through a WAL at
    that path (the crash-safe configuration).
    """
    import asyncio

    from repro.obs import format_table
    from repro.net.client import CQSession
    from repro.net.service import CQService

    async def scenario():
        db = Database()
        market = StockMarket(db, seed=11)
        market.populate(rows)
        service = CQService(db, durability=durability)
        addr = await service.start()
        sessions = {}
        for name, protocol in [
            ("dra", Protocol.DRA_DELTA),
            ("naive", Protocol.REEVAL_FULL),
        ]:
            session = CQSession(name, *addr)
            await session.connect()
            await session.register("watch", WATCH, protocol)
            sessions[name] = session
        # Registration ships a full initial result to both; measure
        # refresh traffic only, from this baseline.
        baseline = {
            name: service.sessions()[name].conn.bytes_sent
            for name in sessions
        }
        for __ in range(rounds):
            market.tick(updates_per_round, p_insert=0.1, p_delete=0.1)
            await service.refresh()
            for session in sessions.values():
                await session.wait_applied("watch", db.now(), timeout=10.0)
        truth = db.query(WATCH)
        for session in sessions.values():
            assert session.result("watch") == truth
        measured = {
            name: service.sessions()[name].conn.bytes_sent - baseline[name]
            for name in sessions
        }
        for session in sessions.values():
            await session.close()
        await service.stop()
        return measured

    measured = asyncio.run(scenario())
    dra_bytes, naive_bytes = measured["dra"], measured["naive"]
    print(
        format_table(
            [
                {
                    "rounds": rounds,
                    "updates/round": updates_per_round,
                    "dra_bytes": dra_bytes,
                    "naive_bytes": naive_bytes,
                    "dra_savings_x": round(naive_bytes / max(1, dra_bytes), 1),
                }
            ],
            title="E2 smoke: measured refresh bytes over loopback TCP",
        )
    )
    assert dra_bytes > 0, "DRA session saw no refresh traffic"
    assert dra_bytes * 3 < naive_bytes, (
        f"DRA shipped {dra_bytes} bytes vs naive {naive_bytes}; "
        "expected at least a 3x reduction"
    )
    return measured


# -- durability overhead smoke (CI) --------------------------------------------


#: What journaling one committed record costs under batch fsync, in
#: microseconds: ``journal_us_per_record``'s reading on a shared 2-core
#: Linux box, the median of eight runs, which spanned 3.33-4.49 (-13 %
#: to +17 %). The gate allows WAL_MARGIN times it: above that spread,
#: and below a journal made twice as dear (each append and barrier
#: spinning as long again), which read 5.92-6.85 (1.55-1.79x).
WAL_US_PER_RECORD = 3.83
WAL_MARGIN = 1.35


def journal_us_per_record(
    rows=2_000, rounds=100, updates_per_round=40, policy="batch",
    passes=5, repeats=21,
):
    """What ``WriteAheadLog`` costs per journaled record, timed on the
    journal alone: the smoke loop's commits (same seed, same ticks) are
    captured once from an un-journaled database, then written
    ``passes`` times over through ``log_commit`` and ``commit_barrier``
    — each append's encode, checksum and write, and the policy's
    flushes and fsyncs. The median of ``repeats`` such timings, divided
    by the records written: the fsyncs are most of the spread, and a
    best-of would read the timing that happened to sync least."""
    import os
    import statistics
    import tempfile
    import time

    from repro.storage.wal import WriteAheadLog

    db = Database()
    market = StockMarket(db, seed=29)
    market.populate(rows)
    commits = []
    for __ in range(rounds):
        before = db.now()
        market.tick(updates_per_round, p_insert=0.1, p_delete=0.1)
        commits.append(market.stocks.log.since(before))
    timings = []
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            wal = WriteAheadLog(os.path.join(tmp, f"{repeat}.wal"), fsync=policy)
            start = time.perf_counter()
            for __ in range(passes):
                for commit in commits:
                    wal.log_commit("stocks", commit)
                    wal.commit_barrier()
            timings.append(time.perf_counter() - start)
            wal.close()
    return statistics.median(timings) / (passes * sum(map(len, commits))) * 1e6


def durability_smoke(
    rows=2_000,
    rounds=100,
    updates_per_round=40,
    policy="batch",
    repeats=7,
    out_path="BENCH_e2.json",
    budget_us=WAL_US_PER_RECORD * WAL_MARGIN,
):
    """Measure what the WAL costs per journaled record.

    Gates :func:`journal_us_per_record` — the journal's own cost, which
    a faster commit or refresh path does not move — against
    ``budget_us``. The same update+refresh loop also runs with and
    without a write-ahead log (``fsync=policy``), alternating,
    best-of-``repeats`` each: the journaled service must still converge,
    and the ratio of the two, ``overhead_pct``, is printed but not
    gated, because every PR that speeds the un-journaled loop up makes
    it worse. The measurements land in ``out_path`` (BENCH_e2 notes).
    """
    import asyncio
    import json
    import os
    import tempfile
    import time

    from repro.obs import format_table
    from repro.net.client import CQSession
    from repro.net.service import CQService
    from repro.storage.wal import WriteAheadLog

    async def one_run(durability):
        db = Database(durability=durability)
        market = StockMarket(db, seed=29)
        market.populate(rows)
        service = CQService(db)
        addr = await service.start()
        session = CQSession("bench", *addr)
        await session.connect()
        await session.register("watch", WATCH, Protocol.DRA_DELTA)
        records = 0
        start = time.perf_counter()
        for __ in range(rounds):
            records += market.tick(updates_per_round, p_insert=0.1, p_delete=0.1)
            await service.refresh()
            await session.wait_applied("watch", db.now(), timeout=10.0)
        elapsed = time.perf_counter() - start
        assert session.result("watch") == db.query(WATCH)
        await session.close()
        await service.stop()
        if db.wal is not None:
            db.wal.close()
        return elapsed, records

    with tempfile.TemporaryDirectory() as tmp:
        plain, journaled = [], []
        for repeat in range(repeats):
            path = os.path.join(tmp, f"bench-{repeat}.wal")
            plain.append(asyncio.run(one_run(None)))
            journaled.append(
                asyncio.run(one_run(WriteAheadLog(path, fsync=policy)))
            )

    (plain_s, records), (wal_s, __) = min(plain), min(journaled)
    overhead_pct = (wal_s - plain_s) / plain_s * 100.0
    wal_us = journal_us_per_record(rows, rounds, updates_per_round, policy)
    record = {
        "benchmark": "e2_durability_smoke",
        "rows": rows,
        "rounds": rounds,
        "records": records,
        "fsync_policy": policy,
        "plain_s": round(plain_s, 4),
        "wal_s": round(wal_s, 4),
        "overhead_pct": round(overhead_pct, 1),
        "wal_us_per_record": round(wal_us, 2),
        "budget_us": round(budget_us, 2),
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        format_table(
            [record], title="E2 durability smoke: WAL cost per journaled record"
        )
    )
    assert wal_us < budget_us, (
        f"WAL ({policy}) costs {wal_us:.2f} us per journaled record, over the "
        f"{budget_us:.2f} us budget"
    )
    return record


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--real",
        action="store_true",
        help="run over real loopback sockets instead of the simulator",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast traffic self-check and exit",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=2_000,
        help="base table size (real smoke mode)",
    )
    parser.add_argument(
        "--durability",
        choices=["always", "batch", "off"],
        default=None,
        help="also measure WAL overhead under this fsync policy "
        "(asserts the per-record journal cost and writes BENCH_e2.json)",
    )
    args = parser.parse_args(argv)
    if not (args.real and args.smoke):
        parser.error("run the full sweep via pytest; use --real --smoke here")
    real_smoke(rows=args.rows)
    if args.durability:
        durability_smoke(rows=args.rows, policy=args.durability)
    print("e2 real-socket smoke ok")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
