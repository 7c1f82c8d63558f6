"""E16 — sharded cluster: refresh throughput must scale with shards.

A :class:`~repro.cluster.ClusterRouter` drives N partitioned shards
through scatter/gather refresh cycles. The partitioned fan-out workload
(10k Zipf-skewed subscribers over ``stocks``, partitioned by ``sid``)
runs partition-parallel: every shard owns every group but evaluates it
over its slice only, so per-cycle work splits across shards while the
router's scatter/merge overhead stays fixed.

The machine has one core, so the claim is asserted on a deterministic
*critical-path cost model*, never on wall-clock: per configuration,

    cost  =  router work  +  max over shards of that shard's work

where work is the operation counters the rest of the suite gates on
(``terms_evaluated``, ``rows_scanned``, ``delta_rows_read``,
``predindex_probes``) accumulated over the measured refresh cycles.
Registration/seeding cost is excluded by snapshotting after setup.

What the model can claim is gated, in two parts. *The shard side
splits:* with perfect balance the busiest shard's work at 4 shards is
1/4 of the single shard's; consistent-hash imbalance eats some of it,
so ``shard_work_max`` must scale ≥3.0x from 1 to 4 shards. *Nothing got
dearer:* the critical path at each shard count may not exceed the value
recorded when the ratio was last restated (``RECORDED_CRITICAL_PATH``).
The gate used to be the ratio of critical paths (≥2.5x, 2.63x measured);
since the predicate index hands DRA the rows it selected (PR 21) the
shards no longer re-filter each batch once per routed group, their share
of every path fell by more than half, and the router's fixed share — the
model's serial term, unchanged — became the larger one: the absolute
path fell at every shard count (48 695 → 24 180, 28 404 → 17 784,
18 517 → 14 540) while their ratio reads 1.66x. A ratio that falls when
the parallel part gets cheaper is Amdahl's law, not a regression, so it
is reported and no longer gated. Since an interval stab inspects only
the entries it returns (one bisect into precomputed covers), router and
shards alike have shed their candidate walks (5 876 / 4 137 / 3 028,
3.33x); the paths now read 4 424 / 3 203 / 2 506 (recorded), and
``shard_work_max`` scales 3.74x (the gate stays at 3.0x).

Run ``python benchmarks/bench_e16_cluster.py --smoke`` for the CI
self-check: sweeps 1/2/4 shards with a fixed seed, verifies every
sampled subscription against the authoritative oracle, asserts both
gates, and writes ``BENCH_e16.json``. Wall-clock over real shard
processes is E18's ``cluster_scatter`` workload (``benchmarks/e18``).
"""

import random
import sys

import pytest

from repro.cluster import ClusterRouter
from repro.metrics import Metrics
from repro.workload.fanout import FanoutWorkload

N_TEMPLATES = 100
BASE_ROWS = 400
PRICE_DOMAIN = (0, 1000)

#: The operation counters that model evaluation work, router and shard
#: alike (the same counters every other bench gates on).
WORK_COUNTERS = (
    Metrics.TERMS_EVALUATED,
    Metrics.ROWS_SCANNED,
    Metrics.DELTA_ROWS_READ,
    Metrics.PREDINDEX_PROBES,
)


#: The modelled critical path as measured, by subscriber count
#: (``measure``'s other defaults; the pytest's sizes for 600), then by
#: shards. The counters repeat exactly under any ``PYTHONHASHSEED``, and
#: replication does not move them. A change may lower a path, never
#: raise it; one that lowers it re-records it here.
RECORDED_CRITICAL_PATH = {
    10_000: {1: 4_424, 2: 3_203, 4: 2_506},
    600: {1: 1_088, 2: 812, 4: 631},
}


def check_scaling(rows, min_shard_scaling):
    """The two gates over a sweep's rows (see the module docstring);
    returns the 1-to-4-shard ``shard_work_max`` scaling."""
    by_shards = {row["shards"]: row for row in rows}
    scaling = (
        by_shards[1]["shard_work_max"] / by_shards[4]["shard_work_max"]
    )
    assert scaling >= min_shard_scaling, (
        f"the busiest shard's modelled work at 4 shards is 1/{scaling:.2f} "
        f"of the single shard's; the scaling claim needs >= "
        f"{min_shard_scaling}x"
    )
    recorded = RECORDED_CRITICAL_PATH.get(rows[0]["subscribers"], {})
    for row in rows:
        ceiling = recorded.get(row["shards"])
        assert ceiling is None or row["critical_path"] <= ceiling, (
            f"modelled critical path at {row['shards']} shards is "
            f"{row['critical_path']}, above the recorded {ceiling}"
        )
    return scaling


def build_cluster(shards, seed=16, replicas=0):
    """A started cluster with a partitioned, populated stocks table."""
    router = ClusterRouter(
        shards=shards,
        seed=seed,
        vnodes=256,
        replicas=min(replicas, shards - 1),
    )
    router.declare_table(
        "stocks",
        [("sid", int), ("name", str), ("price", int)],
        partition_key="sid",
        indexes=[("sid",)],
    )
    router.start()
    stocks = router.db.table("stocks")
    rng = random.Random(seed + 1)
    tids = []
    with router.db.begin() as txn:
        for sid in range(BASE_ROWS):
            tids.append(
                txn.insert_into(
                    stocks,
                    (sid, f"S{sid}", rng.randrange(*PRICE_DOMAIN)),
                )
            )
    return router, tids


def subscribe_population(router, n_subs, seed=17):
    """Zipf-skewed fan-out subscribers; returns a correctness sample."""
    workload = FanoutWorkload(
        n_templates=N_TEMPLATES,
        seed=seed,
        skew=1.1,
        domain=PRICE_DOMAIN,
        eq_fraction=0.5,
        interval_width=40,
    )
    subs = workload.subscriptions(n_subs)
    for sub in subs:
        router.subscribe(sub.name, "watch", sub.sql)
    return subs[:: max(n_subs // 20, 1)]


def run_cycles(router, tids, cycles, mutations, seed=18):
    """Seeded mutation stream against the authoritative database."""
    rng = random.Random(seed)
    stocks = router.db.table("stocks")
    next_sid = BASE_ROWS
    for __ in range(cycles):
        with router.db.begin() as txn:
            for __ in range(mutations):
                if rng.random() < 0.15:
                    tids.append(
                        txn.insert_into(
                            stocks,
                            (
                                next_sid,
                                f"S{next_sid}",
                                rng.randrange(*PRICE_DOMAIN),
                            ),
                        )
                    )
                    next_sid += 1
                else:
                    tid = rng.choice(tids)
                    row = stocks.current.get_or_none(tid)
                    if row is None:
                        continue
                    sid, name, __price = row
                    txn.modify_in(
                        stocks,
                        tid,
                        (sid, name, rng.randrange(*PRICE_DOMAIN)),
                    )
        router.refresh()


def _work(counters):
    return sum(counters.get(name, 0) for name in WORK_COUNTERS)


def _shard_snapshots(router):
    stats = router.stats()
    return {
        shard_id: _work(info["counters"])
        for shard_id, info in stats["shards"].items()
    }


def measure(shards, n_subs, cycles=8, mutations=60, replicas=0):
    """One configuration's modelled critical path over the cycles."""
    router, tids = build_cluster(shards, replicas=replicas)
    sample = subscribe_population(router, n_subs)
    router.refresh()  # flush registration-era windows out of the model
    shard_before = _shard_snapshots(router)
    router_before = _work(router.metrics.snapshot())
    run_cycles(router, tids, cycles, mutations)
    shard_after = _shard_snapshots(router)
    router_work = _work(router.metrics.snapshot()) - router_before
    per_shard = {
        shard_id: shard_after[shard_id] - shard_before.get(shard_id, 0)
        for shard_id in shard_after
    }
    for sub in sample:
        got = sorted(r.values for r in router.result(sub.name, "watch"))
        want = sorted(r.values for r in router.db.query(sub.sql))
        assert got == want, f"{sub.name} diverged from the oracle"
    router.close()
    shard_path = max(per_shard.values())
    total = sum(per_shard.values())
    return {
        "shards": shards,
        "replicas": min(replicas, shards - 1),
        "subscribers": n_subs,
        "cycles": cycles,
        "router_work": router_work,
        "shard_work_total": total,
        "shard_work_max": shard_path,
        "critical_path": router_work + shard_path,
    }


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_cluster_refresh_converges_and_splits_work(shards, print_table):
    row = measure(shards, n_subs=600, cycles=4, mutations=40)
    # Fragment-and-replicate: the busiest shard's share of the
    # evaluation work shrinks as shards are added.
    assert row["shard_work_max"] <= row["shard_work_total"]
    if shards > 1:
        assert row["shard_work_max"] * shards < row["shard_work_total"] * 2
    print_table([row], title=f"E16: {shards}-shard refresh work")


def test_four_shards_beat_one_on_the_cost_model(print_table):
    one = measure(1, n_subs=600, cycles=4, mutations=40)
    four = measure(4, n_subs=600, cycles=4, mutations=40)
    # (600 subscribers hash less evenly than the smoke's 10 000.)
    scaling = check_scaling([one, four], min_shard_scaling=2.5)
    print_table(
        [one, four], title=f"E16: busiest shard's work scales {scaling:.2f}x"
    )


# -- smoke entry point (CI) ---------------------------------------------------


def smoke(n_subs=10_000, out_path="BENCH_e16.json", replicas=0):
    """Fast self-check of the scaling claim at full population.

    Sweeps 1/2/4 shards over the same seeded workload, asserts both
    gates of :func:`check_scaling` — the busiest shard's work scales
    ≥3.0x from 1 to 4 shards, no critical path above its recorded
    value — and that every sampled subscription matches the
    authoritative oracle. With replication on, every slice is scattered
    to replica stores as well; the gates are the same — fault tolerance
    must not eat the scaling claim. Replicated runs merge into the
    existing record under ``"replicated"`` instead of replacing the
    base sweep. Returns the record (also written to ``out_path``).
    """
    import json
    import os

    from repro.obs import format_table

    rows = [
        measure(shards, n_subs, replicas=replicas) for shards in (1, 2, 4)
    ]
    one = rows[0]
    for row in rows:
        row["shard_scaling_vs_1"] = round(
            one["shard_work_max"] / row["shard_work_max"], 2
        )
        row["speedup_vs_1"] = round(
            one["critical_path"] / row["critical_path"], 2
        )
    scaling = check_scaling(rows, min_shard_scaling=3.0)

    sweep = {
        "replicas": replicas,
        "sweep": rows,
        "shard_scaling_4_vs_1": round(scaling, 2),
        "speedup_4_vs_1": rows[-1]["speedup_vs_1"],
    }
    record = {
        "benchmark": "e16_cluster_smoke",
        "templates": N_TEMPLATES,
        "base_rows": BASE_ROWS,
    }
    if os.path.exists(out_path):
        try:
            with open(out_path) as fh:
                previous = json.load(fh)
            if previous.get("benchmark") == record["benchmark"]:
                record = previous
        except (ValueError, OSError):
            pass
    if replicas == 0:
        record.update(sweep)
    else:
        record["replicated"] = sweep
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        format_table(
            rows,
            title=(
                "E16 smoke: critical path vs shards "
                f"(replicas={replicas})"
            ),
        )
    )
    return record


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast scaling self-check and exit",
    )
    parser.add_argument(
        "--subs",
        type=int,
        default=10_000,
        help="subscriber population (smoke mode)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_e16.json",
        help="where to write the smoke measurement record",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help=(
            "replica stores per placement group (capped at shards-1; "
            "the gates stay the same)"
        ),
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run the full sweep via pytest; use --smoke here")
    if args.subs < 100:
        parser.error("--subs must be >= 100 for a meaningful sweep")
    if args.replicas < 0:
        parser.error("--replicas must be >= 0")
    smoke(n_subs=args.subs, out_path=args.out, replicas=args.replicas)
    print("e16 smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
