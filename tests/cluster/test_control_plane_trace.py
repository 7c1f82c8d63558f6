"""A golden trace of the cluster router's control plane.

Seeded operation sequences over {commit, subscribe, unsubscribe,
refresh, kill_shard, recover_shard, add_shard, remove_shard,
collect_garbage} run on three in-process shards with write-ahead logs,
for ``replicas`` 0, 1 and 2 × ``SEEDS`` seeds × ``STEPS`` steps. The
driver uses the public API only: which hosts are alive or dead, and
which groups are lost, it reads from ``stats()``.

After every step it digests what the router exposes: the operation and
its arguments, the operation's return value (``refresh()``'s count, the
``.pinned`` report of a ``collect_garbage()``, ...), ``stats()`` without
the per-host ``counters`` and ``horizon``, and ``describe()``; and at
every refresh that leaves no group lost, whether each member's
``result()`` equals ``db.query``. The digests must equal
``data/control_plane_trace.json`` step for step, so a change to the
router's internals that moves one frame ``seq``, count, placement
decision or pin fails here, naming the run and the first step it moved.

``DIVERGENT`` names the runs in which some member differs from
``db.query`` at such a fully served refresh. They are open router
defects (ROADMAP item 2), asserted as they stand: fixing one, or
adding one, is a deliberate edit of that set.

The data file is written only on request, when observable behaviour is
meant to change::

    PYTHONPATH=src python tests/cluster/test_control_plane_trace.py --write
"""

import hashlib
import json
import pathlib
import random
import sys
import tempfile

import pytest

from repro.cluster import ClusterRouter, LocalBackend

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE / "data" / "control_plane_trace.json"
REPLICAS = (0, 1, 2)
SEEDS = 40
STEPS = 40
MAX_HOSTS = 5

#: ``cq name -> SQL``: two over the replicated table, one over the
#: partitioned one, one join across both.
QUERIES = {
    "q0": "SELECT name, price FROM stocks WHERE price > 103",
    "q1": (
        "SELECT p.client, s.name, s.price, p.shares "
        "FROM positions p, stocks s "
        "WHERE p.sid = s.sid AND s.price > 105"
    ),
    "q2": "SELECT pid, client, shares FROM positions WHERE shares > 50",
    "q3": "SELECT sid, price FROM stocks WHERE price < 110",
}
CLIENTS = ("a", "b", "c")

#: Relative weights of the operations, among those valid at a step.
WEIGHTS = {
    "commit": 4,
    "subscribe": 2,
    "unsubscribe": 1,
    "refresh": 4,
    "kill_shard": 1,
    "recover_shard": 1,
    "add_shard": 1,
    "remove_shard": 1,
    "collect_garbage": 1,
}

#: ``(replicas, seed)`` runs where a member's result differs from
#: ``db.query`` at a refresh that left no group lost (ROADMAP item 2).
#: Replicas 1, seed 0 is the shortest: a subscription seeds a group
#: whose store holds another ``sql_key`` with commits pending, and the
#: seeding sync's reply — that key's delta — is never merged.
DIVERGENT = frozenset(
    [(0, seed) for seed in (3, 7, 9, 20, 28, 29)]
    + [
        (1, seed)
        for seed in (0, 12, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24, 25)
        + (26, 28, 32, 36, 37)
    ]
    + [
        (2, seed)
        for seed in (4, 5, 7, 10, 17, 20, 21, 22, 23, 24, 25, 28, 31)
        + (32, 33, 34, 37, 38, 39)
    ]
)


def make_router(replicas, seed, wal_root):
    router = ClusterRouter(
        shards=3,
        seed=seed,
        replicas=replicas,
        backend=LocalBackend(wal_root=str(wal_root)),
        request_timeout=5.0,
        retries=1,
        backoff_base=0.0,
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.declare_table(
        "positions",
        [("pid", int), ("client", str), ("sid", int), ("shares", int)],
        partition_key="client",
    )
    router.start()
    db = router.db
    with db.begin() as txn:
        for i in range(8):
            txn.insert_into(db.table("stocks"), (i, f"S{i}", 100.0 + 2 * i))
        for i in range(12):
            txn.insert_into(
                db.table("positions"), (i, f"c{i % 5}", i % 8, 10 * (i + 1))
            )
    return router


def commit(router, rng):
    """One transaction of one to three random row changes."""
    db = router.db
    changes = []
    touched = set()
    with db.begin() as txn:
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(("stocks", "positions"))
            table = db.table(name)
            tids = sorted(
                row.tid for row in table.current if row.tid not in touched
            )
            kind = rng.choice(("insert", "modify", "modify", "delete"))
            if kind != "insert" and not tids:
                kind = "insert"
            sid = rng.randrange(10)
            if name == "stocks":
                values = (sid, f"S{sid}", float(rng.randrange(96, 120)))
            else:
                values = (
                    rng.randrange(100),
                    f"c{rng.randrange(6)}",
                    sid,
                    10 * rng.randrange(1, 15),
                )
            if kind == "insert":
                txn.insert_into(table, values)
                changes.append([name, kind, list(values)])
                continue
            tid = rng.choice(tids)
            touched.add(tid)
            if kind == "modify":
                txn.modify_in(table, tid, values)
                changes.append([name, kind, repr(tid), list(values)])
            else:
                txn.delete_from(table, tid)
                changes.append([name, kind, repr(tid)])
    return changes


def rows(relation):
    return sorted(row.values for row in relation)


def choose(rng, router, stats):
    """A valid operation and its arguments, read off ``stats()``."""
    alive = sorted(h for h, s in stats["shards"].items() if s["alive"])
    dead = sorted(h for h, s in stats["shards"].items() if not s["alive"])
    subscribed = sorted((d["client"], d["cq"]) for d in router.describe())
    free = sorted(
        (client, cq)
        for client in CLIENTS
        for cq in QUERIES
        if (client, cq) not in subscribed
    )
    valid = {
        "commit": True,
        "subscribe": bool(free),
        "unsubscribe": bool(subscribed),
        "refresh": True,
        "kill_shard": len(alive) > 1,
        "recover_shard": bool(dead),
        "add_shard": len(stats["shards"]) < MAX_HOSTS,
        "remove_shard": len(alive) > 1,
        "collect_garbage": True,
    }
    ops = [op for op in WEIGHTS if valid[op]]
    op = rng.choices(ops, weights=[WEIGHTS[op] for op in ops])[0]
    if op == "subscribe":
        return op, list(rng.choice(free))
    if op == "unsubscribe":
        return op, list(rng.choice(subscribed))
    if op in ("kill_shard", "remove_shard"):
        return op, [rng.choice(alive)]
    if op == "recover_shard":
        return op, [rng.choice(dead)]
    return op, []


def apply(router, rng, op, args):
    """Run one operation; its JSON-able outcome."""
    if op == "commit":
        return commit(router, rng)
    if op == "subscribe":
        client, cq = args
        return rows(router.subscribe(client, cq, QUERIES[cq]))
    if op == "collect_garbage":
        report = router.collect_garbage()
        return [dict(report), report.pinned]
    return getattr(router, op)(*args)


def observed(router):
    """``stats()`` without the per-host counters and horizon."""
    stats = router.stats()
    for shard in stats["shards"].values():
        del shard["counters"], shard["horizon"]
    return stats


def served(router):
    """Per member, whether its result equals ``db.query``."""
    out = []
    for member in router.describe():
        client, cq = member["client"], member["cq"]
        want = rows(router.db.query(QUERIES[cq]))
        out.append([client, cq, rows(router.result(client, cq)) == want])
    return out


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def run(replicas, seed, wal_root):
    """One generated sequence: ``(["<op> <digest>", ...], diverged)``."""
    rng = random.Random(1000 * replicas + seed)
    router = make_router(replicas, seed, wal_root)
    trace, diverged = [], False
    try:
        for _ in range(STEPS):
            op, args = choose(rng, router, router.stats())
            out = apply(router, rng, op, args)
            stats = observed(router)
            record = {
                "op": op,
                "args": args,
                "out": out,
                "stats": stats,
                "describe": router.describe(),
            }
            if op == "refresh" and not stats["lost"]:
                record["served"] = served(router)
                diverged |= not all(ok for _c, _q, ok in record["served"])
            trace.append(f"{op} {digest(record)}")
    finally:
        router.close()
    return trace, diverged


def run_all(replicas, root):
    traces, diverged = {}, set()
    for seed in range(SEEDS):
        wal_root = pathlib.Path(root) / f"r{replicas}s{seed}"
        trace, bad = run(replicas, seed, wal_root)
        traces[f"{replicas}:{seed}"] = trace
        if bad:
            diverged.add((replicas, seed))
    return traces, diverged


@pytest.mark.parametrize("replicas", REPLICAS)
def test_control_plane_trace_matches_golden(replicas, tmp_path):
    golden = json.loads(DATA.read_text())
    traces, diverged = run_all(replicas, tmp_path)
    for key, trace in traces.items():
        expected = golden[key]
        for step, (want, got) in enumerate(zip(expected, trace)):
            assert want == got, (
                f"replicas={replicas} seed={key.split(':')[1]}: step {step} "
                f"({got.split()[0]}) differs: expected {want!r}, got {got!r}"
            )
        assert len(trace) == len(expected)
    assert diverged == {key for key in DIVERGENT if key[0] == replicas}


def write():
    traces, diverged = {}, set()
    with tempfile.TemporaryDirectory() as root:
        for replicas in REPLICAS:
            more, bad = run_all(replicas, root)
            traces.update(more)
            diverged |= bad
    DATA.parent.mkdir(exist_ok=True)
    lines = [
        f"  {json.dumps(key)}: {json.dumps(trace)}"
        for key, trace in traces.items()
    ]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {DATA.name}: {len(traces)} runs")
    print(f"DIVERGENT = {sorted(diverged)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write()
