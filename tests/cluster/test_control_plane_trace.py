"""A golden trace of the cluster router's control plane.

Seeded operation sequences over {commit, subscribe, unsubscribe,
refresh, kill_shard, recover_shard, add_shard, remove_shard,
collect_garbage} run on three in-process shards with write-ahead logs,
for ``replicas`` 0, 1 and 2 × ``SEEDS`` seeds × ``STEPS`` steps. The
driver uses the public API only: which hosts are alive or dead, and
which groups are lost, it reads from ``stats()``.

After every step it checks ``router.check_invariants()`` (the record
laws and the result law) and digests what the router exposes: the
operation and its arguments, the operation's return value
(``refresh()``'s count, the ``.pinned`` report of a
``collect_garbage()``, ...), ``stats()`` without the per-host
``counters`` and ``horizon``, and ``describe()``; and at every refresh
that leaves no group lost, whether each member's ``result()`` equals
``db.query``. The digests must equal ``data/control_plane_trace.json``
step for step, so a change to the router's internals that moves one
frame ``seq``, count, placement decision or pin fails here, naming the
run and the first step it moved.

Each member also keeps its own copy: the result it subscribed with,
with every delta it is notified applied. Every notified old side must
match that copy, and at every fully served refresh the copy must equal
``db.query`` as ``result()`` must: what a member receives is checked,
not only what the router retains. No run may break either in any way:
the §4.2 equivalence holds through failover, recovery and resizes
(``test_registration.py`` and ``test_shared_result.py`` hold the
reproducers of the runs that broke it).

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


class Copies:
    """Each member's own copy of its result: what ``subscribe`` returned,
    with every delta it is notified applied. ``mismatched`` turns true
    when a notified entry's old side is not what the copy holds for its
    tid (None: the copy holds no such row)."""

    def __init__(self):
        self.held = {}
        self.mismatched = False

    def subscribe(self, router, client, cq):
        def on_delta(cq_name, delta, ts):
            held = self.held[(client, cq_name)]
            for entry in delta:
                if held.get_or_none(entry.tid) != entry.old:
                    self.mismatched = True
                if entry.new is None:
                    held.discard(entry.tid)
                else:
                    held.add(entry.tid, entry.new)

        initial = router.subscribe(client, cq, QUERIES[cq], on_delta)
        self.held[(client, cq)] = initial.copy()
        return initial

    def unsubscribe(self, router, client, cq):
        router.unsubscribe(client, cq)
        del self.held[(client, cq)]


def apply(router, copies, rng, op, args):
    """Run one operation; its JSON-able outcome."""
    if op == "commit":
        return commit(router, rng)
    if op == "subscribe":
        return rows(copies.subscribe(router, *args))
    if op == "unsubscribe":
        return copies.unsubscribe(router, *args)
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


def copies_agree(router, copies):
    """Whether every member's own copy equals ``db.query``."""
    return all(
        rows(held) == rows(router.db.query(QUERIES[cq]))
        for (_client, cq), held in copies.held.items()
    )


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def run(replicas, seed, wal_root):
    """One generated sequence: ``(["<op> <digest>", ...], diverged)``."""
    rng = random.Random(1000 * replicas + seed)
    router = make_router(replicas, seed, wal_root)
    copies = Copies()
    trace, diverged = [], False
    try:
        for _ in range(STEPS):
            op, args = choose(rng, router, router.stats())
            out = apply(router, copies, rng, op, args)
            router.check_invariants()
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
                diverged |= not copies_agree(router, copies)
            trace.append(f"{op} {digest(record)}")
    finally:
        router.close()
    return trace, diverged or copies.mismatched


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
    assert diverged == set()


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
    print(f"diverged (must be none): {sorted(diverged)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write()
