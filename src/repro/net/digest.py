"""Order-insensitive digests of query results, maintained differentially.

A digest is ``<count>:<xor-hex>``: each row (tid + values) hashes
independently through BLAKE2b, the per-row hashes are XOR-folded, and
the row count rides along so results that XOR to the same value with
different cardinalities still differ. XOR-plus-count is a group
homomorphism over the result's rows, so — like any linear operator
(DBSP) — it is its own incremental version.

**The invariant.** Every holder of a result — the server's shared
groups and subscriptions, the client caches — keeps a *running* digest
beside its copy and advances both through :func:`apply_delta`, which
applies and folds in one pass: it folds out the row *as actually held*
at each touched tid (not the delta's ``old`` side, which only says what
the sender believed was there) and folds in the row as stored. So
``running == relation_digest(held copy)`` holds exactly after every
apply, at O(|delta|) cost, and the per-frame check is what it always
was: each result-bearing frame carries the digest of the sender's
post-apply state, the receiver compares after applying, and a lost
frame, an altered new-side value, a delta for a tid the copy lacks or
a forged stamp all mismatch on that very frame.

:func:`relation_digest` — O(|result|) — is for results that really are
new (an initial or full result, a group's first evaluation) and for
the server's sampled audit, which covers what a running digest cannot
see: a copy changed *between* applies by anything but
:func:`apply_delta`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Tuple

from repro.delta.differential import DeltaRelation
from repro.relational.relation import Relation, Tid


def _canon_tid(tid: Tid) -> Any:
    """Tids are ints or nested tuples (join provenance); canonicalize
    tuples to lists for a deterministic JSON form."""
    if isinstance(tid, tuple):
        return [_canon_tid(part) for part in tid]
    return tid


def row_digest(tid: Tid, values) -> int:
    payload = json.dumps(
        [_canon_tid(tid), list(values)], separators=(",", ":")
    ).encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


def relation_digest(relation: Relation) -> str:
    """A compact, order-insensitive fingerprint: ``<count>:<xor-hex>``."""
    acc = 0
    count = 0
    for row in relation:
        acc ^= row_digest(row.tid, row.values)
        count += 1
    return f"{count}:{acc:016x}"


def apply_delta(
    delta: DeltaRelation, held: Relation, digest: str
) -> Tuple[Relation, str]:
    """``delta.apply_to(held)`` and that result's digest, in one pass.

    ``digest`` must be ``relation_digest(held)``; the returned digest is
    then ``relation_digest`` of the returned relation, whatever the
    delta's ``old`` sides claim. Like ``apply_to`` this copies ``held``
    and raises ``KeyError`` on a delete of a tid it does not hold.
    """
    count, _, acc = digest.partition(":")
    count, acc = int(count), int(acc, 16)
    out = held.copy()
    rows = out.rows_map()
    for entry in delta:
        tid = entry.tid
        before = rows.get(tid)
        if before is not None:
            acc ^= row_digest(tid, before)
            count -= 1
        if entry.new is None:
            out.remove(tid)
        else:
            out.add(tid, entry.new)
            acc ^= row_digest(tid, rows[tid])
            count += 1
    return out, f"{count}:{acc:016x}"
