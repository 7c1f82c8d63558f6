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
moves the copy in place and folds: it folds out the row *as actually held*
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

from repro.delta.differential import DeltaRelation
from repro.net.codec import compact_json
from repro.relational.relation import Relation, Tid


_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes


def row_digest(tid: Tid, values) -> int:
    # Tids are ints or nested tuples (join provenance); JSON writes a
    # tuple as the array a list would be, so wire-decoded and local
    # rows hash alike. Every holder hashes every row it folds, so this
    # is the per-row floor of a digest: one call into the prebuilt C
    # JSON encoder (``repro.jsonenc``, the same bytes ``json.dumps``
    # writes, so digests never move), one BLAKE2b.
    payload = compact_json((tid, values)).encode()
    return _from_bytes(_blake2b(payload, digest_size=8).digest(), "big")


def relation_digest(relation: Relation) -> str:
    """A compact, order-insensitive fingerprint: ``<count>:<xor-hex>``."""
    acc = 0
    count = 0
    for row in relation:
        acc ^= row_digest(row.tid, row.values)
        count += 1
    return f"{count}:{acc:016x}"


def apply_delta(delta: DeltaRelation, held: Relation, digest: str) -> str:
    """Move ``held`` in place by ``delta`` and return its new digest:
    O(|delta|), not O(|held|).

    ``digest`` must be ``relation_digest(held)``; the returned digest is
    then ``relation_digest`` of ``held`` as moved, whatever the delta's
    ``old`` sides claim. The move is :meth:`DeltaRelation.
    apply_in_place`: it validates every row, and raises ``KeyError`` on
    a delete of a tid ``held`` lacks before anything is written. A
    holder whose copy others alias hands in a copy of its own.
    """
    count, _, acc = digest.partition(":")
    count, acc = int(count), int(acc, 16)
    rows = held.rows_map()
    before = [rows.get(entry.tid) for entry in delta]
    delta.apply_in_place(held)
    for entry, old in zip(delta, before):
        tid = entry.tid
        if old is not None:
            acc ^= row_digest(tid, old)
            count -= 1
        if entry.new is not None:
            acc ^= row_digest(tid, rows[tid])
            count += 1
    return f"{count}:{acc:016x}"
