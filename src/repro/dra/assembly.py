"""Algorithm 1 steps 3-4: union of term results and result assembly.

Step 3 sums the weighted candidates of all terms by (result tid,
projected values). In exact arithmetic every surviving weight is ±1:
−1 entries are rows leaving the result, +1 entries are rows entering
it; a tid carrying both is an in-place modification. A single-term
execution on the kernels also hands over the modifies that travelled
the term as pair rows, already as parallel result tid, old values and
new values columns (§4.1's modify kind kept end to end): they skip the
signed sum and the re-pairing by tid. Step 4 assembles what the user
asked for — differential only, complete result, or deletion
notifications — from that result delta and the previous execution's
result (Algorithm 1 input (v)).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.relational.relation import Relation, Tid, Values
from repro.relational.schema import Schema
from repro.storage.timestamps import Timestamp
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.dra.terms import Entry


class WeightInvariantError(ReproError):
    """A summed weight fell outside {−1, 0, +1}, two rows landed on one
    side of a result tid, or a pair's result tid collided with another
    row's.

    With tid-keyed set semantics this cannot happen for a correct
    expansion; raising loudly turns any algebra bug into a test
    failure instead of a silently wrong result.
    """


# A term's modify entries as parallel columns: (result tids, old
# values, new values).
Modifies = Tuple[Sequence[Tid], Sequence[Values], Sequence[Values]]
NO_MODIFIES: Modifies = ((), (), ())


def accumulate(
    term_results: Iterable[List[Entry]],
) -> Dict[Tuple[Tid, Values], int]:
    """Sum weighted, projected candidates across terms (step 3).

    Terms arrive already projected — each candidate is a flat
    ``(result tid, output values, weight)`` triple produced by the
    term's prepared plan — so step 3 is a pure signed sum.
    """
    weights: Dict[Tuple[Tid, Values], int] = {}
    get = weights.get
    for entries in term_results:
        for ctid, values, weight in entries:
            key = (ctid, values)
            total = get(key, 0) + weight
            if total:
                weights[key] = total
            else:
                weights.pop(key, None)
    return weights


def to_delta(
    weights: Dict[Tuple[Tid, Values], int],
    schema: Schema,
    ts: Timestamp,
    modifies: Modifies = NO_MODIFIES,
) -> DeltaRelation:
    """Classify net weights into insert/delete/modify delta entries,
    after the term's ``modifies``, which are entries already."""
    old_side: Dict[Tid, Values] = {}
    new_side: Dict[Tid, Values] = {}
    for (ctid, values), weight in weights.items():
        if weight == 1:
            new_side[ctid] = values
        elif weight == -1:
            old_side[ctid] = values
        else:
            raise WeightInvariantError(
                f"weight {weight} for result tid {ctid!r}; expected ±1"
            )
    if len(old_side) + len(new_side) != len(weights):
        # A tid landed twice on the same side and one insert silently
        # overwrote the other; re-walk to name the offender.
        seen_old: set = set()
        seen_new: set = set()
        for (ctid, _values), weight in weights.items():
            side, seen = (
                ("new", seen_new) if weight == 1 else ("old", seen_old)
            )
            if ctid in seen:
                raise WeightInvariantError(
                    f"two {side}-side rows for result tid {ctid!r}"
                )
            seen.add(ctid)
    # The side dicts are tid-keyed, so entry tids are unique by
    # construction: build the consolidated mapping directly and skip
    # DeltaRelation's per-entry duplicate check. A pair's tid must not
    # meet another pair's or a single's: count instead of checking.
    pair_tids = modifies[0]
    entries: Dict[Tid, DeltaEntry] = {}
    if pair_tids:
        entries.update(
            zip(pair_tids, map(DeltaEntry, *modifies, itertools.repeat(ts)))
        )
        if len(entries) != len(pair_tids):
            raise WeightInvariantError("two pair rows for one result tid")
    expected = len(entries)
    pop_new = new_side.pop
    for ctid, values in old_side.items():
        new_values = pop_new(ctid, None)
        if new_values == values:
            continue  # defensive; zero-sum pairs were dropped earlier
        entries[ctid] = DeltaEntry(ctid, values, new_values, ts)
        expected += 1
    for ctid, values in new_side.items():
        entries[ctid] = DeltaEntry(ctid, None, values, ts)
    if len(entries) != expected + len(new_side):
        raise WeightInvariantError(
            "a pair row and a signed row for one result tid"
        )
    return DeltaRelation.from_consolidated(schema, entries)


class TermTrace:
    """Explain record for one truth-table term: its seed rows, how many
    of them were pair rows, and the candidates it produced."""

    __slots__ = ("substituted", "seed_alias", "seed_rows", "candidates", "paired")

    def __init__(
        self,
        substituted: frozenset,
        seed_alias: str,
        seed_rows: int,
        candidates: int,
        paired: int = 0,
    ):
        self.substituted = substituted
        self.seed_alias = seed_alias
        self.seed_rows = seed_rows
        self.candidates = candidates
        self.paired = paired

    def __repr__(self) -> str:
        subs = ",".join(sorted(self.substituted))
        return (
            f"TermTrace(Δ{{{subs}}}, seed={self.seed_alias}"
            f"[{self.seed_rows} seed rows, {self.paired} paired], "
            f"{self.candidates} candidates)"
        )


class DRAResult:
    """The outcome of one differential re-evaluation (step 4 views).

    ``weights`` is step 3's signed sum, ``{(result tid, values): ±1}``,
    and ``modifies`` the result tid, old values and new values columns
    of pair rows, which never enter it; ``delta`` is ΔQ — the net change
    to the query result since the last execution — built from both by
    ``assemble`` on first read, so a caller that folds them itself (an
    aggregate) never builds one. The assembly helpers realize the
    paper's three delivery options without re-running anything.
    """

    __slots__ = (
        "weights",
        "schema",
        "previous",
        "ts",
        "changed_aliases",
        "terms_evaluated",
        "skipped",
        "traces",
        "modifies",
        "_assemble",
        "_delta",
    )

    def __init__(
        self,
        weights: Dict[Tuple[Tid, Values], int],
        schema: Schema,
        previous: Optional[Relation],
        ts: Timestamp,
        changed_aliases: Tuple[str, ...] = (),
        terms_evaluated: int = 0,
        skipped: bool = False,
        traces: Optional[List[TermTrace]] = None,
        assemble=to_delta,
        modifies: Modifies = NO_MODIFIES,
    ):
        self.weights = weights
        self.modifies = modifies
        self._assemble = assemble
        self._delta: Optional[DeltaRelation] = None
        self.schema = schema
        self.previous = previous
        self.ts = ts
        self.changed_aliases = changed_aliases
        self.terms_evaluated = terms_evaluated
        #: True when the execution was skipped as irrelevant (§5.2).
        self.skipped = skipped
        #: Per-term explain records (populated with explain=True).
        self.traces = traces

    @property
    def delta(self) -> DeltaRelation:
        delta = self._delta
        if delta is None:
            delta = self._delta = self._assemble(
                self.weights, self.schema, self.ts, self.modifies
            )
        return delta

    def explain(self) -> str:
        """Human-readable account of this execution's truth table."""
        lines = [
            f"DRA execution at ts={self.ts}: "
            f"{len(self.changed_aliases)} changed operand(s) "
            f"{list(self.changed_aliases)}, "
            f"{self.terms_evaluated} term(s)"
        ]
        if self.skipped:
            lines.append("  skipped: all updates irrelevant (Section 5.2)")
        for trace in self.traces or ():
            lines.append(f"  {trace!r}")
        lines.append(f"  result delta: {self.delta!r}")
        return "\n".join(lines)

    def insertions(self) -> Relation:
        """Rows that entered the result (includes modified new sides)."""
        return self.delta.insertions()

    def deletions(self) -> Relation:
        """Rows that left the result (includes modified old sides) —
        the paper's deleted-tuple notification."""
        return self.delta.deletions()

    def complete_result(self) -> Relation:
        """E_i(Q) ∪ insertions − deletions, per the paper's formula.

        Requires the previous complete result to have been retained
        (Section 3.3's trade-off: without it, only differential
        notification is possible).
        """
        if self.previous is None:
            raise ReproError(
                "complete_result needs the previous execution's result; "
                "this CQ was registered for differential-only delivery"
            )
        return self.delta.apply_to(self.previous)

    def __repr__(self) -> str:
        return (
            f"DRAResult({self.delta!r}, ts={self.ts}, "
            f"terms={self.terms_evaluated}, skipped={self.skipped})"
        )
