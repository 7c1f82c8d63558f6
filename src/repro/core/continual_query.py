"""The continual-query triple (Q, T_cq, Stop) and its runtime state.

Paper Section 3.1: "A continual query CQ is a triple (Q, T_cq, Stop)
... the result of running a continual query is a sequence of query
answers Q(S_1), Q(S_2), ..., obtained by running Q on the sequence of
database states S_i, each time triggered by T_cq."
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Callable, Deque, List, Optional, Tuple, Union

from repro.errors import RegistrationError
from repro.relational.aggregates import AggregateQuery
from repro.relational.algebra import SPJQuery
from repro.relational.relation import Relation
from repro.storage.timestamps import Timestamp
from repro.core.termination import Never, StopCondition
from repro.core.triggers import OnEveryChange, Trigger

Query = Union[SPJQuery, AggregateQuery]


class DeliveryMode(enum.Enum):
    """What each refresh sends the user (Algorithm 1 step 4).

    * DIFFERENTIAL — the full result delta (inserts, deletes, modifies);
    * INSERTIONS_ONLY — "the differential result ... without deletion
      notification";
    * COMPLETE — "the complete set of the result matching the query",
      assembled as E_i(Q) ∪ insertions − deletions;
    * DELETIONS_ONLY — "notified [of] all the deleted tuples since the
      last execution".
    """

    DIFFERENTIAL = "differential"
    INSERTIONS_ONLY = "insertions_only"
    COMPLETE = "complete"
    DELETIONS_ONLY = "deletions_only"


class Engine(enum.Enum):
    """How refreshes are computed.

    * DRA — differential re-evaluation at trigger time, over the
      consolidated delta since the last execution (the paper's
      algorithm; repeated changes to one tuple net out before any
      computation happens);
    * EAGER — DRA applied immediately after *every* commit (the
      eager materialized-view policy of Section 2); notifications are
      still gated by the trigger, but maintenance work is paid per
      commit with no cross-transaction consolidation;
    * REEVALUATE — complete re-evaluation + Diff at trigger time (the
      baseline the paper compares against).
    """

    DRA = "dra"
    EAGER = "eager"
    REEVALUATE = "reevaluate"


class CQStatus(enum.Enum):
    ACTIVE = "active"
    STOPPED = "stopped"


class ContinualQuery:
    """Definition plus runtime state of one registered CQ."""

    def __init__(
        self,
        name: str,
        query: Query,
        trigger: Optional[Trigger] = None,
        stop: Optional[StopCondition] = None,
        mode: DeliveryMode = DeliveryMode.DIFFERENTIAL,
        engine: Engine = Engine.DRA,
        keep_result: bool = True,
    ):
        if not name:
            raise RegistrationError("a continual query needs a name")
        if mode is DeliveryMode.COMPLETE and not keep_result:
            # Section 3.3: complete delivery without a retained copy
            # would force re-processing from scratch on every refresh.
            raise RegistrationError(
                "COMPLETE delivery requires keep_result=True"
            )
        if engine is Engine.EAGER and not keep_result:
            raise RegistrationError(
                "the EAGER engine maintains the result continuously and "
                "therefore requires keep_result=True"
            )
        self.name = name
        self.query = query
        # Derived once: `query` is never reassigned.
        self.is_aggregate = isinstance(query, AggregateQuery)
        self.spj_core: SPJQuery = query.core if self.is_aggregate else query
        #: Operand tables in first-use order, duplicates dropped.
        self.table_names: Tuple[str, ...] = tuple(
            dict.fromkeys(self.spj_core.table_names)
        )
        self.trigger = trigger if trigger is not None else OnEveryChange()
        self.stop = stop if stop is not None else Never()
        self.mode = mode
        self.engine = engine
        #: Retain the previous complete result (Section 3.3 trade-off).
        self.keep_result = keep_result

        # -- runtime state, owned by the manager; _install() builds it --
        self.status = CQStatus.ACTIVE
        self.order = 0  # registration sequence: refresh order within a poll
        self.last_execution_ts: Timestamp = 0
        self.executions = 0
        #: The retained result, Q(state at the window start): perhaps
        #: its view's, which moves in place (user code reads
        #: :attr:`previous_result`).
        self.held: Optional[Relation] = None
        self.aggregate_state = None  # DifferentialAggregate for agg CQs
        #: EAGER engine only: the result maintained on every commit
        #: (``held`` stays at the last *notification*).
        self.maintained_result: Optional[Relation] = None
        #: Through when commits are folded in ahead of the next
        #: execution: an aggregate's state, an EAGER maintained result.
        self.applied_ts: Timestamp = 0
        #: When the CQ last produced a result (vs merely executed).
        self.last_result_ts: Optional[Timestamp] = None
        self.callbacks: List[Callable] = []  # notification listeners
        #: The result sequence Q(S_1)..Q(S_n), bounded by the manager's
        #: ``history_limit`` (None: not retained).
        self.history: Optional[Deque] = None

    @property
    def previous_result(self) -> Optional[Relation]:
        """The retained result, handed out: later refreshes do not
        change it (the next step copies it instead of moving it). Read
        from a callback in mid-poll, a member whose turn has not come
        yet may already show its view's result moved by that turn's
        window."""
        held = self.held
        if held is not None:
            held.handed_out = True
        return held

    @previous_result.setter
    def previous_result(self, result: Optional[Relation]) -> None:
        self.held = result

    @cached_property
    def sql_key(self) -> str:
        """Canonical SQL text: CQs sharing it share one plan, one
        predicate-index entry and (at registration) one E_0."""
        return self.query.to_sql()

    def __repr__(self) -> str:
        return (
            f"ContinualQuery({self.name!r}, {self.status.value}, "
            f"executions={self.executions}, engine={self.engine.value})"
        )
