"""The CQ manager: registration, trigger evaluation, refresh, GC.

The manager owns every registered continual query's lifecycle:

* *registration* performs the initial complete execution E_0 (DRA
  applies "after its initial execution", Section 4.2) and subscribes
  to the operand tables' commit streams;
* *trigger evaluation* follows Section 5.3's two strategies —
  IMMEDIATE (test T_cq after every update transaction) or PERIODIC
  (test on :meth:`poll`, the system-defined default interval) — and is
  differential: epsilon specs and update-condition triggers only ever
  see delta batches, never base relations;
* *refresh* runs DRA (or complete re-evaluation, for baseline CQs)
  over the consolidated deltas since the CQ's last execution and
  assembles the notification the delivery mode asks for;
* *garbage collection* advances active delta zones at each execution
  and can prune update logs automatically (Section 5.4).
"""

from __future__ import annotations

import enum
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from operator import attrgetter
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import RegistrationError
from repro.metrics import Metrics
from repro.obs.stats import CQStats, TeeMetrics
from repro.obs.table import format_table
from repro.obs.trace import Tracer
from repro.relational.relation import Relation
from repro.relational.sql import parse_query
from repro.storage.database import Database
from repro.storage.table import Table
from repro.storage.timestamps import Timestamp
from repro.storage.update_log import UpdateRecord
from repro.delta.capture import deltas_since
from repro.delta.differential import DeltaRelation
from repro.delta.diff import diff
from repro.delta.propagate import evaluate_as_of
from repro.dra.aggregates import DifferentialAggregate
from repro.dra.algorithm import dra_execute
from repro.dra.predindex import PredicateIndex
from repro.dra.prepared import PlanCache, PreparedCQ
from repro.core.continual_query import (
    ContinualQuery,
    CQStatus,
    DeliveryMode,
    Engine,
    Query,
)
from repro.core.epsilon import ResultDriftEpsilon
from repro.core.gc import ActiveDeltaZones
from repro.core.results import Notification, NotificationKind
from repro.core.scheduler import Cohort, DeltaBatchCache, SqlGroup, is_skip_safe
from repro.core.termination import Never, StopCondition
from repro.core.triggers import (
    AllOf,
    AnyOf,
    EpsilonTrigger,
    OnEveryChange,
    Trigger,
    TriggerContext,
)

NotifyCallback = Callable[[Notification], None]

# What receiving an evaluated delta charges (no engine counter, no latency).
_RECEIVED = {Metrics.CQ_REFRESHES: 1, Metrics.SHARED_GROUP_HITS: 1}


class EvaluationStrategy(enum.Enum):
    """When trigger conditions are tested (paper Section 5.3)."""

    IMMEDIATE = "immediate"  # after each update transaction
    PERIODIC = "periodic"  # only on poll()


class CQManager:
    """Registers, refreshes, and garbage-collects continual queries."""

    def __init__(
        self,
        db: Database,
        strategy: EvaluationStrategy = EvaluationStrategy.IMMEDIATE,
        auto_gc: bool = False,
        metrics: Optional[Metrics] = None,
        history_limit: int = 0,
        durability=None,
        tracer: Optional[Tracer] = None,
        slow_refresh_us: Optional[float] = None,
        fanout: bool = False,
        columnar: bool = False,
    ):
        self.db = db
        #: Columnar term evaluation (DESIGN.md §11): every DRA refresh
        #: this manager runs executes through the struct-of-arrays
        #: kernel pipelines in :mod:`repro.dra.kernels` instead of the
        #: per-row interpreter. Results are identical; the per-kernel
        #: cost shows up as ``kernel_calls``/``kernel_rows`` counters.
        self.columnar = columnar
        #: ``durability=`` accepts a WriteAheadLog (or path) and attaches
        #: it to the database, so every commit *and* every CQ
        #: register/deregister below is journaled; recovery goes through
        #: :func:`repro.core.persistence.recover_manager`.
        if durability is not None and db.wal is None:
            if isinstance(durability, str):
                from repro.storage.wal import WriteAheadLog

                durability = WriteAheadLog(durability, metrics=metrics)
            db.attach_wal(durability)
        self.strategy = strategy
        self.auto_gc = auto_gc
        self.metrics = metrics
        #: Observability (DESIGN.md §9): ``tracer`` wraps every refresh
        #: stage in spans (a disabled tracer — the default — costs one
        #: shared no-op span per stage); ``stats`` accumulates per-CQ
        #: cost tables; refreshes slower than ``slow_refresh_us`` leave
        #: one structured event each in ``slow_refreshes``.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.stats = CQStats()
        self.slow_refresh_us = slow_refresh_us
        self.slow_refreshes: Deque[Dict[str, object]] = deque(maxlen=256)
        # Installed per refresh by _charged(): a scoped TeeMetrics that
        # also charges self.metrics; _refresh_metrics() routes the
        # engines' charges through it for per-CQ attribution.
        self._scoped_metrics: Optional[Metrics] = None
        #: Per-CQ retained notification history length (0 = none).
        self.history_limit = history_limit
        #: Registration-time compilation (:mod:`repro.dra.prepared`):
        #: one :class:`PreparedCQ` per ``sql_key``, shared by every CQ
        #: with that SQL text and dropped with the last of them. Every
        #: refresh revalidates against the live catalog (schema identity
        #: + index-set versions) and silently re-prepares when a table
        #: changed underneath the plan.
        self.plans = PlanCache(db, metrics)
        self.zones = ActiveDeltaZones(db)
        self._cqs: Dict[str, ContinualQuery] = {}
        self._registered = 0  # registrations so far: stamps cq.order
        # Active CQs by footprint (the scheduler's unit of work), and
        # per operand table the manager's one commit observer: its
        # unsubscribe handle and the CQs that consume commits as they
        # happen, in registration order.
        self._cohorts: Dict[Tuple[str, ...], Cohort] = {}
        self._unsubscribes: Dict[str, Callable[[], None]] = {}
        self._watchers: Dict[str, Dict[str, ContinualQuery]] = {}
        self._outbox: List[Notification] = []
        # Open for one poll, or one observed commit under IMMEDIATE: all
        # delta consolidation and routing goes through it when present,
        # and nothing keyed by a window outlives it.
        self._window: Optional[DeltaBatchCache] = None
        #: Predicate-index fan-out (DESIGN.md §10): every non-baseline
        #: ``sql_key``'s alias-local predicates live in one shared
        #: :class:`PredicateIndex`, so a poll routes the consolidated
        #: batch to the affected CQ set in one pass instead of probing
        #: every CQ's plan; unrouted CQs are not visited, or return an
        #: empty delta without running an engine (the Section 5.2
        #: relevance theorem makes that exact). CQs sharing a
        #: ``sql_key`` (identical SQL text) additionally share one DRA
        #: evaluation per refresh window, one retained result and one
        #: E_0 at registration (:class:`~repro.core.scheduler.SqlGroup`).
        self.fanout_index: Optional[PredicateIndex] = (
            PredicateIndex(metrics) if fanout else None
        )
        self._sql_groups: Dict[str, SqlGroup] = {}

    # -- registration -----------------------------------------------------

    def register(
        self,
        cq: ContinualQuery,
        on_notify: Optional[NotifyCallback] = None,
    ) -> ContinualQuery:
        """Register a CQ: run E_0 and start watching its tables."""
        drift_specs = self._validate(cq)
        cq.callbacks = [] if on_notify is None else [on_notify]
        now = self.db.now()
        result = self._install(cq, now)
        for spec in drift_specs:
            spec.reset()  # E_0 is the value reported so far
        if self.db.wal is not None:
            self._journal_cq_register(cq)
        self._emit(
            cq,
            Notification(
                cq.name,
                NotificationKind.INITIAL,
                seq=1,
                ts=now,
                mode=cq.mode,
                result=result.copy(),
            ),
        )
        return cq

    def restore(
        self, entries: Iterable[Tuple[ContinualQuery, Timestamp, Dict]]
    ) -> None:
        """Install recovered CQs — ``(cq, ts, state)`` in registration
        order: a fresh :class:`ContinualQuery`, its window's start, and
        what a checkpoint holds beyond those (``status``, ``executions``,
        ``last_result_ts``, ``retained``: :meth:`_install`'s arguments;
        a journal holds none) — notifying and journaling nothing: the
        next refresh delivers each window differentially. A CQ whose
        ``ts`` the logs no longer reach is installed as of now."""
        for cq, ts, state in entries:
            self._validate(cq)
            try:
                self._install(cq, ts, **state)
            except ValueError:  # the logs no longer reach ts
                self._install(cq, self.db.now(), **state)

    def _validate(self, cq: ContinualQuery) -> List[ResultDriftEpsilon]:
        """Reject a CQ this manager cannot run, before anything is
        built for it; returns its trigger's result-drift specs."""
        if cq.name in self._cqs:
            raise RegistrationError(f"a CQ named {cq.name!r} is already registered")
        for name in cq.table_names:
            self.db.table(name)  # raises early on unknown tables
        if cq.engine is Engine.REEVALUATE and not cq.keep_result:
            raise RegistrationError(
                "the re-evaluation engine needs keep_result=True to Diff "
                "consecutive results"
            )
        drift_specs = list(_drift_specs(cq.trigger))
        if drift_specs and not (cq.is_aggregate and not cq.query.group_by):
            raise RegistrationError(
                "ResultDriftEpsilon triggers require a global aggregate CQ"
            )
        return drift_specs

    def register_query(
        self,
        name: str,
        query: Union[str, Query],
        trigger: Optional[Trigger] = None,
        stop: Optional[StopCondition] = None,
        mode: DeliveryMode = DeliveryMode.DIFFERENTIAL,
        engine: Engine = Engine.DRA,
        keep_result: bool = True,
        on_notify: Optional[NotifyCallback] = None,
    ) -> ContinualQuery:
        """Build and register a CQ in one call; SQL text is accepted."""
        if isinstance(query, str):
            query = parse_query(query)
        cq = ContinualQuery(
            name,
            query,
            trigger=trigger,
            stop=stop,
            mode=mode,
            engine=engine,
            keep_result=keep_result,
        )
        return self.register(cq, on_notify=on_notify)

    # Friendly alias used throughout the examples.
    register_sql = register_query

    def deregister(self, name: str) -> None:
        """Stop ``name`` and release it: the CQ leaves the registry and
        its name (and plan-cache slot) become reusable. CQs finalized
        by their own stop condition stay visible as STOPPED instead."""
        cq = self._cqs.get(name)
        if cq is None:
            return
        self._finalize(cq, self.db.now())
        del self._cqs[name]
        self.stats.forget(name)
        if self.db.wal is not None:
            from repro.storage.wal import KIND_CQ_DEREGISTER

            self.db.wal.log_event(KIND_CQ_DEREGISTER, name=name)

    def _journal_cq_register(self, cq: ContinualQuery) -> None:
        """Journal a registration so a crash before the next checkpoint
        does not lose the CQ. Callable-based triggers and stop
        conditions cannot ride along in a journal any more than in a
        checkpoint; they are journaled as None and recovery substitutes
        the defaults (the data, windows, and results all survive)."""
        from repro.core.persistence import (
            UnserializableCQ,
            _stop_to_dict,
            trigger_to_dict,
        )
        from repro.storage.wal import KIND_CQ_REGISTER

        try:
            trigger = trigger_to_dict(cq.trigger)
        except UnserializableCQ:
            trigger = None
        try:
            stop = _stop_to_dict(cq.stop)
        except UnserializableCQ:
            stop = None
        self.db.wal.log_event(
            KIND_CQ_REGISTER,
            name=cq.name,
            sql=cq.sql_key,
            mode=cq.mode.value,
            engine=cq.engine.value,
            keep_result=cq.keep_result,
            trigger=trigger,
            stop=stop,
            ts=self.db.now(),
        )

    # -- lookup ----------------------------------------------------------------

    def get(self, name: str) -> ContinualQuery:
        return self._cqs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._cqs

    def active(self) -> List[ContinualQuery]:
        return [cq for cq in self._cqs.values() if cq.status is CQStatus.ACTIVE]

    def __len__(self) -> int:
        return len(self._cqs)

    # -- install / uninstall ------------------------------------------------------

    def _install(
        self,
        cq: ContinualQuery,
        ts: Timestamp,
        status: CQStatus = CQStatus.ACTIVE,
        executions: int = 1,
        last_result_ts: Optional[Timestamp] = None,
        retained: Optional[Iterable[Tuple]] = None,
    ) -> Optional[Relation]:
        """Build a CQ's retained state *as of* ``ts`` — the one place it
        is built — and enter the CQ into every registry: ``sql_key``
        group (one index entry per group with a delta reader: a
        baseline never reads deltas), cohort, GC zone and commit
        observers. The one step behind :meth:`register` (``ts`` is now:
        E_0) and :meth:`restore` (checkpoint and journal). Returns
        Q(state at ``ts``); nothing is built for a CQ that is not ACTIVE.

        The retained result is Q over the current state with
        ``(ts, now]`` unapplied (:func:`evaluate_as_of`; a ``ts`` GC has
        passed raises ``ValueError`` before anything is entered), so
        the next refresh delivers that window. What runs ahead of
        executions — an aggregate's differential state, an EAGER
        maintained result — is built as of now; for such a CQ a
        checkpoint brings ``retained``, the result's ``(tid, values)``
        rows, when GC has passed its last execution.

        A member is *lazy* — visited only when routed, see
        :class:`~repro.core.scheduler.Cohort` — when this is a PERIODIC
        manager with an index, the engine is DRA, the trigger is exactly
        ``OnEveryChange`` and the stop ``Never``. EAGER CQs read the log
        on every commit, from their own applied-through stamp: they
        keep their own zone.
        """
        name, tables, key = cq.name, cq.table_names, cq.sql_key
        result = None
        if status is CQStatus.ACTIVE:
            # Compile once, up front: derives the predicate plan, local
            # and residual predicates, and the projection, and
            # auto-creates any missing single-column join indexes — so
            # even E_0 below runs against the indexes the differential
            # refreshes will probe.
            self._prepared_for(cq)
            now = cq.applied_ts = self.db.now()
            # A quiet window: Q(state at ts) is Q(state now).
            quiet = ts == now or not self._touched(tables, ts)
            current = None
            if cq.is_aggregate:
                cq.aggregate_state = DifferentialAggregate(cq.query, self.db)
                current = cq.aggregate_state.initialize(self.metrics)
                for spec in _drift_specs(cq.trigger):
                    spec.note_current(_headline_value(current))
            elif quiet or retained is not None or cq.engine is Engine.EAGER:
                donor = self._donor(key)
                current = (
                    donor.previous_result.copy()
                    if donor is not None
                    else evaluate_as_of(cq.query, self.db, now, self.metrics)
                )
            if retained is not None:
                result = Relation.from_pairs(current.schema, retained)
            elif quiet:
                result = current
            else:
                result = evaluate_as_of(cq.query, self.db, ts, self.metrics)
            if cq.engine is Engine.EAGER and not cq.is_aggregate:
                cq.maintained_result = (
                    current.copy() if result is current else current
                )
            keep = cq.keep_result or cq.is_aggregate
            cq.previous_result = result if keep else None
        cq.status = status
        cq.executions = executions
        cq.last_execution_ts = ts
        cq.last_result_ts = ts if last_result_ts is None else last_result_ts
        cq.history = (
            deque(maxlen=self.history_limit) if self.history_limit else None
        )
        self._registered = cq.order = self._registered + 1
        self._cqs[name] = cq
        if status is not CQStatus.ACTIVE:
            return None
        group = self._sql_groups.setdefault(key, SqlGroup())
        group.members[name] = cq
        index = self.fanout_index
        indexed = index is not None and cq.engine is not Engine.REEVALUATE
        if indexed:
            group.readers += 1
            if group.readers == 1:
                if self.metrics:
                    self.metrics.count(Metrics.SHARED_GROUPS)
                scopes = {
                    ref.alias: self.db.table(ref.table).schema
                    for ref in cq.spj_core.relations
                }
                index.add(key, cq.spj_core, scopes)
        cohort = self._cohorts.get(tables)
        if cohort is None:
            cohort = self._cohorts[tables] = Cohort(tables, ts)
            for table in tables:
                if table not in self._watchers:
                    self._watchers[table] = {}
                    self._unsubscribes[table] = self.db.subscribe(
                        table, self._observe
                    )
        if not cohort.lazy:
            cohort.swept = ts  # only lazy members read it
        if (
            indexed
            and cq.engine is Engine.DRA
            and self.strategy is EvaluationStrategy.PERIODIC
            and type(cq.trigger) is OnEveryChange
            and type(cq.stop) is Never
            and ts >= cohort.swept
        ):
            if not cohort.lazy:
                self.zones.register(tables, tables, ts)
            elif self._touched(tables, cohort.swept):
                cohort.late[name] = cq
            cohort.lazy[name] = cq
            if cq.keep_result and not cq.is_aggregate:
                group.retain(cq, ts)  # (if evaluated as of ts: share it)
        else:
            cohort.always[name] = cq
            self.zones.register(name, tables, ts)
        if (
            self.strategy is EvaluationStrategy.IMMEDIATE
            or cq.engine is Engine.EAGER
            or type(cq.trigger).observe is not Trigger.observe
        ):
            for table in tables:
                self._watchers[table][name] = cq
        return result

    def _uninstall(self, cq: ContinualQuery) -> None:
        """Undo :meth:`_install`; the last member of a ``sql_key`` takes
        the plan with it, its last delta reader the index entry, the
        last of a footprint the cohort and its tables' observers."""
        name, tables, key = cq.name, cq.table_names, cq.sql_key
        group = self._sql_groups[key]
        del group.members[name]
        if not group.members:
            del self._sql_groups[key]
            self.plans.invalidate(key)
        if self.fanout_index is not None and cq.engine is not Engine.REEVALUATE:
            group.readers -= 1
            if not group.readers:
                # No future batch is routed to a dead subscriber.
                self.fanout_index.remove(key)
        cohort = self._cohorts[tables]
        for members in (cohort.lazy, cohort.always, cohort.late):
            members.pop(name, None)
        self.zones.remove(name)
        if not cohort.lazy:
            self.zones.remove(tables)
        for table in tables:
            self._watchers[table].pop(name, None)
        if not cohort.lazy and not cohort.always:
            del self._cohorts[tables]
            for table in tables:
                if not any(table in footprint for footprint in self._cohorts):
                    del self._watchers[table]
                    self._unsubscribes.pop(table)()

    def _since(self, cq: ContinualQuery) -> Timestamp:
        """The effective window start: a lazy member skipped by polls
        rides its cohort's sweep (settled when it is next due)."""
        cohort = self._cohorts.get(cq.table_names)
        if cohort is not None and cq.name in cohort.lazy:
            return max(cq.last_execution_ts, cohort.swept)
        return cq.last_execution_ts

    def _donor(self, sql_key: str) -> Optional[ContinualQuery]:
        """A live CQ with this SQL text whose retained result is still
        current (no commit to the footprint after its effective window
        start): registering the same text again copies that result
        instead of re-running E_0 — both are Q(state at now)."""
        group = self._sql_groups.get(sql_key)
        for member in group.members.values() if group is not None else ():
            if (
                member.previous_result is not None
                and not self._touched(member.table_names, self._since(member))
            ):
                return member
        return None

    # -- update observation ------------------------------------------------------

    def _observe(self, table: Table, records: List[UpdateRecord]) -> None:
        """The manager's one commit observer per table: consolidate the
        records once, hand the batch to the CQs that consume commits as
        they happen (data triggers, EAGER engines, IMMEDIATE strategy)."""
        watchers = self._watchers.get(table.name)
        if not watchers:
            return
        batch = DeltaRelation.from_records(table.schema, records)
        # Under IMMEDIATE every watcher reads this commit's window: one
        # for all. A PERIODIC manager's EAGER folds each read privately.
        immediate = self.strategy is EvaluationStrategy.IMMEDIATE
        with self._open_window() if immediate else nullcontext():
            for cq in list(watchers.values()):
                if cq.status is not CQStatus.ACTIVE:
                    continue
                if not batch.is_empty():
                    cq.trigger.observe(table.name, batch)
                if cq.engine is Engine.EAGER:
                    # Eager maintenance: fold the commit in right away,
                    # whatever the evaluation strategy says about triggers.
                    self._fold(cq, self.db.now())
                if immediate:
                    self._maybe_execute(cq, self.db.now())

    # -- polling ----------------------------------------------------------------

    def poll(self, advance_to: Optional[Timestamp] = None) -> List[Notification]:
        """Test every active CQ's trigger and stop condition.

        ``advance_to`` moves virtual time forward first (the paper's
        "system-defined default interval, say every day at midnight").
        Returns all notifications produced since the previous drain.

        One window for the whole poll: sweep every cohort, refresh what
        is due — the CQs a sweep routes or cannot prove unobservable —
        in registration order, a lazy member by *receiving* its group's
        evaluation, anyone else by a full visit; then move the sweeps.
        """
        if advance_to is not None:
            self.db.clock.advance_to(advance_to)
        now = self.db.now()
        span = self.tracer.span("scheduler.poll", now=now, registered=len(self._cqs))
        with span, self._open_window():
            cohorts = list(self._cohorts.values())
            runnable = [cq for cohort in cohorts for cq in self._due(cohort)]
            runnable.sort(key=attrgetter("order"))
            span.set(runnable=len(runnable))
            for cq in runnable:
                if cq.status is not CQStatus.ACTIVE:
                    continue  # (an earlier visit's callback deregistered it)
                lazy = cq.name in self._cohorts[cq.table_names].lazy
                if lazy and not cq.is_aggregate:
                    self._receive(cq)
                else:  # (an aggregate folds and diffs its own state)
                    self._charged(cq, self._maybe_execute)
            for cohort in cohorts:
                cohort.swept = now
                self.zones.try_advance(cohort.tables, now)
                # Visited; only a window that starts after the sweep
                # (registered mid-poll, or visited after a commit an
                # earlier visit's callback made) stays late.
                cohort.late = {
                    name: cq
                    for name, cq in cohort.late.items()
                    if cq.last_execution_ts > now
                }
        return self.drain()

    run_once = poll

    @contextmanager
    def _open_window(self) -> Iterator[None]:
        """One :class:`DeltaBatchCache` for all that is read inside the
        block; inside an open one (a callback's commit, observed) the
        enclosing window serves: its keys carry ``now``."""
        outer = self._window
        if outer is None:
            self._window = DeltaBatchCache(self.db, self.metrics, self.tracer)
        try:
            yield
        finally:
            self._window = outer

    def _due(self, cohort: Cohort) -> List[ContinualQuery]:
        """The members of ``cohort`` this poll must visit."""
        due = [
            cq
            for cq in cohort.always.values()
            if not is_skip_safe(cq)
            or self._touched(cohort.tables, cq.last_execution_ts)
        ]
        swept, index = cohort.swept, self.fanout_index
        if cohort.lazy and self._touched(cohort.tables, swept):
            routed = self._window.routed(index, cohort.tables, swept, self.db.now())[1]
            for key in routed.keys() | index.stale():
                for name, cq in self._sql_groups[key].members.items():
                    if name in cohort.lazy:
                        cohort.late[name] = cq
            for cq in cohort.late.values():
                # Every poll that skipped it proved its window irrelevant
                # (Section 5.2): its window starts where the sweep does.
                if cq.last_execution_ts < swept:
                    cq.last_execution_ts = swept
                    cq.applied_ts = max(cq.applied_ts, swept)
            due.extend(cohort.late.values())
        if not due and self.metrics:
            self.metrics.count(Metrics.GROUPS_SKIPPED)
        return due

    def _receive(self, cq: ContinualQuery) -> None:
        """A lazy member's turn: take the group's delta over its window
        — evaluated here, charged to this member, unless an earlier
        turn left it (a late joiner's window is its own; a callback's
        commit moves ``now`` for everyone after it) — alias the group's
        result, move the window, be notified. Against a full visit
        nothing observable is skipped: the stop is ``Never``, there is
        no zone of its own to advance, and ``OnEveryChange`` fires iff
        the window is touched and ignores ``notify_fired``."""
        now, since = self.db.now(), cq.last_execution_ts
        group = self._sql_groups[cq.sql_key]
        delta = None
        if self._touched(cq.table_names, since):
            delta, charges = group.delta_over(since, now), _RECEIVED
            if delta is None:
                delta = self._charged(cq, self._execute_dra)
                charges = {Metrics.CQ_REFRESHES: 1}
        if cq.keep_result:
            group.retain(cq, now, delta)
        if delta is None:
            return  # a late member whose own window is quiet
        cq.last_execution_ts = now
        if self.auto_gc:
            self.zones.collect()
        self.stats.record(cq.name, charges)
        if self.metrics:
            for name in charges:
                self.metrics.count(name)
        if not delta.is_empty():
            cq.executions += 1
            cq.last_result_ts = now
            self._emit(cq, self._notification(cq, delta, now))

    def _charged(self, cq: ContinualQuery, step: Callable):
        """Run ``step(cq, now)`` as one refresh of ``cq``: stamped with
        the time its window really ends (the log's tail, which an
        earlier visit's callback may have moved past the poll's start),
        in a ``cq.refresh`` span, with one latency sample, its counter
        charges scoped per CQ (the tee still charges the shared bag)."""
        now = self.db.now()
        scoped = TeeMetrics(self.metrics if self.metrics else None)
        self._scoped_metrics = scoped
        start = time.perf_counter()
        span = self.tracer.span(
            "cq.refresh", cq=cq.name, tables=",".join(cq.table_names)
        )
        with span:
            try:
                return step(cq, now)
            finally:
                self._scoped_metrics = None
                latency_us = (time.perf_counter() - start) * 1e6
                counters = {
                    name: value
                    for name, value in scoped.snapshot().items()
                    if value
                }
                self.stats.record(cq.name, counters, latency_us)
                span.set(latency_us=round(latency_us, 3), **counters)
                if self.metrics:
                    self.metrics.observe(Metrics.REFRESH_LATENCY_US, latency_us)
                self._note_slow_refresh(cq.name, latency_us, counters)

    def drain(self) -> List[Notification]:
        """Remove and return all queued notifications."""
        out = self._outbox
        self._outbox = []
        return out

    def subscribe_notifications(
        self, cq_name: str, callback: NotifyCallback
    ) -> Callable[[], None]:
        """Attach an additional notification listener to one CQ."""
        if cq_name not in self._cqs:
            raise RegistrationError(f"no CQ named {cq_name!r}")
        listeners = self._cqs[cq_name].callbacks
        listeners.append(callback)

        def unsubscribe() -> None:
            try:
                listeners.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def history(self, cq_name: str) -> List[Notification]:
        """The retained result sequence Q(S_1)..Q(S_n) for one CQ.

        Empty unless the manager was created with ``history_limit > 0``
        (the Section 3.3 trade-off: retaining the sequence costs
        memory proportional to limit x result size).
        """
        cq = self._cqs.get(cq_name)
        return list(cq.history or ()) if cq is not None else []

    # -- execution ----------------------------------------------------------------

    def _refresh_metrics(self) -> Optional[Metrics]:
        """The metrics bag engines charge during a refresh: the scoped
        per-CQ tee when :meth:`_charged` installed one, otherwise the
        shared bag."""
        scoped = self._scoped_metrics
        return scoped if scoped is not None else self.metrics

    def _note_slow_refresh(
        self, cq_name: str, latency_us: float, counters: Dict[str, int]
    ) -> None:
        """Record one structured event when a refresh crosses the
        slow-refresh threshold (no-op when no threshold is set)."""
        threshold = self.slow_refresh_us
        if threshold is None or latency_us < threshold:
            return
        event: Dict[str, object] = {
            "event": "slow_refresh",
            "cq": cq_name,
            "latency_us": round(latency_us, 3),
            "threshold_us": threshold,
            "ts": self.db.now(),
        }
        event.update(counters)
        self.slow_refreshes.append(event)
        if self.tracer.sink is not None:
            self.tracer.sink.write(event)

    def _maybe_execute(self, cq: ContinualQuery, now: Timestamp) -> None:
        if cq.status is not CQStatus.ACTIVE:
            return
        if cq.is_aggregate:
            # Differential T_cq evaluation for drift-based epsilons:
            # fold pending deltas into the maintained aggregate first.
            self._fold(cq, now)
        with self.tracer.span(
            "cq.trigger", cq=cq.name, tables=",".join(cq.table_names)
        ) as span:
            ctx = self._context(cq, now)
            stopped = cq.stop.should_stop(ctx)
            fired = (not stopped) and cq.trigger.should_fire(ctx)
            span.set(stopped=stopped, fired=fired)
        if stopped:
            self._finalize(cq, now)
            return
        if not fired:
            return
        self._execute(cq, now)
        ctx = self._context(cq, now)
        if cq.stop.should_stop(ctx):
            self._finalize(cq, now)

    def _context(self, cq: ContinualQuery, now: Timestamp) -> TriggerContext:
        return TriggerContext(
            now,
            cq.last_execution_ts,
            cq.executions,
            self._touched(cq.table_names, cq.last_execution_ts),
            last_result_ts=cq.last_result_ts,
        )

    def _touched(self, table_names: Tuple[str, ...], since: Timestamp) -> bool:
        """True when any of the tables committed after ``since`` —
        whether or not GC has pruned the commit since: an EAGER or
        aggregate CQ's zone runs ahead of its last execution."""
        return any(
            self.db.table(name).log.newest_ts > since for name in table_names
        )

    def _window_deltas(
        self, cq: ContinualQuery, since: Timestamp
    ) -> Tuple[Dict[str, DeltaRelation], Optional[Dict[str, Tuple]]]:
        """What one refresh of ``cq`` consumes over ``(since, now]``:
        nothing when the predicate index proves every pending entry
        irrelevant (Section 5.2); otherwise the consolidated window and
        the entry sides the index selected per alias — DRA's operand
        seeds, None when routing cannot vouch for the deltas (an
        unindexed or quarantined CQ refreshes normally: always sound).
        Read through the open window, shared with the cohort's sweep
        and every CQ reading it, over the CQ's own tables only: inside
        the log suffix its zone protects."""
        index, key, tables = self.fanout_index, cq.sql_key, cq.table_names
        window, now, routed = self._window, self.db.now(), None
        routable = index is not None and key in index
        if window is None:
            # An EAGER fold under PERIODIC: one reader, nothing to share.
            deltas = deltas_since([self.db.table(name) for name in tables], since)
            if routable:
                routed = index.match_batch(deltas)
        elif routable:
            deltas, routed = window.routed(index, tables, since, now)
        else:
            deltas = window.deltas(tables, since, now)
        if routed is None or key in index.stale():
            return deltas, None
        seeds = routed.get(key)
        return (deltas, seeds) if seeds is not None else ({}, None)

    def _prepared_for(self, cq: ContinualQuery) -> Optional[PreparedCQ]:
        """The CQ's cached prepared plan (None when the engine never
        runs DRA). Aggregates are planned on their SPJ core — the part
        DRA differentiates."""
        if cq.engine is Engine.REEVALUATE and not cq.is_aggregate:
            return None
        return self.plans.get(cq.sql_key, cq.spj_core)

    def _fold(self, cq: ContinualQuery, now: Timestamp) -> None:
        """Fold the commits since ``cq.applied_ts`` into the state kept
        current ahead of executions: an aggregate's differential state,
        an EAGER CQ's maintained result."""
        deltas, seeds = self._window_deltas(cq, cq.applied_ts)
        if deltas and cq.is_aggregate:
            cq.aggregate_state.update(
                deltas,
                now,
                self._refresh_metrics(),
                prepared=self._prepared_for(cq),
                columnar=self.columnar,
            )
        elif deltas:
            result = dra_execute(
                cq.query,
                self.db,
                deltas=deltas,
                ts=now,
                metrics=self._refresh_metrics(),
                prepared=self._prepared_for(cq),
                tracer=self.tracer,
                columnar=self.columnar,
                seeds=seeds,
            )
            cq.maintained_result = result.delta.apply_to(cq.maintained_result)
        # Advance even when the window was empty (or consolidated to
        # nothing): the next differential read starts at `now` either
        # way, and a zone left behind `now` lets _execute's own advance
        # plus auto-GC prune past what we'd later ask to read.
        cq.applied_ts = now
        self.zones.try_advance(cq.name, now)
        for spec in _drift_specs(cq.trigger):  # global aggregates only
            spec.note_current(_headline_value(cq.aggregate_state.result))

    def _execute(self, cq: ContinualQuery, now: Timestamp) -> None:
        if cq.engine is Engine.REEVALUATE:
            delta = self._execute_reevaluate(cq, now)
        elif cq.is_aggregate:
            delta = self._execute_aggregate(cq, now)
        elif cq.engine is Engine.EAGER:
            delta = self._execute_eager(cq, now)
        else:
            delta = self._execute_dra(cq, now)

        cq.last_execution_ts = now
        self.zones.try_advance(cq.name, now)
        ctx = self._context(cq, now)
        cq.trigger.notify_fired(ctx)
        if self.auto_gc:
            self.zones.collect()
        metrics = self._refresh_metrics()
        if metrics:
            metrics.count(Metrics.CQ_REFRESHES)
        if delta.is_empty():
            # Nothing changed: no element is appended to the result
            # sequence and nothing is sent (Section 5.2).
            return
        cq.executions += 1
        cq.last_result_ts = now
        self._emit(cq, self._notification(cq, delta, now))

    def _execute_dra(self, cq: ContinualQuery, now: Timestamp) -> DeltaRelation:
        """The group step: the result delta over ``cq``'s window. CQs
        with one SQL text and one window hold content-identical results
        (both Q(state at its start)), so of an indexed group's readers
        whoever asks first evaluates and leaves the delta on its record;
        keepers share the new result — replaced, never mutated."""
        since, group = cq.last_execution_ts, self._sql_groups[cq.sql_key]
        deltas, seeds = self._window_deltas(cq, since)
        if not deltas:
            # Nothing committed, or nothing the index routes here: the
            # result cannot have changed, so no engine runs.
            return DeltaRelation(self._prepared_for(cq).out_schema)
        sharing = group.readers > 1  # (someone to hand the evaluation to)
        delta = group.delta_over(since, now) if sharing else None
        if delta is not None and self.metrics:
            self.metrics.count(Metrics.SHARED_GROUP_HITS)
        if delta is None:
            with self.tracer.span("dra.apply", cq=cq.name) as span:
                result = dra_execute(
                    cq.query,
                    self.db,
                    deltas=deltas,
                    ts=now,
                    metrics=self._refresh_metrics(),
                    prepared=self._prepared_for(cq),
                    tracer=self.tracer,
                    columnar=self.columnar,
                    seeds=seeds,
                )
                span.set(
                    changed=",".join(sorted(result.changed_aliases)),
                    terms=result.terms_evaluated,
                    delta_rows=len(result.delta),
                )
            delta = result.delta
            if not group.last or group.last[1] != now:
                group.result = None  # (a late joiner's, to the same now, keeps it)
            group.last = (since, now, delta if sharing else None)
        if cq.keep_result:
            group.retain(cq, now, delta)
        return delta

    def _execute_aggregate(self, cq: ContinualQuery, now: Timestamp) -> DeltaRelation:
        self._fold(cq, now)
        current = cq.aggregate_state.current()
        delta = diff(cq.previous_result, current, now)
        cq.previous_result = current
        for spec in _drift_specs(cq.trigger):
            spec.reset()
        return delta

    def _execute_eager(self, cq: ContinualQuery, now: Timestamp) -> DeltaRelation:
        self._fold(cq, now)
        delta = diff(cq.previous_result, cq.maintained_result, now)
        cq.previous_result = cq.maintained_result.copy()
        return delta

    def _execute_reevaluate(self, cq: ContinualQuery, now: Timestamp) -> DeltaRelation:
        new_result = self.db.query(cq.query, self._refresh_metrics())
        delta = diff(cq.previous_result, new_result, now)
        cq.previous_result = new_result
        return delta

    def _notification(
        self, cq: ContinualQuery, delta: DeltaRelation, now: Timestamp
    ) -> Notification:
        kwargs = {}
        if cq.mode is DeliveryMode.DIFFERENTIAL:
            kwargs["delta"] = delta
        elif cq.mode is DeliveryMode.INSERTIONS_ONLY:
            kwargs["result"] = delta.insertions()
        elif cq.mode is DeliveryMode.DELETIONS_ONLY:
            kwargs["result"] = delta.deletions()
        else:  # COMPLETE
            kwargs["delta"] = delta
            kwargs["result"] = cq.previous_result.copy()
        return Notification(
            cq.name,
            NotificationKind.REFRESH,
            seq=cq.executions,
            ts=now,
            mode=cq.mode,
            **kwargs,
        )

    def _finalize(self, cq: ContinualQuery, now: Timestamp) -> None:
        if cq.status is CQStatus.STOPPED:
            return
        cq.status = CQStatus.STOPPED
        self._uninstall(cq)
        self._emit(
            cq,
            Notification(
                cq.name,
                NotificationKind.STOPPED,
                seq=cq.executions,
                ts=now,
                mode=cq.mode,
            ),
        )

    def _emit(self, cq: ContinualQuery, notification: Notification) -> None:
        with self.tracer.span(
            "cq.notify",
            cq=notification.cq_name,
            kind=notification.kind.value,
            seq=notification.seq,
        ) as span:
            if cq.history is not None:
                cq.history.append(notification)
            self._outbox.append(notification)
            for callback in cq.callbacks:
                callback(notification)
            span.set(callbacks=len(cq.callbacks))

    # -- garbage collection ------------------------------------------------------

    def collect_garbage(self, include_unwatched: bool = False) -> Dict[str, int]:
        """Prune update logs outside the system active delta zone."""
        return self.zones.collect(include_unwatched=include_unwatched)

    # -- introspection ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the registries agree with
        each other and every retained result with the database — the
        laws every operation must leave standing (``tests/core`` checks
        them after each one)."""

        def law(holds: bool, message: str) -> None:
            if not holds:
                raise AssertionError(message)

        index, cohorts, groups = self.fanout_index, self._cohorts, self._sql_groups
        law(self._window is None, "a window is open outside poll and _observe")
        active = {cq.name: cq for cq in self.active()}
        grouped = {n: cq for g in groups.values() for n, cq in g.members.items()}
        law(grouped == active, "sql_key groups' members != the active CQs")
        placed = [n for c in cohorts.values() for n in (*c.lazy, *c.always)]
        law(
            sorted(placed) == sorted(active),
            "cohorts' lazy + always != the active CQs, each once",
        )
        law(
            all(
                c.late.keys() <= c.lazy.keys() and (c.lazy or c.always)
                for c in cohorts.values()
            ),
            "a late member that is not lazy, or a memberless cohort",
        )
        planned, watching, zones, as_of = set(), set(), set(), {}
        for name, cq in active.items():
            tables, key, since = cq.table_names, cq.sql_key, self._since(cq)
            cohort = cohorts.get(tables)
            group = groups.get(key)
            law(
                group is not None
                and name in group.members
                and cohort is not None
                and (name in cohort.lazy or name in cohort.always),
                f"{name}: not in its sql_key's group and its footprint's cohort",
            )
            if cq.engine is not Engine.REEVALUATE or cq.is_aggregate:
                planned.add(key)
            if (
                self.strategy is EvaluationStrategy.IMMEDIATE
                or cq.engine is Engine.EAGER
                or type(cq.trigger).observe is not Trigger.observe
            ):
                watching.update((table, name) for table in tables)
            # The zone protecting the window: the cohort's for a lazy
            # member, its own otherwise — which only what is folded in
            # ahead of executions may move past the window's start.
            zone, limit = tables, cohort.swept
            if name in cohort.always:
                zone, limit = name, since
                if cq.is_aggregate or cq.engine is Engine.EAGER:
                    limit = max(since, cq.applied_ts)
            zones.add(zone)
            at = self.zones.boundary(zone)
            law(
                at is not None and at <= limit,
                f"{name}: zone at {at}, ahead of the window from {limit}",
            )
            if (
                cq.previous_result is not None
                and not cq.is_aggregate
                and all(self.db.table(t).log.pruned_through <= since for t in tables)
            ):
                if (key, since) not in as_of:  # one evaluation per window
                    as_of[key, since] = evaluate_as_of(cq.query, self.db, since)
                law(
                    cq.previous_result == as_of[key, since],
                    f"{name}: retained result is not Q(state at {since})",
                )
        for key, group in groups.items():
            members = list(group.members.values())
            reading = [cq for cq in members if cq.engine is not Engine.REEVALUATE]
            readers = len(reading) if index is not None else 0
            law(
                group.readers == readers
                and (index is not None and key in index) == bool(readers),
                f"{key}: readers or the index entry != its {readers} delta readers",
            )
            if group.last is None:
                continue
            law(group.last[1] <= self.db.now(), f"{key}: evaluated ahead of now")
            # One retained object: the lazy keepers standing where the
            # last evaluation ended all hold it — or none does: an
            # always-visit member's evaluation, nothing pending for them.
            cohort = cohorts[members[0].table_names]
            holding = {
                cq.previous_result is group.result
                for cq in reading
                if cq.name in cohort.lazy.keys() - cohort.late.keys()
                and cq.keep_result
                and not cq.is_aggregate
                and cq.last_execution_ts == group.last[1]
            }
            law(
                group.result is None or len(holding) < 2,
                f"{key}: a lazy member holds a result of its own beside the group's",
            )
        law(
            (len(index) if index is not None else 0)
            == sum(group.readers > 0 for group in groups.values()),
            "the index's entries != the groups with a delta reader",
        )
        law(
            all(key in self.plans for key in planned)
            and sum(key in self.plans for key in groups) == len(self.plans),
            "plans != the live sql_keys",
        )
        law(
            self._watchers.keys()
            == self._unsubscribes.keys()
            == {table for tables in cohorts for table in tables},
            "observed tables != the cohorts' tables",
        )
        law(
            {(t, n) for t, cqs in self._watchers.items() for n in cqs} == watching,
            "watchers != the CQs that consume commits as they happen",
        )
        law(
            self.zones.boundaries().keys() == zones,
            "zones != always members + cohorts with lazy members",
        )
        law(len(self.stats) <= len(self), "stats outlived their CQs")

    def describe(self) -> List[Dict[str, object]]:
        """One status record per registered CQ (for ops tooling)."""
        out = []
        for cq in self._cqs.values():
            live = cq.status is CQStatus.ACTIVE
            indexed = (
                live
                and cq.engine is not Engine.REEVALUATE
                and self.fanout_index is not None
            )
            since = self._since(cq)
            pending = live and self._touched(cq.table_names, since)
            cost = self.stats.counters(cq.name)
            latency = self.stats.latency(cq.name)
            out.append(
                {
                    "name": cq.name,
                    "status": cq.status.value,
                    "engine": cq.engine.value,
                    "mode": cq.mode.value,
                    "tables": ",".join(cq.table_names),
                    "results": cq.executions,
                    "last_ts": since,
                    "result_rows": (
                        len(cq.previous_result)
                        if cq.previous_result is not None
                        else None
                    ),
                    "pending_updates": pending,
                    "plan_cached": live and cq.sql_key in self.plans,
                    "trigger": repr(cq.trigger),
                    # Cumulative per-CQ cost attribution (DESIGN.md §9);
                    # populated by scheduler-driven refreshes.
                    "rows_scanned": cost.get(Metrics.ROWS_SCANNED, 0),
                    "delta_rows_read": cost.get(Metrics.DELTA_ROWS_READ, 0),
                    "refreshes": cost.get(Metrics.CQ_REFRESHES, 0),
                    # Columnar kernel attribution (DESIGN.md §11):
                    # non-zero only for refreshes run with columnar=True.
                    "kernel_calls": cost.get(Metrics.KERNEL_CALLS, 0),
                    "rows_per_kernel_call": (
                        round(
                            cost.get(Metrics.KERNEL_ROWS, 0)
                            / cost[Metrics.KERNEL_CALLS],
                            3,
                        )
                        if cost.get(Metrics.KERNEL_CALLS)
                        else 0
                    ),
                    "refresh_p95_us": (
                        latency.percentile(95) if latency.count else None
                    ),
                    # Fan-out routing membership (DESIGN.md §10); the
                    # global routing counters live in the metrics bag.
                    "fanout_indexed": indexed,
                    "sql_group_size": (
                        (self._sql_groups[cq.sql_key].readers if indexed else 0)
                        if self.fanout_index is not None
                        else None
                    ),
                }
            )
        return out

    def status_report(self) -> str:
        """The :meth:`describe` records as an aligned text table."""
        report = format_table(
            self.describe(),
            columns=[
                "name",
                "status",
                "engine",
                "mode",
                "tables",
                "results",
                "last_ts",
                "result_rows",
                "pending_updates",
                "plan_cached",
            ],
            title=f"CQManager: {len(self._cqs)} queries, now={self.db.now()}",
        )
        if self.metrics:
            m = self.metrics
            report += (
                f"\nplans: prepared={m.get(Metrics.PLANS_PREPARED)} "
                f"cache_hits={m.get(Metrics.PLAN_CACHE_HITS)} "
                f"invalidations={m.get(Metrics.PLAN_CACHE_INVALIDATIONS)} "
                f"base_scans={m.get(Metrics.BASE_SCANS)}"
            )
            calls = m.get(Metrics.KERNEL_CALLS)
            if calls:
                report += (
                    f"\nkernels: calls={calls} "
                    f"rows={m.get(Metrics.KERNEL_ROWS)} "
                    f"rows_per_call="
                    f"{m.get(Metrics.KERNEL_ROWS) / calls:.1f}"
                )
        if self.fanout_index is not None:
            info = self.fanout_index.describe()
            report += (
                f"\nfanout: indexed={info['subscriptions']} "
                f"eq={info['eq_entries']} interval={info['interval_entries']} "
                f"scan={info['scan_entries']} stale={info['stale']} "
                f"groups={len(self.fanout_index)}"
            )
            if self.metrics:
                m = self.metrics
                report += (
                    f" probes={m.get(Metrics.PREDINDEX_PROBES)} "
                    f"matches={m.get(Metrics.PREDINDEX_MATCHES)} "
                    f"group_hits={m.get(Metrics.SHARED_GROUP_HITS)}"
                )
        return report

    def __repr__(self) -> str:
        return (
            f"CQManager({len(self._cqs)} CQs, strategy={self.strategy.value}, "
            f"pending={len(self._outbox)})"
        )


def _drift_specs(trigger: Trigger) -> Iterator[ResultDriftEpsilon]:
    if isinstance(trigger, EpsilonTrigger):
        if isinstance(trigger.spec, ResultDriftEpsilon):
            yield trigger.spec
    elif isinstance(trigger, (AnyOf, AllOf)):
        for child in trigger.children:
            yield from _drift_specs(child)


def _headline_value(result) -> Optional[float]:
    """The first aggregate value of a global aggregate's single row."""
    for row in result:
        return row.values[0] if row.values else None
    return None
