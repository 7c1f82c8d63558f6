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
import weakref
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

from repro.errors import RegistrationError, reject_deleted_arms
from repro.metrics import Metrics
from repro.obs.stats import CQStats, TeeMetrics, cost_columns, kernel_summary
from repro.obs.table import format_table
from repro.obs.trace import NULL_SPAN, Tracer
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
from repro.dra.algorithm import dra_execute, dra_initial
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
from repro.core.scheduler import (
    Cohort,
    DeltaBatchCache,
    Family,
    SharedView,
    check_families,
    is_skip_safe,
    join_family,
    leave_family,
    sweep,
)
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

# Read on every turn: an Enum member read through its class pays a
# metaclass lookup.
_ACTIVE, _REFRESH = CQStatus.ACTIVE, NotificationKind.REFRESH
_DIFFERENTIAL = DeliveryMode.DIFFERENTIAL


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
        fanout: bool = True,
        columnar: bool = True,
    ):
        reject_deleted_arms("CQManager", fanout=fanout, columnar=columnar)
        self.db = db
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
        # also charges self.metrics. The engines charge it while it is
        # set (`self._scoped_metrics or self.metrics`: a Metrics is
        # always truthy), for per-CQ attribution.
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
        #: ``sql_key``'s alias-local predicates, so a routing cohort's
        #: poll routes its batch to the affected CQs in one pass; the
        #: rest are not visited (Section 5.2 makes that exact). Members
        #: of a ``sql_key`` share one evaluation per window, one result
        #: and one E_0 (:class:`~repro.core.scheduler.SharedView`).
        self.index = PredicateIndex(metrics)
        self._views: Dict[str, SharedView] = {}
        #: Indexed SPJ views by shape: one execution per routed window
        #: for a family (:class:`~repro.core.scheduler.Family`).
        self._families: Dict[Tuple[str, str], Family] = {}

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
        view (one index entry per view with a delta reader: a
        baseline never reads deltas), cohort, GC zone and commit
        observers. The one step behind :meth:`register` (``ts`` is now:
        E_0) and :meth:`restore` (checkpoint and journal). Returns
        Q(state at ``ts``); nothing is built for a CQ that is not ACTIVE.

        The retained result is Q over the current state with
        ``(ts, now]`` unapplied, one DRA term on the kernels
        (:meth:`_initial`; a ``ts`` GC has passed raises ``ValueError``
        before anything is entered), so the next refresh delivers that
        window; :meth:`check_invariants` holds it against the row
        evaluator's :func:`evaluate_as_of`. What runs ahead of
        executions — an aggregate's differential state, an EAGER
        maintained result — is built as of now; for such a CQ a
        checkpoint brings ``retained``, the result's ``(tid, values)``
        rows, when GC has passed its last execution.

        A member is *lazy* — visited only when routed, see
        :class:`~repro.core.scheduler.Cohort` — when this is a PERIODIC
        manager, the engine DRA, the trigger exactly ``OnEveryChange``
        and the stop ``Never``; its view joins the cohort's ``views``.
        EAGER CQs read the log on every commit, from their own
        applied-through stamp: they keep their own zone.
        """
        name, tables, key = cq.name, cq.table_names, cq.sql_key
        view, cohort = self._views.get(key), self._cohorts.get(tables)
        lazy = (
            _rides(cq)
            and self.strategy is EvaluationStrategy.PERIODIC
            and (cohort is None or not cohort.lazy or ts >= cohort.swept)
        )
        result = None
        if status is CQStatus.ACTIVE:
            now = cq.applied_ts = self.db.now()
            # A quiet window: Q(state at ts) is Q(state now).
            quiet = ts == now or not self._touched(tables, ts)
            # Q(state now), where this needs it: held already, or E_0.
            wanted = quiet or retained is not None or cq.engine is Engine.EAGER
            current = prepared = None
            if wanted and not cq.is_aggregate:
                current = self._current(view)
            # Joining a view that holds Q(state now) is a membership: its
            # first member prepared the plan, which every use revalidates.
            if not quiet or current is None or current is not view.result:
                if cq.is_aggregate:
                    cq.aggregate_state = DifferentialAggregate(cq.query, self.db)
                # Compile once, up front: derives the predicate plan,
                # local and residual predicates, and the projection, and
                # auto-creates any missing single-column join indexes —
                # so even E_0 below runs on the kernels, against the
                # indexes the differential refreshes will probe.
                prepared = self._prepared_for(cq)
            if cq.is_aggregate:
                current = cq.aggregate_state.initialize(self.metrics, prepared)
                for spec in _drift_specs(cq.trigger):
                    spec.note_current(_headline_value(current))
            elif wanted and current is None:
                current = self._initial(cq, now, prepared)
            if retained is not None:
                result = Relation.from_pairs(current.schema, retained)
            elif quiet:
                result = current
            else:
                result = self._initial(cq, ts, prepared)
            if cq.engine is Engine.EAGER and not cq.is_aggregate:
                cq.maintained_result = (
                    current.copy() if result is current else current
                )
            keep = cq.keep_result or cq.is_aggregate
            # (only a rider at its window holds the view's result)
            view = self._views.get(key)  # (_initial may have replaced it)
            if keep and view is not None and result is view.result:
                if not (_rides(cq) and ts >= view.since):
                    result = result.copy()
            cq.held = result if keep else None
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
        view = self._views.get(key)
        if view is None:  # (no E_0 yet: its first members evaluate alone)
            view = self._views[key] = SharedView(cq.spj_core, key, self.plans, ts)
        view.members[name] = cq
        if cq.engine is not Engine.REEVALUATE:
            view.readers += 1
            if view.readers == 1:
                if self.metrics:
                    self.metrics.count(Metrics.SHARED_GROUPS)
                scopes = {
                    ref.alias: self.db.table(ref.table).schema
                    for ref in cq.spj_core.relations
                }
                self.index.add(key, cq.spj_core, scopes)
                if not cq.is_aggregate:  # (an aggregate folds its own reads)
                    join_family(self._families, view, scopes)
        if cohort is None:
            cohort = self._cohorts[tables] = Cohort(tables, ts)
            for table in tables:
                if table not in self._watchers:
                    self._watchers[table] = {}
                    self._unsubscribes[table] = self.db.subscribe(
                        table, self._observe
                    )
        cohort.routing = True  # a new membership: observe routing afresh
        if not cohort.lazy:
            cohort.swept = ts  # only lazy members read it
        if lazy:
            if not cohort.lazy:
                self.zones.register(tables, tables, ts)
            elif self._touched(tables, cohort.swept):
                cohort.late[name] = cq
            cohort.lazy[name] = cq
            if not cq.is_aggregate and key not in cohort.views:
                # (it joins the sweep holding Q(state now), at swept or ahead)
                if current is not None and (
                    current is not view.result or view.since < cohort.swept
                ):
                    view.step(None, view.since, now, current)
                cohort.views[key] = view
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
        view = self._views[key]
        if cq.held is view.result is not None and len(view.members) > 1:
            # It leaves with its result as of its window, which later
            # steps of the view must not move while it lives.
            if self._since(cq) < view.since:
                self._part(view)  # (if it is behind the view's last step)
            held = cq.held
            if held is view.result:
                out = held.handed_out
                lent = out and (out is True or out() is not None)
                held.handed_out = True if lent else weakref.ref(cq)
        del view.members[name]
        if not view.members:
            del self._views[key]
            self.plans.invalidate(key)
        if cq.engine is not Engine.REEVALUATE:
            view.readers -= 1
            if not view.readers:
                # No future batch is routed to a dead subscriber.
                self.index.remove(key)
                leave_family(self._families, view, self._views)
        cohort = self._cohorts[tables]
        cohort.routing = True  # a new membership: observe routing afresh
        for members in (cohort.lazy, cohort.always, cohort.late):
            members.pop(name, None)
        if key in cohort.views:
            for other in view.members:
                if other in cohort.lazy:
                    break
            else:
                del cohort.views[key]
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

    def _current(self, view: Optional[SharedView]) -> Optional[Relation]:
        """Q(state now) if the view or a live member holds it — no
        commit to the footprint after the view's ``since``, or after the
        member's effective window start —, else None: registering the
        text again joins it instead of re-running E_0 (a joiner that
        does not ride the view copies the view's result, :func:`_rides`;
        a member's own copy moves only while no other member holds it,
        so anyone may alias it)."""
        if view is None:
            return None
        if view.result is not None and not self._touched(view.tables, view.since):
            return view.result
        for member in view.members.values():
            if member.held is not None and not self._touched(
                member.table_names, self._since(member)
            ):
                return member.held
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

        One window for the whole poll: each cohort's lazy views move to
        ``now`` first (:meth:`_due`), then what is due — the CQs a sweep
        routes or cannot prove unobservable — takes its turn in
        registration order, a lazy member :meth:`_receive`, anyone else
        a full visit; then the cohorts' ``swept`` moves and, under
        ``auto_gc``, the poll collects behind it. What the received
        turns owe the shared bag and their ``stats`` rows is charged
        once, after the turns.
        """
        if advance_to is not None:
            self.db.clock.advance_to(advance_to)
        now = self.db.now()
        span = self.tracer.span("scheduler.poll", now=now, registered=len(self._cqs))
        turns: Tuple[List, List] = ([], [])  # lazy members: evaluated, received
        with span, self._open_window():
            cohorts = list(self._cohorts.values())
            # Swept unrouted, a lazy member finding nothing may be one that
            # routing leaves out: then its footprint's next sweep routes.
            quiet = {cohort.tables: False for cohort in cohorts if not cohort.routing}
            runnable, visits, payers = [], set(), set()  # (visits: always-visit)
            for cohort in cohorts:
                always, late, payer = self._due(cohort)
                visits.update(always)
                runnable += (*always, *late)
                payers.add(payer)
            runnable.sort(key=attrgetter("order"))
            span.set(runnable=len(runnable))
            receive = self._receive
            try:
                for cq in runnable:
                    if cq.status is not _ACTIVE:
                        continue  # (an earlier turn's callback deregistered it)
                    lazy, executions = cq not in visits, cq.executions
                    if not lazy or cq.is_aggregate:
                        # (an aggregate folds and diffs its own state)
                        self._charged(cq, self._maybe_execute)
                    else:
                        took = receive(cq)
                        if took is not None:
                            turns[took and cq not in payers].append(cq)
                    if quiet and lazy and cq.executions == executions:
                        if cq.table_names in quiet:
                            quiet[cq.table_names] = True
            finally:
                # A lazy turn's charge beside its evaluation's own: a refresh,
                # and a shared-group hit if it received (in its stats row if
                # no later callback deregistered it).
                for took, cqs in enumerate(turns):
                    each = {Metrics.SHARED_GROUP_HITS: 1} if took else {}
                    if cqs and self.metrics is not None:
                        for name in (Metrics.CQ_REFRESHES, *each):
                            self.metrics.count(name, len(cqs))
                    names = [cq.name for cq in cqs if cq.status is _ACTIVE]
                    self.stats.record_each(names, {Metrics.CQ_REFRESHES: 1, **each})
            for cohort in cohorts:
                cohort.swept = now
                self.zones.try_advance(cohort.tables, now)
                cohort.routing |= quiet.get(cohort.tables, False)
                # Visited; only a window that starts after the sweep
                # (registered mid-poll, or visited after a commit an
                # earlier visit's callback made) stays late.
                cohort.late = {
                    name: cq
                    for name, cq in cohort.late.items()
                    if cq.last_execution_ts > now
                }
            if self.auto_gc:
                self.zones.collect()
        return self.drain()

    run_once = poll

    @contextmanager
    def _open_window(self) -> Iterator[None]:
        """One :class:`DeltaBatchCache` for all that is read inside the
        block; inside an open one (a callback's commit, observed) the
        enclosing window serves: its keys carry ``now``. A block that
        raises may leave riders behind their views' steps (:meth:`_part`)."""
        outer = self._window
        if outer is None:
            self._window = DeltaBatchCache(self.db, self.metrics, self.tracer)
        try:
            yield
        except BaseException:
            for view in list(self._views.values()):
                self._part(view)
            raise
        finally:
            self._window = outer

    def _due(self, cohort: Cohort) -> Tuple[List, Iterable, Optional[ContinualQuery]]:
        """The members of ``cohort`` this poll must visit — the
        always-visit ones, and the lazy ones its routing selects — once
        its lazy views moved to ``now`` (a touched window's in one
        :func:`~repro.core.scheduler.sweep`, quiet ones by assignment),
        and the first due lazy member, whose :meth:`_charged` scope the
        sweep ran in (None: nobody's)."""
        always = [
            cq
            for cq in cohort.always.values()
            if not is_skip_safe(cq)
            or self._touched(cohort.tables, cq.last_execution_ts)
        ]
        lazy, swept, late, payer = cohort.lazy, cohort.swept, {}, None
        window, now = self._window, self.db.now()
        if lazy and self._touched(cohort.tables, swept):
            if not cohort.routing:
                cohort.late = dict(lazy)
            else:
                hit = 0
                for key in window.due(self.index, cohort.tables, swept, now):
                    members = self._views[key].members
                    if not members.keys() <= lazy.keys():  # (always-visit ones)
                        members = {n: cq for n, cq in members.items() if n in lazy}
                    cohort.late.update(members)
                    hit += len(members)
                # Routing pays only while it leaves someone out.
                cohort.routing = hit < len(lazy)
            late = cohort.late
            for cq in late.values():
                # Every poll that skipped it proved its window irrelevant
                # (Section 5.2): its window starts where the sweep does.
                if cq.last_execution_ts < swept:
                    cq.last_execution_ts = swept
                    cq.applied_ts = max(cq.applied_ts, swept)
        views, tables = [], cohort.tables  # (with nobody due, none is selected)
        for view in cohort.views.values():
            if late and (view.since == swept or self._touched(tables, view.since)):
                views.append(view)
            else:  # (quiet, or routed past: its delta is empty, Section 5.2)
                view.last, view.since = (view.since, now, None), now
        if views:
            index = self.index if cohort.routing else None

            def move(payer: ContinualQuery, now: Timestamp) -> None:
                metrics = self._scoped_metrics
                for __ in sweep(views, window, index, now, metrics, self.tracer):
                    pass

            payer = min(late.values(), key=attrgetter("order"))
            self._charged(payer, move)
        if not always and not late and self.metrics is not None:
            self.metrics.count(Metrics.GROUPS_SKIPPED)
        return always, late.values(), payer

    def _receive(self, cq: ContinualQuery) -> Optional[bool]:
        """A lazy member's turn: take its view's delta over its window,
        alias the view's result, move the window, be notified. Against a
        full visit nothing observable is skipped: the stop is ``Never``,
        there is no zone of its own to advance, and ``OnEveryChange``
        fires iff the window is touched and ignores ``notify_fired``.

        When the poll's sweep moved the view over the member's window
        as of now (``window.moved``), this turn is only what the member
        owns: stamps, alias, notification. Otherwise (a late member, a
        member behind its view, anyone after a callback's commit) it
        evaluates its window here, charged to it (:meth:`_charged`).
        Returns None when nothing was received (a late member's own
        window is quiet), else whether the delta was taken rather than
        evaluated."""
        view = self._views[cq.sql_key]
        now, since = self.db.clock.now(), cq.last_execution_ts
        moved = self._window.moved.get(view)
        if (
            moved is not None
            and moved[1] == now
            and moved[0] == since
            and moved[2] is not None
        ):  # (an evaluated window was a touched one)
            delta, took = moved[2], True
            if cq.keep_result:
                cq.held = view.result
        elif self._touched(cq.table_names, since):
            delta, took = self._charged(cq, self._execute_dra), False
        else:
            if cq.keep_result and view.since == now and view.result is not None:
                cq.held = view.result
            return None
        cq.last_execution_ts = now
        if not delta.is_empty():
            cq.executions += 1
            cq.last_result_ts = now
            self._emit(cq, self._notification(cq, delta, now))
        return took

    def _charged(self, cq: ContinualQuery, step: Callable):
        """Run ``step(cq, now)`` as one refresh of ``cq``: stamped with
        the time its window really ends (the log's tail, which an
        earlier visit's callback may have moved past the poll's start),
        in a ``cq.refresh`` span, with one latency sample, its counter
        charges scoped per CQ (the tee still charges the shared bag).
        Every full visit runs through here, and a lazy member's turn
        only when it evaluates: a turn that receives pays no scope, and
        :meth:`poll` charges the received turns once, after them."""
        now, tracer, metrics = self.db.now(), self.tracer, self.metrics
        scoped = self._scoped_metrics = TeeMetrics(metrics)
        start = time.perf_counter()
        span = (
            tracer.span("cq.refresh", cq=cq.name, tables=",".join(cq.table_names))
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            try:
                return step(cq, now)
            finally:
                self._scoped_metrics = None
                latency_us = (time.perf_counter() - start) * 1e6
                counters = scoped.charged()
                self.stats.record(cq.name, counters, latency_us)
                if span is not NULL_SPAN:
                    span.set(latency_us=round(latency_us, 3), **counters)
                if metrics is not None:
                    metrics.observe(Metrics.REFRESH_LATENCY_US, latency_us)
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
        tracer = self.tracer
        span = (
            tracer.span("cq.trigger", cq=cq.name, tables=",".join(cq.table_names))
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
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
        for name in table_names:
            if self.db.table(name).log.newest_ts > since:
                return True
        return False

    def _initial(
        self, cq: ContinualQuery, ts: Timestamp, prepared: Optional[PreparedCQ]
    ) -> Relation:
        """Q(state at ``ts``) for :meth:`_install`, on ``prepared``, the
        plan it compiled: the key's view built afresh at ``ts``
        (:meth:`SharedView.at`, E_0 as one kernel term; its members
        carried over) unless its cohort sweeps it (then the member's
        own), an aggregate folding its narrowed core's rows into a
        state of its own. A REEVALUATE CQ keeps the row evaluator here,
        as at every refresh."""
        if cq.engine is Engine.REEVALUATE:
            return evaluate_as_of(cq.query, self.db, ts, self.metrics)
        if cq.is_aggregate:
            state = DifferentialAggregate(cq.query, self.db)
            return state.initialize(self.metrics, prepared, ts)
        key, cohort = cq.sql_key, self._cohorts.get(cq.table_names)
        if cohort is not None and key in cohort.views:  # (its riders stay)
            return dra_initial(cq.query, self.db, ts, prepared, self.metrics)
        view = SharedView.at(cq.query, key, self.plans, prepared, ts, self.metrics)
        old = self._views.get(key)
        if old is not None:
            self._part(old)
            view.members, view.readers = old.members, old.readers
            view.family = old.family
            if view.family is not None:
                view.family.members[key] = view
        self._views[key] = view
        return view.result

    def _prepared_for(self, cq: ContinualQuery) -> Optional[PreparedCQ]:
        """The CQ's cached prepared plan (None when the engine never
        runs DRA). An aggregate is planned on the core its state
        evaluates — the SPJ core narrowed to the columns it reads."""
        if cq.is_aggregate:
            return self.plans.get(cq.sql_key, cq.aggregate_state.core)
        if cq.engine is Engine.REEVALUATE:
            return None
        return self.plans.get(cq.sql_key, cq.query)

    def _fold(self, cq: ContinualQuery, now: Timestamp) -> None:
        """Fold the commits since ``cq.applied_ts`` into the state kept
        current ahead of executions: an aggregate's differential state,
        an EAGER CQ's maintained result."""
        # Read through the open window, shared with the sweep and every
        # CQ reading it (an EAGER fold under PERIODIC has none): inside
        # the log suffix the CQ's zone protects.
        window, since = self._window, cq.applied_ts
        if window is None:
            tables = [self.db.table(name) for name in cq.table_names]
            deltas, seeds = deltas_since(tables, since), None
        else:
            view = self._views[cq.sql_key]
            deltas, seeds = view.read(window, self._route_index(cq), since, now)
        if deltas and cq.is_aggregate:
            cq.aggregate_state.update(
                deltas,
                now,
                self._scoped_metrics or self.metrics,
                prepared=self._prepared_for(cq),
            )
        elif deltas:
            result = dra_execute(
                cq.query,
                self.db,
                deltas=deltas,
                ts=now,
                metrics=self._scoped_metrics or self.metrics,
                prepared=self._prepared_for(cq),
                tracer=self.tracer,
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
        metrics = self._scoped_metrics or self.metrics
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
        """The view step for one member: the result delta over its
        window. A member standing where the view stands moves it; one
        behind the view's ``now`` moves it from the member's window and
        copy; otherwise — the view is at ``now``, or the member keeps no
        copy — it evaluates its window without moving the view, which
        hands a window the view last advanced over its delta instead of
        evaluating again: CQs with one SQL text and one window hold
        content-identical results.
        A rider (:func:`_rides`) then holds the view's one result, which
        moves in place; anyone else keeps a copy of its own, which the
        delta moves in place too while no other member holds it and it
        was not handed out (else it copies the view's result): one
        result copy per changing execution at most, the view's taking
        over a copy it moves from. A rider the view's last step left
        behind (a callback's commit came first) is parted from it first
        (:meth:`_part`). A poll's sweep moved every lazy view already."""
        view, since, held = self._views[cq.sql_key], cq.last_execution_ts, cq.held
        index, metrics = self._route_index(cq), self._scoped_metrics or self.metrics
        window, last = self._window, view.last
        moves = view.result is not None and since == view.since
        if moves:
            held = view.result
        elif held is not None and view.since != now:
            self._part(view)  # (a rider left behind, ``cq`` too, owns a copy)
            held, moves = cq.held, True
        try:
            read = view.read(window, index, since, now)
        except ValueError:  # (a window GC retired: Q whole, diffed)
            read = None
        delta = view.evaluate(window, read, since, now, metrics, self.tracer, held)
        if moves:
            view.step(delta, since, now, held)
        elif delta is not None and last is not None and delta is last[2]:
            if self.metrics is not None:
                self.metrics.count(Metrics.SHARED_GROUP_HITS)
        if cq.keep_result and view.since == now and view.result is not None:
            if _rides(cq):
                cq.held = view.result
            elif delta is not None and not delta.is_empty():
                held = cq.held
                if (
                    held is None
                    or held.handed_out
                    or any(
                        held is m.held or held is m.maintained_result
                        for m in view.members.values()
                        if m is not cq
                    )
                ):
                    cq.held = view.result.copy()
                else:  # (its own copy, at ``since``: nobody else sees it move)
                    delta.apply_in_place(held)
        if delta is None:
            # Nothing committed, or nothing the index routes here: the
            # result cannot have changed, so no engine ran.
            return DeltaRelation(self._prepared_for(cq).out_schema)
        return delta

    def _part(self, view: SharedView) -> None:
        """Before the view moves on from a member's window or copy, a
        new E_0 replaces its result, a member leaves, or a pass raises:
        the riders its last step left behind (their turns not taken)
        keep their result as of where they stand — that step undone
        (the open window's sweep's, if it moved the view), one copy
        shared."""
        result, last, window = view.result, view.last, self._window
        if window is not None:
            last = window.moved.get(view, last)
        if result is None or last is None:
            return
        holders = [
            cq
            for cq in view.members.values()
            if cq.held is result and self._since(cq) < view.since
        ]
        if holders:
            taken = last[2]
            copy = taken.unapply_from(result) if taken else result.copy()
            for cq in holders:
                cq.held = copy

    def _route_index(self, cq: ContinualQuery) -> Optional[PredicateIndex]:
        """The index a read of ``cq``'s window routes through: None
        (unrouted, always sound) unless its text is indexed and its
        footprint's sweep routes."""
        cohort = self._cohorts[cq.table_names]
        if cohort.routing and cohort.lazy and self._views[cq.sql_key].readers:
            return self.index
        return None

    def _execute_aggregate(self, cq: ContinualQuery, now: Timestamp) -> DeltaRelation:
        self._fold(cq, now)
        current = cq.aggregate_state.current()
        delta = diff(cq.held, current, now)
        cq.held = current
        for spec in _drift_specs(cq.trigger):
            spec.reset()
        return delta

    def _execute_eager(self, cq: ContinualQuery, now: Timestamp) -> DeltaRelation:
        self._fold(cq, now)
        delta = diff(cq.held, cq.maintained_result, now)
        cq.held = cq.maintained_result.copy()
        return delta

    def _execute_reevaluate(self, cq: ContinualQuery, now: Timestamp) -> DeltaRelation:
        new_result = self.db.query(cq.query, self._scoped_metrics or self.metrics)
        delta = diff(cq.held, new_result, now)
        cq.held = new_result
        return delta

    def _notification(
        self, cq: ContinualQuery, delta: DeltaRelation, now: Timestamp
    ) -> Notification:
        mode = cq.mode
        if mode is _DIFFERENTIAL:
            result = None
        elif mode is DeliveryMode.INSERTIONS_ONLY:
            result, delta = delta.insertions(), None
        elif mode is DeliveryMode.DELETIONS_ONLY:
            result, delta = delta.deletions(), None
        else:  # COMPLETE
            result = cq.held.copy()
        return Notification(cq.name, _REFRESH, cq.executions, now, mode, delta, result)

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
        if cq.history is not None:
            cq.history.append(notification)
        self._outbox.append(notification)
        callbacks, tracer = cq.callbacks, self.tracer
        if not tracer.enabled:
            for callback in callbacks:
                callback(notification)
            return
        with tracer.span(
            "cq.notify",
            cq=notification.cq_name,
            kind=notification.kind.value,
            seq=notification.seq,
        ) as span:
            for callback in callbacks:
                callback(notification)
            span.set(callbacks=len(callbacks))

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

        index, cohorts, views = self.index, self._cohorts, self._views
        law(self._window is None, "a window is open outside poll and _observe")
        active = {cq.name: cq for cq in self.active()}
        viewed = {n: cq for v in views.values() for n, cq in v.members.items()}
        law(viewed == active, "sql_key views' members != the active CQs")
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
        for tables, c in cohorts.items():  # (one sweep moves them all)
            lazy = {cq.sql_key for cq in c.lazy.values() if not cq.is_aggregate}
            law(
                c.views.keys() == lazy
                and all(
                    views.get(k) is v and v.result is not None and v.since >= c.swept
                    for k, v in c.views.items()
                ),
                f"{tables}: views != the lazy members', or one behind the sweep",
            )
        planned, watching, zones, as_of = set(), set(), set(), {}
        for name, cq in active.items():
            tables, key, since = cq.table_names, cq.sql_key, self._since(cq)
            cohort = cohorts.get(tables)
            view = views.get(key)
            law(
                view is not None
                and name in view.members
                and cohort is not None
                and (name in cohort.lazy or name in cohort.always),
                f"{name}: not in its sql_key's view and its footprint's cohort",
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
                cq.held is not None
                and not cq.is_aggregate
                and all(self.db.table(t).log.pruned_through <= since for t in tables)
            ):
                if (key, since) not in as_of:  # one evaluation per window
                    as_of[key, since] = evaluate_as_of(cq.query, self.db, since)
                law(
                    cq.held == as_of[key, since],
                    f"{name}: retained result is not Q(state at {since})",
                )
            # No holder sees a result change under it: only a rider holds
            # the view's result, at its window (or ahead of the view's
            # since, a joiner's, or behind one whose last step changed
            # nothing).
            if cq.held is not None and cq.held is view.result:
                moved = view.last is not None and view.last[2]
                law(
                    _rides(cq) and (since >= view.since or not moved),
                    f"{name}: holds its view's result, but not at its window",
                )
        for key, view in views.items():
            members = list(view.members.values())
            reading = [cq for cq in members if cq.engine is not Engine.REEVALUATE]
            readers = len(reading)
            law(
                view.readers == readers and (key in index) == bool(readers),
                f"{key}: readers or the index entry != its {readers} delta readers",
            )
            view.check(self.db)
            cohort = cohorts[members[0].table_names]
            if view.last is None:
                continue
            law(
                view.last[1] == view.since <= self.db.now(),
                f"{key}: evaluated ahead of now, or not to its since",
            )
            # One retained object: the lazy keepers standing where the
            # view stands all hold it — or none does: an always-visit
            # member's evaluation, nothing pending for them.
            holding = {
                cq.held is view.result
                for cq in reading
                if cq.name in cohort.lazy.keys() - cohort.late.keys()
                and cq.keep_result
                and not cq.is_aggregate
                and cq.last_execution_ts == view.since
            }
            law(
                len(holding) < 2,
                f"{key}: a lazy member holds a result of its own beside the view's",
            )
        law(
            len(index) == sum(view.readers > 0 for view in views.values()),
            "the index's entries != the views with a delta reader",
        )
        spj_readers = {
            cq.sql_key
            for cq in active.values()
            if cq.engine is not Engine.REEVALUATE and not cq.is_aggregate
        }
        check_families(self._families, views, spj_readers, self.db)
        live = views.keys() | {shape for shape, __ in self._families}
        law(
            all(key in self.plans for key in planned)
            and sum(key in self.plans for key in live) == len(self.plans),
            "plans != the live sql_keys and family shapes",
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
            indexed = live and cq.engine is not Engine.REEVALUATE
            readers = self._views[cq.sql_key].readers if indexed else 0
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
                        len(cq.held)
                        if cq.held is not None
                        else None
                    ),
                    "pending_updates": pending,
                    "plan_cached": live and cq.sql_key in self.plans,
                    "trigger": repr(cq.trigger),
                    # Cumulative per-CQ cost attribution (DESIGN.md §9);
                    # populated by scheduler-driven refreshes.
                    **cost_columns(cost),
                    "refreshes": cost.get(Metrics.CQ_REFRESHES, 0),
                    "refresh_p95_us": (
                        latency.percentile(95) if latency.count else None
                    ),
                    # Its sql_key's delta readers (0: a baseline, or stopped).
                    "sql_group_size": readers,
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
            report += kernel_summary(m)
        info = self.index.describe()
        report += (
            f"\nindex: indexed={info['subscriptions']} "
            f"eq={info['eq_entries']} interval={info['interval_entries']} "
            f"scan={info['scan_entries']} stale={info['stale']} "
            f"groups={len(self.index)}"
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


def _rides(cq: ContinualQuery) -> bool:
    """Whether ``cq`` takes every step of its view in the pass that
    makes it (DRA, trigger exactly ``OnEveryChange``, stop ``Never``),
    so may hold the view's result, which moves in place (an aggregate
    holds its own state's); under PERIODIC it is a lazy member."""
    return (
        cq.engine is Engine.DRA
        and type(cq.trigger) is OnEveryChange
        and type(cq.stop) is Never
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
