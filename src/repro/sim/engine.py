"""The discrete-event kernel every timing layer runs on.

One heap, one arbitration discipline, three client surfaces: the
analytic multi-user model (:func:`repro.core.multiuser.simulate_concurrent`),
the serving engine's tenant lanes
(:class:`repro.serve.engine.ServeEngine`) and the fleet tier's lite
sessions (:mod:`repro.fleet`) are all thin adapters over the primitives
here.  Before this kernel existed each of those layers had its own
event loop, and two of them disagreed on simultaneous-event
tie-breaks; the kernel's single ordering rule makes FIFO serving
*exactly* equal to the retired oracle on every input (see
``tests/property/test_prop_engine.py``).

Primitives
----------

:class:`EventClock`
    The event heap plus virtual ``now``.  Heap entries are plain
    ``(time, priority, seq, fn)`` tuples; a popped entry sets ``now``
    and calls ``fn(seq)``, so a kernel step allocates nothing but its
    tuple.  Exposes the same ``add_listener``/``remove_listener``
    surface as :class:`repro.sim.clock.SimClock`, so a charge consumer
    such as :class:`repro.obs.tracer.SpanTracer` attaches to virtual
    time unchanged.
:class:`Resource`
    An exclusive engine (the GPU execution engine).  Per-lane FIFO
    queues, a pluggable scheduler over the queue heads, a
    context-switch charge on owner change, and lazy deadline expiry at
    dispatch time.  A :class:`Visit`'s *waiter* hears how it ended.
:class:`LaneRun`
    Tenant unit streams over one engine.  Each lane is one slotted
    object that is its own event callback and steps its
    :class:`WorkUnit` stream as a state machine, so a lane costs the
    garbage collector one tracked object, not a process, a generator
    and a closure pair per visit.  The generator-driven lane it
    replaced is kept as the reference in ``tests/property/oracles.py``.

Ordering rule (the tie-break fix)
---------------------------------

Events order by ``(time, priority, seq)`` with ``seq`` allocated
monotonically — FIFO-arrival order, with lane index seeding the order
at t=0.  Three mechanisms make FIFO dispatch reproduce the retired
oracle's pop order — which pre-reserved the engine the moment a GPU
event popped — on *all* inputs, ties included:

1. a visit arriving while the engine is free is served synchronously
   inside its own arrival event (the oracle served at pop), so its
   lane's continuation re-enters the heap before any later same-time
   event allocates a rank;
2. when the engine frees at time ``F``, the dispatch decision runs at
   ``(F, PRIO_DISPATCH)`` — *before* normal events at ``F`` — because
   the oracle granted those slots at earlier pops;
3. every queued visit pre-allocates its continuation seq at arrival
   (:meth:`Resource.submit`), and its lane resumes *inside* the
   completion event carrying that seq, so the lane's next visit
   competes under the rank the oracle would have allocated at that pop.

FIFO then selects ``min (ready, seq)`` over the queue heads, which is
exactly heap pop order of the arrival events.

The retired serving multiplexer used the opposite rule — drain every
same-instant event, then arbitrate — and on simultaneous events the two
rules hand a *stateful* scheduler (DRR credit, round-robin rotation)
different candidate sets.  That divergence was declared fixed in the
analytic oracle's favor; the differential suite therefore compares
non-FIFO schedulers against the retired multiplexer only on timelines
with no coincident instants (see ``tie_free_users`` and its
rounding-collapse filter in ``tests/property/test_prop_engine.py``).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import metrics as obs_metrics
from repro.obs.tracer import STATE as _OBS

#: Engine-free dispatch decisions pop before same-time normal events:
#: the slots they hand out were promised at earlier pops (the oracle's
#: pre-reservation order).
PRIO_DISPATCH = 0
#: Lane steps, visit arrivals, completions.
PRIO_NORMAL = 1
#: Re-dispatch after deadline expiry: drain same-time resumes first,
#: matching the retired multiplexer's drain-then-dispatch loop.
PRIO_REDISPATCH = 2


class EventClock:
    """Virtual time: an event heap with SimClock's listener surface.

    The heap holds ``(time, priority, seq, fn)`` tuples, compared in C
    (``seq`` is unique per entry, so ``fn`` never is).  A popped entry
    sets ``now`` to its time and calls ``fn(seq)`` with the seq it was
    scheduled under: the rank a continuation inside it competes with.

    Listeners receive ``(start, seconds, category)`` exactly as
    :class:`repro.sim.clock.SimClock` emits them, so any charge consumer
    attaches to a kernel run unchanged.
    Unlike ``SimClock``, time here advances by popping events, not by
    ``advance`` calls; charges describe work the processes placed on
    the timeline.
    """

    def __init__(self) -> None:
        self.now: float = 0
        self._heap: List[Tuple[float, int, int, Callable[[int], None]]] = []
        self._seq = itertools.count()
        self._listeners: List[Callable[[float, float, str], None]] = []
        self.events_processed = 0
        # The process-wide registry counter is resolved once per kernel;
        # run() batches into a local and flushes one add.
        self._events_counter = obs_metrics.registry().counter(
            "engine.events_processed")

    # -- seq allocation (the tie-break currency) ------------------------------

    def allocate_seq(self) -> int:
        """Claim the next position in arrival order."""
        return next(self._seq)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, time: float, fn: Callable[[int], None], *,
                 priority: int = PRIO_NORMAL,
                 seq: Optional[int] = None) -> None:
        """Schedule ``fn(seq)`` at ``time``.

        ``seq`` defaults to a fresh allocation; passing a pre-allocated
        seq is how continuations keep their arrival-order rank.  Either
        way no two heap entries share a seq.
        """
        if seq is None:
            seq = next(self._seq)
        heapq.heappush(self._heap, (time, priority, seq, fn))

    def run(self) -> float:
        """Drain the heap; returns the final virtual time."""
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap:
            time, _, seq, fn = pop(heap)
            self.now = time
            fn(seq)
            processed += 1
        if processed:
            self.events_processed += processed
            self._events_counter.inc(processed)
        return self.now

    # -- SimClock-compatible charge surface -----------------------------------

    def charge(self, start: float, seconds: float, category: str) -> None:
        """Report ``seconds`` of ``category`` work starting at ``start``."""
        # A copy: a listener may detach itself mid-charge.
        for listener in list(self._listeners):
            listener(start, seconds, category)

    def add_listener(self,
                     listener: Callable[[float, float, str], None]) -> None:
        self._listeners.append(listener)

    def remove_listener(self,
                        listener: Callable[[float, float, str], None]) -> None:
        self._listeners.remove(listener)


@dataclass(slots=True)
class Visit:
    """A pending exclusive-engine visit; per-lane queue heads compete."""

    tenant: int
    seq: int              # arrival-event seq (FIFO tie-break)
    ready: float          # when the host-side preparation finished
    gpu_seconds: float
    weight: float = 1.0
    deadline: Optional[float] = None   # absolute virtual seconds
    label: str = ""
    on_outcome: Optional[Callable[[str], None]] = None
    resume_seq: Optional[int] = None   # pre-allocated completion-event seq
    #: Who awaits the outcome, set by whoever submits the visit:
    #: ``waiter.complete(seq)`` runs inside the completion event (whose
    #: seq is ``resume_seq``), ``waiter.expire(now)`` at deadline expiry.
    waiter: Any = None

    def __call__(self, seq: int) -> None:
        # The visit is its own completion callback: nothing is allocated
        # per dispatch.
        if self.waiter is not None:
            self.waiter.complete(seq)


class Resource:
    """An exclusive engine: per-lane FIFO queues, one owner at a time.

    The *scheduler* (any object with the
    :meth:`repro.serve.scheduler.Scheduler.select` contract) picks among
    the ready queue heads at each dispatch decision; ``None`` means
    kernel-native FIFO (min ``(ready, seq)``).  A context switch is
    charged whenever the engine changes owner — first occupancy is free,
    matching Fermi's save/restore between non-empty contexts.
    """

    def __init__(self, kernel: EventClock, ctx_switch_cost: float = 0.0,
                 scheduler=None,
                 on_serve: Optional[Callable[[Visit, float, bool], None]]
                 = None) -> None:
        self._kernel = kernel
        self.ctx_switch_cost = ctx_switch_cost
        self._scheduler = scheduler
        #: called as ``on_serve(visit, dispatch_at, switched)`` right
        #: before service starts — the lane layer's accounting hook.
        self._on_serve = on_serve
        self._queues: Dict[int, Deque[Visit]] = {}
        #: Fleet-scale fast paths, both behaviour-preserving: a heap of
        #: queue-*head* visits keyed ``(ready, seq)`` replaces the
        #: O(lanes) candidate scan under native FIFO (stale entries are
        #: lazily discarded), and the lazy-expiry sweep is skipped
        #: entirely while no queued visit carries a deadline.
        self._head_heap: List[Tuple[float, int, Visit]] = []
        self._deadlines = 0
        self.free_at: float = 0
        self.resident: Optional[int] = None
        self.switches = 0
        self.expiries = 0
        registry = obs_metrics.registry()
        self._switch_counter = registry.counter("engine.ctx_switches")
        self._expiry_counter = registry.counter("engine.deadline_expiries")

    def _push_head(self, visit: Visit) -> None:
        heapq.heappush(self._head_heap, (visit.ready, visit.seq, visit))

    def submit(self, visit: Visit) -> None:
        """Enqueue at the current event; serve synchronously if free.

        Every visit pre-allocates its continuation seq here, at arrival
        rank — the oracle pushed a user's next event (allocating the
        next global seq) the moment its gpu event popped, not when the
        engine finished serving it.
        """
        if visit.resume_seq is None:
            visit.resume_seq = self._kernel.allocate_seq()
        queue = self._queues.get(visit.tenant)
        if queue is None:
            queue = self._queues[visit.tenant] = deque()
        queue.append(visit)
        if visit.deadline is not None:
            self._deadlines += 1
        if self._scheduler is None and len(queue) == 1:
            self._push_head(visit)
        if self.free_at <= self._kernel.now:
            self._dispatch()

    def release(self, lane: int) -> None:
        """Forget the queue of *lane*, which never submits again; the
        other lanes keep their order in ``_queues``."""
        self._queues.pop(lane, None)

    # -- dispatch -------------------------------------------------------------

    def _select(self, candidates: List[Visit]
                ) -> Tuple[Visit, Deque[Visit]]:
        """The scheduler's pick and its lane's queue.  The pick must be
        a queue head itself, not an equal copy: an O(1) identity check,
        however many lanes are backlogged."""
        visit = self._scheduler.select(candidates, self.resident,
                                       self._kernel.now)
        queue = self._queues.get(getattr(visit, "tenant", None))
        if not queue or queue[0] is not visit:  # scheduler contract
            raise ValueError(
                f"scheduler {self._scheduler!r} returned a "
                "non-candidate visit")
        return visit, queue

    def _dispatch(self, seq: Optional[int] = None) -> None:
        now = self._kernel.now
        if self.free_at > now:
            return  # stale decision: the engine was re-dispatched already
        # Lazy expiry: queue heads whose deadline passed are abandoned,
        # never served, and their lane is notified now.  Same-time
        # resumes triggered by the expiry run before the engine is
        # re-arbitrated (PRIO_REDISPATCH), as the retired multiplexer
        # drained its heap before dispatching.  The sweep is skipped
        # while no queued visit carries a deadline (the common case for
        # fleet-scale lite lanes, where it would be O(lanes) per
        # dispatch).
        expired = False
        if self._deadlines:
            # A copy: a lane told of its expiry may release its queue.
            for queue in list(self._queues.values()):
                popped = False
                while (queue and queue[0].deadline is not None
                       and now > queue[0].deadline):
                    visit = queue.popleft()
                    self._deadlines -= 1
                    popped = True
                    self.expiries += 1
                    self._expiry_counter.inc()
                    if visit.on_outcome is not None:
                        visit.on_outcome("timeout")
                    if visit.waiter is not None:
                        visit.waiter.expire(now)
                    expired = True
                if popped and queue and self._scheduler is None:
                    self._push_head(queue[0])
        if expired:
            self._kernel.schedule(now, self._dispatch,
                                  priority=PRIO_REDISPATCH)
            return
        if self._scheduler is None:
            # Native FIFO: pop the min-(ready, seq) queue head straight
            # off the head heap.  Entries whose visit is no longer its
            # queue's head (served or expired since the push) are
            # stale; drop them on sight.
            heap = self._head_heap
            queues = self._queues
            while heap:
                visit = heap[0][2]
                queue = queues.get(visit.tenant)
                if queue and queue[0] is visit:
                    break
                heapq.heappop(heap)
            else:
                return
            heapq.heappop(heap)
        else:
            candidates = [q[0] for q in self._queues.values() if q]
            if not candidates:
                return
            visit, queue = self._select(candidates)
        queue.popleft()
        if visit.deadline is not None:
            self._deadlines -= 1
        if self._scheduler is None and queue:
            self._push_head(queue[0])

        start = now
        switched = self.resident is not None and self.resident != visit.tenant
        if switched:
            self.switches += 1
            self._switch_counter.inc()
        tracer = _OBS.tracer
        if tracer is not None:
            tracer.event("engine.dispatch", "engine", now, 0.0,
                         tenant_index=visit.tenant, label=visit.label,
                         switched=switched, waited=now - visit.ready)
        if self._on_serve is not None:
            self._on_serve(visit, start, switched)
        if switched:
            start += self.ctx_switch_cost
        self.resident = visit.tenant
        finish = start + visit.gpu_seconds
        self.free_at = finish
        if visit.on_outcome is not None:
            visit.on_outcome("served")
        # Engine-free arbitration first, then the lane's continuation
        # under its arrival-rank seq.
        self._kernel.schedule(finish, self._dispatch, priority=PRIO_DISPATCH)
        self._kernel.schedule(finish, visit, seq=visit.resume_seq)


# ---------------------------------------------------------------------------
# Lane layer: tenant unit streams over one shared engine.
# ---------------------------------------------------------------------------


@dataclass
class WorkUnit:
    """One schedulable unit of tenant work.

    ``host_seconds`` of sequential host work (overlappable across
    tenants), followed by an optional exclusive GPU-engine visit of
    ``gpu_seconds``.  ``gpu_seconds=None`` means no engine visit at all;
    ``0.0`` is a real (zero-duration) visit that still occupies the
    engine and can force a context switch — matching the analytic
    model's treatment of zero-duration gpu segments.

    ``deadline`` is relative to the moment the visit becomes ready: a
    visit still queued ``deadline`` seconds after its host part finished
    is abandoned (timeout) instead of served.  ``on_outcome`` is called
    with ``"served"`` or ``"timeout"`` when the engine decides.

    ``idle=True`` marks the unit as pure waiting (retry backoff): it
    advances the lane's timeline by ``host_seconds`` and is recorded as
    a ``backoff`` lane charge, but does not count as host work and may
    not carry a GPU visit.
    """

    host_seconds: float
    gpu_seconds: Optional[float] = None
    label: str = ""
    deadline: Optional[float] = None
    on_outcome: Optional[Callable[[str], None]] = None
    idle: bool = False


@dataclass
class TenantLane:
    """One tenant's unit stream plus its service limits.

    ``max_inflight`` caps how many GPU visits may be queued or in
    service at once; host-side production stalls (backpressure) when
    the cap is reached.  ``max_inflight=1`` gives the strict
    host/gpu alternation of the analytic multi-user model.
    """

    units: Union[Iterable[WorkUnit], Iterator[WorkUnit]]
    weight: float = 1.0
    max_inflight: int = 1
    name: str = ""
    #: Called with the kernel time at which the unit stream ran dry —
    #: the fleet tier uses this to mark a machine session complete.
    on_exhausted: Optional[Callable[[float], None]] = None


@dataclass
class LaneTimeline:
    """Per-lane accounting over one kernel run."""

    finish_time: float = 0.0
    gpu_busy: float = 0.0
    host_busy: float = 0.0
    waits: float = 0.0


#: A lane charge log: four atoms per positive charge, ``lane index,
#: start, seconds, category``, in charge order.  Atoms are never tracked
#: by the garbage collector; a tuple per charge would be.
LaneLog = List[Union[int, float, str]]


@dataclass
class LaneResult:
    """Outcome of :func:`run_lanes`."""

    makespan: float
    timelines: List[LaneTimeline]
    context_switches: int
    served: List[int]
    timed_out: List[int]
    stall_seconds: List[float]           # host blocked on the inflight cap
    #: Every positive lane charge (see :data:`LaneLog`); the serving
    #: report builds per-lane trace events from it on demand.
    log: LaneLog = field(default_factory=list)
    #: Each lane's name, ``lane<index>`` when its spec has none.
    names: List[str] = field(default_factory=list)


#: The unit stream of a lane that ran dry.
_DRY: Iterator[WorkUnit] = iter(())


class _Lane:
    """One lane of a :class:`LaneRun`, stepping its unit stream.

    The lane is its own event callback: the kernel calls it for its
    start, after a host part or an idle unit, and after a timeout frees
    a slot under the inflight cap.  As a visit's waiter it also hears
    :meth:`complete` inside the completion event (a lane blocked on the
    cap steps on right there, under the completion's seq) and
    :meth:`expire`.  Each step pulls one unit, charges its host part and
    either schedules the lane's next step or submits the unit's engine
    visit.  The order of every ``schedule`` call and seq allocation is
    that of the generator lane it replaced, which the property suite
    keeps as the reference.
    """

    __slots__ = ("run", "index", "spec", "units", "arriving",
                 "finish_time", "gpu_busy", "host_busy", "waits",
                 "outstanding", "blocked", "stall_since", "stall",
                 "pending_stall", "served", "timed_out", "host_free")

    def __init__(self, run: "LaneRun", index: int, spec: TenantLane) -> None:
        self.run = run
        self.index = index
        self.spec = spec
        #: ``iter(spec.units)``, taken at the lane's first step.
        self.units: Optional[Iterator[WorkUnit]] = None
        #: A GPU unit whose host part is running; it arrives at the
        #: engine when the lane is next called.
        self.arriving: Optional[WorkUnit] = None
        self.finish_time = 0.0
        self.gpu_busy = 0.0
        self.host_busy = 0.0
        self.waits = 0.0
        self.outstanding = 0
        self.blocked = False
        self.stall_since = 0.0
        self.stall = 0.0
        #: A stall that ended; charged once the stream yields another
        #: unit, since trailing blocks after the last unit delayed
        #: nothing.
        self.pending_stall: Optional[float] = None
        self.served = 0
        self.timed_out = 0
        self.host_free = 0.0

    def __call__(self, seq: int) -> None:
        unit = self.arriving
        if unit is None:
            self._step(seq)
        else:
            # The host part is done: arrive at the engine; this event's
            # seq is the visit's FIFO rank.
            self.arriving = None
            self._submit(unit, seq)

    def _step(self, seq: int) -> None:
        kernel = self.run.kernel
        units = self.units
        if units is None:
            units = self.units = iter(self.spec.units)
        try:
            unit = next(units)
        except StopIteration:
            self.units = _DRY
            self.finish_time = max(self.finish_time, kernel.now)
            if self.spec.on_exhausted is not None:
                self.spec.on_exhausted(kernel.now)
            self._release_if_drained()
            return
        if self.pending_stall is not None:
            self.stall += self.pending_stall
            self.pending_stall = None
        now = kernel.now
        done = now + unit.host_seconds
        if unit.idle:
            # Backoff sleep: occupies the lane's timeline without
            # counting as host work (the tenant is waiting, not
            # producing) and never carries an engine visit.
            self.finish_time = max(self.finish_time, done)
            self.host_free = done
            self.run._record(self.index, now, unit.host_seconds, "backoff")
            kernel.schedule(done, self)
            return
        self.host_busy += unit.host_seconds
        self.finish_time = max(self.finish_time, done)
        self.host_free = done
        self.run._record(self.index, now, unit.host_seconds, "host")
        if unit.gpu_seconds is None:
            kernel.schedule(done, self)
        elif unit.host_seconds > 0.0:
            self.arriving = unit
            kernel.schedule(done, self)
        else:
            self._submit(unit, seq)

    def _submit(self, unit: WorkUnit, seq: int) -> None:
        run = self.run
        spec = self.spec
        done = self.host_free
        self.outstanding += 1
        run.engine.submit(Visit(
            self.index, seq, done, unit.gpu_seconds, spec.weight,
            None if unit.deadline is None else done + unit.deadline,
            unit.label, unit.on_outcome, None, self))
        if self.outstanding < spec.max_inflight:
            run.kernel.schedule(run.kernel.now + 0.0, self)
        else:
            self.blocked = True
            self.stall_since = done

    # -- the visit waiter's hooks -------------------------------------------

    def complete(self, seq: int) -> None:
        self.outstanding -= 1
        if self.blocked:
            # Step on inside the completion event: same time, and the
            # visit's pre-allocated seq keeps oracle arrival rank.
            self.blocked = False
            self.pending_stall = max(self.run.kernel.now - self.stall_since,
                                     0.0)
            self._step(seq)
        else:
            self._release_if_drained()

    def expire(self, now: float) -> None:
        self.timed_out += 1
        self.outstanding -= 1
        if self.blocked:
            self.blocked = False
            self.pending_stall = max(now - self.stall_since, 0.0)
            self.run.kernel.schedule(max(self.host_free, now), self)
        else:
            self._release_if_drained()

    def _release_if_drained(self) -> None:
        # A dry stream never submits again: once its last visit left the
        # engine, the engine forgets the lane's queue.
        if not self.outstanding and self.units is _DRY:
            self.run.engine.release(self.index)


class LaneRun:
    """An in-flight lane run over one shared engine and kernel.

    :func:`run_lanes` is ``LaneRun(...)`` + ``kernel.run()`` +
    :meth:`finish` — splitting the three steps is what lets several
    independent engines (the fleet tier's machines) prepare their lanes
    on ONE shared :class:`EventClock` and drain together, so their
    virtual timelines interleave instead of running back to back.

    Construction schedules every lane's t=0 wakeup but pops nothing;
    the caller drains the kernel (once, however many LaneRuns share it)
    and then reads each run's :meth:`finish`.  :meth:`add_lane` admits
    a new lane mid-run at the kernel's current time — the fleet tier's
    migration landing point.
    """

    def __init__(self, lanes: Sequence[TenantLane], scheduler,
                 ctx_switch_cost: float, kernel: EventClock) -> None:
        self.kernel = kernel
        self.ctx_switch_cost = ctx_switch_cost
        self._lanes: List[_Lane] = []
        self._lane_log: LaneLog = []
        self._lane_names: List[str] = []
        self.engine = Resource(kernel, ctx_switch_cost, scheduler,
                               on_serve=self._on_serve)
        for spec in lanes:
            self._admit(spec)
        for lane in self._lanes:  # t=0 wakeups in lane order
            kernel.schedule(0.0, lane)

    def _admit(self, spec: TenantLane) -> _Lane:
        index = len(self._lanes)
        lane = _Lane(self, index, spec)
        self._lanes.append(lane)
        self._lane_names.append(spec.name or f"lane{index}")
        return lane

    def add_lane(self, spec: TenantLane) -> int:
        """Admit *spec* mid-run, starting at the kernel's current time.

        Returns the new lane's index.  The lane's first wakeup is a
        fresh kernel event at ``kernel.now``, so a lane added from
        inside a running event begins producing after that event —
        exactly where a migrated-in session resumes.
        """
        lane = self._admit(spec)
        self.kernel.schedule(self.kernel.now, lane)
        return lane.index

    # -- accounting hooks ---------------------------------------------------

    def _record(self, tenant: int, start: float, seconds: float,
                category: str) -> None:
        if seconds > 0.0:
            self._lane_log.extend((tenant, start, seconds, category))
            # ``charge`` copies the listener list: skip it for none.
            if self.kernel._listeners:
                self.kernel.charge(start, seconds, category)
            tracer = _OBS.tracer
            if tracer is not None:
                # Tenant-attributed schedule events: these are what the
                # Chrome exporter turns into per-tenant lane tracks.
                tracer.event(category, category, start, seconds,
                             tenant=self._lane_names[tenant], lane=True)

    def _on_serve(self, visit: Visit, dispatch_at: float,
                  switched: bool) -> None:
        lane = self._lanes[visit.tenant]
        lane.waits += dispatch_at - visit.ready
        start = dispatch_at
        if switched:
            self._record(visit.tenant, start, self.ctx_switch_cost,
                         "ctx_switch")
            start += self.ctx_switch_cost
        finish = start + visit.gpu_seconds
        lane.gpu_busy += visit.gpu_seconds
        lane.finish_time = max(lane.finish_time, finish)
        self._record(visit.tenant, start, visit.gpu_seconds, "gpu")
        lane.served += 1

    # -- results ------------------------------------------------------------

    def finish(self) -> LaneResult:
        """Assemble the result after the shared kernel has drained."""
        lanes = self._lanes
        makespan = max((lane.finish_time for lane in lanes), default=0.0)
        return LaneResult(
            makespan=makespan,
            timelines=[LaneTimeline(lane.finish_time, lane.gpu_busy,
                                    lane.host_busy, lane.waits)
                       for lane in lanes],
            context_switches=self.engine.switches,
            served=[lane.served for lane in lanes],
            timed_out=[lane.timed_out for lane in lanes],
            stall_seconds=[lane.stall for lane in lanes],
            log=self._lane_log,
            names=self._lane_names)


def run_lanes(lanes: Sequence[TenantLane], scheduler,
              ctx_switch_cost: float,
              kernel: Optional[EventClock] = None) -> LaneResult:
    """Run every lane to exhaustion over one shared engine.

    This is the kernel-native core the timing surfaces share: each
    lane pulls its unit stream in virtual time (so a serving engine's
    streams execute sealed requests at production time), all GPU
    visits arbitrate through one :class:`Resource` under *scheduler*,
    and the accounting — timelines, waits, stalls, context switches,
    the per-lane charge log — preserves the retired implementations'
    semantics.
    """
    kernel = kernel if kernel is not None else EventClock()
    run = LaneRun(lanes, scheduler, ctx_switch_cost, kernel)
    kernel.run()
    return run.finish()
