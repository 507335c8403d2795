"""The SLO-driven control plane of the serving stack (ROADMAP item 5).

Every capacity knob of the serving tier -- ``max_inflight``, shard
count, admission policy -- is frozen at construction, so the system is
only robust to the conditions it was hand-tuned for.  This module adds
the production posture: a deterministic, *simulation-clock-driven*
feedback loop that moves those knobs from the O(1) streaming signals
and sheds gracefully past the pressure cliff.

Signals -> decisions -> actuations
----------------------------------

==============================  ==========================  =================================
signal (all O(1), streaming)    decision                    actuation
==============================  ==========================  =================================
window p99 latency vs SLO       AIMD widen / narrow         ``PriorityResource.set_capacity``
queued depth per active shard   spawn / merge shard         ``Router.set_active`` + leader
                                                            re-election (PR 7 machinery)
door pressure (queued+waiting)  reject / downgrade arrival  drop or re-prioritise *before*
                                                            planning cost is paid
capacity-weighted cluster wait  deadline shed               reject an arrival that provably
                                                            cannot meet its SLO
failure burst per shard         breaker trip / half-open    ``Router.block`` + queue drain,
                                                            probe, restore
battery charge projection       planned drain               ``FaultInjector.force_drain``
                                                            ahead of the floor crossing
==============================  ==========================  =================================

Determinism contract: the :class:`Controller` owns **no entropy and no
wall clock**.  It wakes on the simulation clock every ``interval_s``
(the scheduler runs the wake loop, mirroring its epoch driver), reads
signals that are pure functions of simulation state, and applies
threshold rules.  Two runs of the same configuration replay the same
decisions at the same simulated instants.

Accounting: every actuation lands in a :class:`ControlTrace` -- exact
counters at both trace levels, a per-decision log
(:class:`ControlDecision`) only at ``trace_level="full"`` (aggregate
raises :class:`~repro.sim.trace.TraceLevelError`, consistent with the
other recorders).  Door rejections are a *new* terminal state, kept
separate from fault sheds so the fault reconciliation
(``failures == retries + shed``) is untouched; the serving result
reconciles ``completed + shed + rejected == admitted``.

A :meth:`ControlPolicy.noop` policy keeps the wake loop ticking but
never trips a threshold: apart from the wake timer events themselves,
the run is byte-identical to ``control=None`` (pinned field-by-field in
the cross-hatch matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Dict, List, Optional

from repro.metrics.serving import SignalWindow, percentile
from repro.sim.trace import TRACE_FULL, TraceLevelError, check_trace_level

#: Door admission modes of :class:`ControlPolicy`.
ADMISSION_NONE = "none"
ADMISSION_REJECT = "reject"
ADMISSION_DOWNGRADE = "downgrade"
ADMISSIONS = (ADMISSION_NONE, ADMISSION_REJECT, ADMISSION_DOWNGRADE)

#: Decision kinds recorded in :class:`ControlTrace`.
DECISION_WIDEN = "widen"
DECISION_NARROW = "narrow"
DECISION_SPAWN = "spawn_shard"
DECISION_MERGE = "merge_shard"
DECISION_REJECT = "reject_pressure"
DECISION_DEADLINE = "reject_deadline"
DECISION_DOWNGRADE = "downgrade_at_door"
DECISION_TRIP = "breaker_trip"
DECISION_PROBE = "breaker_probe"
DECISION_RESTORE = "breaker_restore"
DECISION_REOPEN = "breaker_reopen"
DECISION_DRAIN = "planned_drain"

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Door verdicts returned by :meth:`Controller.admit`.
ADMIT = "admit"
REJECT = "reject"
DOWNGRADE = "downgrade"


@dataclass(frozen=True)
class ControlPolicy:
    """Configuration of the control loop (see the module docstring).

    The policy is pure configuration -- thresholds and bounds; all
    run state lives in the per-run :class:`Controller`.  Every actuator
    has an off switch, and :meth:`noop` turns them all off at once (the
    wake loop still ticks; nothing ever trips).

    - **Adaptive concurrency** (``concurrency``): every wake, the p99
      of the completions observed since the last wake is compared to
      ``slo_s``.  Above it, the in-flight window multiplies down by
      ``narrow_factor`` (bounded by ``min_inflight``); under
      ``headroom * slo_s`` with claims actually waiting for a slot, it
      widens by ``widen_by`` (bounded by ``max_inflight``) -- classic
      AIMD, biased to react fast to overload.
    - **Elastic shards** (``elastic``, sharded scheduler only): when
      queued depth per active shard exceeds ``scale_up_backlog`` the
      next shard dispatcher activates (leaders re-elected through the
      PR 7 machinery); when it falls under ``scale_down_backlog`` the
      highest active shard deactivates and its queue drains into the
      survivors.  Bounded by ``[min_shards, num_shards]``.
    - **Admission control** (``admission``): arrivals at a door
      pressure (queued + waiting-for-slot) above ``admission_pressure``
      are rejected outright or downgraded ``admission_downgrade_by``
      priority levels.  ``deadline_shed`` additionally rejects an
      arrival when the cluster's capacity-weighted committed backlog
      already exceeds ``slo_s`` -- the request provably cannot meet
      its SLO, so the planning cost is not worth paying.
    - **Circuit breakers** (``breaker_failures > 0``, sharded only):
      ``breaker_failures`` failures on one shard within
      ``breaker_window_s`` trip its breaker -- the router routes around
      it and its queued work drains to healthy shards; after
      ``breaker_cooldown_s`` the shard half-opens and the next outcome
      it produces decides: a completion restores it, a failure re-opens.
    - **Battery lookahead** (``battery_margin`` control intervals):
      a battery projected to cross its floor within the margin is
      drained *now* (:meth:`FaultInjector.force_drain`) so queued and
      future work plans around the device instead of failing on it.
    """

    interval_s: float = 0.25
    slo_s: float = 1.0
    # (a) adaptive concurrency
    concurrency: bool = True
    min_inflight: int = 1
    max_inflight: int = 16
    widen_by: int = 1
    narrow_factor: float = 0.5
    headroom: float = 0.8
    # (b) elastic shards
    elastic: bool = False
    min_shards: int = 1
    scale_up_backlog: float = 4.0
    scale_down_backlog: float = 1.0
    # (c) admission control
    admission: str = ADMISSION_NONE
    admission_pressure: int = 16
    admission_downgrade_by: int = 2
    deadline_shed: bool = False
    # (d) circuit breakers
    breaker_failures: int = 0
    breaker_window_s: float = 1.0
    breaker_cooldown_s: float = 1.0
    # battery-aware degradation
    battery_margin: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.interval_s < inf:
            raise ValueError(f"control interval must be finite and > 0: {self.interval_s}")
        if not 0 < self.slo_s < inf:
            raise ValueError(f"slo_s must be finite and positive, got {self.slo_s}")
        if not 1 <= self.min_inflight <= self.max_inflight:
            raise ValueError(
                f"need 1 <= min_inflight <= max_inflight, got "
                f"[{self.min_inflight}, {self.max_inflight}]"
            )
        if self.widen_by < 1:
            raise ValueError(f"widen_by must be positive, got {self.widen_by}")
        if not 0 < self.narrow_factor < 1:
            raise ValueError(f"narrow_factor must sit in (0, 1), got {self.narrow_factor}")
        if not 0 < self.headroom <= 1:
            raise ValueError(f"headroom must sit in (0, 1], got {self.headroom}")
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be positive, got {self.min_shards}")
        if not -inf < self.scale_down_backlog < self.scale_up_backlog < inf:
            raise ValueError(
                "scale_up_backlog must exceed scale_down_backlog, both finite "
                f"({self.scale_up_backlog} vs {self.scale_down_backlog})"
            )
        if self.admission not in ADMISSIONS:
            raise ValueError(
                f"unknown admission mode {self.admission!r}; known: {ADMISSIONS}"
            )
        if self.admission_pressure < 0:
            raise ValueError(f"negative admission pressure: {self.admission_pressure}")
        if self.admission_downgrade_by < 0:
            raise ValueError(f"negative downgrade: {self.admission_downgrade_by}")
        if self.breaker_failures < 0:
            raise ValueError(f"negative breaker threshold: {self.breaker_failures}")
        if not (0 < self.breaker_window_s < inf and 0 < self.breaker_cooldown_s < inf):
            raise ValueError("breaker window and cooldown must be positive and finite")
        if not 0 <= self.battery_margin < inf:
            raise ValueError(f"battery margin must be finite and >= 0: {self.battery_margin}")

    @classmethod
    def noop(cls, interval_s: float = 0.25) -> "ControlPolicy":
        """A policy whose wake loop ticks but never actuates: every
        threshold is unreachable.  Pinned byte-identical (modulo the
        wake timer events) to ``control=None`` in the hatch matrix."""
        return cls(
            interval_s=interval_s,
            concurrency=False,
            elastic=False,
            admission=ADMISSION_NONE,
            deadline_shed=False,
            breaker_failures=0,
            battery_margin=0.0,
        )


@dataclass(frozen=True)
class ControlDecision:
    """One recorded actuation (``trace_level="full"`` only)."""

    time_s: float
    kind: str
    target: str = ""
    value: float = 0.0


#: Decision kind -> ControlTrace counter attribute.
_COUNTER_OF = {
    DECISION_WIDEN: "widened",
    DECISION_NARROW: "narrowed",
    DECISION_SPAWN: "shards_spawned",
    DECISION_MERGE: "shards_merged",
    DECISION_REJECT: "rejected_pressure",
    DECISION_DEADLINE: "rejected_deadline",
    DECISION_DOWNGRADE: "door_downgraded",
    DECISION_TRIP: "breaker_trips",
    DECISION_PROBE: "breaker_probes",
    DECISION_RESTORE: "breaker_restores",
    DECISION_REOPEN: "breaker_reopens",
    DECISION_DRAIN: "planned_drains",
}


class ControlTrace:
    """Control-plane accounting at both trace levels.

    Counters are exact at both levels; the per-decision log
    (:attr:`decisions`) materialises only at ``trace_level="full"`` and
    raises :class:`~repro.sim.trace.TraceLevelError` otherwise.
    """

    def __init__(self, level: str = TRACE_FULL):
        self.level = check_trace_level(level)
        self._full = level == TRACE_FULL
        self.wakeups = 0
        self.widened = 0
        self.narrowed = 0
        self.shards_spawned = 0
        self.shards_merged = 0
        self.rejected_pressure = 0
        self.rejected_deadline = 0
        self.door_downgraded = 0
        self.breaker_trips = 0
        self.breaker_probes = 0
        self.breaker_restores = 0
        self.breaker_reopens = 0
        self.planned_drains = 0
        self._decisions: List[ControlDecision] = []

    def record(self, kind: str, time_s: float, target: str = "", value: float = 0.0) -> None:
        counter = _COUNTER_OF.get(kind)
        if counter is None:
            raise ValueError(f"unknown decision kind {kind!r}")
        setattr(self, counter, getattr(self, counter) + 1)
        if self._full:
            self._decisions.append(ControlDecision(time_s, kind, target, value))

    @property
    def rejected(self) -> int:
        """Total door rejections (pressure + deadline) -- the count the
        serving result reconciles against."""
        return self.rejected_pressure + self.rejected_deadline

    @property
    def actuations(self) -> int:
        return (
            self.widened + self.narrowed
            + self.shards_spawned + self.shards_merged
            + self.rejected_pressure + self.rejected_deadline + self.door_downgraded
            + self.breaker_trips + self.breaker_probes
            + self.breaker_restores + self.breaker_reopens
            + self.planned_drains
        )

    def counters(self) -> Dict[str, int]:
        """The exact counter block (both trace levels)."""
        return {
            "wakeups": self.wakeups,
            "widened": self.widened,
            "narrowed": self.narrowed,
            "shards_spawned": self.shards_spawned,
            "shards_merged": self.shards_merged,
            "rejected_pressure": self.rejected_pressure,
            "rejected_deadline": self.rejected_deadline,
            "door_downgraded": self.door_downgraded,
            "breaker_trips": self.breaker_trips,
            "breaker_probes": self.breaker_probes,
            "breaker_restores": self.breaker_restores,
            "breaker_reopens": self.breaker_reopens,
            "planned_drains": self.planned_drains,
        }

    def _require_full(self, what: str) -> None:
        if not self._full:
            raise TraceLevelError(
                f"{what} requires trace_level={TRACE_FULL!r}; this trace keeps "
                "exact counters only"
            )

    @property
    def decisions(self) -> List[ControlDecision]:
        self._require_full("the per-decision control log")
        return list(self._decisions)


class ShardBreaker:
    """Per-shard circuit-breaker state machine (closed -> open ->
    half-open -> closed / re-open).

    Pure bookkeeping on the simulation clock: :class:`Controller` owns
    the transitions' side effects (router blocking, queue drains,
    tracing).  Failure timestamps older than ``window_s`` roll off, so
    a slow failure trickle never trips -- only a burst does.
    """

    __slots__ = ("shard", "threshold", "window_s", "cooldown_s", "state", "opened_at", "_times")

    def __init__(self, shard: int, threshold: int, window_s: float, cooldown_s: float):
        self.shard = shard
        self.threshold = threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.state = BREAKER_CLOSED
        self.opened_at = 0.0
        self._times: List[float] = []

    def record_failure(self, now: float) -> Optional[str]:
        """Observe one failure; returns the transition it caused
        (:data:`DECISION_TRIP` / :data:`DECISION_REOPEN`) or ``None``."""
        if self.state == BREAKER_OPEN:
            return None
        if self.state == BREAKER_HALF_OPEN:
            # The probe failed: straight back to open, cooldown restarts.
            self.state = BREAKER_OPEN
            self.opened_at = now
            self._times = []
            return DECISION_REOPEN
        self._times.append(now)
        cutoff = now - self.window_s
        self._times = [t for t in self._times if t > cutoff]
        if len(self._times) >= self.threshold:
            self.state = BREAKER_OPEN
            self.opened_at = now
            self._times = []
            return DECISION_TRIP
        return None

    def record_success(self, now: float) -> Optional[str]:
        """Observe one completion; a half-open probe success restores
        the shard (returns :data:`DECISION_RESTORE`)."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            self._times = []
            return DECISION_RESTORE
        return None

    def try_half_open(self, now: float) -> bool:
        """Open -> half-open once the cooldown elapsed (controller wake)."""
        if self.state == BREAKER_OPEN and now - self.opened_at >= self.cooldown_s:
            self.state = BREAKER_HALF_OPEN
            return True
        return False

    @property
    def open(self) -> bool:
        return self.state == BREAKER_OPEN


class Controller:
    """Per-run control-loop state and actuation (see module docstring).

    The owning scheduler constructs one per ``run()``, hands it the
    shared in-flight resource and router, installs its signal/actuation
    hooks via :meth:`bind`, and ticks :meth:`wake` from a driver
    process on the simulation clock.  The controller never spawns
    processes or draws entropy itself, so a run's decisions are a pure
    function of the configuration and the simulated history.
    """

    def __init__(
        self,
        policy: ControlPolicy,
        env,
        trace_level: str = TRACE_FULL,
        inflight=None,
        router=None,
        num_shards: int = 1,
    ):
        self.policy = policy
        self.env = env
        self.trace = ControlTrace(trace_level)
        self.inflight = inflight
        self.router = router
        self.num_shards = num_shards
        self.active_shards = num_shards
        if policy.elastic:
            if policy.min_shards > num_shards:
                raise ValueError(
                    f"min_shards {policy.min_shards} exceeds num_shards {num_shards}"
                )
        self.breakers: Dict[int, ShardBreaker] = {}
        if policy.breaker_failures > 0:
            self.breakers = {
                shard: ShardBreaker(
                    shard,
                    policy.breaker_failures,
                    policy.breaker_window_s,
                    policy.breaker_cooldown_s,
                )
                for shard in range(num_shards)
            }
        #: Completion latencies observed since the last wake (drained
        #: every wake: the AIMD window is one control interval).
        self._window = SignalWindow()
        self.injector = None
        # Hooks installed by the scheduler (bind()).
        self._pressure_of: Optional[Callable[[], int]] = None
        self._queue_depth: Optional[Callable[[], int]] = None
        self._est_wait_s: Optional[Callable[[], float]] = None
        self._drain_shard: Optional[Callable[[int], int]] = None
        self._rescale: Optional[Callable[[int, int], None]] = None

    def bind(
        self,
        pressure_of: Optional[Callable[[], int]] = None,
        queue_depth: Optional[Callable[[], int]] = None,
        est_wait_s: Optional[Callable[[], float]] = None,
        drain_shard: Optional[Callable[[int], int]] = None,
        rescale: Optional[Callable[[int, int], None]] = None,
        injector=None,
    ) -> None:
        """Install the scheduler's signal and actuation hooks.

        ``pressure_of`` -- door pressure (queued + waiting-for-slot);
        ``queue_depth`` -- total queued (undispatched) requests;
        ``est_wait_s`` -- the *available* cluster's capacity-weighted
        committed backlog (the deadline-shed signal); ``drain_shard`` --
        move a shard's queued items to healthy shards, returning the
        count moved; ``rescale`` -- re-elect leaders after an elastic
        scale step; ``injector`` -- the armed fault injector (battery
        signals).
        """
        self._pressure_of = pressure_of
        self._queue_depth = queue_depth
        self._est_wait_s = est_wait_s
        self._drain_shard = drain_shard
        self._rescale = rescale
        self.injector = injector

    # -- signals fed by the scheduler ---------------------------------

    def observe_completion(self, latency_s: float, shard: int = 0) -> None:
        """A request completed ``latency_s`` after arrival on ``shard``."""
        self._window.add(latency_s)
        breaker = self.breakers.get(shard)
        if breaker is not None:
            transition = breaker.record_success(self.env.now)
            if transition is not None:
                self.trace.record(transition, self.env.now, target=f"shard{shard}")

    def observe_failure(self, shard: int = 0, dispatched: int = 0) -> None:
        """A dispatch on ``shard`` failed (``DeviceLostError``).

        ``dispatched`` is the shard's dispatch count at failure time;
        recorded on the trip decision so tests can pin that an open
        breaker really freezes it.
        """
        breaker = self.breakers.get(shard)
        if breaker is None:
            return
        transition = breaker.record_failure(self.env.now)
        if transition is None:
            return
        self.trace.record(
            transition, self.env.now, target=f"shard{shard}", value=float(dispatched)
        )
        if self.router is not None:
            self.router.block(shard)
        if self._drain_shard is not None:
            self._drain_shard(shard)

    def shard_open(self, shard: int) -> bool:
        """Whether ``shard``'s breaker currently refuses dispatch."""
        breaker = self.breakers.get(shard)
        return breaker is not None and breaker.open

    def shard_active(self, shard: int) -> bool:
        """Whether ``shard`` is inside the elastic active prefix."""
        return shard < self.active_shards

    def dispatch_ok(self, shard: int) -> bool:
        """Whether ``shard`` may pull new work (steal / donate gates)."""
        return self.shard_active(shard) and not self.shard_open(shard)

    # -- the door -----------------------------------------------------

    def admit(self, request) -> str:
        """Door verdict for a new arrival: :data:`ADMIT`,
        :data:`REJECT` (counted ``rejected``), or :data:`DOWNGRADE`
        (admitted at a worse priority).  Runs *before* routing and
        planning, so a rejected request costs nothing downstream."""
        policy = self.policy
        now = self.env.now
        if policy.deadline_shed and self._est_wait_s is not None:
            wait = self._est_wait_s()
            if wait > policy.slo_s:
                self.trace.record(
                    DECISION_DEADLINE, now, target=str(request.request_id), value=wait
                )
                return REJECT
        if policy.admission != ADMISSION_NONE and self._pressure_of is not None:
            pressure = self._pressure_of()
            if pressure > policy.admission_pressure:
                if policy.admission == ADMISSION_REJECT:
                    self.trace.record(
                        DECISION_REJECT, now, target=str(request.request_id),
                        value=float(pressure),
                    )
                    return REJECT
                self.trace.record(
                    DECISION_DOWNGRADE, now, target=str(request.request_id),
                    value=float(pressure),
                )
                return DOWNGRADE
        return ADMIT

    # -- the wake loop ------------------------------------------------

    def wake(self) -> None:
        """One control tick: read the signals, actuate the knobs."""
        self.trace.wakeups += 1
        now = self.env.now
        self._adapt_concurrency(now)
        self._adapt_shards(now)
        self._probe_breakers(now)
        self._plan_battery_drains(now)

    def _adapt_concurrency(self, now: float) -> None:
        policy = self.policy
        if not policy.concurrency or self.inflight is None:
            self._window.drain()
            return
        window = self._window.drain()
        if not window:
            return
        p99 = percentile(window, 99.0)
        capacity = self.inflight.capacity
        if p99 > policy.slo_s and capacity > policy.min_inflight:
            new = max(policy.min_inflight, int(capacity * policy.narrow_factor))
            if new < capacity:
                self.inflight.set_capacity(new)
                self.trace.record(DECISION_NARROW, now, value=float(new))
        elif (
            p99 <= policy.headroom * policy.slo_s
            and capacity < policy.max_inflight
            and self.inflight.queue_length > 0
        ):
            new = min(policy.max_inflight, capacity + policy.widen_by)
            self.inflight.set_capacity(new)
            self.trace.record(DECISION_WIDEN, now, value=float(new))

    def _adapt_shards(self, now: float) -> None:
        policy = self.policy
        if not policy.elastic or self._queue_depth is None or self.num_shards < 2:
            return
        depth = self._queue_depth()
        per_shard = depth / self.active_shards
        if per_shard > policy.scale_up_backlog and self.active_shards < self.num_shards:
            old = self.active_shards
            self.active_shards = old + 1
            if self.router is not None:
                self.router.set_active(self.active_shards)
            if self._rescale is not None:
                self._rescale(old, self.active_shards)
            self.trace.record(DECISION_SPAWN, now, value=float(self.active_shards))
        elif per_shard < policy.scale_down_backlog and self.active_shards > policy.min_shards:
            old = self.active_shards
            self.active_shards = old - 1
            if self.router is not None:
                self.router.set_active(self.active_shards)
            # Drain the deactivated shard's queue into the survivors
            # before re-electing, so no queued item strands.
            if self._drain_shard is not None:
                self._drain_shard(old - 1)
            if self._rescale is not None:
                self._rescale(old, self.active_shards)
            self.trace.record(DECISION_MERGE, now, value=float(self.active_shards))

    def _probe_breakers(self, now: float) -> None:
        for shard, breaker in self.breakers.items():
            if breaker.try_half_open(now):
                # Let traffic reach the shard again; the next outcome it
                # produces (completion vs failure) restores or re-opens.
                if self.router is not None:
                    self.router.unblock(shard)
                self.trace.record(DECISION_PROBE, now, target=f"shard{shard}")

    def _plan_battery_drains(self, now: float) -> None:
        policy = self.policy
        injector = self.injector
        if policy.battery_margin <= 0 or injector is None or not injector.batteries:
            return
        lookahead = policy.battery_margin * policy.interval_s
        for name, model in injector.batteries.items():
            if injector.battery_drained(name):
                continue
            charge = injector.battery_charge[name]
            rate = injector.battery_rate[name]
            if rate <= 0:
                continue
            if charge - rate * lookahead <= model.floor_j:
                injector.force_drain(name)
                self.trace.record(DECISION_DRAIN, now, target=name, value=charge)
