"""The serving request lifecycle and the single-leader online scheduler.

:class:`ServingRun` is one serving run's request lifecycle, shared by
both schedulers: fault arming, admission (the source process and the
control plane's door), routing, execution, retry/shed on device loss,
the controller's wake loop, settlement, checkpoint/resume and the
:class:`ServingResult`.  A scheduler adds only its dispatchers -- the
policy that turns queued requests into planned dispatches.

:class:`OnlineScheduler` drives one open-loop request stream through
one cluster under one strategy with a single FIFO dispatcher:

1. The dispatcher drains the admission queue into a backlog batch (up
   to ``max_batch`` requests) and co-plans it in one pass against the
   current load snapshot (`Strategy.plan_batch`).
2. Each request then waits for an in-flight slot (backpressure: at most
   ``max_inflight`` requests execute concurrently).  If the quantised
   load snapshot at dispatch time differs from the bucket its plan
   assumed -- the backlog drifted while it waited -- the whole
   remaining tail of the batch is re-co-planned in one pass against the
   fresh snapshot (whose bucket then becomes the batch's reference), so
   a single drift never degrades the rest of the batch to per-request
   planning.
3. The lifecycle executes the plan through
   :class:`~repro.core.executor.PlanExecutor` and releases the slot.

End-to-end latency is measured from the request's *arrival*, so time
spent queued for admission counts against the SLO -- the scheduler
cannot hide overload by delaying admission.

The lifecycle is shared; the dispatchers are not.  This FIFO
single-leader loop and :class:`~repro.serving.sharded.ShardedScheduler`'s
priority-sorted per-shard loops are independent implementations of two
policies.  The equivalence tests in ``tests/serving/test_sharded.py``
pin them against each other in the sharded scheduler's legacy
configuration (1 shard, planning charging off, ``min`` load view), and
``tests/serving/test_lifecycle_pins.py`` pins both schedules to literal
digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.executor import PlanExecutor
from repro.core.hidp import HiDPStrategy
from repro.core.strategy import Strategy
from repro.dnn.models import build_model
from repro.faults import (
    DEGRADE_NONE,
    DEGRADE_SHED,
    DeviceLostError,
    FaultInjector,
    FaultTrace,
    PerturbationProcess,
    RetryPolicy,
)
from repro.metrics.energy import cluster_energy_j
from repro.metrics.results import InferenceResult
from repro.metrics.serving import RoutingStats, latency_percentiles, slo_attainment
from repro.platform.cluster import Cluster, build_cluster
from repro.serving.control import (
    DOWNGRADE,
    REJECT,
    Controller,
    ControlPolicy,
    ControlTrace,
)
from repro.serving.routing import Router, resolve_router
from repro.serving.specialize import ShardSpecializer
from repro.sim.resources import Resource, Store
from repro.sim.runtime import SimRuntime
from repro.sim.trace import TRACE_FULL, BusyRecorder, check_trace_level
from repro.workloads.requests import InferenceRequest


@dataclass(frozen=True)
class ServedRequest:
    """One request's serving record: queueing + execution timeline."""

    request: InferenceRequest
    result: InferenceResult
    #: True if the plan this request dispatched with came from a drift
    #: re-co-plan pass rather than the original batch plan (the load
    #: snapshot moved past the bucket the batch assumed).
    replanned: bool = False
    #: Dispatch attempts this request took to complete (1 = first try;
    #: >1 means mid-plan failures forced retry re-admissions).
    attempts: int = 1

    @property
    def arrival_s(self) -> float:
        return self.request.arrival_s

    @property
    def dispatched_s(self) -> float:
        """When the scheduler handed the request to the executor."""
        return self.result.submitted_s

    @property
    def completed_s(self) -> float:
        return self.result.completed_s

    @property
    def queue_s(self) -> float:
        """Admission-queue wait (arrival until dispatch)."""
        return self.dispatched_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency from arrival to merged prediction."""
        return self.completed_s - self.arrival_s


@dataclass
class ServingResult:
    """Everything measured during one serving run."""

    strategy: str
    served: List[ServedRequest] = field(default_factory=list)
    makespan_s: float = 0.0
    energy_j: float = 0.0
    energy_by_device: Dict[str, float] = field(default_factory=dict)
    network_bytes: int = 0
    total_flops: int = 0
    busy: Optional[BusyRecorder] = None
    #: Scheduler counters.
    batches: int = 0
    replans: int = 0
    max_batch_observed: int = 0
    #: Sharded-scheduler counters (left at their defaults by the
    #: single-leader scheduler).
    shards: int = 1
    steals: int = 0
    preemptions: int = 0
    #: Physical leader device of each shard's dispatcher (empty for the
    #: single-leader scheduler, whose leader is always ``devices[0]``).
    leader_devices: Tuple[str, ...] = ()
    #: Per-shard accounting (index = shard).  They reconcile exactly:
    #: ``dispatched[i] == admitted[i] + stolen_in[i] - stolen_out[i]``
    #: and ``sum(dispatched) == count`` -- the invariant the randomized
    #: serving tests pin.
    admitted_by_shard: Tuple[int, ...] = ()
    dispatched_by_shard: Tuple[int, ...] = ()
    stolen_in_by_shard: Tuple[int, ...] = ()
    stolen_out_by_shard: Tuple[int, ...] = ()
    #: Simulated seconds of planning overhead charged on the scheduler
    #: CPU before dispatch (0 when charging is gated off).
    planning_charged_s: float = 0.0
    #: Fault-injection accounting (all zero on a fault-free run).  The
    #: counters reconcile exactly: ``failures == retries + shed``,
    #: every request completes once XOR is shed
    #: (``count + shed == admitted``), and each retry re-enters through
    #: the dispatcher (``sum(dispatched) == count + shed + retries`` on
    #: the sharded scheduler).
    failures: int = 0
    retries: int = 0
    shed: int = 0
    downgraded: int = 0
    #: Fault events the injector applied over the run.
    fault_events: int = 0
    #: Per-shard retry re-admissions (``sum == retries``).
    readmitted_by_shard: Tuple[int, ...] = ()
    #: Request ids shed by the retry/degradation policy
    #: (``trace_level="full"`` runs only; empty tuple otherwise).
    shed_requests: Tuple[int, ...] = ()
    #: Failure/recovery trace (None on a fault-free run).
    faults: Optional[FaultTrace] = None
    #: Control-plane accounting (ISSUE 9).  ``rejected`` counts arrivals
    #: the admission door turned away (pressure rejections + deadline
    #: sheds) -- a terminal state distinct from fault ``shed``, so the
    #: fault reconciliation ``failures == retries + shed`` is untouched
    #: and the full ledger reads
    #: ``count + shed + rejected == len(requests)``.  ``control`` is the
    #: controller's decision trace (None when ``control=None``).
    rejected: int = 0
    rejected_requests: Tuple[int, ...] = ()
    control: Optional[ControlTrace] = None
    #: Routing-layer accounting (ISSUE 7).  ``router`` names the
    #: admission policy; ``epochs``/``leader_reelections`` count
    #: specialization-epoch boundaries and the boundaries that moved a
    #: shard leader; ``spilled``/``cold_routed`` count requests the
    #: cost-aware router diverted off their specialist shard and
    #: requests routed with no specialty yet.  ``routing`` carries the
    #: full per-shard/per-epoch log (None only on results built outside
    #: the serving schedulers).
    router: str = ""
    epochs: int = 0
    spilled: int = 0
    cold_routed: int = 0
    leader_reelections: int = 0
    routing: Optional[RoutingStats] = None
    #: Engine events scheduled over the run.  Schedule-identical
    #: configurations (fast vs reference engine, full vs aggregate
    #: traces) produce exactly the same count, so the engine bench uses
    #: it as its events-per-second numerator and as a cheap schedule
    #: fingerprint.
    sim_events: int = 0

    @property
    def count(self) -> int:
        return len(self.served)

    @property
    def latencies(self) -> List[float]:
        return [record.latency_s for record in self.served]

    @property
    def queue_delays(self) -> List[float]:
        return [record.queue_s for record in self.served]

    @property
    def mean_batch_size(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.count / self.batches

    def percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 end-to-end latency."""
        return latency_percentiles(self.latencies)

    def slo_attainment(self, slo_s: float) -> float:
        """Fraction of requests with end-to-end latency within the SLO.

        Shed and door-rejected requests count as *missed*: the
        denominator is every offered request, so a policy cannot buy
        attainment by dropping the work it would have missed on.
        """
        dropped = self.shed + self.rejected
        if dropped:
            if slo_s <= 0:
                raise ValueError(f"SLO must be positive, got {slo_s}")
            met = sum(1 for latency in self.latencies if latency <= slo_s)
            return met / (self.count + dropped)
        return slo_attainment(self.latencies, slo_s)

    @property
    def span_s(self) -> float:
        """The serving window: first arrival to last completion."""
        if not self.served:
            return 0.0
        return max(r.completed_s for r in self.served) - min(r.arrival_s for r in self.served)

    def throughput_rps(self) -> float:
        """Wall throughput over the serving window.

        Measured from the *first arrival* to the last completion, not
        from t=0: a stream whose first request arrives late would
        otherwise book the idle lead-in against the scheduler and
        deflate the reported rate.
        """
        span = self.span_s
        if span <= 0:
            return 0.0
        return self.count / span

    def steady_state_rps(self) -> float:
        """Completion rate once the pipeline is warm.

        The ``count - 1`` completion intervals between the first and the
        last completion: excludes the fill time of the first request, so
        it converges to the cluster's sustainable service rate on long
        streams.  Falls back to the wall rate for degenerate spans.
        """
        if self.count < 2:
            return self.throughput_rps()
        completions = [record.completed_s for record in self.served]
        span = max(completions) - min(completions)
        if span <= 0:
            return self.throughput_rps()
        return (self.count - 1) / span

    def latencies_by_priority(self) -> Dict[int, List[float]]:
        """End-to-end latencies grouped by request priority class."""
        grouped: Dict[int, List[float]] = {}
        for record in self.served:
            grouped.setdefault(record.request.priority, []).append(record.latency_s)
        return grouped

    def percentiles_by_priority(self) -> Dict[int, Dict[str, float]]:
        """p50/p95/p99 end-to-end latency per priority class."""
        return {
            priority: latency_percentiles(latencies)
            for priority, latencies in sorted(self.latencies_by_priority().items())
        }


class RunCheckpoint:
    """A serving run paused mid-stream, resumable to the exact result.

    Produced by either scheduler's ``run(..., checkpoint_at_s=S)``: the
    event loop pauses once the clock reaches ``S``, the engine state is
    captured (:meth:`SimRuntime.snapshot`), and this handle is returned
    instead of the :class:`ServingResult`.  Calling :meth:`resume`
    validates and rewinds to the captured state, then drains the run to
    completion -- the resumed result is byte-identical to the
    uninterrupted run, because pausing processes the exact same event
    prefix and nothing simulated happens while paused.

    The checkpoint is *in-memory*: pending generator frames (the
    in-flight plan executions) are held live by the captured heap, so
    the handle is valid only within the process that produced it, and
    only until :meth:`resume` is called.  ``segments`` maps each
    request id to how many plan-segment boundaries its execution had
    crossed by the pause -- the consistency cut the executor's
    checkpoint hook records (see ``PlanExecutor.execute``).
    """

    __slots__ = (
        "sim_time",
        "served_count",
        "segments",
        "_run",
        "_snapshot",
    )

    def __init__(self, run: "ServingRun"):
        self._run = run
        self._snapshot = run.runtime.snapshot()
        self.sim_time = self._snapshot.sim_time
        self.served_count = len(run.served)
        self.segments = dict(run.segments)

    @property
    def pending_events(self) -> int:
        """Heap entries captured at the pause (in-flight schedule)."""
        return self._snapshot.pending_events

    def resume(self) -> "ServingResult":
        """Rewind to the captured state and drain the run to its end."""
        self._run.runtime.restore(self._snapshot)
        return self._run.finish()


def _segment_recorder(segments: Dict[int, int], request_id: int, inner=None):
    """Build a ``PlanExecutor`` checkpoint hook counting segment crossings.

    The recorder adds *no* simulation events (it only mutates the
    ``segments`` ledger), so installing it keeps the schedule
    byte-identical; ``inner`` chains a pre-existing hook (the sharded
    scheduler's cooperative-preemption closure) after the count.
    """

    def checkpoint():
        segments[request_id] = segments.get(request_id, 0) + 1
        if inner is not None:
            yield from inner()

    return checkpoint


class ServingRun:
    """One serving run's request lifecycle, shared by both schedulers.

    A scheduler's ``run()`` builds one, starts its own dispatcher
    processes through :meth:`start` and gets the result back.  This
    object owns everything around the dispatchers:

    - fault arming (the ``protected`` leaders are spared churn) and the
      :class:`~repro.faults.FaultTrace`;
    - the per-shard admission queues, the in-flight resource, the
      routing layer and the per-shard ledgers;
    - the control plane's :class:`~repro.serving.control.Controller`
      and the signals it reads;
    - the request stages: :meth:`source` admits arrivals, :meth:`serve`
      executes a dispatched plan, :meth:`handle_failure` retries,
      downgrades or sheds a failed one and :meth:`readmit` re-queues it
      after its backoff;
    - settlement, checkpoint/resume and the :class:`ServingResult`.

    The schedulers differ only in the values they pass: the shard
    count, the protected leaders, the in-flight resource type, the
    executor's explore charging, a preemption hook and their extra
    result fields.
    """

    @staticmethod
    def configure(
        scheduler,
        cluster: Optional[Cluster],
        strategy: Optional[Strategy],
        max_batch: int,
        max_inflight: int,
        trace_level: str,
        faults: Optional[PerturbationProcess],
        retry: Optional[RetryPolicy],
        router: Router,
        control: Optional[ControlPolicy],
    ) -> None:
        """Validate and store the settings both schedulers share."""
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        scheduler.cluster = cluster if cluster is not None else build_cluster()
        scheduler.strategy = strategy if strategy is not None else HiDPStrategy()
        scheduler.max_batch = max_batch
        scheduler.max_inflight = max_inflight
        #: ``TRACE_AGGREGATE`` switches the run to O(1) streaming trace
        #: aggregates (large-scale streams); the event schedule and all
        #: request timings are identical either way.
        scheduler.trace_level = check_trace_level(trace_level)
        #: Seeded fault injection + recovery policy (see
        #: :mod:`repro.faults`).  A zero-event process leaves the run
        #: byte-identical.
        scheduler.faults = faults
        scheduler.retry = retry if retry is not None else RetryPolicy()
        scheduler.router = router
        #: The SLO-driven control plane
        #: (:class:`~repro.serving.control.ControlPolicy`).  ``None``
        #: runs the open-loop path byte-identically.
        scheduler.control = control

    def __init__(
        self,
        scheduler,
        requests: Sequence[InferenceRequest],
        checkpoint_at_s: Optional[float],
        num_shards: int,
        protected: Tuple[str, ...],
        inflight=Resource,
        charge_explore: bool = True,
        preempt=None,
    ):
        if not requests:
            raise ValueError("no requests to serve")
        self.ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        self.cluster = cluster = scheduler.cluster
        self.strategy = scheduler.strategy
        self.trace_level = scheduler.trace_level
        self.retry = scheduler.retry
        self.control = scheduler.control
        self.num_shards = num_shards
        self.checkpoint_at_s = checkpoint_at_s
        #: ``preempt(run, request, holder)`` -> plan-executor checkpoint
        #: hook, or None; ``holder[0]`` is the request's current slot.
        self.preempt = preempt
        self.runtime = runtime = SimRuntime(cluster, trace_level=self.trace_level)
        faults = scheduler.faults
        injector = None
        if faults is not None:
            injector = FaultInjector(
                runtime,
                cluster,
                faults.events(cluster, protected=protected),
                batteries=faults.battery_map(protected),
                battery_sample_s=faults.battery_sample_s,
                battery_horizon_s=faults.horizon_s,
            )
            injector.arm()
        self.injector = injector
        # A zero-event process never arms: no injector process, no gates,
        # no trace -- the degenerate pin rides this flag being False.
        self.fault_mode = injector is not None and injector.armed
        self.fault_trace = FaultTrace(self.trace_level) if self.fault_mode else None
        self.executor = PlanExecutor(runtime, charge_explore=charge_explore)
        self.env = env = runtime.env
        self.queues = [Store(env) for _ in range(num_shards)]
        self.inflight = inflight(env, capacity=scheduler.max_inflight)
        # Routing layer: the specializer prices queued backlogs (GFLOPs
        # of queued work) for load-aware routers and feeds the sharded
        # scheduler's epoch respecialization.  Neither touches the
        # event schedule.
        self.specializer = ShardSpecializer(num_shards)
        self.router = scheduler.router
        self.stats = self.router.bind(num_shards, self.backlog_of)
        self.served: List[ServedRequest] = []
        self.counters = {
            "batches": 0,
            "replans": 0,
            "max_batch": 0,
            "steals": 0,
            "preemptions": 0,
            "planning_s": 0.0,
        }
        #: Per-shard ledgers: admissions, retry re-admissions and
        #: dispatches (the sharded dispatchers count them; the count
        #: feeds the breakers); ``idle`` marks a dispatcher parked on
        #: its empty queue.
        self.admitted = [0] * num_shards
        self.readmitted = [0] * num_shards
        self.dispatched = [0] * num_shards
        self.idle = [False] * num_shards
        #: request_id -> upcoming dispatch attempt number (absent = 1).
        self.attempt_of: Dict[int, int] = {}
        #: request_id -> sim time of its first mid-plan failure.
        self.first_failure_at: Dict[int, float] = {}
        self.shed_ids: List[int] = []
        self.rejected_ids: List[int] = []
        #: request_id -> plan-segment boundaries crossed (checkpoint
        #: runs only; the recorder hook adds no events).
        self.segments: Optional[Dict[int, int]] = (
            {} if checkpoint_at_s is not None else None
        )
        self._bucket_memo = (None, None)
        self.controller = None
        if self.control is not None:
            self.controller = Controller(
                self.control,
                env,
                trace_level=self.trace_level,
                inflight=self.inflight,
                router=self.router,
                num_shards=num_shards,
            )

    # Signals ---------------------------------------------------------------

    def backlog_of(self, shard: int) -> float:
        cost_of = self.specializer.cost_of
        return sum(cost_of(item.model) for item in self.queues[shard].items)

    def queue_depth(self) -> int:
        return sum(queue.size for queue in self.queues)

    def pressure(self) -> int:
        """Door pressure: queued plus waiting-for-slot requests."""
        return self.queue_depth() + self.inflight.queue_length

    def est_wait_s(self) -> float:
        # Capacity-weighted backlog over every available station: a min
        # over devices would always find an idle weak core and the
        # deadline door would never close, so congestion on the cores
        # that do the work has to dominate the estimate.
        total = 0.0
        weight = 0.0
        for device in self.cluster.devices:
            if not self.cluster.is_available(device.name):
                continue
            for station in self.runtime.stations_of(device.name):
                total += station.compute_weight * station.backlog_seconds
                weight += station.compute_weight
        return total / weight if weight > 0.0 else 0.0

    def bucket_of(self, load: Optional[Dict[str, float]]) -> Optional[Tuple]:
        """Quantised snapshot identity (None for load-unaware strategies).

        Delegates to :meth:`Strategy.load_key` -- the same quantisation
        the plan cache keys on -- so "drifted past the load bucket"
        means exactly "a fresh plan() would miss the cache".  The
        snapshot is a pure function of (clock, commitment version), so
        on the sim fast path the bucket is memoised per state token and
        the per-dispatch drift check costs a tuple compare; the
        reference configuration keeps the seed cost.
        """
        token = None
        if self.env._fast:
            token = (self.env.now, self.runtime._load_version)
            if self._bucket_memo[0] == token:
                return self._bucket_memo[1]
        effective = self.strategy.effective_load(load)
        bucket = None if effective is None else self.strategy.load_key(effective)
        if token is not None:
            self._bucket_memo = (token, bucket)
        return bucket

    def settled(self) -> bool:
        """Whether every request completed, was shed or was rejected."""
        done = len(self.served) + len(self.shed_ids) + len(self.rejected_ids)
        return done >= len(self.ordered)

    # Request stages -------------------------------------------------------

    def source(self):
        env = self.env
        controller = self.controller
        observe = self.specializer.observe
        route = self.router.route
        admitted = self.admitted
        queues = self.queues
        for request in self.ordered:
            if request.arrival_s > env.now:
                yield env.timeout(request.arrival_s - env.now)
            if controller is not None:
                verdict = controller.admit(request)
                if verdict == REJECT:
                    self.rejected_ids.append(request.request_id)
                    continue
                if verdict == DOWNGRADE:
                    request = replace(
                        request,
                        priority=request.priority + self.control.admission_downgrade_by,
                    )
            observe(request.model)
            shard = route(request)
            admitted[shard] += 1
            queues[shard].put(request)

    def readmit(self, request: InferenceRequest, delay_s: float):
        if delay_s > 0:
            yield self.env.timeout(delay_s)
        shard = self.router.route(request)
        self.readmitted[shard] += 1
        self.idle[shard] = False  # its parked getter wakes with this item
        self.queues[shard].put(request)

    def handle_failure(
        self, request: InferenceRequest, lost: DeviceLostError, shard: int
    ) -> None:
        """Retry, downgrade or shed one failed request (the policy)."""
        retry = self.retry
        fault_trace = self.fault_trace
        attempt = self.attempt_of.get(request.request_id, 1)
        fault_trace.record_failure(
            request.request_id, lost.device, lost.segment, lost.time_s, attempt
        )
        self.first_failure_at.setdefault(request.request_id, lost.time_s)
        if self.controller is not None:
            # Feed the shard's breaker first: a failure burst trips it
            # whatever the retry policy then decides.
            self.controller.observe_failure(shard, self.dispatched[shard])
        pressured = (
            attempt <= retry.max_retries
            and retry.degradation != DEGRADE_NONE
            and self.pressure() > retry.pressure_threshold
        )
        if attempt > retry.max_retries or (pressured and retry.degradation == DEGRADE_SHED):
            self.shed_ids.append(request.request_id)
            fault_trace.record_shed(request.request_id)
            return
        again = request
        if pressured:
            # Downgrade: re-admit at a worse priority class instead of
            # dropping the work.
            again = replace(request, priority=request.priority + retry.downgrade_priority_by)
            fault_trace.record_downgrade(request.request_id)
        self.attempt_of[request.request_id] = attempt + 1
        # Exponential backoff (deterministically jittered when the
        # policy asks) charged as queue delay; the request then rejoins
        # the normal dispatcher path, where planning against the current
        # availability signature yields a plan avoiding the lost device.
        delay = retry.backoff_s(attempt, request.request_id)
        fault_trace.record_retry(request.request_id, self.env.now + delay)
        self.env.process(self.readmit(again, delay))

    def serve(self, request: InferenceRequest, plan, slot, replanned: bool, shard: int):
        holder = [slot]
        hook = self.preempt(self, request, holder) if self.preempt is not None else None
        if self.segments is not None:
            # Compose: count the boundary, then run the preemption
            # hand-off (the recorder itself adds no events).
            hook = _segment_recorder(self.segments, request.request_id, inner=hook)
        fault_trace = self.fault_trace
        try:
            try:
                result = yield from self.executor.execute(request, plan, checkpoint=hook)
            except DeviceLostError as lost:
                if fault_trace is None:
                    raise
                self.handle_failure(request, lost, shard)
                return
            attempts = self.attempt_of.get(request.request_id, 1)
            self.served.append(
                ServedRequest(
                    request=request,
                    result=result,
                    replanned=replanned,
                    attempts=attempts,
                )
            )
            now = self.env.now
            if self.controller is not None:
                self.controller.observe_completion(now - request.arrival_s, shard)
            if fault_trace is not None:
                first = self.first_failure_at.get(request.request_id)
                if first is not None:
                    fault_trace.record_recovery(request.request_id, now - first, attempts)
        finally:
            self.inflight.release(holder[0])

    def wake_loop(self):
        # Ticks on the sim clock, like the sharded scheduler's epoch
        # loop; stops once the stream settles so a long tail of
        # wakeups never outlives the run's useful work.
        while True:
            yield self.env.timeout(self.control.interval_s)
            if self.settled():
                break
            self.controller.wake()

    # Run -------------------------------------------------------------------

    def start(self, dispatchers, drain_shard=None, rescale=None, extra_fields=dict):
        """Start the source, ``dispatchers`` and the controller's wake
        loop, then run to the end -- or pause at ``checkpoint_at_s`` and
        return a :class:`RunCheckpoint`.

        ``drain_shard``/``rescale`` are the scheduler's breaker-drain and
        elastic-rescale actuators; ``extra_fields()`` returns the result
        fields only that scheduler reports.
        """
        self._extra_fields = extra_fields
        env = self.env
        if self.controller is not None:
            self.controller.bind(
                pressure_of=self.pressure,
                queue_depth=self.queue_depth,
                est_wait_s=self.est_wait_s,
                drain_shard=drain_shard,
                rescale=rescale,
                injector=self.injector if self.fault_mode else None,
            )
        env.process(self.source())
        for dispatcher in dispatchers:
            env.process(dispatcher)
        if self.controller is not None:
            env.process(self.wake_loop())
        if self.checkpoint_at_s is None:
            return self.finish()
        # Pause: drain the exact event prefix up to the requested time,
        # capture the state, and hand control back.  finish() later
        # continues from the same heap, so the pause never perturbs the
        # schedule.
        env.run(until=self.checkpoint_at_s)
        return RunCheckpoint(self)

    def finish(self) -> ServingResult:
        self.env.run()
        served = self.served
        if not self.settled():
            missing = len(self.ordered) - len(served) - len(self.shed_ids)
            missing -= len(self.rejected_ids)
            raise RuntimeError(f"{missing} requests never completed (deadlock?)")
        served.sort(key=lambda record: record.request.request_id)
        makespan = max((record.completed_s for record in served), default=0.0)
        runtime = self.runtime
        energy_by_device = cluster_energy_j(self.cluster, runtime.busy, (0.0, makespan))
        full = self.trace_level == TRACE_FULL
        fault_trace = self.fault_trace
        counters = self.counters
        stats = self.stats
        return ServingResult(
            strategy=self.strategy.name,
            served=served,
            makespan_s=makespan,
            energy_j=sum(energy_by_device.values()),
            energy_by_device=energy_by_device,
            network_bytes=runtime.transfer_log.total_bytes,
            total_flops=runtime.flops_log.total_flops,
            busy=runtime.busy,
            batches=counters["batches"],
            replans=counters["replans"],
            max_batch_observed=counters["max_batch"],
            shards=self.num_shards,
            steals=counters["steals"],
            preemptions=counters["preemptions"],
            planning_charged_s=counters["planning_s"],
            sim_events=self.env.scheduled_events,
            failures=fault_trace.failures if fault_trace is not None else 0,
            retries=fault_trace.retries if fault_trace is not None else 0,
            shed=len(self.shed_ids),
            downgraded=fault_trace.downgraded if fault_trace is not None else 0,
            fault_events=self.injector.applied if self.injector is not None else 0,
            shed_requests=tuple(sorted(self.shed_ids)) if full else (),
            faults=fault_trace,
            router=self.router.name,
            epochs=stats.epochs,
            spilled=stats.spilled,
            cold_routed=stats.cold,
            leader_reelections=stats.reelections,
            routing=stats,
            rejected=len(self.rejected_ids),
            rejected_requests=tuple(sorted(self.rejected_ids)) if full else (),
            control=self.controller.trace if self.controller is not None else None,
            **self._extra_fields(),
        )


class OnlineScheduler:
    """Serves an open-loop request stream on one cluster.

    ``max_batch`` bounds how much backlog one co-planning pass absorbs;
    ``max_inflight`` bounds concurrent executions (the backpressure
    window).  Both default to values that keep the five-board cluster
    busy without thrashing the admission queue.

    ``faults`` arms seeded fault injection
    (:class:`~repro.faults.PerturbationProcess`); ``retry`` sets how
    mid-plan failures are re-admitted or shed
    (:class:`~repro.faults.RetryPolicy`, default policy when omitted).
    The leader device (``devices[0]``) is always protected from churn --
    a dispatcher cannot replan from a dead brain.  A ``faults`` process
    that expands to zero events leaves the run byte-identical to a
    fault-free one.

    ``control`` attaches the SLO-driven control plane
    (:class:`~repro.serving.control.ControlPolicy`): adaptive
    concurrency (AIMD on the in-flight window), door admission control
    (pressure reject/downgrade, deadline shed) and battery-drain
    lookahead apply here.  The elastic-shard and per-shard breaker
    actuators are :class:`~repro.serving.sharded.ShardedScheduler`
    territory (one shard has nothing to scale or route around), so a
    policy with ``elastic=True`` or ``breaker_failures > 0`` is
    rejected.  ``control=None`` runs the legacy open-loop path
    byte-identically.
    """

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        strategy: Optional[Strategy] = None,
        max_batch: int = 16,
        max_inflight: int = 4,
        trace_level: str = TRACE_FULL,
        faults: Optional[PerturbationProcess] = None,
        retry: Optional[RetryPolicy] = None,
        router=None,
        control: Optional[ControlPolicy] = None,
    ):
        if control is not None and (control.elastic or control.breaker_failures > 0):
            raise ValueError(
                "elastic shards and circuit breakers need ShardedScheduler; "
                "OnlineScheduler has one shard"
            )
        # The single-leader loop is the degenerate 1-shard path of the
        # layered serving stack: every admission routes through the
        # router interface (always to shard 0), so router accounting
        # and the ``router`` result field behave uniformly across both
        # schedulers while the event schedule stays byte-identical.
        ServingRun.configure(
            self, cluster, strategy, max_batch, max_inflight, trace_level,
            faults, retry, resolve_router(router, "hash"), control,
        )

    def run(
        self,
        requests: Sequence[InferenceRequest],
        checkpoint_at_s: Optional[float] = None,
    ) -> ServingResult:
        """Serve the full stream; returns aggregated serving metrics.

        ``checkpoint_at_s`` pauses the event loop once the clock
        reaches that simulated time and returns a
        :class:`RunCheckpoint` instead; ``resume()`` on the handle
        drains the rest of the run to a byte-identical result.
        """
        run = ServingRun(
            self,
            requests,
            checkpoint_at_s,
            num_shards=1,
            protected=(self.cluster.leader.name,),
        )
        return run.start([self._dispatcher(run)])

    def _dispatcher(self, run: ServingRun):
        """FIFO batches from the one admission queue, planned from
        ``devices[0]``."""
        cluster = self.cluster
        runtime = run.runtime
        queue = run.queues[0]
        counters = run.counters
        fault_mode = run.fault_mode
        remaining = len(run.ordered)
        # In fault mode the loop is open-ended: retries re-enter the
        # queue after the original stream drains, and when the heap
        # finally empties the dispatcher is parked on queue.get()
        # (parked getters do not keep the simulation alive).  With a
        # controller the loop is open-ended too: door rejections mean
        # the dispatch count never reaches len(ordered).
        open_ended = fault_mode or self.control is not None
        while remaining > 0 or open_ended:
            first = yield queue.get()
            batch = [first]
            while queue.size > 0 and len(batch) < self.max_batch:
                item = yield queue.get()
                batch.append(item)
            counters["batches"] += 1
            counters["max_batch"] = max(counters["max_batch"], len(batch))
            load = runtime.load_snapshot()
            batch_bucket = run.bucket_of(load)
            batch_avail = cluster.availability_signature() if fault_mode else None
            graphs = [build_model(request.model) for request in batch]
            plans = self.strategy.plan_batch(graphs, cluster, load=load)
            fresh = [False] * len(batch)
            for index, request in enumerate(batch):
                slot = run.inflight.request()
                yield slot  # backpressure: wait for an in-flight slot
                current = runtime.load_snapshot()
                current_bucket = run.bucket_of(current)
                drifted = current_bucket != batch_bucket
                if fault_mode and not drifted:
                    # Availability drift: a device joined or left while
                    # the batch waited -- replan the tail so dispatches
                    # never carry a plan spanning a device known to be
                    # gone.
                    drifted = cluster.availability_signature() != batch_avail
                if drifted:
                    # The backlog drifted past the load bucket the batch
                    # plan assumed; re-co-plan the whole remaining tail
                    # in one pass against the fresh snapshot and adopt
                    # its bucket, so one drift does not degrade the rest
                    # of the batch to per-request planning (the plan
                    # cache absorbs repeat buckets).
                    plans[index:] = self.strategy.plan_batch(
                        graphs[index:], cluster, load=current
                    )
                    for tail in range(index, len(batch)):
                        fresh[tail] = True
                    batch_bucket = current_bucket
                    if fault_mode:
                        batch_avail = cluster.availability_signature()
                    counters["replans"] += 1
                run.env.process(run.serve(request, plans[index], slot, fresh[index], 0))
                remaining -= 1
