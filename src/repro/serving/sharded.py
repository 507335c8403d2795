"""Sharded multi-leader serving: priorities, preemption, work stealing.

:class:`ShardedScheduler` scales the single-leader
:class:`~repro.serving.scheduler.OnlineScheduler` control loop out to
``num_shards`` leader dispatchers.  Arrivals are partitioned across
per-shard admission queues (``hash`` spreads request ids round-robin;
``model`` pins each model to one shard so a shard's plan cache and
batched DSE sweeps stay hot for its models).  Every dispatcher runs the
same loop -- drain a backlog batch, charge planning overhead on the
leader's scheduler CPU, co-plan in one pass, dispatch through the
shared in-flight window -- so shards pipeline planning against each
other's execution instead of serialising the whole stream behind one
dispatcher.

Scheduling policy on top of the sharding:

- **Priorities.**  The in-flight window is a
  :class:`~repro.sim.resources.PriorityResource`: slot claims are
  granted most-urgent-first (FIFO within a priority class), so a
  high-priority request admitted late still overtakes queued
  low-priority work at the slot boundary.  Within a shard batch,
  dispatch order is priority-sorted (stable, so FIFO per class).
- **Preemption.**  Slot holders are preemptible: an urgent claim that
  cannot be granted marks the least urgent in-flight holder, which
  hands its slot back cooperatively at the next plan-segment boundary
  (:class:`~repro.core.executor.PlanExecutor` checkpoints) and
  re-queues at its own priority to resume.
- **Work stealing.**  A dispatcher whose queue still holds work after
  draining a batch donates half of the remainder to shards parked on
  empty queues, so an idle leader wakes immediately instead of waiting
  for its own hash bucket to fill.
- **Planning overhead.**  ``planning_overhead="bucket"`` charges the
  strategy's DSE overhead on the leader's scheduler CPU for every
  *fresh* (model, load-bucket) plan a pass computes
  (:meth:`~repro.core.strategy.Strategy.uncached_plans`); cached
  decisions are free, mirroring the paper's middleware reusing DSE
  results.  ``"off"`` restores the legacy zero-cost planning;  a float
  charges that many seconds per planning pass.
- **Physical leaders.**  ``leader_policy="shared"`` (legacy) plans
  every shard's batches from the cluster's ``devices[0]``: one board
  sources every probe and offload fan-out and absorbs every planning
  charge.  ``"distributed"`` elects a *per-shard* physical leader
  (:meth:`~repro.platform.cluster.Cluster.shard_leaders`, round-robin
  over available devices): each dispatcher plans with its own leader
  (threaded through :meth:`~repro.core.strategy.Strategy.plan_batch`),
  charges planning on that leader's scheduler CPU, and executes plans
  whose probe/fan-out/merge FSM runs from that device -- so N-shard
  runs genuinely spread controller work and fan-out origin across
  boards instead of funnelling through one.  ``"epoch"`` starts from
  the distributed placement and *re-elects* every shard's leader at
  each specialization-epoch boundary under the live load snapshot
  (:meth:`~repro.platform.cluster.Cluster.reelect_shard_leaders`), so
  controller work migrates off boards the workload has saturated.
- **Layered routing (ISSUE 7).**  Admission routing is delegated to the
  :mod:`repro.serving.routing` layer: ``router=None`` follows the
  legacy ``assignment`` policy byte-identically
  (:class:`~repro.serving.routing.HashRouter` /
  :class:`~repro.serving.routing.AffinityRouter`), while
  ``router="clustered"`` enables workload-clustered specialization:
  a :class:`~repro.serving.specialize.ShardSpecializer` observes the
  arriving model mix, and every ``epoch_s`` simulated seconds it
  re-clusters the models by plan-structure similarity, assigns each
  shard a specialty, and hands the
  :class:`~repro.serving.routing.ClusteredRouter` a per-model shard
  ranking (specialist first, spill targets next).  In clustered mode
  each shard's plan cache is partitioned
  (``Strategy.plan_batch(partition=shard)``), so one shard's churn
  never evicts another specialist's hot cluster.

Test contract: the scheduler's behaviour switches split into
*equivalence hatches* (``REPRO_SIM_FASTPATH``, ``REPRO_DSE_FASTPATH``,
``trace_level``) that must never change a scheduled event, and
*configurations* (``planning_overhead``, ``leader_policy``) that
legitimately do.  ``tests/integration/test_hatch_matrix.py`` (the
``matrix`` marker) pins every hatch combination schedule-identical
inside every configuration, so fast-path work cannot silently fork
behaviour in an untested corner.

Everything around the dispatchers -- fault arming, admission, routing,
execution, retry/shed, the controller's wake loop, settlement,
checkpointing and the result -- is the request lifecycle
:class:`~repro.serving.scheduler.ServingRun`, shared with
:class:`~repro.serving.scheduler.OnlineScheduler`.  The dispatchers are
not shared: this module keeps only the sharded policy (priority-sorted
per-shard dispatch, planning charge, leader election, specialization
epochs, elastic rescale and work stealing).  With ``num_shards=1``, no priority
spread in the stream, ``planning_overhead="off"`` and
``load_view="min"``, its event schedule degenerates to exactly the
single-leader scheduler's (and with one shard the ``distributed``
leader policy elects ``devices[0]``, so the leader-equivalence pin
extends the same degeneracy).  The two dispatcher loops are independent
implementations, so the equivalence tests in
``tests/serving/test_sharded.py`` that pin one against the other keep
their teeth.
"""

from __future__ import annotations

from math import inf
from typing import List, Optional, Sequence

from repro.core.strategy import Strategy
from repro.dnn.models import build_model
from repro.faults import PerturbationProcess, RetryPolicy
from repro.platform.cluster import LEADER_LEAST_LOADED, Cluster
from repro.serving.control import ControlPolicy
from repro.serving.routing import ClusteredRouter, resolve_router
from repro.serving.scheduler import ServingResult, ServingRun
from repro.sim.resources import PriorityResource
from repro.sim.runtime import LOAD_VIEW_WEIGHTED, LOAD_VIEWS
from repro.sim.trace import TRACE_FULL
from repro.workloads.requests import InferenceRequest

#: Shard-assignment policies (legacy spelling; ``router=None`` follows
#: these through the routing layer byte-identically).
ASSIGN_HASH = "hash"
ASSIGN_MODEL = "model"
ASSIGNMENTS = (ASSIGN_HASH, ASSIGN_MODEL)

#: Planning-overhead charging modes (besides a fixed float of seconds).
PLANNING_OFF = "off"
PLANNING_BUCKET = "bucket"

#: Leader-placement policies.
LEADERS_SHARED = "shared"
LEADERS_DISTRIBUTED = "distributed"
LEADERS_EPOCH = "epoch"
LEADER_MODES = (LEADERS_SHARED, LEADERS_DISTRIBUTED, LEADERS_EPOCH)




def _preemption_hook(run: ServingRun, request: InferenceRequest, holder: List):
    """Plan-executor checkpoint for cooperative preemption.

    At a segment boundary a slot an urgent waiter marked is handed over,
    and the request re-queues at its own priority to resume.
    """

    def checkpoint():
        if holder[0].preempt_requested:
            run.counters["preemptions"] += 1
            run.inflight.release(holder[0])
            resumed = run.inflight.request(priority=request.priority, preemptible=True)
            holder[0] = resumed
            yield resumed

    return checkpoint


class ShardedScheduler:
    """Serves an open-loop stream through ``num_shards`` leader dispatchers.

    One instance drives one request stream on one cluster.  All shards
    share the strategy (and therefore its plan cache), the in-flight
    window and the simulated hardware; what is sharded is the *control
    loop* -- admission queues and dispatchers -- so backlog batches
    form, plan and dispatch concurrently.
    """

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        strategy: Optional[Strategy] = None,
        num_shards: int = 2,
        max_batch: int = 16,
        max_inflight: int = 4,
        assignment: str = ASSIGN_HASH,
        load_view: str = LOAD_VIEW_WEIGHTED,
        planning_overhead=PLANNING_BUCKET,
        preemption: bool = True,
        steal_threshold: int = 2,
        trace_level: str = TRACE_FULL,
        leader_policy: str = LEADERS_SHARED,
        faults: Optional[PerturbationProcess] = None,
        retry: Optional[RetryPolicy] = None,
        router=None,
        epoch_s: float = 0.0,
        control: Optional[ControlPolicy] = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if assignment not in ASSIGNMENTS:
            raise ValueError(f"unknown assignment {assignment!r}; known: {ASSIGNMENTS}")
        if load_view not in LOAD_VIEWS:
            raise ValueError(f"unknown load view {load_view!r}; known: {LOAD_VIEWS}")
        if isinstance(planning_overhead, str):
            if planning_overhead not in (PLANNING_OFF, PLANNING_BUCKET):
                raise ValueError(
                    f"unknown planning overhead mode {planning_overhead!r}; "
                    f"known: {PLANNING_OFF!r}, {PLANNING_BUCKET!r} or seconds"
                )
        elif not 0 <= planning_overhead < inf:
            raise ValueError(f"planning overhead must be finite and >= 0: {planning_overhead}")
        if steal_threshold < 1:
            raise ValueError(f"steal_threshold must be positive, got {steal_threshold}")
        if leader_policy not in LEADER_MODES:
            raise ValueError(
                f"unknown leader policy {leader_policy!r}; known: {LEADER_MODES}"
            )
        if not 0 <= epoch_s < inf:
            raise ValueError(f"epoch length must be finite and >= 0: {epoch_s}")
        if leader_policy == LEADERS_EPOCH and epoch_s <= 0:
            raise ValueError("leader_policy='epoch' needs a positive epoch_s")
        #: ``router=None`` follows the legacy ``assignment`` policy
        #: through the routing layer.
        ServingRun.configure(
            self, cluster, strategy, max_batch, max_inflight, trace_level,
            faults, retry, resolve_router(router, assignment), control,
        )
        self.num_shards = num_shards
        self.assignment = assignment
        self.load_view = load_view
        self.planning_overhead = planning_overhead
        self.preemption = preemption
        self.steal_threshold = steal_threshold
        self.leader_policy = leader_policy
        #: Specialization-epoch length [simulated s]; 0 disables the
        #: epoch driver (no respecialization, no leader re-election).
        self.epoch_s = epoch_s

    # Internals --------------------------------------------------------------

    @property
    def charges_planning(self) -> bool:
        return self.planning_overhead != PLANNING_OFF

    def shard_leaders(self) -> List[str]:
        """Initial physical leader device name per shard, per the leader
        policy (``epoch`` starts distributed and re-elects at epoch
        boundaries)."""
        if self.leader_policy in (LEADERS_DISTRIBUTED, LEADERS_EPOCH):
            return list(self.cluster.shard_leaders(self.num_shards))
        return [self.cluster.leader.name] * self.num_shards

    # Entry point -------------------------------------------------------------

    def run(
        self,
        requests: Sequence[InferenceRequest],
        checkpoint_at_s: Optional[float] = None,
    ) -> ServingResult:
        """Serve the full stream; returns aggregated serving metrics.

        ``checkpoint_at_s`` pauses the event loop once the clock
        reaches that simulated time and returns a
        :class:`~repro.serving.scheduler.RunCheckpoint` instead;
        ``resume()`` on the handle drains the rest of the run to a
        byte-identical result.
        """
        leaders = self.shard_leaders()
        run = ServingRun(
            self,
            requests,
            checkpoint_at_s,
            num_shards=self.num_shards,
            # Order-preserving dedup: tuple(set(...)) would hand the
            # protected list hash-randomised ordering across runs.
            protected=tuple(dict.fromkeys(leaders)),
            inflight=PriorityResource,
            charge_explore=not self.charges_planning,
            preempt=_preemption_hook if self.preemption else None,
        )
        cluster = self.cluster
        num_shards = self.num_shards
        env = run.env
        runtime = run.runtime
        queues = run.queues
        idle = run.idle
        counters = run.counters
        controller = run.controller
        fault_mode = run.fault_mode
        router = run.router
        clustered = isinstance(router, ClusteredRouter)
        stolen_in = [0] * num_shards
        stolen_out = [0] * num_shards
        # Leaders can move after fault arming (epoch re-election, or an
        # elastic rescale under the controller): such leaders are not
        # churn-protected, so the dispatcher re-checks availability.
        dynamic_leaders = self.leader_policy == LEADERS_EPOCH or (
            controller is not None
            and self.control.elastic
            and self.leader_policy != LEADERS_SHARED
        )

        def move(source: int, taker: int, count: int = 1) -> None:
            """Move ``count`` queued requests from ``source`` to ``taker``
            on the steal ledger, so the per-shard reconciliation stays
            exact."""
            for _ in range(count):
                queues[taker].put(queues[source].get_nowait())
            idle[taker] = False  # its parked getter wakes with this item
            counters["steals"] += count
            stolen_out[source] += count
            stolen_in[taker] += count

        def drain_shard(shard: int) -> int:
            """Move ``shard``'s queued items to healthy shards (breaker
            trip / elastic merge).  With no healthy target the items
            stay put (admission cannot drop work that is already
            admitted)."""
            targets = [
                other
                for other in range(num_shards)
                if other != shard and router.allowed(other)
            ]
            moved = 0
            while targets and queues[shard].size > 0:
                move(shard, min(targets, key=lambda other: (queues[other].size, other)))
                moved += 1
            return moved

        def donate(shard: int) -> None:
            """Shed half the leftover backlog to shards parked idle."""
            queue = queues[shard]
            if queue.size < self.steal_threshold:
                return
            takers = [
                other
                for other in range(num_shards)
                if idle[other]
                and (controller is None or controller.dispatch_ok(other))
            ]
            if not takers:
                return
            for moved in range(queue.size // 2):
                move(shard, takers[moved % len(takers)])

        def steal(shard: int) -> int:
            """Pull half the most backlogged peer queue onto ``shard``.

            The donation path above only runs when a *busy* dispatcher
            finishes forming a batch -- but a dispatcher spends most of
            its loop parked on in-flight slots, during which its queue
            grows while idle peers sleep.  Stealing from the consumer
            side closes that gap: a dispatcher about to park instead
            takes work from the deepest queue at or past the steal
            threshold (ties to the lowest shard index, deterministic).
            A shard the control plane sidelined (breaker open, or past
            the elastic active prefix) must not pull work onto itself.
            """
            if controller is not None and not controller.dispatch_ok(shard):
                return 0
            victims = [
                other
                for other in range(num_shards)
                if other != shard and queues[other].size >= self.steal_threshold
            ]
            if not victims:
                return 0
            victim = max(victims, key=lambda other: queues[other].size)
            moved = queues[victim].size // 2
            move(victim, shard, moved)
            return moved

        def live_leader(shard: int) -> str:
            """``shard``'s leader, re-elected first if it has died.

            Checked before every planning pass: a dispatcher cannot plan
            from a dead brain, and leaders elected after arming (epoch
            boundaries, elastic rescales) are not churn-protected, so
            one can leave at any yield of the dispatcher.
            """
            leader = leaders[shard]
            if dynamic_leaders and fault_mode and not cluster.is_available(leader):
                leader = cluster.elect_leader(
                    LEADER_LEAST_LOADED,
                    load=runtime.load_snapshot(view=self.load_view),
                ).name
                leaders[shard] = leader
            return leader

        def plan_pass(shard: int, graphs, load, label: str):
            """Co-plan ``graphs`` in one pass from ``shard``'s leader,
            charging the pass on the leader's scheduler CPU first.

            Epoch re-election moves leaders between batches, so the
            leader binds per pass (static policies never mutate
            ``leaders``), and it is re-checked after the charge, during
            which a dynamically elected leader can leave.  Clustered
            mode partitions the plan cache per shard, so a specialist's
            hot cluster survives other shards' churn.
            """
            partition = shard if clustered else None
            leader = live_leader(shard)
            charge = 0.0
            if self.planning_overhead == PLANNING_BUCKET:
                # Only *fresh* (model, load-bucket) plans cost DSE time.
                fresh = self.strategy.uncached_plans(
                    graphs, cluster, load=load, leader=leader, partition=partition
                )
                charge = self.strategy.dse_overhead_s * fresh
            elif self.planning_overhead != PLANNING_OFF:
                charge = float(self.planning_overhead)
            if charge > 0:
                counters["planning_s"] += charge
                yield from run.executor.charge_overhead(leader, charge, label)
                leader = live_leader(shard)
            return self.strategy.plan_batch(
                graphs, cluster, load=load, leader=leader, partition=partition
            )

        def dispatcher(shard: int):
            queue = queues[shard]
            while True:
                if queue.size == 0 and not steal(shard):
                    idle[shard] = True
                first = yield queue.get()
                idle[shard] = False
                batch = [first]
                while queue.size > 0 and len(batch) < self.max_batch:
                    item = yield queue.get()
                    batch.append(item)
                counters["batches"] += 1
                counters["max_batch"] = max(counters["max_batch"], len(batch))
                donate(shard)
                # Urgent-first dispatch order; stable, so FIFO per class.
                batch.sort(key=lambda request: request.priority)
                load = runtime.load_snapshot(view=self.load_view)
                batch_bucket = run.bucket_of(load)
                batch_avail = cluster.availability_signature() if fault_mode else None
                graphs = [build_model(request.model) for request in batch]
                plans = yield from plan_pass(shard, graphs, load, "batch_dse")
                fresh = [False] * len(batch)
                for index, request in enumerate(batch):
                    slot = run.inflight.request(
                        priority=request.priority,
                        preemptible=self.preemption,
                        preempt=self.preemption,
                    )
                    yield slot  # backpressure: wait for an in-flight slot
                    current = runtime.load_snapshot(view=self.load_view)
                    current_bucket = run.bucket_of(current)
                    drifted = current_bucket != batch_bucket
                    if fault_mode and not drifted:
                        # Availability drift: a device joined or left
                        # while the batch waited -- replan the tail so
                        # dispatches never carry a plan spanning a
                        # device known to be gone.
                        drifted = cluster.availability_signature() != batch_avail
                    if drifted:
                        # Drifted past the batch's bucket: re-co-plan
                        # the remaining tail in one pass and adopt the
                        # fresh bucket.
                        plans[index:] = yield from plan_pass(
                            shard, graphs[index:], current, "replan_dse"
                        )
                        for late in range(index, len(batch)):
                            fresh[late] = True
                        batch_bucket = current_bucket
                        if fault_mode:
                            batch_avail = cluster.availability_signature()
                        counters["replans"] += 1
                    run.dispatched[shard] += 1
                    env.process(run.serve(request, plans[index], slot, fresh[index], shard))

        def epoch_loop():
            # Ticks every epoch_s until the stream settles: each tick
            # re-clusters the observed workload, hands the clustered
            # router its fresh specialist ranking, and (under the epoch
            # leader policy) re-elects every shard's physical leader
            # under the live load snapshot.  Parked dispatchers do not
            # keep the simulation alive, but this timeout does, so the
            # loop checks settlement first and stops ticking once all
            # requests are served, shed or rejected.
            while True:
                yield env.timeout(self.epoch_s)
                if run.settled():
                    break
                plan = run.specializer.respecialize()
                if clustered:
                    router.adopt(plan.ranking)
                reelected = False
                if self.leader_policy == LEADERS_EPOCH:
                    elected = cluster.reelect_shard_leaders(
                        num_shards, load=runtime.load_snapshot(view=self.load_view)
                    )
                    reelected = list(elected) != leaders
                    leaders[:] = elected
                run.stats.record_epoch(env.now, leaders, plan.specialty_models, reelected)

        def rescale(old: int, new: int) -> None:
            """Elastic scale step: re-elect the active prefix's leaders
            (shared leadership has nothing to re-elect -- every shard
            plans from ``devices[0]``)."""
            del old
            if self.leader_policy == LEADERS_SHARED:
                return
            elected = cluster.reelect_shard_leaders(
                new, load=runtime.load_snapshot(view=self.load_view)
            )
            leaders[:new] = elected

        processes = [dispatcher(shard) for shard in range(num_shards)]
        if self.epoch_s > 0:
            processes.append(epoch_loop())
        return run.start(
            processes,
            drain_shard=drain_shard,
            rescale=rescale,
            extra_fields=lambda: dict(
                leader_devices=tuple(leaders),
                admitted_by_shard=tuple(run.admitted),
                dispatched_by_shard=tuple(run.dispatched),
                stolen_in_by_shard=tuple(stolen_in),
                stolen_out_by_shard=tuple(stolen_out),
                readmitted_by_shard=tuple(run.readmitted),
            ),
        )
