"""The benchmark's workloads: inputs from a seed, timed rounds, output checks.

Only the public API of ``repro`` is called and no ``REPRO_*`` variable is
read or set, so the benchmark measures the default configuration.  Host
time is ``time.process_time`` (CPU seconds of this process); ``sim_*``
figures are simulated time and energy from the repository's cost model,
which has no real-hardware reference: they are outputs of an unvalidated
model, deterministic for a seed.

Each workload object is built once per process and then runs rounds:

- ``warm()`` serves every stream once, untimed, which also fills the
  lazily built state every round shares (memoised model graphs, a warm
  plan cache where the workload keeps one), and returns it as a
  :class:`Round`;
- ``round(probe, counting)`` runs one timed round, optionally under a
  profiler or counting plan-cache reuse, and returns a :class:`Round`;
- ``metrics(rounds, fastest)`` turns the timed rounds into the end-to-end
  metrics.

A round that breaks an output check raises :class:`CheckFailed`.
"""

import hashlib
import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List

from repro.core.dp import clear_result_memos
from repro.core.hidp import HiDPStrategy
from repro.dnn.models import MODEL_NAMES, build_model
from repro.metrics.serving import latency_percentiles, result_fingerprint
from repro.platform.cluster import build_cluster
from repro.serving import (
    ClusteredRouter,
    ControlPolicy,
    PerturbationProcess,
    RetryPolicy,
    ShardedScheduler,
)
from repro.workloads.arrivals import poisson_stream


class CheckFailed(RuntimeError):
    """An output of the program failed one of the benchmark's checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Fastest:
    """For each stretch of a round, the least time any timed round took.

    A round splits into stretches at every ``plan`` / ``plan_batch`` call:
    the work between two calls, and each call (:func:`split_cpu`).  Every
    round does the same work in the same order (the output checks hold its
    fingerprint and its plan-call count fixed), so stretch ``i`` of one
    round is stretch ``i`` of every other.  Other tenants of a shared
    machine slow single stretches by up to half; across rounds, each
    stretch's least time is the one they disturbed least.
    """

    def __init__(self) -> None:
        self.rounds = 0
        self.between_cpu = self.plan_cpu = self.plan_ms = array("d")

    def add(self, timed: "Round") -> None:
        if self.rounds:
            self.between_cpu = array("d", map(min, self.between_cpu, timed.between_cpu))
            self.plan_cpu = array("d", map(min, self.plan_cpu, timed.plan_cpu))
            self.plan_ms = array("d", map(min, self.plan_ms, timed.plan_ms))
        else:
            self.between_cpu = array("d", timed.between_cpu)
            self.plan_cpu = array("d", timed.plan_cpu)
            self.plan_ms = array("d", timed.plan_ms)
        self.rounds += 1


def host_metrics(fastest: Fastest, requests: int) -> Dict[str, float]:
    """Host cost of one round, from the least time of each stretch (see
    :class:`Fastest`).  The latency percentiles run over the plan calls of
    one round, each at its least wall latency (linear interpolation
    between ranks); simulated figures use the repository's own
    :func:`~repro.metrics.serving.latency_percentiles` instead.
    """
    plan_cpu = math.fsum(fastest.plan_cpu)
    cpu_s = math.fsum(fastest.between_cpu) + plan_cpu
    cuts = statistics.quantiles(fastest.plan_ms, n=100, method="inclusive")
    return {
        "requests_per_cpu_s": requests / cpu_s,
        "plans_per_cpu_s": len(fastest.plan_ms) / plan_cpu,
        "plan_ms.p50": cuts[49],
        "plan_ms.p90": cuts[89],
    }


class TimedStrategy(HiDPStrategy):
    """HiDP with every ``plan`` / ``plan_batch`` call timed from outside.

    Plans are untouched: each call is forwarded to :class:`HiDPStrategy`.
    The counters hold the wall latency of each call (``plan_ms``) and the
    process CPU clock when each call started and ended (``marks``, two
    entries per call).  With ``counting`` on,
    each call first asks :meth:`~repro.core.strategy.Strategy.uncached_plans`
    how many fresh plans it will compute (``graphs``, ``fresh``, and the
    latency of calls that planned afresh, ``miss_ms``); that costs a
    cache-key computation per graph, so only a dedicated round counts.
    """

    def __init__(self) -> None:
        super().__init__()
        self.counting = False
        self.take_counters()

    def take_counters(self) -> Dict[str, object]:
        """The counters since the last call; starts them afresh."""
        taken = dict(getattr(self, "counters", {}))
        self.counters = {
            "plan_ms": array("d"),
            "marks": array("d"),
            "graphs": 0,
            "fresh": 0,
            "miss_ms": [],
        }
        return taken

    def _timed(self, call, batch, graphs, cluster, args, kwargs):
        if self.counting:
            fresh = self.uncached_plans(batch, cluster, *args, **kwargs)
        cpu = time.process_time()
        start = time.perf_counter()
        out = call(graphs, cluster, *args, **kwargs)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.counters["marks"].extend((cpu, time.process_time()))
        self.counters["plan_ms"].append(elapsed_ms)
        if self.counting:
            self.counters["graphs"] += len(batch)
            self.counters["fresh"] += fresh
            if fresh:
                self.counters["miss_ms"].append(elapsed_ms)
        return out

    def plan(self, graph, cluster, *args, **kwargs):
        return self._timed(super().plan, [graph], graph, cluster, args, kwargs)

    def plan_batch(self, graphs, cluster, *args, **kwargs):
        return self._timed(super().plan_batch, graphs, graphs, cluster, args, kwargs)


def first_plans(models) -> None:
    """The benchmark's set-up: build the full cluster and each model, and
    plan each model once with a fresh HiDP strategy."""
    cluster = build_cluster()
    strategy = HiDPStrategy()
    for model in models:
        strategy.plan(build_model(model), cluster)


def split_cpu(start: float, marks, end: float):
    """CPU seconds of the stretches of ``[start, end]`` between plan calls
    (one more than there are calls) and of the calls themselves, given the
    calls' start and end clocks ``marks``."""
    bounds = [start, *marks, end]
    stretches = array("d", [b - a for a, b in zip(bounds, bounds[1:])])
    return stretches[0::2], stretches[1::2]


@dataclass
class Round:
    """One timed round: what it cost on the host and what it produced."""

    cpu_s: float
    attempted: int
    failed: int
    #: The same for every round of one run, or the run fails.
    fingerprint: str
    #: The strategy's counters over the round (see :class:`TimedStrategy`).
    plans: Dict[str, object]
    #: CPU seconds between plan calls, and of each plan call (:func:`split_cpu`).
    between_cpu: array
    plan_cpu: array
    #: The serving results; kept from the last round only.
    output: object = None

    @property
    def plan_ms(self) -> array:
        return self.plans["plan_ms"]


def fingerprint_of(results) -> str:
    """One digest of the serving results' ``result_fingerprint``s."""
    fingerprints = "|".join(result_fingerprint(result) for result in results)
    return hashlib.sha256(fingerprints.encode()).hexdigest()


class ServingWorkload:
    """Seeded Poisson streams served by :class:`ShardedScheduler`.

    The workload serves ``num_streams`` independent streams of
    ``num_requests`` requests each, drawn from sub-seeds of the workload
    seed.  ``warm()`` serves all of them once, untimed; the ``sim_*``
    figures pool them, so no single stream's bursts or fault pattern decide
    them.  A timed round serves the first ``timed_streams`` of them again
    and must reproduce what the untimed pass served for them: one stream
    costs one to two CPU seconds, so a run of ``--seconds`` 45 gives
    :class:`Fastest` ten or more rounds to pick each stretch's least time
    from.
    """

    name = ""
    models = MODEL_NAMES
    rate_rps = 0.0
    num_requests = 0
    num_streams = 1
    timed_streams = 1
    #: Latency limit of ``sim_slo_attainment`` [simulated s].
    slo_s = 0.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.streams = []
        for _ in range(self.num_streams):
            stream_seed = rng.randrange(2**32)
            requests = poisson_stream(
                self.models, self.rate_rps, self.num_requests, seed=stream_seed
            )
            self.streams.append((stream_seed, requests))

    def scheduler(self, stream_seed: int, requests) -> ShardedScheduler:
        raise NotImplementedError

    def warm(self) -> Round:
        self.pooled = self.serve(self.streams)
        timed = self.pooled.output[: self.timed_streams]
        self.expected = fingerprint_of(timed)
        return self.pooled

    def round(self, probe=None, counting=False) -> Round:
        timed = self.serve(self.streams[: self.timed_streams], probe, counting)
        check(
            timed.fingerprint == self.expected,
            f"{self.name}: a timed round's output {timed.fingerprint} differs from "
            f"the untimed pass's {self.expected}",
        )
        return timed

    def serve(self, streams, probe=None, counting=False) -> Round:
        cpu_s, results, plans = 0.0, [], {}
        between_cpu, plan_cpu = array("d"), array("d")
        for stream_seed, requests in streams:
            scheduler = self.scheduler(stream_seed, requests)
            strategy = scheduler.strategy
            strategy.take_counters()
            strategy.counting = counting
            if probe is not None:
                probe.enable()
            cpu = time.process_time()
            result = scheduler.run(requests)
            end = time.process_time()
            if probe is not None:
                probe.disable()
            cpu_s += end - cpu
            self.check_ledgers(result, len(requests))
            counters = strategy.take_counters()
            between, calls = split_cpu(cpu, counters["marks"], end)
            between_cpu += between
            plan_cpu += calls
            for key, value in counters.items():
                plans[key] = plans[key] + value if key in plans else value
            results.append(result)
        return Round(
            cpu_s=cpu_s,
            attempted=sum(len(requests) for _, requests in streams),
            failed=sum(result.shed + result.rejected for result in results),
            fingerprint=fingerprint_of(results),
            plans=plans,
            between_cpu=between_cpu,
            plan_cpu=plan_cpu,
            output=results,
        )

    def check_ledgers(self, result, offered: int) -> None:
        check(
            result.count + result.shed + result.rejected == offered,
            f"{self.name}: count {result.count} + shed {result.shed} + rejected "
            f"{result.rejected} != {offered} requests",
        )
        check(
            result.failures == result.retries + result.shed,
            f"{self.name}: failures {result.failures} != retries {result.retries} "
            f"+ shed {result.shed}",
        )
        check(
            sum(result.dispatched_by_shard) == result.count + result.shed + result.retries,
            f"{self.name}: dispatched {sum(result.dispatched_by_shard)} != count "
            f"{result.count} + shed {result.shed} + retries {result.retries}",
        )

    def served(self, results) -> int:
        return sum(result.count for result in results)

    def layer_metrics(self, results, cpu_s: float) -> Dict[str, float]:
        """Per-layer figures summed over one round's serving results; all
        but ``engine.events_per_cpu_s`` are exact."""

        def total(field: str) -> int:
            return sum(getattr(result, field) for result in results)

        served = self.served(results)
        dispatched = sum(sum(result.dispatched_by_shard) for result in results)
        delays = latency_percentiles([d for result in results for d in result.queue_delays])
        return {
            "engine.events_per_request": total("sim_events") / served,
            "engine.events_per_cpu_s": total("sim_events") / cpu_s,
            "executor.executions": dispatched,
            "serving.queue_delay_s.p50": delays["p50"],
            "serving.queue_delay_s.p99": delays["p99"],
            "serving.batches": total("batches"),
            "serving.replans": total("replans"),
            "serving.steals": total("steals"),
            "serving.preemptions": total("preemptions"),
            "routing.spilled": total("spilled"),
            "routing.cold_routed": total("cold_routed"),
            "control.rejected": total("rejected"),
            "faults.fault_events": total("fault_events"),
            "faults.failures": total("failures"),
            "faults.retries": total("retries"),
            "faults.shed": total("shed"),
            "faults.useful_dispatch_ratio": served / dispatched,
        }

    def metrics(self, rounds: List[Round], fastest: Fastest) -> Dict[str, float]:
        results = self.pooled.output
        served = self.served(results)
        latencies = [latency for result in results for latency in result.latencies]
        percentiles = latency_percentiles(latencies)
        return {
            **host_metrics(fastest, self.served(rounds[-1].output)),
            "sim_latency_s.p50": percentiles["p50"],
            "sim_latency_s.p99": percentiles["p99"],
            "sim_energy_j_per_request": sum(result.energy_j for result in results) / served,
            "sim_throughput_rps": served / sum(result.span_s for result in results),
            # Shed and rejected requests count as misses.
            "sim_slo_attainment": sum(1 for x in latencies if x <= self.slo_s)
            / self.pooled.attempted,
        }


class SteadyStream(ServingWorkload):
    """The simulator's hot path: one warm HiDP strategy, no planning charge,
    aggregate traces."""

    name = "steady_stream"
    rate_rps = 4.0
    num_requests = 5000
    num_streams = 2
    timed_streams = 1
    #: The interactive SLO of the fig9/fig10 serving experiments.
    slo_s = 1.5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cluster = build_cluster()
        # Warmed by the untimed pass; in timed rounds plans are cache hits.
        self.strategy = TimedStrategy()

    def scheduler(self, stream_seed: int, requests) -> ShardedScheduler:
        return ShardedScheduler(
            cluster=self.cluster,
            strategy=self.strategy,
            num_shards=4,
            max_inflight=8,
            planning_overhead="off",
            trace_level="aggregate",
        )


class ChurnReplan(ServingWorkload):
    """The same serving layers under fig11's hostile churn: faults, retries,
    clustered routing, circuit breakers and charged planning overhead."""

    name = "churn_replan"
    #: fig11's arrival rate: under the cluster's heavy-model service rate,
    #: so churn, not queueing, is what pushes requests over the limit.
    rate_rps = 1.2
    num_requests = 1000
    num_streams = 6
    #: One stream's replans, and so its host cost, vary by about a tenth
    #: from seed to seed; three per round average that out.
    timed_streams = 3
    #: fig11's "complete in bounded time under faults" SLO.
    slo_s = 4.0

    def scheduler(self, stream_seed: int, requests) -> ShardedScheduler:
        # A fresh strategy and empty result memos every stream: the charged
        # planning overhead depends on plan-cache misses, so a warm
        # strategy would simulate a different schedule.
        clear_result_memos()
        return ShardedScheduler(
            cluster=build_cluster(),
            strategy=TimedStrategy(),
            num_shards=4,
            max_inflight=8,
            faults=PerturbationProcess(
                seed=stream_seed,
                horizon_s=max(request.arrival_s for request in requests),
                churn_rate=0.4,
                mean_outage_s=0.8,
                link_rate=0.15,
                dvfs_rate=0.15,
            ),
            retry=RetryPolicy(max_retries=3),
            router=ClusteredRouter(),
            # The default shared leadership keeps every shard's leader on
            # devices[0], which churn never takes down: under
            # leader_policy="epoch" a re-elected leader can leave between a
            # batch's availability check and its drift replan, and the run
            # crashes (see README.md).
            epoch_s=2.0,
            trace_level="aggregate",
            control=ControlPolicy(
                slo_s=self.slo_s,
                concurrency=False,
                breaker_failures=2,
                breaker_window_s=2.0,
                breaker_cooldown_s=1.0,
            ),
        )


WORKLOADS = {cls.name: cls for cls in (SteadyStream, ChurnReplan)}
