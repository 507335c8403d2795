"""One benchmark process: set a workload up, then measure or trace it.

    python3 perfbench/worker.py <setup|measure|trace> <workload> <seed> <seconds>

``run.py`` starts each of these in a fresh interpreter, so no workload's
module-level memos reach another's set-up time or memory figure.  The
process prints ``ready`` once set up (``run.py`` times set-up up to that
line), then, unless the mode is ``setup``, one JSON object.
"""

import cProfile
import json
import math
import os
import pstats
import resource
import statistics
import sys
import time

import repro
from repro.serving import AffinityRouter, ClusteredRouter, HashRouter
from repro.sim.engine import Process, Timeout
from repro.sim.resources import PriorityRequest, Request
from repro.sim.trace import FlopsLog, TransferLog
from workloads import WORKLOADS, Fastest, check, first_plans

#: Layers named after their modules (paths under the ``repro`` package).
#: Self time in any other module counts as ``other``; C functions and
#: built-in methods count as ``builtins``.
LAYERS = {
    "engine": ("sim/engine.py",),
    "executor": ("core/executor.py",),
    "resources": ("sim/resources.py",),
    "runtime": ("sim/runtime.py",),
    "trace": ("sim/trace.py",),
    "planning": (
        "core/strategy.py",
        "core/hidp.py",
        "core/dse.py",
        "core/dp.py",
        "core/local_partitioner.py",
        "dnn/partition.py",
        "dnn/segment_table.py",
        "dnn/graph.py",
    ),
    "serving": ("serving/scheduler.py", "serving/sharded.py", "serving/specialize.py"),
}

#: Public entry points whose profiler call counts are exact work counts,
#: reported per simulated request served.  Each is called once per unit of
#: work on every engine and executor path.
PER_REQUEST_CALLS = {
    "engine.processes_per_request": (Process.__init__,),
    "engine.timeouts_per_request": (Timeout.__init__,),
    "resources.grants_per_request": (Request.__init__, PriorityRequest.__init__),
    "runtime.tasks_per_request": (FlopsLog.record,),
    "runtime.transmits_per_request": (TransferLog.record,),
}
#: The same, reported per round.
PER_ROUND_CALLS = {
    "routing.route_calls": (HashRouter.route, AffinityRouter.route, ClusteredRouter.route),
}


def timed_rounds(workload, seconds, minimum, probe=None):
    """Timed rounds until ``seconds`` of wall time have passed (at least
    ``minimum`` rounds), and the least time of each of their stretches
    (:class:`~workloads.Fastest`); every round must reproduce the same
    output with the same plan calls."""
    rounds, fastest = [], Fastest()
    deadline = time.perf_counter() + seconds
    while len(rounds) < minimum or time.perf_counter() < deadline:
        rounds.append(workload.round(probe))
        last = rounds[-1]
        check(
            last.fingerprint == rounds[0].fingerprint,
            f"{workload.name}: round {len(rounds)} output {last.fingerprint} "
            f"differs from round 1 output {rounds[0].fingerprint}",
        )
        check(
            not fastest.rounds or len(last.plan_cpu) == len(fastest.plan_cpu),
            f"{workload.name}: round {len(rounds)} made {len(last.plan_cpu)} plan "
            f"calls, round 1 made {len(fastest.plan_cpu)}",
        )
        fastest.add(last)
        # Keep one output alive, and no round's times once folded in.
        last.plans = last.between_cpu = last.plan_cpu = None
        if len(rounds) > 1:
            rounds[-2].output = None
    return rounds, fastest


def measure(workload, seconds):
    warmed = workload.warm()
    rounds, fastest = timed_rounds(workload, seconds, minimum=3)
    metrics = workload.metrics(rounds, fastest)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "fingerprint": rounds[0].fingerprint,
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in [warmed, *rounds]),
        "failed": sum(r.failed for r in [warmed, *rounds]),
        "metrics": metrics,
    }


def self_time_by_layer(stats):
    package = os.path.dirname(os.path.abspath(repro.__file__))
    layer_of = {module: layer for layer, modules in LAYERS.items() for module in modules}
    seconds = dict.fromkeys(list(LAYERS) + ["builtins", "other"], 0.0)
    for (filename, _, _), (_, _, self_s, _, _) in stats.items():
        if filename == "~":
            layer = "builtins"
        else:
            module = os.path.relpath(os.path.abspath(filename), package).replace(os.sep, "/")
            layer = layer_of.get(module, "other")
        seconds[layer] += self_s
    total = math.fsum(seconds.values())
    return {f"{layer}.cpu_share": value / total for layer, value in seconds.items()}


def calls_of(stats, functions):
    code_keys = [
        (fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name)
        for fn in functions
    ]
    return sum(stats[key][1] for key in code_keys if key in stats)


def trace(workload, seconds):
    """Per-layer metrics: untraced rounds instrumented as in ``measure``,
    then the same rounds under cProfile, then one untraced round that
    counts plan-cache reuse."""
    warmed = workload.warm()
    untraced, _ = timed_rounds(workload, seconds / 3, minimum=1)
    profile = cProfile.Profile()
    traced, _ = timed_rounds(workload, seconds / 3, minimum=1, probe=profile)
    counted = workload.round(counting=True)
    check(
        traced[0].fingerprint == counted.fingerprint == untraced[0].fingerprint,
        f"{workload.name}: the traced run's output differs from the untraced run's",
    )
    stats = pstats.Stats(profile).stats
    rounds = len(traced)
    untraced_cpu = statistics.median(r.cpu_s for r in untraced)
    metrics = self_time_by_layer(stats)
    metrics["tracing.overhead_ratio"] = statistics.median(r.cpu_s for r in traced) / untraced_cpu

    plans = counted.plans
    metrics["planning.plan_calls"] = len(plans["plan_ms"])
    metrics["planning.cache_hit_ratio"] = (plans["graphs"] - plans["fresh"]) / plans["graphs"]
    metrics["planning.miss_ms.p50"] = (
        statistics.median(plans["miss_ms"]) if plans["miss_ms"] else 0.0
    )

    result = traced[-1].output
    served = workload.served(result)
    for name, functions in PER_REQUEST_CALLS.items():
        metrics[name] = calls_of(stats, functions) / rounds / served if served else 0.0
    for name, functions in PER_ROUND_CALLS.items():
        metrics[name] = calls_of(stats, functions) / rounds
    metrics.update(workload.layer_metrics(result, untraced_cpu))
    return {
        "fingerprint": traced[0].fingerprint,
        "rounds": len(untraced) + rounds + 1,
        "attempted": sum(r.attempted for r in [warmed, *untraced, *traced, counted]),
        "failed": sum(r.failed for r in [warmed, *untraced, *traced, counted]),
        "metrics": metrics,
    }


def main(argv):
    mode, name, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    workload_type = WORKLOADS[name]
    first_plans(workload_type.models)
    print("ready", flush=True)
    if mode == "setup":
        return
    if mode == "measure":
        report = measure(workload_type(seed), seconds)
    else:
        report = trace(workload_type(seed), seconds)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main(sys.argv)
