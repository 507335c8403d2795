"""Literal schedule pins for both serving schedulers.

The cross-hatch matrix (``tests/integration/test_hatch_matrix.py``)
proves every equivalence-hatch corner agrees with every other; it does
not say what the schedule *is*.  This module records it: for one hatch
corner (both fast paths on, ``trace_level="full"``) each run below is
pinned to a literal :func:`~repro.metrics.serving.result_fingerprint`
digest plus the routing and control-plane fields the digest leaves
out.  Any change to the request lifecycle the two schedulers share --
admission, routing, retries, control, settlement, checkpointing -- or
to either dispatcher that moves a single event fails here.

The streams, cluster and policies mirror the hatch matrix and the
control-plane suite (``tests/serving/test_control.py``), so a pin here
plus the matrix's equalities pins every corner.

Marked ``matrix``: part of the quick pulse.
"""

import pytest

from repro.dnn.models import MODEL_NAMES
from repro.metrics.serving import result_fingerprint
from repro.platform.cluster import build_cluster
from repro.serving import (
    LEADERS_DISTRIBUTED,
    LEADERS_EPOCH,
    LEADERS_SHARED,
    PLANNING_BUCKET,
    PLANNING_OFF,
    ControlPolicy,
    OnlineScheduler,
    PerturbationProcess,
    RetryPolicy,
    ShardedScheduler,
)
from repro.workloads.arrivals import bursty_stream, poisson_stream

pytestmark = pytest.mark.matrix

#: The hatch matrix's scheduler configurations:
#: (name, planning mode, leader policy, router, epoch length).
CONFIGS = (
    ("bucket-shared-hash", PLANNING_BUCKET, LEADERS_SHARED, "hash", 0.0),
    ("bucket-distributed-hash", PLANNING_BUCKET, LEADERS_DISTRIBUTED, "hash", 0.0),
    ("off-shared-hash", PLANNING_OFF, LEADERS_SHARED, "hash", 0.0),
    ("off-distributed-hash", PLANNING_OFF, LEADERS_DISTRIBUTED, "hash", 0.0),
    ("bucket-shared-affinity", PLANNING_BUCKET, LEADERS_SHARED, "affinity", 0.0),
    ("bucket-epoch-clustered", PLANNING_BUCKET, LEADERS_EPOCH, "clustered", 0.5),
)

CHURN_FAULTS = PerturbationProcess(
    seed=29,
    horizon_s=14.0,
    churn_rate=1.0,
    mean_outage_s=1.0,
    link_rate=0.2,
    dvfs_rate=0.2,
)
CHURN_RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.05)
ACTIVE_CONTROL = ControlPolicy(
    interval_s=0.2,
    slo_s=0.4,
    min_inflight=1,
    max_inflight=6,
    admission="reject",
    admission_pressure=4,
)


def _cluster():
    return build_cluster(["jetson_tx2", "jetson_orin_nx", "jetson_nano"])


def _stream():
    """The hatch matrix's priority-mix smoke stream."""
    return bursty_stream(
        (MODEL_NAMES[0], MODEL_NAMES[2], "tiny_cnn", "mobilenet_v2"),
        burst_size=5,
        num_bursts=3,
        mean_gap_s=0.8,
        seed=17,
        priority_weights={0: 0.3, 2: 0.7},
    )


def _fault_stream():
    """The hatch matrix's heavy fan-out stream for the fault dimension."""
    return bursty_stream(
        ("vgg19", "inception_v3", "resnet152", "tiny_cnn"),
        burst_size=5,
        num_bursts=3,
        mean_gap_s=0.8,
        seed=17,
        priority_weights={0: 0.3, 2: 0.7},
    )


def _tier(scheduler, **kwargs):
    """The hatch matrix's pinned run of either scheduler tier."""
    kwargs = {"cluster": _cluster(), "max_inflight": 3, **kwargs}
    if scheduler == "online":
        return OnlineScheduler(**kwargs)
    return ShardedScheduler(
        num_shards=2,
        planning_overhead=PLANNING_BUCKET,
        leader_policy=LEADERS_SHARED,
        **kwargs,
    )


def _config(planning, leader_policy, router, epoch_s):
    return ShardedScheduler(
        cluster=_cluster(),
        num_shards=2,
        max_inflight=3,
        planning_overhead=planning,
        leader_policy=leader_policy,
        router=router,
        epoch_s=epoch_s,
    )


def _breaker_churn():
    """``TestBreakerTeeth._churn_run`` of the control-plane suite."""
    requests = poisson_stream(
        ("vgg19", "resnet152", "tiny_cnn"), rate_rps=2.5, num_requests=20, seed=11
    )
    scheduler = ShardedScheduler(
        cluster=_cluster(),
        num_shards=2,
        max_inflight=3,
        faults=PerturbationProcess(
            seed=11, horizon_s=12.0, churn_rate=1.2, mean_outage_s=0.8
        ),
        retry=RetryPolicy(max_retries=2, backoff_base_s=0.05),
        control=ControlPolicy(
            interval_s=0.25,
            slo_s=2.0,
            concurrency=False,
            breaker_failures=2,
            breaker_window_s=2.0,
            breaker_cooldown_s=1.0,
        ),
        trace_level="full",
    )
    return scheduler, requests


def _elastic():
    """``TestElasticShards.test_spawn_and_merge_at_boundaries``."""
    requests = bursty_stream(
        ("vgg19", "resnet152", "tiny_cnn"),
        burst_size=8,
        num_bursts=4,
        mean_gap_s=0.5,
        seed=7,
    )
    scheduler = ShardedScheduler(
        cluster=_cluster(),
        num_shards=2,
        max_inflight=4,
        control=ControlPolicy(
            interval_s=0.25,
            slo_s=1.5,
            concurrency=False,
            elastic=True,
            min_shards=1,
            scale_up_backlog=4.0,
            scale_down_backlog=1.0,
        ),
        trace_level="full",
    )
    return scheduler, requests


#: name -> () -> (scheduler, requests, checkpoint_at_s or None).
RUNS = {
    "online": lambda: (_tier("online"), _stream(), None),
    **{
        f"sharded-{name}": (
            lambda row=(planning, leaders, router, epoch_s): (
                _config(*row), _stream(), None
            )
        )
        for name, planning, leaders, router, epoch_s in CONFIGS
    },
    "online-churn": lambda: (
        _tier("online", faults=CHURN_FAULTS, retry=CHURN_RETRY), _fault_stream(), None
    ),
    "sharded-churn": lambda: (
        _tier("sharded", faults=CHURN_FAULTS, retry=CHURN_RETRY), _fault_stream(), None
    ),
    "online-control": lambda: (_tier("online", control=ACTIVE_CONTROL), _stream(), None),
    "sharded-control": lambda: (_tier("sharded", control=ACTIVE_CONTROL), _stream(), None),
    "sharded-breaker-churn": lambda: (*_breaker_churn(), None),
    "sharded-elastic": lambda: (*_elastic(), None),
    "online-checkpoint": lambda: (_tier("online"), _stream(), 2.0),
    "sharded-checkpoint": lambda: (_tier("sharded"), _stream(), 2.0),
}


def _pin(result):
    return {
        "digest": result_fingerprint(result),
        "router": result.router,
        "control_counters": (
            result.control.counters() if result.control is not None else None
        ),
        "readmitted_by_shard": result.readmitted_by_shard,
        "routed_by_shard": tuple(result.routing.routed) if result.routing else (),
    }


def _serve(name):
    scheduler, requests, checkpoint_at_s = RUNS[name]()
    if checkpoint_at_s is None:
        return scheduler.run(requests)
    checkpoint = scheduler.run(requests, checkpoint_at_s=checkpoint_at_s)
    assert 0 < checkpoint.served_count < len(requests)
    return checkpoint.resume()


#: Recorded at the fast-path hatch corner, trace_level="full".
PINS = {
    "online": {
        "digest": "f0cf9324c0be46b137c7e0d4a46257b47830ce84b24ac89d4210619d592a3b58",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (),
        "routed_by_shard": (15,),
    },
    "online-checkpoint": {
        "digest": "f0cf9324c0be46b137c7e0d4a46257b47830ce84b24ac89d4210619d592a3b58",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (),
        "routed_by_shard": (15,),
    },
    "online-churn": {
        "digest": "2161468f66ccd0d6afa8c0b52c19da0d4161248847adca51284a80246eb734d2",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (),
        "routed_by_shard": (29,),
    },
    "online-control": {
        "digest": "3e9083554f6c85c8b42ed10689bab07194c49aeb707a45c60e232930156e1f38",
        "router": "hash",
        "control_counters": {
            "wakeups": 25, "widened": 4, "narrowed": 2, "shards_spawned": 0,
            "shards_merged": 0, "rejected_pressure": 0, "rejected_deadline": 0,
            "door_downgraded": 0, "breaker_trips": 0, "breaker_probes": 0,
            "breaker_restores": 0, "breaker_reopens": 0, "planned_drains": 0
        },
        "readmitted_by_shard": (),
        "routed_by_shard": (15,),
    },
    "sharded-breaker-churn": {
        "digest": "be7c67506e8a5638ed67ed1ab7a1f642b6df577d683f5f69ea3647f35e890f3f",
        "router": "hash",
        "control_counters": {
            "wakeups": 66, "widened": 0, "narrowed": 0, "shards_spawned": 0,
            "shards_merged": 0, "rejected_pressure": 0, "rejected_deadline": 0,
            "door_downgraded": 0, "breaker_trips": 1, "breaker_probes": 1,
            "breaker_restores": 1, "breaker_reopens": 0, "planned_drains": 0
        },
        "readmitted_by_shard": (1, 2),
        "routed_by_shard": (8, 15),
    },
    "sharded-bucket-distributed-hash": {
        "digest": "9a2f5f39a27f3a2c542301ecb7488df41f257606ad70c2e91d4c15da17e3e111",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (8, 7),
    },
    "sharded-bucket-epoch-clustered": {
        "digest": "0a83dda8efcd09bcb55f4f7d6c6baca493792ce78c892556ec79427b308b76c4",
        "router": "clustered",
        "control_counters": None,
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (10, 5),
    },
    "sharded-bucket-shared-affinity": {
        "digest": "475481aa803d97a1cf5c1e7503ac541a2630376bfb0c61d707de1b2714b33cf3",
        "router": "affinity",
        "control_counters": None,
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (8, 7),
    },
    "sharded-bucket-shared-hash": {
        "digest": "475481aa803d97a1cf5c1e7503ac541a2630376bfb0c61d707de1b2714b33cf3",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (8, 7),
    },
    "sharded-checkpoint": {
        "digest": "475481aa803d97a1cf5c1e7503ac541a2630376bfb0c61d707de1b2714b33cf3",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (8, 7),
    },
    "sharded-churn": {
        "digest": "95bf637cfee827c0c16b97b49a23112a715a40176407ffd7a0f85cb105f0e689",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (6, 0),
        "routed_by_shard": (14, 7),
    },
    "sharded-control": {
        "digest": "1d17207ae022570c121fa3928f16f5ad56b1653f2bfb304afef56e5f95f8eb8f",
        "router": "hash",
        "control_counters": {
            "wakeups": 25, "widened": 2, "narrowed": 3, "shards_spawned": 0,
            "shards_merged": 0, "rejected_pressure": 0, "rejected_deadline": 0,
            "door_downgraded": 0, "breaker_trips": 0, "breaker_probes": 0,
            "breaker_restores": 0, "breaker_reopens": 0, "planned_drains": 0
        },
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (8, 7),
    },
    "sharded-elastic": {
        "digest": "5d745d8ccad29bfd273662d4bcdb01046ffaba059100755ec548e2f08b4fefa0",
        "router": "hash",
        "control_counters": {
            "wakeups": 39, "widened": 0, "narrowed": 0, "shards_spawned": 1,
            "shards_merged": 2, "rejected_pressure": 0, "rejected_deadline": 0,
            "door_downgraded": 0, "breaker_trips": 0, "breaker_probes": 0,
            "breaker_restores": 0, "breaker_reopens": 0, "planned_drains": 0
        },
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (28, 4),
    },
    "sharded-off-distributed-hash": {
        "digest": "9b91d844af34e19fca217faf1b8eb2657591091027a9269ec71d55f6dd6dd17e",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (8, 7),
    },
    "sharded-off-shared-hash": {
        "digest": "299132cbfb1bc9077bd185715d0318fe070d43ca2f48c0c282ddfee6581a60ba",
        "router": "hash",
        "control_counters": None,
        "readmitted_by_shard": (0, 0),
        "routed_by_shard": (8, 7),
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_schedule_matches_pin(monkeypatch, name):
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
    assert _pin(_serve(name)) == PINS[name]
