"""Public serving inputs reject NaN and infinity at construction.

A NaN that slips past a ``value <= 0`` check surfaces much later: as
NaN arrival times and NaN latency percentiles, as the controller's
wake loop crashing on a non-finite timeout, or as specialization
epochs silently switched off.  Every case below must raise
``ValueError`` where the value is passed in.
"""

import math

import pytest

from repro.platform.cluster import build_cluster
from repro.serving import ControlPolicy, RetryPolicy, ShardedScheduler
from repro.workloads.arrivals import bursty_stream, heavy_tailed_stream, poisson_stream

MODELS = ("tiny_cnn",)

FACTORIES = {
    "poisson_stream": lambda **kw: poisson_stream(
        MODELS, **{"rate_rps": 1.0, "num_requests": 3, **kw}
    ),
    "bursty_stream": lambda **kw: bursty_stream(
        MODELS, **{"burst_size": 2, "num_bursts": 2, "mean_gap_s": 1.0, **kw}
    ),
    "heavy_tailed_stream": lambda **kw: heavy_tailed_stream(
        MODELS, **{"scale_s": 1.0, "num_requests": 3, **kw}
    ),
    "RetryPolicy": RetryPolicy,
    "ControlPolicy": ControlPolicy,
    "ShardedScheduler": lambda **kw: ShardedScheduler(
        cluster=build_cluster(["jetson_tx2", "jetson_nano"]), **kw
    ),
}

#: (factory, argument) pairs whose value must be finite.
FINITE_ARGUMENTS = (
    ("poisson_stream", "rate_rps"),
    ("bursty_stream", "mean_gap_s"),
    ("bursty_stream", "intra_burst_s"),
    ("heavy_tailed_stream", "scale_s"),
    ("heavy_tailed_stream", "max_gap_s"),
    ("heavy_tailed_stream", "alpha"),
    ("RetryPolicy", "backoff_base_s"),
    ("RetryPolicy", "backoff_factor"),
    ("RetryPolicy", "jitter"),
    ("ControlPolicy", "interval_s"),
    ("ControlPolicy", "slo_s"),
    ("ControlPolicy", "scale_up_backlog"),
    ("ControlPolicy", "scale_down_backlog"),
    ("ControlPolicy", "breaker_window_s"),
    ("ControlPolicy", "breaker_cooldown_s"),
    ("ControlPolicy", "battery_margin"),
    ("ShardedScheduler", "epoch_s"),
    ("ShardedScheduler", "planning_overhead"),
)


@pytest.mark.parametrize(
    "factory,argument,value",
    [
        pytest.param(factory, argument, value, id=f"{factory}-{argument}={value}")
        for factory, argument in FINITE_ARGUMENTS
        for value in (math.nan, math.inf)
    ],
)
def test_non_finite_input_rejected(factory, argument, value):
    with pytest.raises(ValueError):
        FACTORIES[factory](**{argument: value})


@pytest.mark.parametrize("factory", sorted(FACTORIES))
def test_defaults_still_accepted(factory):
    FACTORIES[factory]()
