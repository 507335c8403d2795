"""Stochastic open-loop arrival processes for the serving experiments.

The paper's scenarios are fixed-interval streams (Fig. 6's 0.5 s
staircase, Fig. 7's saturating round-robin); a serving system must also
survive *random* load.  Three seeded, fully deterministic processes:

- :func:`poisson_stream` -- memoryless arrivals (exponential
  inter-arrival times), the canonical open-loop model.
- :func:`bursty_stream` -- on/off bursts: quiet gaps punctuated by
  back-to-back request groups, stressing the admission queue and the
  batch co-planner.
- :func:`heavy_tailed_stream` -- Pareto inter-arrival times: most gaps
  short, occasional very long lulls, so the backlog snapshot drifts
  across load buckets.

All generators draw from a private ``random.Random(seed)``, so a given
(seed, parameters) pair always produces the identical request list.
Models are assigned round-robin by default or drawn from the same seeded
generator (``shuffle_models=True``).

Every generator accepts ``priority_weights``, a ``{priority: weight}``
mapping tagging each request with a scheduling urgency drawn from the
same seeded generator (lower priority value = more urgent).  Leaving it
``None`` performs no extra draws, so legacy streams stay byte-identical.
"""

from __future__ import annotations

import random
from math import inf
from typing import List, Mapping, Optional, Sequence

from repro.workloads.requests import InferenceRequest, PRIORITY_NORMAL


def _build_requests(
    models: Sequence[str],
    arrivals: Sequence[float],
    rng: random.Random,
    shuffle_models: bool,
    priority_weights: Optional[Mapping[int, float]] = None,
) -> List[InferenceRequest]:
    if not models:
        raise ValueError("no models to draw requests from")
    priorities: Optional[List[int]] = None
    weights: Optional[List[float]] = None
    if priority_weights is not None:
        priorities = sorted(priority_weights)
        weights = [priority_weights[priority] for priority in priorities]
        if not priorities or min(weights) < 0 or sum(weights) <= 0:
            raise ValueError(f"invalid priority weights: {priority_weights}")
    requests = []
    for idx, arrival in enumerate(arrivals):
        model = rng.choice(models) if shuffle_models else models[idx % len(models)]
        if priorities is None:
            priority = PRIORITY_NORMAL
        else:
            priority = rng.choices(priorities, weights=weights)[0]
        requests.append(
            InferenceRequest(
                request_id=idx, model=model, arrival_s=arrival, priority=priority
            )
        )
    return requests


def poisson_stream(
    models: Sequence[str],
    rate_rps: float,
    num_requests: int,
    seed: int = 0,
    shuffle_models: bool = False,
    priority_weights: Optional[Mapping[int, float]] = None,
) -> List[InferenceRequest]:
    """``num_requests`` Poisson arrivals at ``rate_rps`` requests/s."""
    if not 0 < rate_rps < inf:
        raise ValueError(f"arrival rate must be finite and positive, got {rate_rps}")
    if num_requests < 1:
        raise ValueError(f"need at least one request, got {num_requests}")
    rng = random.Random(seed)
    now = 0.0
    arrivals = []
    for _ in range(num_requests):
        now += rng.expovariate(rate_rps)
        arrivals.append(now)
    return _build_requests(models, arrivals, rng, shuffle_models, priority_weights)


def bursty_stream(
    models: Sequence[str],
    burst_size: int,
    num_bursts: int,
    mean_gap_s: float,
    intra_burst_s: float = 0.0,
    seed: int = 0,
    shuffle_models: bool = False,
    priority_weights: Optional[Mapping[int, float]] = None,
) -> List[InferenceRequest]:
    """On/off bursts: ``num_bursts`` groups of ``burst_size`` requests.

    Quiet gaps are exponential with mean ``mean_gap_s``, measured from
    the *end* of one burst to the start of the next (so bursts never
    overlap and arrivals are monotone in request id); requests inside a
    burst are ``intra_burst_s`` apart (0 = truly simultaneous, the
    worst case for the admission queue).
    """
    if burst_size < 1 or num_bursts < 1:
        raise ValueError(f"bursts must be non-empty: {burst_size} x {num_bursts}")
    if not 0 < mean_gap_s < inf:
        raise ValueError(f"mean gap must be finite and positive, got {mean_gap_s}")
    if not 0 <= intra_burst_s < inf:
        raise ValueError(f"intra-burst spacing must be finite and >= 0: {intra_burst_s}")
    rng = random.Random(seed)
    arrivals = []
    now = 0.0
    for _ in range(num_bursts):
        start = now + rng.expovariate(1.0 / mean_gap_s)
        for position in range(burst_size):
            arrivals.append(start + position * intra_burst_s)
        now = arrivals[-1]
    return _build_requests(models, arrivals, rng, shuffle_models, priority_weights)


def heavy_tailed_stream(
    models: Sequence[str],
    scale_s: float,
    num_requests: int,
    alpha: float = 1.5,
    max_gap_s: Optional[float] = None,
    seed: int = 0,
    shuffle_models: bool = False,
    priority_weights: Optional[Mapping[int, float]] = None,
) -> List[InferenceRequest]:
    """Pareto inter-arrival times: ``gap = scale_s * pareto(alpha)``.

    ``alpha`` in (1, 2] gives a finite mean but very high variance --
    long lulls followed by clustered arrivals.  ``max_gap_s`` truncates
    pathological draws so a single sample cannot dominate the horizon.
    """
    if not 0 < scale_s < inf:
        raise ValueError(f"scale must be finite and positive, got {scale_s}")
    if max_gap_s is not None and not 0 < max_gap_s < inf:
        raise ValueError(f"max gap must be finite and positive, got {max_gap_s}")
    if not 1.0 < alpha < inf:
        raise ValueError(f"alpha must exceed 1 for a finite mean, got {alpha}")
    if num_requests < 1:
        raise ValueError(f"need at least one request, got {num_requests}")
    rng = random.Random(seed)
    now = 0.0
    arrivals = []
    for _ in range(num_requests):
        gap = scale_s * rng.paretovariate(alpha)
        if max_gap_s is not None:
            gap = min(gap, max_gap_s)
        now += gap
        arrivals.append(now)
    return _build_requests(models, arrivals, rng, shuffle_models, priority_weights)
