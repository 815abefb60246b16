"""Test oracle: the arrival streams drawn one arrival at a time.

``repro.service.workload`` used to make every draw per arrival: one
``exponential(scale)`` for the gap, one ``choice(p=...)`` each for the
priority and the tenant, one ``integers(0, n_configs)`` for the
configuration.  :func:`reference_stream` / :func:`reference_bursty` are
that generator: slow and obviously right, which is what an oracle should
be; nothing under ``src/`` imports it.

The block-drawn streams must equal these request for request (every
field, floats bit for bit), over any prefix skip a resumed campaign
makes.

:func:`reference_synthetic` is the other retired generator: the fixed
list drawn in one array call per purpose.  ``synthetic_workload`` is now
the stream materialized, and must equal it.
"""

import numpy as np

from repro.service import SolveRequest
from repro.service.request import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL

_SALT_ARRIVAL = 0xA881
_SALT_PRIORITY = 0xA882
_SALT_CONFIG = 0xA883
_SALT_TENANT = 0xA884

_SLACK = {PRIORITY_HIGH: 0.5, PRIORITY_NORMAL: 1.0, PRIORITY_LOW: 2.0}


def _rng(seed, salt):
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _arrivals(
    gap_for,
    n_requests,
    duration_s,
    *,
    seed,
    dims=(8, 8, 8, 32),
    mode="single-half",
    solver="bicgstab",
    mass=0.2,
    n_configs=1,
    priority_mix=(0.1, 0.7, 0.2),
    deadline_slack_s=None,
    tenants=None,
    tenant_mix=None,
):
    mix = np.asarray(priority_mix, dtype=float)
    mix = mix / mix.sum()
    arrival_rng = _rng(seed, _SALT_ARRIVAL)
    prio_rng = _rng(seed, _SALT_PRIORITY)
    config_rng = _rng(seed, _SALT_CONFIG)
    tenant_rng = tmix = None
    if tenants is not None:
        tmix = np.asarray(tenant_mix or [1.0] * len(tenants), dtype=float)
        tmix = tmix / tmix.sum()
        tenant_rng = _rng(seed, _SALT_TENANT)
    now = 0.0
    i = 0
    while n_requests is None or i < n_requests:
        now += gap_for(arrival_rng, now)
        if duration_s is not None and now > duration_s:
            return
        priority = int(
            prio_rng.choice([PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW], p=mix)
        )
        deadline = None
        if deadline_slack_s is not None:
            deadline = now + deadline_slack_s * _SLACK[priority]
        tenant = None
        if tenant_rng is not None:
            tenant = tenants[int(tenant_rng.choice(len(tenants), p=tmix))]
        yield SolveRequest(
            req_id=i,
            config_id=int(config_rng.integers(0, n_configs)),
            dims=dims,
            mode=mode,
            solver=solver,
            mass=mass,
            source_seed=seed,
            priority=priority,
            arrival_s=now,
            deadline_s=deadline,
            tenant=tenant,
        )
        i += 1


def reference_stream(n_requests=None, *, rate_rps=2000.0, duration_s=None, **kw):
    """``stream_workload``, one draw per arrival and purpose."""
    return _arrivals(
        lambda rng, now: float(rng.exponential(1.0 / rate_rps)),
        n_requests,
        duration_s,
        **kw,
    )


def reference_bursty(
    n_requests=None,
    *,
    base_rps=500.0,
    burst_rps=8000.0,
    burst_start_s=0.0,
    burst_len_s=0.0,
    duration_s=None,
    **kw,
):
    """``bursty_workload``, one draw per arrival and purpose."""

    def gap(rng, now):
        in_burst = burst_start_s <= now < burst_start_s + burst_len_s
        rate = burst_rps if in_burst else base_rps
        return float(rng.exponential(1.0 / rate))

    return _arrivals(gap, n_requests, duration_s, **kw)


def reference_synthetic(
    n_requests,
    *,
    seed=2010,
    rate_rps=2000.0,
    dims=(8, 8, 8, 32),
    mode="single-half",
    solver="bicgstab",
    mass=0.2,
    n_configs=1,
    priority_mix=(0.1, 0.7, 0.2),
    deadline_slack_s=None,
    tenants=None,
    tenant_mix=None,
):
    """``synthetic_workload``, one array draw per purpose."""
    mix = np.asarray(priority_mix, dtype=float)
    mix = mix / mix.sum()
    arrivals = np.cumsum(
        _rng(seed, _SALT_ARRIVAL).exponential(1.0 / rate_rps, size=n_requests)
    )
    priorities = _rng(seed, _SALT_PRIORITY).choice(
        [PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW], size=n_requests, p=mix
    )
    configs = _rng(seed, _SALT_CONFIG).integers(0, n_configs, size=n_requests)
    owners = None
    if tenants is not None:
        tmix = np.asarray(tenant_mix or [1.0] * len(tenants), dtype=float)
        owners = _rng(seed, _SALT_TENANT).choice(
            len(tenants), size=n_requests, p=tmix / tmix.sum()
        )
    requests = []
    for i in range(n_requests):
        arrival = float(arrivals[i])
        priority = int(priorities[i])
        deadline = None
        if deadline_slack_s is not None:
            deadline = arrival + deadline_slack_s * _SLACK[priority]
        requests.append(
            SolveRequest(
                req_id=i,
                config_id=int(configs[i]),
                dims=dims,
                mode=mode,
                solver=solver,
                mass=mass,
                source_seed=seed,
                priority=priority,
                arrival_s=arrival,
                deadline_s=deadline,
                tenant=tenants[int(owners[i])] if owners is not None else None,
            )
        )
    return requests
