"""Deterministic synthetic workloads and arrival processes.

Open-loop arrivals with exponential interarrival times (the standard
serving-stack load model), priorities drawn from a configurable mix, and
per-priority deadline slack — all keyed on one seed through
``SeedSequence`` so a workload is byte-identical across runs and
platforms, which is what makes whole-campaign schedules replayable.

Two shapes of workload are offered:

* :func:`synthetic_workload` — the classic fixed-size list (PR 4): a
  stream's arrivals materialized up front, for one-shot campaigns.
* :func:`stream_workload` / :func:`bursty_workload` — *lazy* arrival
  processes for the daemon (``repro serve --stream``): requests are
  handed out one at a time as the event loop consumes them (drawn a
  block at a time), so the admission channel outlives any fixed list,
  and a resumed scheduler can regenerate exactly the same stream and
  skip what it already consumed.
  ``bursty_workload`` is a piecewise-constant-rate Poisson process (a
  quiet baseline, a burst window, quiet again) — the canonical traffic
  shape that forces an elastic pool to scale up and back down.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .request import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, SolveRequest

__all__ = ["synthetic_workload", "stream_workload", "bursty_workload"]

_SALT_ARRIVAL = 0xA881
_SALT_PRIORITY = 0xA882
_SALT_CONFIG = 0xA883
_SALT_TENANT = 0xA884

#: Per-priority deadline slack multipliers (HIGH is the tight tier).
_SLACK = {PRIORITY_HIGH: 0.5, PRIORITY_NORMAL: 1.0, PRIORITY_LOW: 2.0}

#: Arrivals drawn per RNG call.  The size changes no request: each
#: generator below consumes its bit stream for one array draw exactly as
#: for that many scalar draws (``tests/service/test_workload_stream.py``
#: holds the stream to the per-arrival generator it replaced).
_BLOCK = 256

_PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)


def _normalized_mix(weights, *, what: str = "priority_mix", size: int = 3) -> np.ndarray:
    """``weights`` scaled to sum to one: exactly ``size`` finite,
    nonnegative weights with a positive sum, else :class:`ValueError`."""
    mix = np.asarray(weights, dtype=float)
    if mix.shape != (size,):
        raise ValueError(f"{what} needs {size} weight(s), got {mix.size}")
    if not np.isfinite(mix).all() or mix.min() < 0 or mix.sum() <= 0:
        raise ValueError(f"{what} must be finite, nonnegative, with positive sum")
    return mix / mix.sum()


def _cdf(probabilities: np.ndarray) -> np.ndarray:
    """``Generator.choice``'s own table for ``p=probabilities``: a uniform
    draw ``u`` picks index ``cdf.searchsorted(u, side="right")``."""
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


def _tenant_mix(tenants, tenant_mix) -> np.ndarray | None:
    """Normalized tenant draw probabilities, or ``None`` when the
    workload is untenanted (the tenant RNG is then never created, so
    untenanted streams stay byte-identical to pre-tenancy builds)."""
    if tenants is None:
        if tenant_mix is not None:
            raise ValueError("tenant_mix requires tenants")
        return None
    if not tenants:
        raise ValueError("tenants must be non-empty when given")
    if tenant_mix is None:
        tenant_mix = [1.0] * len(tenants)
    if len(tenant_mix) != len(tenants):
        raise ValueError(
            f"{len(tenants)} tenant(s) but {len(tenant_mix)} mix weight(s)"
        )
    return _normalized_mix(tenant_mix, what="tenant_mix", size=len(tenants))


def synthetic_workload(n_requests: int, **shape) -> list[SolveRequest]:
    """``n_requests`` arrivals of a Section-VIII-style campaign, as a list:
    the first ``n_requests`` of :func:`stream_workload` with the same
    ``shape`` keywords."""
    return list(stream_workload(n_requests, **shape))


# --------------------------------------------------------------------- #
# Streaming arrival processes (daemon mode)
# --------------------------------------------------------------------- #


def _stream(
    gap_for,
    n_requests: int | None,
    duration_s: float | None,
    *,
    seed: int,
    dims: tuple[int, int, int, int],
    mode: str,
    solver: str,
    mass: float,
    n_configs: int,
    priority_mix: tuple[float, float, float],
    deadline_slack_s: float | None,
    tenants: tuple[str, ...] | None = None,
    tenant_mix: tuple[float, ...] | None = None,
) -> Iterator[SolveRequest]:
    """Shared lazy generator behind the streaming workloads.

    ``gap_for(e, now)`` turns a standard-exponential draw ``e`` into the
    next interarrival gap — the hook the bursty process uses to vary the
    rate over event time.  Generation draws from per-purpose
    ``SeedSequence``-keyed RNGs, ``_BLOCK`` arrivals per call, so the
    stream is byte-identical across runs and a resumed scheduler can
    regenerate it and skip the prefix it already consumed.

    Validation happens here, eagerly; the inner generator only draws.
    """
    if n_requests is None and duration_s is None:
        raise ValueError("bound the stream with n_requests and/or duration_s")
    if n_requests is not None and n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if duration_s is not None and duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    mix = _normalized_mix(priority_mix)
    tmix = _tenant_mix(tenants, tenant_mix)
    return _stream_gen(
        gap_for, n_requests, duration_s, mix,
        seed=seed, dims=dims, mode=mode, solver=solver, mass=mass,
        n_configs=n_configs, deadline_slack_s=deadline_slack_s,
        tenants=tenants, tmix=tmix,
    )


def _stream_gen(
    gap_for,
    n_requests: int | None,
    duration_s: float | None,
    mix: np.ndarray,
    *,
    seed: int,
    dims: tuple[int, int, int, int],
    mode: str,
    solver: str,
    mass: float,
    n_configs: int,
    deadline_slack_s: float | None,
    tenants: tuple[str, ...] | None = None,
    tmix: np.ndarray | None = None,
) -> Iterator[SolveRequest]:
    arrival_rng = np.random.default_rng(np.random.SeedSequence([seed, _SALT_ARRIVAL]))
    prio_rng = np.random.default_rng(np.random.SeedSequence([seed, _SALT_PRIORITY]))
    config_rng = np.random.default_rng(np.random.SeedSequence([seed, _SALT_CONFIG]))
    prio_cdf = _cdf(mix)
    # The tenant RNG exists only for tenanted streams: untenanted runs
    # make exactly the draws pre-tenancy builds made, byte for byte.
    tenant_rng = None
    if tmix is not None:
        tenant_rng = np.random.default_rng(
            np.random.SeedSequence([seed, _SALT_TENANT])
        )
        tenant_cdf = _cdf(tmix)
    now = 0.0
    i = 0
    while n_requests is None or i < n_requests:
        gaps = arrival_rng.standard_exponential(_BLOCK).tolist()
        tiers = prio_cdf.searchsorted(prio_rng.random(_BLOCK), side="right")
        configs = config_rng.integers(0, n_configs, size=_BLOCK).tolist()
        owners = [None] * _BLOCK
        if tenant_rng is not None:
            picks = tenant_cdf.searchsorted(tenant_rng.random(_BLOCK), side="right")
            owners = [tenants[k] for k in picks.tolist()]
        for gap, tier, config_id, tenant in zip(
            gaps, tiers.tolist(), configs, owners
        ):
            if i == n_requests:
                return
            now += gap_for(gap, now)
            if duration_s is not None and now > duration_s:
                return
            priority = _PRIORITIES[tier]
            deadline = None
            if deadline_slack_s is not None:
                deadline = now + deadline_slack_s * _SLACK[priority]
            yield SolveRequest(
                req_id=i,
                config_id=config_id,
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


def stream_workload(
    n_requests: int | None = None,
    *,
    seed: int = 2010,
    rate_rps: float = 2000.0,
    duration_s: float | None = None,
    dims: tuple[int, int, int, int] = (8, 8, 8, 32),
    mode: str = "single-half",
    solver: str = "bicgstab",
    mass: float = 0.2,
    n_configs: int = 1,
    priority_mix: tuple[float, float, float] = (0.1, 0.7, 0.2),
    deadline_slack_s: float | None = None,
    tenants: tuple[str, ...] | None = None,
    tenant_mix: tuple[float, ...] | None = None,
) -> Iterator[SolveRequest]:
    """A lazy open-loop Poisson arrival stream for the daemon.

    Bounded by ``n_requests``, ``duration_s`` (model time), or both —
    the daemon drains whatever the channel delivers and keeps running
    until it does.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    scale = 1.0 / rate_rps
    return _stream(
        lambda e, now: scale * e,
        n_requests,
        duration_s,
        seed=seed,
        dims=dims,
        mode=mode,
        solver=solver,
        mass=mass,
        n_configs=n_configs,
        priority_mix=priority_mix,
        deadline_slack_s=deadline_slack_s,
        tenants=tenants,
        tenant_mix=tenant_mix,
    )


def bursty_workload(
    n_requests: int | None = None,
    *,
    seed: int = 2010,
    base_rps: float = 500.0,
    burst_rps: float = 8000.0,
    burst_start_s: float = 0.0,
    burst_len_s: float = 0.0,
    duration_s: float | None = None,
    dims: tuple[int, int, int, int] = (8, 8, 8, 32),
    mode: str = "single-half",
    solver: str = "bicgstab",
    mass: float = 0.2,
    n_configs: int = 1,
    priority_mix: tuple[float, float, float] = (0.1, 0.7, 0.2),
    deadline_slack_s: float | None = None,
    tenants: tuple[str, ...] | None = None,
    tenant_mix: tuple[float, ...] | None = None,
) -> Iterator[SolveRequest]:
    """A piecewise-constant-rate Poisson stream: quiet, burst, quiet.

    Inside ``[burst_start_s, burst_start_s + burst_len_s)`` arrivals come
    at ``burst_rps``; outside at ``base_rps``.  The canonical traffic
    shape for exercising the elastic pool: the burst drives a scale-up,
    the quiet tail a scale-down.
    """
    if base_rps <= 0 or burst_rps <= 0:
        raise ValueError("arrival rates must be > 0")
    if burst_len_s < 0:
        raise ValueError("burst_len_s must be >= 0")

    def gap(e: float, now: float) -> float:
        in_burst = burst_start_s <= now < burst_start_s + burst_len_s
        rate = burst_rps if in_burst else base_rps
        return (1.0 / rate) * e

    return _stream(
        gap,
        n_requests,
        duration_s,
        seed=seed,
        dims=dims,
        mode=mode,
        solver=solver,
        mass=mass,
        n_configs=n_configs,
        priority_mix=priority_mix,
        deadline_slack_s=deadline_slack_s,
        tenants=tenants,
        tenant_mix=tenant_mix,
    )
