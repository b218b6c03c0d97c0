"""Publishing memo/oracle-cache counters into the metrics registry.

The oracle cache (:mod:`repro.env.runner`) and the tensor backend's
grid/kills/jitter memos keep their own cumulative hit/miss/eviction
counters — cheap, always on, and untouched by this
layer.  What the obs layer adds is *publication*: at natural flush
points (end of a grid, end of a shard) the deltas since the previous
publish are folded into the registry as
``repro_cache_events_total{cache=...,event=...}`` counters, plus a
``repro_cache_hit_rate`` histogram observation per cache per publish,
so campaign artifacts carry memoization effectiveness per worker
without a single extra dispatch on the per-lookup hot path.

Delta tracking lives here (module state, per process) so publishing
composes with registry drains: each delta is incremented exactly once
no matter how often snapshots ship.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs.recorder import NullRecorder, recorder
from repro.obs.registry import RATE_BUCKETS

CACHE_EVENTS_METRIC = "repro_cache_events_total"
CACHE_HIT_RATE_METRIC = "repro_cache_hit_rate"
CACHE_SIZE_METRIC = "repro_cache_size"

#: (cache name) -> counters at the previous publish.
_LAST: Dict[str, Tuple[int, int, int]] = {}


def _publish_cache(
    rec: NullRecorder,
    cache: str,
    hits: int,
    misses: int,
    evictions: int,
    size: int,
) -> None:
    last_hits, last_misses, last_evictions = _LAST.get(cache, (0, 0, 0))
    delta_hits = hits - last_hits
    delta_misses = misses - last_misses
    delta_evictions = evictions - last_evictions
    if delta_hits < 0 or delta_misses < 0 or delta_evictions < 0:
        # The underlying cache was reset since the last publish; its
        # counters restarted from zero, so the full current values are
        # the delta.
        delta_hits, delta_misses, delta_evictions = (
            hits, misses, evictions,
        )
    _LAST[cache] = (hits, misses, evictions)
    # Zero deltas still materialise the counters: an exported artifact
    # should show "oracle cache: 0 lookups" explicitly, not omit the
    # family (and a pre-declared zero counter is Prometheus idiom).
    rec.counter_inc(
        CACHE_EVENTS_METRIC, delta_hits,
        {"cache": cache, "event": "hit"},
    )
    rec.counter_inc(
        CACHE_EVENTS_METRIC, delta_misses,
        {"cache": cache, "event": "miss"},
    )
    rec.counter_inc(
        CACHE_EVENTS_METRIC, delta_evictions,
        {"cache": cache, "event": "eviction"},
    )
    lookups = delta_hits + delta_misses
    if lookups:
        rec.observe(
            CACHE_HIT_RATE_METRIC,
            delta_hits / lookups,
            {"cache": cache},
            buckets=RATE_BUCKETS,
        )
    rec.gauge_set(CACHE_SIZE_METRIC, size, {"cache": cache})


def publish_cache_metrics() -> None:
    """Fold every cache's deltas into the process recorder.

    A no-op (beyond one ``enabled`` check) when obs is disabled.
    Imports are deliberately lazy and local: ``repro.obs`` must not
    depend on the layers it observes.
    """
    rec = recorder()
    if not rec.enabled:
        return
    from repro.env.runner import oracle_cache_stats

    oracle = oracle_cache_stats()
    _publish_cache(
        rec, "oracle", oracle.hits, oracle.misses, oracle.evictions,
        oracle.size,
    )
    from repro.backends.tensor import (
        _GRID_CACHE,
        _JITTER_Z_CACHE,
        _KILLS_CACHE,
    )

    for cache_name, cache in (
        ("tensor_grid", _GRID_CACHE),
        ("tensor_kills", _KILLS_CACHE),
        ("tensor_jitter", _JITTER_Z_CACHE),
    ):
        _publish_cache(
            rec, cache_name, cache.hits, cache.misses, cache.evictions,
            len(cache),
        )


def reset_publisher() -> None:
    """Forget previous publishes (tests and cache resets)."""
    _LAST.clear()
