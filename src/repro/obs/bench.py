"""The standardized ``BENCH_obs.json`` performance artifact.

Every benchmark that times pipeline stages writes its per-stage
distribution summary (count/sum/median/p90, derived from the obs
histograms) into one shared JSON file, keyed by bench name, so the
perf trajectory is comparable PR-over-PR with a single artifact diff:

.. code-block:: json

    {"schema": 1, "benches": {
        "tensor_speedup": {"stages": {
            "analytic": {"count": 4, "median": 0.41, "p90": 0.52, ...}
    }}}}

The file is update-in-place: each bench replaces only its own entry,
so ``bench_tensor_speedup`` and ``bench_campaign_scaling`` can run in
any order (or alone) without clobbering each other.  Path defaults to
``BENCH_obs.json`` in the working directory; override with the
``BENCH_OBS_PATH`` environment variable.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs.registry import MetricsRegistry, ObsError

BENCH_SCHEMA = 1
DEFAULT_PATH = "BENCH_obs.json"
#: Stage statistics every emission must carry (validated by emit()).
REQUIRED_STAGE_STATS = ("median", "p90")


def bench_obs_path(path: Optional[Union[str, Path]] = None) -> Path:
    if path is not None:
        return Path(path)
    return Path(os.environ.get("BENCH_OBS_PATH", DEFAULT_PATH))


def histogram_summary(
    registry: MetricsRegistry, family: str
) -> Dict[str, float]:
    """count/sum/mean/median/p90 for one histogram family.

    Aggregates over every label set of the family (merging label sets
    into one distribution), which is what a stage summary wants: "the
    grid-time distribution of this stage", whatever backends or
    workers it labelled.
    """
    merged = MetricsRegistry()
    snapshot = registry.snapshot()
    snapshot["counters"] = []
    snapshot["gauges"] = []
    snapshot["histograms"] = [
        {**entry, "labels": {}}
        for entry in snapshot["histograms"]
        if entry["name"] == family
    ]
    merged.merge(snapshot)
    histogram = merged.histogram(family)
    return {
        "count": histogram.count,
        "sum": round(histogram.sum, 6),
        "mean": round(histogram.mean, 6),
        "median": round(histogram.quantile(0.5), 6),
        "p90": round(histogram.quantile(0.9), 6),
    }


def env_fingerprint() -> str:
    """A short fingerprint of the measuring environment.

    Two BENCH entries with different environment fingerprints are not
    comparable as a perf trajectory; the drift detector reports the
    mismatch instead of a latency verdict.
    """
    from repro.campaign.spec import payload_fingerprint

    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        numpy_version = "absent"
    return payload_fingerprint(
        {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "numpy": numpy_version,
        }
    )


def update_bench_obs(
    bench: str,
    stages: Dict[str, Dict[str, Any]],
    path: Optional[Union[str, Path]] = None,
    env: Optional[str] = None,
) -> Path:
    """Replace one bench's entry in the shared artifact.

    The write is atomic (tmp + fsync + rename): benches running in
    parallel CI jobs or a crash mid-write leave either the old or the
    new artifact, never a torn one.
    """
    target = bench_obs_path(path)
    payload: Dict[str, Any] = {"schema": BENCH_SCHEMA, "benches": {}}
    if target.exists():
        try:
            existing = json.loads(target.read_text())
        except (json.JSONDecodeError, OSError):
            existing = None
        if (
            isinstance(existing, dict)
            and existing.get("schema") == BENCH_SCHEMA
            and isinstance(existing.get("benches"), dict)
        ):
            payload = existing
    entry: Dict[str, Any] = {
        "updated_utc": time.time(),
        "stages": stages,
    }
    entry["env"] = env if env is not None else env_fingerprint()
    payload["benches"][bench] = entry
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=".tmp-bench-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def validate_stages(stages: Dict[str, Dict[str, Any]]) -> None:
    """Reject emissions that would poison the trajectory."""
    if not isinstance(stages, dict) or not stages:
        raise ObsError(
            "a bench emission needs at least one named stage"
        )
    for stage, summary in stages.items():
        if not isinstance(stage, str) or not stage:
            raise ObsError(f"invalid bench stage name: {stage!r}")
        if not isinstance(summary, dict):
            raise ObsError(
                f"bench stage {stage!r}: summary must be a mapping, "
                f"got {type(summary).__name__}"
            )
        for stat in REQUIRED_STAGE_STATS:
            value = summary.get(stat)
            if not isinstance(value, (int, float)) or value < 0:
                raise ObsError(
                    f"bench stage {stage!r}: missing or invalid "
                    f"required statistic {stat!r} (got {value!r})"
                )


def emit(
    bench: str,
    stages: Dict[str, Dict[str, Any]],
    path: Optional[Union[str, Path]] = None,
    ledger: Optional[Union[str, Path]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """The one emission path every benchmark routes through.

    Validates the stage schema (every stage needs numeric median and
    p90), stamps the environment fingerprint, updates the shared
    ``BENCH_obs.json`` atomically, and — when a ledger is configured
    explicitly or via ``REPRO_LEDGER`` — appends a durable
    :class:`~repro.obs.timeline.RunRecord` so the perf trajectory
    survives beyond the working directory.
    """
    if not isinstance(bench, str) or not bench:
        raise ObsError(f"invalid bench name: {bench!r}")
    validate_stages(stages)
    env = env_fingerprint()
    target = update_bench_obs(bench, stages, path=path, env=env)
    from repro.obs.timeline import record_from_bench, resolve_ledger

    active = resolve_ledger(ledger)
    if active is not None:
        record = record_from_bench(
            bench, stages, extra={"env": env, **(extra or {})}
        )
        active.append(record)
    return target
