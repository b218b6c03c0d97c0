"""Layered benchmark of the MC Mutants reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
runs the workload once untraced and once with the layer wrappers and
reports the per-layer metrics.  The last line of standard output is
one JSON object; the lines before it are diagnostics.  The exit code
is nonzero when an output check fails.  See README.md.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

import arith
import child
import hostref
import layers
import procs
import service_load
import spans

WORKLOADS = ("paper_repro", "campaign_delta", "service_mix", "operational_site")
#: Workloads that run in one serial process (``--workers 1``).
SINGLE_CPU = ("paper_repro", "campaign_delta", "operational_site")
DEFAULT_SEED = 42
#: Set-up-only cold starts per run, on top of each timed round's own.
SETUP_PROBES = 1
CHILD_TIMEOUT = 150.0
WORK = procs.ROOT / ".perfbench_work"
PINS = procs.HERE / "pins.json"
#: paper_repro shape claims (EXPERIMENTS.md).
MIN_DEATH_RATE_RATIO = 1e3
MIN_TABLE4_PCC = 0.85


@dataclass
class Round:
    """One timed round: a fresh process (or daemon) doing fixed work."""

    setup: float
    wall: float
    rss_kb: int
    units: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    notes: Dict[str, Any] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)


def _journal(path: Path) -> List[Dict[str, Any]]:
    records = []
    with open(path) as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("type") == "unit":
                records.append(entry)
    return records


def _executed(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Units the backend computed (store-loaded ones have attempts 0)."""
    return [r for r in records if r["attempts"] > 0]


def _stats_digest(*directories: Path) -> str:
    hasher = hashlib.sha256()
    for directory in directories:
        for path in sorted(directory.glob("*.json")):
            hasher.update(path.name.encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _same_stats(left: Path, right: Path) -> bool:
    names = sorted(p.name for p in left.glob("*.json"))
    return names == sorted(p.name for p in right.glob("*.json")) and all(
        (left / n).read_bytes() == (right / n).read_bytes() for n in names
    )


def _child(workload: str, seed: int, work: Path, *flags: str) -> procs.Process:
    return procs.run(
        procs.python("child.py", workload, "--seed", seed, "--work", work,
                     *flags),
        work.with_suffix(".log"),
        CHILD_TIMEOUT,
    )


def _child_round(workload: str, seed: int, work: Path, trace: bool) -> Round:
    process = _child(workload, seed, work, *(["--trace"] if trace else []))
    record = json.loads((work / "child.json").read_text())
    out = Round(
        setup=record["ready"] - process.started,
        wall=record["end"] - record["ready"],
        # Read at the end of the timed phase, before any after-timing
        # check runs in the same process.
        rss_kb=record["rss_kb"],
        # The user request of a campaign workload is its whole timed
        # phase: campaign_delta's single phases (about 5 s for the warm
        # one) are too short to time steadily on a shared host.
        latencies=[record["end"] - record["ready"]],
    )
    GATHER[workload](out, work, record)
    if trace:
        threads, counts = spans.load_dump(work / "spans.jsonl")
        out.layer = layers.span_metrics(threads, counts)
        main = next(t for t in threads if any(s[0] == layers.TIMED for s in t))
        roots = [
            i for i, s in enumerate(main)
            if s[0] == layers.TIMED or s[0] in layers.PHASES
        ]
        out.layer["unattributed_s"] = arith.unattributed(
            arith.top_level(main, roots), record["ready"], record["end"]
        )
    return out


def _gather_paper(out: Round, work: Path, record: Dict) -> None:
    records = _journal(work / "out" / "campaign.jsonl")
    out.units = record["units"]
    out.attempted = len(records) + record["failed"]
    out.failed = record["failed"]
    out.digest = _stats_digest(work / "out")
    ratio = record["death_rate_ratio"]
    out.notes["death_rate_ratio"] = round(ratio, 1)
    out.notes["pccs"] = {k: round(v, 4) for k, v in record["pccs"].items()}
    if not ratio > MIN_DEATH_RATE_RATIO:
        out.problems.append(f"PTE/SITE death-rate ratio {ratio:.1f} <= 1e3")
    for vendor, pcc in record["pccs"].items():
        if not pcc > MIN_TABLE4_PCC:
            out.problems.append(f"Table 4 PCC {vendor} {pcc:.3f} <= 0.85")
    if out.units != len(records):
        out.problems.append(
            f"{out.units} units reported, {len(records)} journaled"
        )


def _gather_delta(out: Round, work: Path, record: Dict) -> None:
    cold = _journal(work / "cold" / "journal.jsonl")
    warm = _journal(work / "warm" / "journal.jsonl")
    delta = _journal(work / "delta" / "journal.jsonl")
    out.units = len(cold) + len(warm) + len(delta)
    out.attempted = out.units
    out.digest = _stats_digest(work / "warm", work / "delta")
    new = [r for r in delta if r["unit"][2] == child.DELTA_NEW_DEVICE]
    out.notes["executed"] = {
        "cold": len(_executed(cold)),
        "warm": len(_executed(warm)),
        "delta": len(_executed(delta)),
    }
    checks = [
        (len(_executed(cold)) == len(cold), "cold phase reused units"),
        (len(warm) == len(cold), "warm phase delivered a different grid"),
        (not _executed(warm), "warm phase executed units"),
        (
            sorted(r["index"] for r in _executed(delta))
            == sorted(r["index"] for r in new)
            and len(delta) == len(cold) + len(new) and new,
            "delta phase did not execute exactly the new device's units",
        ),
        (
            _same_stats(work / "warm", work / "recompute_cold")
            and _same_stats(work / "cold", work / "recompute_cold"),
            "warm stats differ from a no-store recomputation",
        ),
        (
            _same_stats(work / "delta", work / "recompute"),
            "delta stats differ from a no-store recomputation",
        ),
    ]
    out.problems.extend(message for ok, message in checks if not ok)


def _gather_operational(out: Round, work: Path, record: Dict) -> None:
    records = _journal(work / "op" / "journal.jsonl")
    out.units = len(records)
    out.attempted = len(records)
    out.digest = _stats_digest(work / "op")
    kills = 0
    for path in (work / "op").glob("*.json"):
        kills += sum(run["kills"] for run in json.loads(path.read_text())["runs"])
    out.notes["kills"] = kills
    if len(_executed(records)) != len(records):
        out.problems.append("operational units were not all executed")


GATHER: Dict[str, Callable[[Round, Path, Dict], None]] = {
    "paper_repro": _gather_paper,
    "campaign_delta": _gather_delta,
    "operational_site": _gather_operational,
}


def _service_round(plan: service_load.Plan, work: Path, trace: bool) -> Round:
    done = service_load.closed_loop(work, plan, trace)
    out = Round(setup=done.setup, wall=done.wall, rss_kb=done.rss_kb)
    ok = [job for job in done.jobs if job.state == "done"]
    out.attempted = len(done.jobs)
    out.failed = len(done.jobs) - len(ok)
    out.latencies = [job.latency for job in ok]
    out.units = service_load.units(done)
    out.problems = service_load.check(done)
    out.digest = service_load.digest(done)
    if trace:
        out.layer = _service_layers(done)
    return out


def _service_layers(done: service_load.Round) -> Dict[str, float]:
    threads, counts = spans.load_dump(done.daemon_spans)
    out = layers.span_metrics(threads, counts)
    # Closure on the program side: the timed window minus the time in
    # which some daemon thread was inside a top-level layer span (the
    # shard round trips, request acceptance and finalization included).
    lo, hi = done.timed
    out["unattributed_s"] = arith.unattributed(
        [interval for thread in threads for interval in arith.top_level(thread)],
        lo, hi,
    )
    described = done.described
    jobs = [job for job in done.jobs if job.state == "done"]
    out["service.submit_p50_s"] = arith.median([j.submit_s for j in jobs])
    queue, running, final = [], [], []
    for job in jobs:
        entry = described[job.job_id]
        if entry.get("started_utc") is not None:
            queue.append(entry["started_utc"] - entry["created_utc"])
        if job.last_progress_utc is not None:
            if entry.get("started_utc") is not None:
                running.append(job.last_progress_utc - entry["started_utc"])
            final.append(job.terminal_utc - job.last_progress_utc)
    out["service.queue_p50_s"] = arith.median(queue) if queue else 0.0
    out["service.run_p50_s"] = arith.median(running) if running else 0.0
    out["service.finalize_p50_s"] = arith.median(final) if final else 0.0
    # Pool-worker time comes from the daemon's metrics: the worker is
    # a separate process the wrappers do not reach.
    families = service_load.families(done.metrics_jsonl)
    shards = families.get("repro_service_shard_seconds", [])
    out["service.shards"] = sum(h["count"] for h in shards)
    out["service.shard_s"] = sum(h["sum"] for h in shards)
    busy = sum(
        c["value"] for c in families.get("repro_campaign_busy_seconds_total", [])
    )
    out["service.worker_busy_s"] = busy
    # The daemon observes a shard's seconds after absorbing its result.
    out["service.ipc_s"] = (
        out["service.shard_s"] - busy - out["service.absorb_s"]
    )
    out["service.http_requests"] = sum(
        c["value"]
        for c in families.get("repro_service_http_requests_total", [])
    )
    out["backends.units"] = sum(
        c["value"] for c in families.get("repro_campaign_units_total", [])
    )
    return out


def _round(workload: str, seed: int, work: Path, trace: bool) -> Round:
    if workload == "service_mix":
        return _service_round(service_load.plan(seed), work, trace)
    return _child_round(workload, seed, work, trace)


def _setup_probe(workload: str, seed: int, work: Path) -> float:
    if workload == "service_mix":
        return service_load.setup_probe(work, service_load.plan(seed).warmup)
    process = _child(workload, seed, work, "--setup-only")
    record = json.loads((work / "child.json").read_text())
    return record["ready"] - process.started


def _pinned(workload: str, seed: int, rounds: List[Round]) -> List[str]:
    pins = json.loads(PINS.read_text())
    if seed != pins["seed"]:
        return []
    pin = pins["workloads"].get(workload)
    if pin is None:
        return [f"no pinned digest for {workload} at seed {seed}"]
    problems = []
    for number, measured in enumerate(rounds):
        if measured.digest != pin["digest"]:
            problems.append(
                f"round {number}: stats digest {measured.digest} != "
                f"pinned {pin['digest']}"
            )
        if "kills" in pin and measured.notes.get("kills") != pin["kills"]:
            problems.append(
                f"round {number}: {measured.notes.get('kills')} kills != "
                f"pinned {pin['kills']}"
            )
    return problems


def _end_to_end(rounds: List[Round], setups: List[float]) -> Dict[str, Any]:
    failed = sum(r.failed for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    latency = arith.latency_summary(
        [x for r in rounds for x in r.latencies], failures=failed
    )
    walls = [r.wall for r in rounds]
    metrics = {
        "setup_s": (arith.median(setups), "s"),
        "wall_s": (arith.median(walls), "s"),
        "units_per_s": (sum(r.units for r in rounds) / sum(walls), "1/s"),
        "job_p50_s": (latency["p50"], "s"),
        "job_p90_s": (latency["tail"], "s"),
        "peak_rss_mb": (max(r.rss_kb for r in rounds) / 1024.0, "MB"),
        "failed_frac": (arith.failed_frac(failed, attempted), "ratio"),
    }
    print(
        f"jobs: n={latency['count']} p50={latency['p50']:.6f}s "
        f"p{latency['tail_pct']:g}={latency['tail']:.6f}s "
        f"(highest percentile with >=10 beyond: "
        f"p{latency['highest_pct']:.2f})"
    )
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        plain = _round(workload, seed, work / "plain", trace=False)
        traced = _round(workload, seed, work / "traced", trace=True)
        rounds = [plain, traced]
        metrics = layers.empty_metrics()
        metrics.update(traced.layer)
        metrics["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
        print(
            f"traced wall {traced.wall:.3f}s, untraced {plain.wall:.3f}s, "
            f"unattributed {metrics['unattributed_s']:.3f}s "
            f"({metrics['unattributed_s'] / traced.wall:.2%})"
        )
        named = {name: (metrics[name], unit) for name, unit in layers.per_layer()}
    else:
        setups = [
            _setup_probe(workload, seed, work / f"probe{i}")
            for i in range(SETUP_PROBES)
        ]
        # Whole rounds while the next one is expected to fit in
        # --seconds; always at least one.
        rounds = []
        measured = 0.0
        while not rounds or measured + rounds[-1].wall <= seconds:
            rounds.append(
                _round(workload, seed, work / f"round{len(rounds)}", False)
            )
            setups.append(rounds[-1].setup)
            measured += rounds[-1].wall
        print(
            f"rounds: {len(rounds)}, walls "
            + " ".join(f"{r.wall:.3f}" for r in rounds)
            + ", setups " + " ".join(f"{s:.3f}" for s in setups)
        )
        named = _end_to_end(rounds, setups)
    problems = [p for r in rounds for p in r.problems]
    problems += _pinned(workload, seed, rounds)
    for number, measured_round in enumerate(rounds):
        print(f"round {number}: digest {measured_round.digest} "
              f"{json.dumps(measured_round.notes, sort_keys=True)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            # A tail made of failed requests is inf; JSON has no inf.
            name: {"value": value if math.isfinite(value) else None,
                   "unit": unit}
            for name, (value, unit) in named.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so every started
    # process is stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (procs.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {procs.SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # service_mix builds its job specs with the program's spec API.
    sys.path.insert(0, str(procs.SRC))
    # Byte-compile up front so no run pays for compilation in set-up.
    compileall.compile_dir(str(procs.SRC), quiet=2)
    compileall.compile_dir(str(procs.HERE), quiet=2)
    if args.workload in SINGLE_CPU:
        # Serial workloads: keep this process and every child on one
        # CPU, so a run does not pay for migrations between vCPUs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    before = hostref.host_ref()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    after = hostref.host_ref()
    print(f"host.ref_s: before {before:.4f} after {after:.4f}")
    if args.trace:
        result["metrics"]["host.ref_s"]["value"] = (before + after) / 2.0
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
