"""One fresh process of an in-process workload.

``run.py`` starts this file once per set-up sample and once per timed
round, so every process-wide cache of the program starts cold:

    python3 perfbench/child.py WORKLOAD --seed N --work DIR [--setup-only] [--trace]

Set-up ends when the first unit of timed work is about to start; the
process then writes ``ready`` (a ``time.monotonic()`` reading, which
is the same clock in every process) to ``DIR/child.json``.  A timed
round adds the end of the timed phase, the process's peak RSS and
what the checks in ``run.py`` need.  With ``--trace`` the
program's public functions are wrapped before set-up and the spans are
written to ``DIR/spans.jsonl`` after the timed phase.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import layers
import spans

#: Grid of the campaign_delta workload (all four families × 32 mutants).
DELTA_ENVS = 40
DELTA_COLD_DEVICES = ("NVIDIA", "AMD", "Intel")
DELTA_NEW_DEVICE = "M1"
#: Grid of the operational_site workload.
OPERATIONAL_KINDS = ("SITE_BASELINE", "SITE")
OPERATIONAL_ENVS = 3
#: The paper_repro workload, run at its default (paper) scale.
PAPER_SCRIPT = Path("scripts") / "reproduce_all.py"


def _cli(argv) -> None:
    from repro import cli

    code = cli.main([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(f"repro {' '.join(map(str, argv))} exited {code}")


def paper_repro(seed: int, work: Path, mark_ready: Callable[[], None],
                tracer: Optional[spans.Tracer]) -> Dict[str, Any]:
    """scripts/reproduce_all.py itself, serial, store off.

    Set-up ends on entry to ``run_campaign``.  The campaign outcome,
    Figure 5 and Table 4 are kept as the script produces them, for the
    checks in ``run.py``.
    """
    import runpy

    from repro import EnvironmentKind

    kept: Dict[str, Any] = {}
    spans.hook(
        "repro.campaign.scheduler:run_campaign",
        before=mark_ready,
        after=lambda outcome: kept.update(outcome=outcome),
    )
    spans.hook(
        "repro.analysis.figures:figure5",
        after=lambda fig5: kept.update(figure5=fig5),
    )
    spans.hook(
        "repro.analysis.correlation:table4",
        after=lambda rows: kept.update(table4=rows),
    )
    argv = sys.argv
    sys.argv = [
        str(PAPER_SCRIPT), str(work / "out"), "--workers", "1",
        "--seed", str(seed), "--no-store",
    ]
    try:
        runpy.run_path(str(PAPER_SCRIPT), run_name="__main__")
    finally:
        sys.argv = argv
    fig5 = kept["figure5"]
    site_rate = fig5.rate(EnvironmentKind.SITE)
    outcome = kept["outcome"]
    return {
        "death_rate_ratio": (
            fig5.rate(EnvironmentKind.PTE) / site_rate if site_rate else 0.0
        ),
        "pccs": {row.vendor: row.pcc for row in kept["table4"]},
        "units": outcome.metrics.units_done + outcome.metrics.store_units,
        "failed": len(outcome.failed),
    }


def _grid_args(seed: int, out: Path, devices) -> list:
    return [
        "campaign", "run", "--out", out, "--envs", DELTA_ENVS,
        "--seed", seed, "--workers", 1, "--devices", *devices,
    ]


def campaign_delta(seed: int, work: Path, mark_ready: Callable[[], None],
                   tracer: Optional[spans.Tracer]) -> Dict[str, Any]:
    """Cold, warm and delta Figure 5 campaigns against one store."""
    from repro.mutation import default_suite

    default_suite()
    mark_ready()
    store = work / "store"
    every = DELTA_COLD_DEVICES + (DELTA_NEW_DEVICE,)
    for name, devices in (
        ("cold", DELTA_COLD_DEVICES),
        ("warm", DELTA_COLD_DEVICES),
        ("delta", every),
    ):
        with spans.span_of(tracer, f"campaign.{name}"):
            _cli(_grid_args(seed, work / name, devices) + ["--store", store])
    return {}


def recompute_delta(seed: int, work: Path) -> None:
    """The delta grid again, without a store, for the byte comparison.

    Writes the four-device stats to ``recompute/`` and the same runs
    restricted to the cold devices to ``recompute_cold/``.
    """
    from repro.analysis import save_result
    from repro.campaign import ExecutorConfig, paper_spec, run_campaign
    from repro.env import TuningResult
    from repro.mutation import default_suite

    every = DELTA_COLD_DEVICES + (DELTA_NEW_DEVICE,)
    spec = paper_spec(
        tuple(m.name for m in default_suite().mutants),
        environment_count=DELTA_ENVS,
        seed=seed,
        device_names=every,
        store_policy="off",
    )
    outcome = run_campaign(spec, config=ExecutorConfig(workers=1))
    full = work / "recompute"
    cold = work / "recompute_cold"
    full.mkdir()
    cold.mkdir()
    for kind, result in outcome.results.items():
        save_result(result, full / f"{kind.name.lower()}.json")
        save_result(
            TuningResult(
                kind=kind,
                runs=[
                    run for run in result.runs
                    if run.device_name in DELTA_COLD_DEVICES
                ],
                backend=result.backend,
            ),
            cold / f"{kind.name.lower()}.json",
        )


def operational_site(seed: int, work: Path, mark_ready: Callable[[], None],
                     tracer: Optional[spans.Tracer]) -> Dict[str, Any]:
    """SITE families on the per-instance operational executor."""
    from repro.mutation import default_suite

    default_suite()
    mark_ready()
    _cli([
        "campaign", "run", "--out", work / "op", "--backend", "operational",
        "--kinds", *OPERATIONAL_KINDS, "--envs", OPERATIONAL_ENVS,
        "--seed", seed, "--workers", 1,
    ])
    return {}


WORKLOADS = {
    "paper_repro": paper_repro,
    "campaign_delta": campaign_delta,
    "operational_site": operational_site,
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, layers.TARGETS)
    record: Dict[str, Any] = {}

    class _Ready(Exception):
        pass

    def mark_ready() -> None:
        record["ready"] = time.monotonic()
        if args.setup_only:
            raise _Ready()

    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    try:
        with spans.span_of(tracer, layers.TIMED):
            record.update(workload(args.seed, args.work, mark_ready, tracer))
        record["end"] = time.monotonic()
        record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.dump(args.work / "spans.jsonl")
        if args.workload == "campaign_delta":
            recompute_delta(args.seed, args.work)
    except _Ready:
        pass
    (args.work / "child.json").write_text(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
