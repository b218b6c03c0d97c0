"""One-command reproduction: regenerate every table and figure.

Runs the full evaluation (paper scale: 150 random environments per
tuning family, all 32 mutants, all 4 devices; 150-environment
correlation study) and writes everything to a results directory:

.. code-block:: bash

    python scripts/reproduce_all.py [results_dir] [--workers N]

The four tuning families execute as one sharded, journaled campaign
(``repro.campaign``): ``--workers N`` fans the 19k+ work units out
over N processes, the journal at ``results_dir/campaign.jsonl``
checkpoints every completed unit, and re-running after a crash (or a
Ctrl-C) resumes exactly where it stopped.  Results are identical for
any worker count.

Outputs: rendered tables/figures as .txt, the raw tuning statistics as
JSON (re-analysable with ``python -m repro analyze``), the campaign
telemetry report, and a summary with the headline paper-vs-measured
comparisons.  Fully deterministic.
"""

import argparse
import time
from pathlib import Path

from repro import (
    EnvironmentKind,
    build_suite,
    figure5,
    figure6,
    render_figure5_rates,
    render_figure5_scores,
    render_figure6,
    render_table2,
    render_table3,
    render_table4,
    table4,
)
from repro.analysis import save_result
from repro.campaign import ExecutorConfig, paper_spec, run_campaign
from repro.cli import add_backend_flags, backend_selection

SEED = 42
ENVIRONMENTS = 150
#: Table 4's correlation study needs at least three environments.
MIN_ENVIRONMENTS = 3


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="regenerate every table and figure"
    )
    parser.add_argument(
        "results_dir", nargs="?", default="results", type=Path
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="campaign worker processes (default: os.cpu_count())",
    )
    parser.add_argument(
        "--envs", type=int, default=ENVIRONMENTS,
        help="environments per tuning family (paper: 150)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--suite", default=None, metavar="PATH",
        help="evaluate a synthesized suite file (repro synthesize) "
        "instead of the built-in Table 2 suite",
    )
    add_backend_flags(
        parser,
        help_text="execution backend for the tuning campaign "
        "(same flags as `repro campaign run`)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent result store: completed units are recorded "
        "there and re-runs reuse them (policy: reuse)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="force the result store off",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record wall/CPU-time spans for the hot-path profile",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="append the campaign's normalized run record to the run "
        "ledger at DIR (default: $REPRO_LEDGER when set) for "
        "`repro obs history|diff|check`",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write observability artifacts (metrics.jsonl, "
        "metrics.prom, trace.jsonl) into this directory "
        "(default with --trace: <results_dir>/obs)",
    )
    args = parser.parse_args()
    if args.envs < MIN_ENVIRONMENTS:
        # Checked here, not after the campaign has run.
        parser.error(
            f"--envs must be at least {MIN_ENVIRONMENTS}: the Table 4 "
            "correlation needs that many environments"
        )
    return args


def main() -> None:
    args = parse_args()
    out = args.results_dir
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    rec = None
    if args.trace or args.metrics_out is not None:
        from repro import obs

        rec = obs.enable(trace=args.trace)

    if args.suite is not None:
        print(f"[1/5] loading synthesized suite {args.suite} ...")
        from repro.synthesis import load_suite

        suite = load_suite(args.suite, verify=True)
    else:
        print("[1/5] generating and verifying the suite (Table 2) ...")
        suite = build_suite()
    (out / "table2.txt").write_text(render_table2(suite) + "\n")
    (out / "table3.txt").write_text(render_table3() + "\n")

    print("[2/5] tuning the four environment families (Sec. 5.1) ...")
    backend, backend_options = backend_selection(args)
    store_path = None if args.no_store else args.store
    spec = paper_spec(
        tuple(mutant.name for mutant in suite.mutants),
        environment_count=args.envs,
        seed=args.seed,
        backend=backend,
        max_operational_instances=backend_options.pop(
            "max_operational_instances", None
        ),
        suite_path=args.suite,
        store_path=store_path,
        store_policy="off" if store_path is None else "reuse",
    )
    from repro import obs

    health = None
    ledger = obs.resolve_ledger(args.ledger)
    if ledger is not None:
        baselines = ledger.baseline(
            spec.fingerprint(), window=10, kind="campaign",
            before_utc=float("inf"),
        )
        health = obs.HealthMonitor(
            expected_kill_rate=obs.expected_rate_from_baseline(
                baselines
            ),
            expected_units=obs.expected_units_from_baseline(
                baselines
            ),
        )
    outcome = run_campaign(
        spec,
        journal_path=out / "campaign.jsonl",
        config=ExecutorConfig(
            workers=args.workers, progress_interval=5.0
        ),
        log=print,
        health=health,
    )
    if ledger is not None:
        record = obs.record_from_outcome(outcome)
        ledger.append(record)
        print(
            f"      ledger: recorded run of {record.fingerprint} "
            f"at {ledger.root}"
        )
    (out / "campaign_report.txt").write_text(outcome.report() + "\n")
    results = outcome.results
    for kind, result in results.items():
        save_result(result, out / f"{kind.name.lower()}.json")
        print(f"      {kind.value}: {len(result.runs)} runs")

    print("[3/5] aggregating Figure 5 ...")
    fig5 = figure5(results, suite)
    (out / "figure5_scores.txt").write_text(
        "\n\n".join(
            render_figure5_scores(fig5, group)
            for group in (
                "combined", "reversing po-loc",
                "weakening po-loc", "weakening sw",
            )
        )
        + "\n"
    )
    (out / "figure5_rates.txt").write_text(
        "\n\n".join(
            render_figure5_rates(fig5, group)
            for group in (
                "combined", "reversing po-loc",
                "weakening po-loc", "weakening sw",
            )
        )
        + "\n"
    )

    print("[4/5] sweeping budgets for Figure 6 (Algorithm 1) ...")
    fig6 = figure6(
        {
            EnvironmentKind.PTE: results[EnvironmentKind.PTE],
            EnvironmentKind.SITE: results[EnvironmentKind.SITE],
        }
    )
    (out / "figure6.txt").write_text(render_figure6(fig6) + "\n")

    print("[5/5] running the Table 4 correlation study ...")
    correlation_rows = table4(
        environment_count=args.envs, iterations=100, seed=0
    )
    (out / "table4.txt").write_text(render_table4(correlation_rows) + "\n")

    pte_rate = fig5.rate(EnvironmentKind.PTE)
    site_rate = fig5.rate(EnvironmentKind.SITE)
    summary = "\n".join(
        [
            "MC Mutants reproduction — headline summary",
            "",
            f"mutation scores: SITE-baseline "
            f"{fig5.score(EnvironmentKind.SITE_BASELINE):.3f} "
            f"(paper .063), SITE {fig5.score(EnvironmentKind.SITE):.3f} "
            f"(.461), PTE-baseline "
            f"{fig5.score(EnvironmentKind.PTE_BASELINE):.3f} (.727), "
            f"PTE {fig5.score(EnvironmentKind.PTE):.3f} (.836)",
            "PTE/SITE death-rate ratio: "
            + (f"{pte_rate / site_rate:,.0f}x" if site_rate else "n/a")
            + " (paper 2731x)",
            f"PTE score at 64s/99.999%: "
            f"{fig6.score_at(EnvironmentKind.PTE, 0.99999, 64.0):.2f} "
            f"(paper 0.82)",
            "Table 4 PCCs: "
            + ", ".join(
                f"{row.vendor} {row.pcc:.3f}" for row in correlation_rows
            )
            + "  (paper .996/.967/.893)",
            "",
            f"campaign: {outcome.metrics.units_done} units executed, "
            f"{outcome.metrics.resumed_units} resumed, "
            f"{outcome.metrics.store_units} from store, "
            f"{len(outcome.metrics.workers)} worker(s), "
            f"{outcome.metrics.units_per_second:.0f} units/s",
            f"total wall time: {time.time() - started:.1f}s",
        ]
    )
    (out / "summary.txt").write_text(summary + "\n")
    print("\n" + summary)

    if rec is not None:
        from repro import obs

        obs.publish_cache_metrics()
        obs_dir = (
            Path(args.metrics_out)
            if args.metrics_out is not None
            else out / "obs"
        )
        paths = obs.write_artifacts(obs_dir, rec, trace=args.trace)
        print(
            "observability artifacts: "
            + ", ".join(str(path) for path in sorted(paths.values()))
        )
        obs.disable()

    print(f"\nall artefacts written to {out}/")


if __name__ == "__main__":
    main()
