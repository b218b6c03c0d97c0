"""Command-line interface, mirroring the paper artifact's workflow.

The artifact drives everything through ``analysis.py --action
mutation-score|merge|correlation --stats_path ...`` over JSON stats
files; this CLI reproduces that surface and adds the data-collection
side the artifact ran in a browser:

.. code-block:: bash

    python -m repro suite                         # Table 2 + test listing
    python -m repro suite --list --prune-devices  # per-test detail rows
    python -m repro synthesize --max-events 4 --out synth.json
    python -m repro suite --suite synth.json --list
    python -m repro campaign run --out camp --suite synth.json
    python -m repro show corr --wgsl              # one test, as WGSL
    python -m repro tune --kind PTE --out pte.json
    python -m repro analyze --action mutation-score --stats-path pte.json
    python -m repro analyze --action merge --stats-path pte.json \\
        --rep 99.999 --budget 4
    python -m repro analyze --action correlation --envs 80
    python -m repro figures --stats-dir statsdir  # Fig. 5 + Fig. 6
    python -m repro cts --stats-path pte.json --rep 99.999 --budget 4
    python -m repro campaign run --out camp --workers 4
    python -m repro campaign status --out camp --json
    python -m repro campaign resume --out camp
    python -m repro campaign run --out camp2 --store results-store
    python -m repro store stats --store results-store
    python -m repro store verify --store results-store
    python -m repro store gc --store results-store --max-objects 10000
    python -m repro service start --root svc --workers 4
    python -m repro service submit --root svc --smoke --tenant alice
    python -m repro service watch --root svc j00001-abcd1234
    python -m repro service status --root svc --json
    python -m repro service cancel --root svc j00001-abcd1234
    python -m repro campaign run --out camp --smoke \\
        --trace --metrics-out camp/obs
    python -m repro obs report --metrics camp/obs/metrics.jsonl \\
        --trace camp/obs/trace.jsonl
    python -m repro obs export --metrics camp/obs/metrics.jsonl \\
        --format prom

All commands are deterministic given ``--seed``; campaigns are
additionally independent of worker count and resumable mid-run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis import (
    figure5,
    figure6,
    load_result,
    render_figure5_rates,
    render_figure5_scores,
    render_figure6,
    render_table2,
    render_table3,
    render_table4,
    save_result,
    score_matrix,
    table4,
)
from repro.analysis.report import ascii_table
from repro.backends import registered_backends
from repro.confidence import curate, merge_suite, reproducible_pairs
from repro.env import EnvironmentKind, tuning_run
from repro.errors import ReproError
from repro.gpu import make_device, study_devices
from repro.litmus import extended, format_test, generate_wgsl, library
from repro.mutation import default_suite


def add_backend_flags(
    parser: argparse.ArgumentParser,
    help_text: Optional[str] = None,
) -> None:
    """The one backend-selection surface every command shares.

    ``--backend NAME`` picks from the :mod:`repro.backends` registry
    and ``--backend-opt KEY=VALUE`` (repeatable) carries backend
    construction options — the same two flags mean the same thing on
    ``campaign run``, ``campaign resume``, ``synthesize``, ``tune``,
    ``service submit``, and ``scripts/reproduce_all.py``.

    Commands resolve the flags through :func:`backend_selection`,
    which supplies the command-appropriate default, so the argparse
    default here stays ``None`` ("flag not given").
    """
    parser.add_argument(
        "--backend",
        choices=registered_backends(),
        default=None,
        help=help_text
        or "execution backend from the repro.backends registry",
    )
    parser.add_argument(
        "--backend-opt",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="backend construction option (repeatable; values parse "
        "as int/float/bool when they look like one), e.g. "
        "--backend-opt max_operational_instances=8",
    )


def _coerce_opt(text: str):
    """``--backend-opt`` values: bool/int/float when unambiguous."""
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_backend_opts(
    pairs: Optional[Sequence[str]],
) -> Dict[str, object]:
    """``--backend-opt KEY=VALUE`` occurrences → an options dict."""
    options: Dict[str, object] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not sep or not key or not value:
            raise ReproError(
                f"bad --backend-opt {pair!r} (want KEY=VALUE)"
            )
        if key in options:
            raise ReproError(f"duplicate --backend-opt key {key!r}")
        options[key] = _coerce_opt(value)
    return options


def backend_selection(
    args: argparse.Namespace,
    default: Optional[str] = "analytic",
) -> Tuple[Optional[str], Dict[str, object]]:
    """Resolve the shared backend flags to (name, validated options).

    Falls back to ``default`` when ``--backend`` was not given, and
    validates the ``--backend-opt`` dict against the selected
    backend's ``option_names`` so unknown options fail here — with the
    registry's error message — instead of deep inside a campaign.
    """
    backend = getattr(args, "backend", None)
    if backend is None:
        backend = default
    options = _parse_backend_opts(getattr(args, "backend_opt", None))
    if options:
        if backend is None:
            raise ReproError("--backend-opt requires --backend")
        from repro.backends import resolve, validate_options

        validate_options(resolve(backend), options)
    return backend, options


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MC Mutants reproduction (ASPLOS 2023)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    suite_cmd = commands.add_parser(
        "suite", help="generate the verified suite and print Table 2"
    )
    suite_cmd.add_argument(
        "--list", action="store_true", help="also list every test"
    )
    suite_cmd.add_argument(
        "--suite",
        default=None,
        metavar="PATH",
        help="inspect a synthesized suite file instead of the "
        "built-in Table 2 suite",
    )
    suite_cmd.add_argument(
        "--prune-devices",
        nargs="*",
        default=None,
        metavar="DEVICE",
        help="with --list, flag mutants unobservable on these devices "
        "(no names = the four study devices)",
    )

    synthesize_cmd = commands.add_parser(
        "synthesize",
        help="enumerate cycle templates and synthesize a verified suite",
    )
    synthesize_cmd.add_argument(
        "--max-events", type=int, default=4,
        help="events per cycle (Table 2 lives at 4)",
    )
    synthesize_cmd.add_argument("--max-threads", type=int, default=2)
    synthesize_cmd.add_argument(
        "--events-per-thread", type=int, default=2
    )
    synthesize_cmd.add_argument(
        "--edges", nargs="*", default=None,
        choices=["po", "po-loc", "sw", "com"],
        help="edge alphabet (default: all four)",
    )
    synthesize_cmd.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock generation budget in seconds",
    )
    synthesize_cmd.add_argument(
        "--candidate-timeout", type=float, default=10.0,
        help="per-candidate oracle deadline in seconds",
    )
    synthesize_cmd.add_argument(
        "--max-pairs", type=int, default=None,
        help="stop after admitting this many pairs",
    )
    synthesize_cmd.add_argument(
        "--dedupe-known", action="store_true",
        help="drop pairs isomorphic to the hand-written Table 2 suite "
        "(overlap is reported either way)",
    )
    synthesize_cmd.add_argument(
        "--quiet", action="store_true",
        help="suppress per-template progress lines",
    )
    synthesize_cmd.add_argument(
        "--out", required=True, help="output suite JSON path"
    )
    add_backend_flags(
        synthesize_cmd,
        help_text="after saving, smoke-evaluate the synthesized "
        "mutants with this backend (killable-mutant count at the "
        "PTE baseline); off unless given",
    )
    synthesize_cmd.add_argument(
        "--trace", action="store_true",
        help="record nested wall/CPU-time spans (profile report)",
    )
    synthesize_cmd.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write metrics.jsonl + metrics.prom (and trace.jsonl "
        "with --trace) into this directory",
    )

    show = commands.add_parser("show", help="print one test")
    show.add_argument("name", help="suite test name, alias, or library name")
    show.add_argument(
        "--wgsl", action="store_true", help="emit the WGSL shader"
    )
    show.add_argument(
        "--litmus",
        action="store_true",
        help="emit the textual litmus format",
    )

    run = commands.add_parser(
        "run",
        help="run one test operationally and print the outcome histogram",
    )
    run.add_argument("name")
    run.add_argument("--device", default="amd")
    run.add_argument(
        "--buggy",
        action="store_true",
        help="inject the device's historical bug(s)",
    )
    run.add_argument("--instances", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--stress", action="store_true", help="apply heavy stress"
    )

    tune = commands.add_parser(
        "tune", help="run a tuning experiment and save JSON stats"
    )
    tune.add_argument(
        "--kind",
        choices=[kind.name for kind in EnvironmentKind],
        default="PTE",
    )
    tune.add_argument("--envs", type=int, default=150)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--devices", nargs="*", default=None)
    add_backend_flags(
        tune,
        help_text="execution backend (tensor = whole-grid analytic "
        "model, faster on big grids; vectorized = alias of analytic)",
    )
    tune.add_argument("--out", required=True)
    tune.add_argument(
        "--trace", action="store_true",
        help="record nested wall/CPU-time spans (profile report)",
    )
    tune.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write metrics.jsonl + metrics.prom (and trace.jsonl "
        "with --trace) into this directory",
    )

    analyze = commands.add_parser(
        "analyze", help="the artifact's analysis actions"
    )
    analyze.add_argument(
        "--action",
        choices=["mutation-score", "merge", "correlation"],
        required=True,
    )
    analyze.add_argument("--stats-path", default=None)
    analyze.add_argument(
        "--suite",
        default=None,
        metavar="PATH",
        help="score against a synthesized suite file instead of the "
        "built-in suite (mutation-score only)",
    )
    analyze.add_argument("--rep", type=float, default=95.0,
                         help="reproducibility target in percent")
    analyze.add_argument("--budget", type=float, default=4.0,
                         help="per-test time budget in seconds")
    analyze.add_argument("--envs", type=int, default=80,
                         help="environments for --action correlation")
    analyze.add_argument("--seed", type=int, default=0)

    figures = commands.add_parser(
        "figures", help="regenerate Figure 5 and Figure 6 from stats"
    )
    figures.add_argument(
        "--stats-dir",
        required=True,
        help="directory containing <kind>.json files from `tune`",
    )

    cts = commands.add_parser(
        "cts", help="curate a conformance test suite (Algorithm 1)"
    )
    cts.add_argument("--stats-path", required=True)
    cts.add_argument("--rep", type=float, default=99.999)
    cts.add_argument("--budget", type=float, default=4.0)

    commands.add_parser("devices", help="print Table 3")

    obs_cmd = commands.add_parser(
        "obs",
        help="inspect exported observability artifacts",
    )
    obs_commands = obs_cmd.add_subparsers(
        dest="obs_command", required=True
    )
    obs_report = obs_commands.add_parser(
        "report",
        help="render metrics/events (and, with --trace, the "
        "top-spans/hot-path profile) from exported artifacts",
    )
    obs_report.add_argument(
        "--metrics", required=True,
        help="metrics.jsonl produced by --metrics-out",
    )
    obs_report.add_argument(
        "--trace", default=None,
        help="trace.jsonl produced by --metrics-out with --trace",
    )
    obs_report.add_argument(
        "--top", type=int, default=15,
        help="span rows in the profile table",
    )
    obs_export = obs_commands.add_parser(
        "export",
        help="re-emit a metrics.jsonl artifact in another format",
    )
    obs_export.add_argument("--metrics", required=True)
    obs_export.add_argument(
        "--format", choices=["jsonl", "prom"], required=True
    )
    obs_export.add_argument(
        "--out", default=None,
        help="output path (default: stdout)",
    )

    def _ledger_arg(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--ledger", default=None, metavar="DIR",
            help="run ledger directory (default: $REPRO_LEDGER)",
        )

    obs_history = obs_commands.add_parser(
        "history",
        help="list the run ledger's recorded runs",
    )
    _ledger_arg(obs_history)
    obs_history.add_argument(
        "--fingerprint", default=None,
        help="only runs of this grid fingerprint",
    )
    obs_history.add_argument(
        "--kind", default=None,
        choices=["campaign", "bench", "service"],
    )
    obs_history.add_argument(
        "--limit", type=int, default=None,
        help="newest N runs only",
    )
    obs_history.add_argument(
        "--json", action="store_true",
        help="machine-readable records instead of the table",
    )
    obs_diff = obs_commands.add_parser(
        "diff",
        help="metric-by-metric delta between the newest run and a "
        "baseline run of the same fingerprint",
    )
    _ledger_arg(obs_diff)
    obs_diff.add_argument(
        "--fingerprint", default=None,
        help="grid fingerprint (default: the newest run's)",
    )
    obs_diff.add_argument(
        "--baseline", type=int, default=1, metavar="N",
        help="compare against the N-th previous run (default 1)",
    )
    obs_diff.add_argument("--json", action="store_true")
    obs_check = obs_commands.add_parser(
        "check",
        help="statistical drift/regression check of the newest run "
        "against its baseline window (exit 1 on confirmed findings)",
    )
    _ledger_arg(obs_check)
    obs_check.add_argument(
        "--fingerprint", default=None,
        help="grid fingerprint (default: the newest run's)",
    )
    obs_check.add_argument(
        "--baseline", type=int, default=10, metavar="N",
        help="baseline window size in runs (default 10)",
    )
    obs_check.add_argument(
        "--sigma", type=float, default=6.0,
        help="kill-rate residual bound in standard deviations",
    )
    obs_check.add_argument(
        "--latency-threshold", type=float, default=0.2,
        help="relative warm-path slowdown that counts as a "
        "changepoint (default 0.2 = 20%%)",
    )
    obs_check.add_argument(
        "--cache-drop", type=float, default=0.1,
        help="absolute cache hit-rate drop that counts as a "
        "regression",
    )
    obs_check.add_argument("--json", action="store_true")

    campaign = commands.add_parser(
        "campaign",
        help="sharded parallel campaigns with checkpoint/resume",
    )
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    def _obs_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace", action="store_true",
            help="record nested wall/CPU-time spans (profile report)",
        )
        sub.add_argument(
            "--metrics-out", default=None, metavar="DIR",
            help="write metrics.jsonl + metrics.prom (and trace.jsonl "
            "with --trace) into this directory",
        )
        sub.add_argument(
            "--ledger", default=None, metavar="DIR",
            help="append this run's normalized record to the run "
            "ledger at DIR (default: $REPRO_LEDGER when set) for "
            "`repro obs history|diff|check`",
        )

    def _executor_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers", type=int, default=None,
            help="worker processes (default: os.cpu_count())",
        )
        sub.add_argument("--shard-size", type=int, default=64)
        sub.add_argument(
            "--timeout", type=float, default=30.0,
            help="per-unit soft deadline in seconds",
        )
        sub.add_argument(
            "--retries", type=int, default=2,
            help="retries per unit before permanent failure",
        )
        sub.add_argument(
            "--serial", action="store_true",
            help="skip the worker pool entirely",
        )

    def _spec_flags(sub: argparse.ArgumentParser) -> None:
        """The campaign-grid flags shared by `campaign run` and
        `service submit` (one spec-building code path for both)."""
        sub.add_argument(
            "--kinds", nargs="*", default=None,
            choices=[kind.name for kind in EnvironmentKind],
        )
        sub.add_argument("--envs", type=int, default=150)
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--devices", nargs="*", default=None)
        add_backend_flags(
            sub,
            help_text="execution backend, recorded in the journal so "
            "resume continues with the same one",
        )
        sub.add_argument(
            "--suite",
            default=None,
            metavar="PATH",
            help="run over a synthesized suite file's mutants instead "
            "of the built-in suite",
        )
        sub.add_argument(
            "--smoke", action="store_true",
            help="seconds-scale grid for CI smoke runs",
        )
        _store_flags(sub)

    def _store_flags(sub: argparse.ArgumentParser) -> None:
        """The persistent result-store knobs (campaign spec v4)."""
        sub.add_argument(
            "--store", default=None, metavar="DIR",
            help="attach the persistent result store at DIR "
            "(implies --store-policy reuse unless given)",
        )
        sub.add_argument(
            "--store-policy", default=None,
            choices=["off", "record", "reuse"],
            help="off = no store, record = write completed units, "
            "reuse = skip units the store already knows (and record "
            "the rest)",
        )
        sub.add_argument(
            "--no-store", action="store_true",
            help="force the store off (overrides a journal's recorded "
            "store settings on resume)",
        )

    campaign_run = campaign_commands.add_parser(
        "run", help="run (or continue) a campaign into a directory"
    )
    campaign_run.add_argument(
        "--out", required=True,
        help="campaign directory (journal, per-kind stats, report)",
    )
    _spec_flags(campaign_run)
    campaign_run.add_argument(
        "--verify-determinism", action="store_true",
        help="also assert 1-worker == N-worker results",
    )
    _executor_flags(campaign_run)
    _obs_flags(campaign_run)

    campaign_resume = campaign_commands.add_parser(
        "resume", help="continue a journaled campaign"
    )
    campaign_resume.add_argument("--out", required=True)
    add_backend_flags(
        campaign_resume,
        help_text="assert the journal's recorded backend (resume "
        "always continues with the recorded one; a mismatch is an "
        "error, never a silent swap)",
    )
    _store_flags(campaign_resume)
    _executor_flags(campaign_resume)
    _obs_flags(campaign_resume)

    campaign_status_cmd = campaign_commands.add_parser(
        "status", help="progress of a journaled campaign"
    )
    campaign_status_cmd.add_argument("--out", required=True)
    campaign_status_cmd.add_argument(
        "--json", action="store_true",
        help="machine-readable status instead of the table",
    )

    store_cmd = commands.add_parser(
        "store",
        help="inspect and maintain a persistent result store",
    )
    store_commands = store_cmd.add_subparsers(
        dest="store_command", required=True
    )
    store_stats = store_commands.add_parser(
        "stats", help="object count and size of a store"
    )
    store_stats.add_argument(
        "--store", required=True, metavar="DIR",
        help="result store directory",
    )
    store_stats.add_argument(
        "--json", action="store_true",
        help="machine-readable stats instead of the summary line",
    )
    store_verify = store_commands.add_parser(
        "verify",
        help="check every object's digest and content fingerprint",
    )
    store_verify.add_argument(
        "--store", required=True, metavar="DIR",
        help="result store directory",
    )
    store_gc = store_commands.add_parser(
        "gc", help="evict invalid, stale, or excess objects"
    )
    store_gc.add_argument(
        "--store", required=True, metavar="DIR",
        help="result store directory",
    )
    store_gc.add_argument(
        "--max-objects", type=int, default=None,
        help="keep at most this many objects (oldest evicted first)",
    )
    store_gc.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="evict objects older than this many seconds",
    )

    service_cmd = commands.add_parser(
        "service",
        help="campaign-as-a-service daemon and its thin client",
    )
    service_commands = service_cmd.add_subparsers(
        dest="service_command", required=True
    )

    service_start = service_commands.add_parser(
        "start",
        help="run the daemon (HTTP API + shared worker pool)",
    )
    service_start.add_argument(
        "--root", required=True,
        help="service directory (jobs/, service.json endpoint file)",
    )
    service_start.add_argument("--host", default="127.0.0.1")
    service_start.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick a free one; see service.json)",
    )
    service_start.add_argument(
        "--workers", type=int, default=2,
        help="shared pool width across all jobs",
    )
    service_start.add_argument(
        "--shard-size", type=int, default=16,
        help="units per dispatched shard (small = fine interleaving)",
    )
    service_start.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-unit soft deadline in seconds",
    )
    service_start.add_argument(
        "--retries", type=int, default=2,
        help="retries per unit before permanent failure",
    )
    service_start.add_argument(
        "--pool", choices=["process", "thread"], default="process",
        help="worker pool flavour (thread = in-process, no fork)",
    )
    service_start.add_argument(
        "--quota", action="append", default=None,
        metavar="TENANT=WEIGHT[:MAX]",
        help="per-tenant fair-share weight and optional in-flight "
        "shard cap (repeatable)",
    )
    service_start.add_argument(
        "--store-root", default=None, metavar="DIR",
        help="give store-enabled submissions that name no path a "
        "per-tenant result store under DIR",
    )

    def _client_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--root", default=None,
            help="service directory (endpoint discovered from its "
            "service.json)",
        )
        sub.add_argument(
            "--url", default=None,
            help="explicit service URL (overrides --root discovery)",
        )

    service_submit = service_commands.add_parser(
        "submit", help="submit a campaign spec as a service job"
    )
    _client_flags(service_submit)
    _spec_flags(service_submit)
    service_submit.add_argument("--tenant", default="default")
    service_submit.add_argument(
        "--watch", action="store_true",
        help="stay attached and stream progress until the job ends",
    )

    service_status = service_commands.add_parser(
        "status", help="one job's status, or all jobs"
    )
    _client_flags(service_status)
    service_status.add_argument("job", nargs="?", default=None)
    service_status.add_argument(
        "--json", action="store_true",
        help="machine-readable status instead of the table",
    )

    service_watch = service_commands.add_parser(
        "watch", help="stream a job's SSE progress events"
    )
    _client_flags(service_watch)
    service_watch.add_argument("job")

    service_cancel = service_commands.add_parser(
        "cancel", help="cancel a job (journaled units are kept)"
    )
    _client_flags(service_cancel)
    service_cancel.add_argument("job")

    service_stop = service_commands.add_parser(
        "stop", help="ask the daemon to shut down gracefully"
    )
    _client_flags(service_stop)
    return parser


def _find_test(name: str):
    suite = default_suite()
    try:
        return suite.find(name)
    except KeyError:
        pass
    try:
        return suite.find_by_alias(name).conformance
    except KeyError:
        pass
    try:
        return library.by_name(name)
    except KeyError:
        pass
    return extended.by_name(name)


def _load_cli_suite(path: Optional[str]):
    """The suite a command operates on: synthesized file or built-in."""
    if path is None:
        return default_suite()
    from repro.synthesis import load_suite

    return load_suite(path)


def _cmd_suite(args: argparse.Namespace) -> int:
    suite = _load_cli_suite(args.suite)
    print(render_table2(suite))
    if args.suite is not None:
        print()
        print(suite.describe())
    if not args.list:
        return 0
    prune_devices = None
    if args.prune_devices is not None:
        from repro.mutation import observable_on

        prune_devices = _devices(args.prune_devices)
    rows = []
    for pair in suite.pairs:
        for role, test in [("conformance", pair.conformance)] + [
            ("mutant", mutant) for mutant in pair.mutants
        ]:
            row = [
                test.name,
                role,
                pair.template_name or "-",
                pair.mutator.value,
                pair.alias or "-",
            ]
            if prune_devices is not None:
                pruned_on = (
                    [
                        device.name
                        for device in prune_devices
                        if not observable_on(device, test)
                    ]
                    if role == "mutant"
                    else []
                )
                row.append(", ".join(pruned_on) or "-")
            rows.append(row)
    headers = ["Test", "Role", "Template", "Mutator", "Alias"]
    if prune_devices is not None:
        headers.append("Pruned on")
    print()
    print(ascii_table(headers, rows))
    return 0


def _obs_begin(args: argparse.Namespace):
    """Install a live recorder iff the command asked for telemetry."""
    if not (
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None)
    ):
        return None
    from repro import obs

    return obs.enable(trace=bool(args.trace))


def _obs_end(args: argparse.Namespace, rec) -> None:
    """Write artifacts / print the profile, then restore the no-op."""
    if rec is None:
        return
    from repro import obs

    obs.publish_cache_metrics()
    if args.metrics_out:
        paths = obs.write_artifacts(
            Path(args.metrics_out), rec, trace=bool(args.trace)
        )
        written = ", ".join(
            str(path) for path in sorted(paths.values())
        )
        print(f"observability artifacts: {written}")
    elif args.trace:
        spans = rec.tracer.drain()
        print()
        print(obs.render_profile(spans["spans"]))
    obs.disable()


def _cli_ledger(args: argparse.Namespace, required: bool = True):
    """The ledger a command operates on (flag, else $REPRO_LEDGER)."""
    from repro import obs

    ledger = obs.resolve_ledger(getattr(args, "ledger", None))
    if ledger is None and required:
        raise ReproError(
            "no run ledger configured: pass --ledger DIR or set "
            "REPRO_LEDGER"
        )
    return ledger


def _ledger_emit(args: argparse.Namespace, outcome) -> None:
    """Append a campaign outcome's record to the configured ledger."""
    from repro import obs

    ledger = _cli_ledger(args, required=False)
    if ledger is None:
        return
    record = obs.record_from_outcome(outcome)
    ledger.append(record)
    print(
        f"ledger: recorded run of {record.fingerprint} "
        f"({record.kills}/{record.instances} kills, "
        f"{record.wall_seconds:.2f}s) at {ledger.root}"
    )


def _campaign_health(args: argparse.Namespace, spec):
    """A HealthMonitor seeded with the ledger's expected kill rate.

    Without a ledger (or without history for this fingerprint) the
    monitor still runs — stragglers need no baseline, and kill-drift
    simply stays dormant.
    """
    from repro import obs

    expected = None
    expected_units = None
    ledger = _cli_ledger(args, required=False)
    if ledger is not None:
        baselines = ledger.baseline(
            spec.fingerprint(), window=10, kind="campaign",
            before_utc=float("inf"),
        )
        expected = obs.expected_rate_from_baseline(baselines)
        expected_units = obs.expected_units_from_baseline(baselines)
    return obs.HealthMonitor(
        expected_kill_rate=expected, expected_units=expected_units
    )


def _cmd_obs_history(args: argparse.Namespace) -> int:
    ledger = _cli_ledger(args)
    records = ledger.history(
        fingerprint=args.fingerprint,
        kind=args.kind,
        limit=args.limit,
    )
    if args.json:
        print(json.dumps(
            [record.to_dict() for record in records],
            indent=2, sort_keys=True,
        ))
        return 0
    if not records:
        print(f"run ledger at {ledger.root}: no matching runs")
        return 0
    for record in records:
        print(record.describe())
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro import obs

    ledger = _cli_ledger(args)
    fingerprint = args.fingerprint
    if fingerprint is None:
        newest = None
        for fp in ledger.fingerprints():
            candidate = ledger.latest(fp)
            if candidate and (
                newest is None or candidate.utc > newest.utc
            ):
                newest = candidate
        if newest is None:
            raise ReproError(f"{ledger.root}: ledger is empty")
        fingerprint = newest.fingerprint
    records = ledger.history(fingerprint=fingerprint)
    if len(records) < args.baseline + 1:
        raise ReproError(
            f"need at least {args.baseline + 1} runs of "
            f"{fingerprint} to diff (have {len(records)})"
        )
    payload = obs.diff_runs(
        records[-1], records[-1 - args.baseline]
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"diff for {fingerprint} (newest vs -{args.baseline}):")
    for key in ("kill_rate", "killed_fraction", "wall_seconds"):
        entry = payload[key]
        print(
            f"  {key:>16}: {entry['observed']:.6g} "
            f"(baseline {entry['baseline']:.6g}, "
            f"delta {entry['delta']:+.6g})"
        )
    if "unit_seconds" in payload:
        for side in ("observed", "baseline"):
            stats = payload["unit_seconds"][side]
            print(
                f"  unit seconds ({side}): "
                f"median {stats['median']:.6f} "
                f"p90 {stats['p90']:.6f} (n={stats['count']})"
            )
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    from repro import obs

    ledger = _cli_ledger(args)
    report = obs.check_run(
        ledger,
        fingerprint=args.fingerprint,
        window=args.baseline,
        sigma=args.sigma,
        latency_threshold=args.latency_threshold,
        cache_drop=args.cache_drop,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs

    if args.obs_command == "history":
        return _cmd_obs_history(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    if args.obs_command == "check":
        return _cmd_obs_check(args)
    registry, events = obs.load_metrics_jsonl(args.metrics)
    if args.obs_command == "report":
        spans = None
        if args.trace is not None:
            spans = obs.load_trace_jsonl(args.trace)
        print(
            obs.render_report(
                registry, events, spans, top=args.top
            )
        )
        return 0
    # export
    if args.format == "prom":
        text = obs.prom_text(registry)
    else:
        text = (
            "\n".join(obs.metrics_jsonl_lines(registry, events)) + "\n"
        )
    if args.out is None:
        print(text, end="")
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.synthesis import (
        ALL_EDGES,
        SynthesisConfig,
        save_suite,
        synthesize,
    )

    config = SynthesisConfig(
        max_events=args.max_events,
        max_threads=args.max_threads,
        max_events_per_thread=args.events_per_thread,
        edges=frozenset(args.edges) if args.edges else ALL_EDGES,
        budget_seconds=args.budget,
        candidate_timeout=args.candidate_timeout,
        max_pairs=args.max_pairs,
        dedupe_known=args.dedupe_known,
    )
    rec = _obs_begin(args)
    suite = synthesize(
        config, log=None if args.quiet else print
    )
    _obs_end(args, rec)
    path = save_suite(suite, args.out)
    conformance, mutants = suite.combined_counts()
    print(
        f"saved {conformance} conformance tests + {mutants} mutants "
        f"to {path}"
    )
    backend, options = backend_selection(args, default=None)
    if backend is not None:
        _synthesis_backend_smoke(suite, backend, options)
    return 0


def _synthesis_backend_smoke(
    suite, backend_name: str, options: Dict[str, object]
) -> None:
    """Post-synthesis sanity pass with the selected backend.

    Evaluates the freshly synthesized mutants at the PTE baseline on
    the study devices and reports how many are killable — a cheap
    signal that the suite is worth a full campaign before one is paid
    for.
    """
    from repro.backends import make_backend
    from repro.env import pte_baseline

    backend = make_backend(backend_name, **options)
    mutants = suite.mutants
    if not mutants:
        print(f"backend smoke ({backend.name}): no mutants to evaluate")
        return
    runs = backend.run_matrix(
        study_devices(),
        mutants,
        [pte_baseline()],
        seed=0,
        iterations_override=20,
    )
    killed = {run.test_name for run in runs if run.killed}
    print(
        f"backend smoke ({backend.name}, {backend.equivalence} "
        f"contract): {len(killed)}/{len(mutants)} synthesized mutants "
        f"killable at the PTE baseline"
    )


def _cmd_show(args: argparse.Namespace) -> int:
    test = _find_test(args.name)
    if args.wgsl:
        print(generate_wgsl(test))
    elif args.litmus:
        print(format_test(test), end="")
    else:
        print(test.pretty())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.gpu import Workload
    from repro.litmus import TestOracle

    test = _find_test(args.name)
    device = make_device(args.device, buggy=args.buggy)
    if args.stress:
        workload = Workload(
            instances_in_flight=50_000,
            mem_stress=0.9,
            pre_stress=0.5,
            pattern_affinity=0.9,
            location_spread=0.9,
        )
    else:
        workload = Workload()
    rng = np.random.default_rng(args.seed)
    histogram = device.collect_histogram(
        test, workload, args.instances, rng
    )
    oracle = TestOracle(test)
    violations = 0
    targets = 0
    for outcome, count in histogram.outcomes():
        if oracle.is_violation(outcome):
            violations += count
        if oracle.matches_target(outcome):
            targets += count
    print(f"{test.name} on {device.describe()}")
    print(f"{args.instances} instances:")
    print(histogram.pretty())
    print(f"target behaviour observed: {targets}")
    print(f"MCS violations: {violations}")
    return 0


def _devices(names: Optional[Sequence[str]]):
    if not names:
        return study_devices()
    return [make_device(name) for name in names]


def _cmd_tune(args: argparse.Namespace) -> int:
    kind = EnvironmentKind[args.kind]
    suite = default_suite()
    backend, options = backend_selection(args)
    if options:
        # Options need a constructed instance; hand tuning_run a
        # fully configured runner instead of the bare name.
        from repro.backends import make_backend
        from repro.env import Runner

        execution = {
            "runner": Runner(backend=make_backend(backend, **options))
        }
    else:
        execution = {"backend": backend}
    rec = _obs_begin(args)
    result = tuning_run(
        kind,
        _devices(args.devices),
        suite.mutants,
        environment_count=args.envs,
        seed=args.seed,
        **execution,
    )
    _obs_end(args, rec)
    save_result(result, args.out)
    print(
        f"saved {len(result.runs)} runs ({kind.value}, "
        f"{len(result.environments)} environments, "
        f"{result.backend} backend) to {args.out}"
    )
    return 0


def _rep_fraction(rep_percent: float) -> float:
    if not 0.0 < rep_percent < 100.0:
        raise ReproError("--rep must be a percentage in (0, 100)")
    return rep_percent / 100.0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.action == "correlation":
        rows = table4(
            environment_count=args.envs, iterations=100, seed=args.seed
        )
        print(render_table4(rows))
        return 0
    if args.stats_path is None:
        raise ReproError(f"--stats-path is required for {args.action}")
    result = load_result(args.stats_path)
    suite = _load_cli_suite(args.suite)
    if args.action == "mutation-score":
        matrix = score_matrix(result, suite)
        rows = []
        for group, cells in matrix.items():
            cell = cells["all"]
            rows.append(
                [
                    group,
                    f"{cell.killed}/{cell.total}",
                    f"{cell.mutation_score:.3f}",
                    f"{cell.average_death_rate:,.1f}",
                ]
            )
        print(
            ascii_table(
                ["Mutator", "Killed", "Score", "Avg rate (/s)"],
                rows,
                title=f"mutation scores for {args.stats_path}",
            )
        )
        return 0
    # merge
    target = _rep_fraction(args.rep)
    decisions = merge_suite(
        result, result.test_names, target, args.budget
    )
    score = reproducible_pairs(
        decisions, target, args.budget, len(result.device_names)
    )
    scheduled = sum(
        1 for decision in decisions if decision.environment is not None
    )
    print(
        f"{scheduled}/{len(decisions)} tests have a merged environment; "
        f"reproducible (test, device) fraction at r={args.rep}% "
        f"b={args.budget:g}s: {score:.3f}"
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    stats_dir = Path(args.stats_dir)
    results: Dict[EnvironmentKind, object] = {}
    for kind in EnvironmentKind:
        path = stats_dir / f"{kind.name.lower()}.json"
        if path.exists():
            results[kind] = load_result(path)
    if not results:
        raise ReproError(
            f"no <kind>.json stats files found in {stats_dir} "
            f"(expected e.g. pte.json; produce them with `repro tune`)"
        )
    suite = default_suite()
    figure = figure5(results, suite)  # type: ignore[arg-type]
    print(render_figure5_scores(figure))
    print()
    print(render_figure5_rates(figure))
    print()
    print(render_figure6(figure6(results)))  # type: ignore[arg-type]
    return 0


def _cmd_cts(args: argparse.Namespace) -> int:
    result = load_result(args.stats_path)
    plan = curate(
        default_suite(),
        result,
        _rep_fraction(args.rep),
        budget_seconds=args.budget,
    )
    print(plan.describe())
    for device in result.device_names:
        print(
            f"total reproducibility on {device}: "
            f"{plan.total_reproducibility(device):.4f}"
        )
    return 0


def _cmd_devices(_: argparse.Namespace) -> int:
    print(render_table3())
    return 0


def _executor_config(args: argparse.Namespace):
    from repro.campaign import ExecutorConfig

    return ExecutorConfig(
        workers=args.workers,
        shard_size=args.shard_size,
        unit_timeout=args.timeout,
        max_retries=args.retries,
        force_serial=args.serial,
        progress_interval=2.0,
    )


def _finish_campaign(outcome, out_dir: Path) -> None:
    """Write per-kind stats and the telemetry report next to the journal."""
    for kind, result in outcome.results.items():
        save_result(result, out_dir / f"{kind.name.lower()}.json")
    report = outcome.report()
    (out_dir / "report.txt").write_text(report + "\n")
    print(report)
    print(f"stats + report written to {out_dir}/")


def _store_overrides(args: argparse.Namespace):
    """The (store_path, store_policy) the store flags describe.

    ``None`` means "flag not given" — `campaign resume` passes that
    through as "keep the journal's recorded setting", while spec
    construction defaults it to no store.  ``--store`` alone implies
    the reuse policy (the common incremental-campaign case).
    """
    if getattr(args, "no_store", False):
        if getattr(args, "store", None) is not None:
            raise ReproError(
                "--no-store and --store are mutually exclusive"
            )
        return None, "off"
    path = getattr(args, "store", None)
    policy = getattr(args, "store_policy", None)
    if path is not None and policy is None:
        policy = "reuse"
    # A policy with no path is legal: `service submit` relies on the
    # daemon's --store-root to assign a per-tenant store path.
    return path, policy


def _campaign_spec(args: argparse.Namespace):
    """Build the CampaignSpec described by the shared grid flags.

    The single spec-building path behind both ``campaign run`` and
    ``service submit`` — a spec submitted over HTTP is exactly the
    spec the same flags would run locally.
    """
    from repro.campaign import paper_spec, smoke_spec

    backend, options = backend_selection(args)
    cap = options.pop("max_operational_instances", None)
    if options:
        # validate_options already filtered unknown names; anything
        # left is a backend option the campaign spec cannot persist.
        unknown = ", ".join(sorted(options))
        raise ReproError(
            f"backend option(s) {unknown} cannot be recorded in a "
            f"campaign spec"
        )
    store_path, store_policy = _store_overrides(args)
    suite = _load_cli_suite(args.suite)
    mutant_names = tuple(mutant.name for mutant in suite.mutants)
    if args.smoke:
        return smoke_spec(
            mutant_names,
            seed=args.seed,
            backend=backend,
            max_operational_instances=cap,
            suite_path=args.suite,
            store_path=store_path,
            store_policy=store_policy or "off",
        )
    return paper_spec(
        mutant_names,
        environment_count=args.envs,
        seed=args.seed,
        kinds=args.kinds,
        device_names=args.devices,
        backend=backend,
        max_operational_instances=cap,
        suite_path=args.suite,
        store_path=store_path,
        store_policy=store_policy or "off",
    )


def _check_resume_backend(
    args: argparse.Namespace, journal_path: Path
) -> None:
    """`campaign resume --backend` is an assertion, not an override.

    Resume always continues with the backend the journal recorded
    (the spec — equivalence contract included — is part of the
    journal's identity); the flag exists so scripts can *state* what
    they expect and fail loudly on a mismatch instead of silently
    continuing under different semantics.
    """
    backend, options = backend_selection(args, default=None)
    if backend is None and not options:
        return
    from repro.campaign import CampaignJournal

    spec = CampaignJournal(journal_path).load_spec()
    if backend is not None and backend != spec.backend:
        raise ReproError(
            f"--backend {backend} does not match the journal's "
            f"recorded backend {spec.backend!r}; resume always "
            f"continues with the recorded backend — start a fresh "
            f"campaign to switch"
        )
    cap = options.get("max_operational_instances")
    if (
        cap is not None
        and cap != spec.max_operational_instances
    ):
        raise ReproError(
            f"--backend-opt max_operational_instances={cap} does not "
            f"match the journal's recorded value "
            f"{spec.max_operational_instances!r}"
        )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        campaign_status,
        resume_campaign,
        run_campaign,
        verify_order_independence,
    )

    out_dir = Path(args.out)
    journal_path = out_dir / "journal.jsonl"
    if args.campaign_command == "status":
        status = campaign_status(journal_path)
        if args.json:
            print(json.dumps(status.to_dict(), indent=2, sort_keys=True))
        else:
            print(status.describe())
        return 0
    if args.campaign_command == "resume":
        _check_resume_backend(args, journal_path)
        store_path, store_policy = _store_overrides(args)
        from repro.campaign import CampaignJournal

        health = _campaign_health(
            args, CampaignJournal(journal_path).load_spec()
        )
        rec = _obs_begin(args)
        outcome = resume_campaign(
            journal_path,
            config=_executor_config(args),
            log=print,
            store_path=store_path,
            store_policy=store_policy,
            health=health,
        )
        _obs_end(args, rec)
        _ledger_emit(args, outcome)
        _finish_campaign(outcome, out_dir)
        return 0
    # run
    spec = _campaign_spec(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _executor_config(args)
    health = _campaign_health(args, spec)
    rec = _obs_begin(args)
    outcome = run_campaign(
        spec,
        journal_path=journal_path,
        config=config,
        log=print,
        health=health,
    )
    _obs_end(args, rec)
    _ledger_emit(args, outcome)
    if args.verify_determinism:
        verify_order_independence(
            spec, workers=max(2, config.effective_workers()), log=print
        )
    _finish_campaign(outcome, out_dir)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import open_store

    store = open_store(args.store)
    if args.store_command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        else:
            print(stats.describe())
        return 0
    if args.store_command == "verify":
        checked, bad = store.verify()
        if bad:
            print(
                f"{len(bad)} of {checked} object(s) failed "
                f"verification:"
            )
            for path in bad:
                print(f"  {path}")
            return 1
        print(f"{checked} object(s) verified, all consistent")
        return 0
    # gc
    removed = store.gc(
        max_objects=args.max_objects,
        max_age_seconds=args.max_age,
    )
    print(f"evicted {removed} object(s); {store.stats().describe()}")
    return 0


def _parse_quota(text: str):
    """``TENANT=WEIGHT[:MAX]`` → (tenant, TenantQuota)."""
    from repro.service import TenantQuota

    tenant, sep, rest = text.partition("=")
    if not sep or not tenant:
        raise ReproError(
            f"bad --quota {text!r} (want TENANT=WEIGHT[:MAX])"
        )
    weight_text, _, max_text = rest.partition(":")
    try:
        quota = TenantQuota(
            weight=int(weight_text),
            max_active=int(max_text) if max_text else None,
        )
    except ValueError as error:
        raise ReproError(f"bad --quota {text!r}: {error}")
    return tenant, quota


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(base_url=args.url, root=args.root)


def _watch_job(client, job_id: str) -> int:
    """Stream one job's events; exit 0 iff it completed."""
    final = None
    for event in client.watch(job_id):
        final = event
        line = (
            f"[{event['event']}] {event['done']}/{event['total']} units"
        )
        if event.get("failed"):
            line += f" ({event['failed']} failed)"
        if event.get("resumed") and event["event"] == "snapshot":
            line += f" ({event['resumed']} resumed from journal)"
        print(line)
    if final is None:
        raise ReproError(f"event stream for {job_id} was empty")
    print(f"job {job_id}: {final['state']}")
    return 0 if final["state"] == "done" else 1


def _render_jobs_table(jobs) -> str:
    rows = [
        [
            job["job_id"],
            job["tenant"],
            job["state"],
            f"{job.get('done', 0)}/{job.get('total', 0)}",
            job.get("error") or "-",
        ]
        for job in jobs
    ]
    return ascii_table(
        ["Job", "Tenant", "State", "Units", "Error"], rows
    )


def _cmd_service(args: argparse.Namespace) -> int:
    if args.service_command == "start":
        from repro.service import ServiceConfig, run_service

        quotas = dict(
            _parse_quota(text) for text in (args.quota or [])
        )
        config = ServiceConfig(
            root=args.root,
            host=args.host,
            port=args.port,
            workers=args.workers,
            shard_size=args.shard_size,
            unit_timeout=args.timeout,
            max_retries=args.retries,
            pool_mode=args.pool,
            quotas=quotas,
            store_root=args.store_root,
        )
        run_service(config, log=print)
        return 0
    client = _service_client(args)
    if args.service_command == "submit":
        spec = _campaign_spec(args)
        job = client.submit(spec.to_dict(), tenant=args.tenant)
        print(
            f"submitted {job['job_id']} "
            f"({job['total']} units, tenant {job['tenant']!r})"
        )
        if args.watch:
            return _watch_job(client, job["job_id"])
        return 0
    if args.service_command == "status":
        if args.job is not None:
            payload = client.job(args.job)
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(_render_jobs_table([payload]))
            return 0
        jobs = client.jobs()
        if args.json:
            print(json.dumps({"jobs": jobs}, indent=2, sort_keys=True))
        else:
            print(_render_jobs_table(jobs))
        return 0
    if args.service_command == "watch":
        return _watch_job(client, args.job)
    if args.service_command == "cancel":
        payload = client.cancel(args.job)
        print(f"job {payload['job_id']}: {payload['state']}")
        return 0
    # stop
    client.shutdown()
    print("shutdown requested")
    return 0


_HANDLERS = {
    "suite": _cmd_suite,
    "synthesize": _cmd_synthesize,
    "show": _cmd_show,
    "run": _cmd_run,
    "tune": _cmd_tune,
    "analyze": _cmd_analyze,
    "figures": _cmd_figures,
    "cts": _cmd_cts,
    "devices": _cmd_devices,
    "campaign": _cmd_campaign,
    "store": _cmd_store,
    "service": _cmd_service,
    "obs": _cmd_obs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ReproError, KeyError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `... | head`); exit
        # quietly without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
