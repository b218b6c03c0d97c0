"""The layers the traced run attributes time to.

``TARGETS`` names the program's public functions the benchmark wraps
(``module:qualname``) and the span each call records; ``span_metrics``
turns the recorded spans into the per-layer metrics that
``BENCHMARK.json`` lists.  Span names are ``<module>.<what>``, after the
program's module that does the work.
"""

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import arith
from arith import Span


def _store_get(tracer: Any, result: Any) -> None:
    if result is not None:
        tracer.count("store.hits")


def _store_put(tracer: Any, result: Any) -> None:
    if result:
        tracer.count("store.writes")


def _campaign_outcome(tracer: Any, outcome: Any) -> None:
    tracer.count("campaign.retries", outcome.metrics.retries)


TARGETS = [
    ("repro.mutation.suite:build_suite", "mutation.build_suite", None),
    ("repro.litmus.oracle:TestOracle._analyze", "litmus.oracle", None),
    ("repro.litmus.oracle:TestOracle.matches_target", "litmus.match", None),
    ("repro.litmus.oracle:TestOracle.is_violation", "litmus.match", None),
    ("repro.gpu.characteristics:characterize", "gpu.characterize", None),
    ("repro.gpu.batch:BatchModel.instance_probability", "gpu.probability", None),
    ("repro.gpu.batch:BatchModel.sample_kills", "gpu.sampling", None),
    ("repro.gpu.device:Device.run_instance", "gpu.executor", None),
    ("repro.backends.base:Backend.run", "backends.run", None),
    ("repro.campaign.worker:execute_unit", "campaign.unit", None),
    ("repro.campaign.scheduler:run_campaign", "campaign.scheduler", _campaign_outcome),
    ("repro.campaign.scheduler:resume_campaign", "campaign.scheduler", _campaign_outcome),
    ("repro.campaign.journal:CampaignJournal.append", "campaign.journal", None),
    ("repro.analysis.serialize:run_to_dict", "analysis.serialize", None),
    ("repro.analysis.serialize:run_from_dict", "analysis.serialize", None),
    ("repro.analysis.serialize:tagged_run_to_dict", "analysis.serialize", None),
    ("repro.analysis.serialize:tagged_run_from_dict", "analysis.serialize", None),
    ("repro.analysis.serialize:save_result", "analysis.save", None),
    ("repro.analysis.figures:figure5", "analysis.figure5", None),
    ("repro.analysis.figures:figure6", "analysis.figure6", None),
    ("repro.analysis.correlation:table4", "analysis.table4", None),
    ("repro.analysis.report:render_figure5_scores", "analysis.render", None),
    ("repro.analysis.report:render_figure5_rates", "analysis.render", None),
    ("repro.analysis.report:render_figure6", "analysis.render", None),
    ("repro.analysis.report:render_table4", "analysis.render", None),
    ("repro.confidence.merge:merge_environments", "confidence.merge", None),
    ("repro.confidence.merge:merge_suite", "confidence.merge", None),
    ("repro.store.store:ResultStore.get", "store.get", _store_get),
    ("repro.store.store:ResultStore.put", "store.put", _store_put),
    ("repro.store.keys:unit_digests", "store.digest", None),
    ("repro.obs.registry:MetricsRegistry.merge", "obs.merge", None),
    ("repro.campaign.metrics:record_unit", "obs.record", None),
    ("repro.obs.health:HealthMonitor.observe_unit", "obs.health", None),
    ("repro.obs.health:HealthMonitor.observe_kills", "obs.health", None),
    ("repro.obs.timeline:Ledger.append", "obs.ledger_append", None),
    ("repro.obs.timeline:Ledger.baseline", "obs.ledger_baseline", None),
]

#: Targets that only the daemon runs: request acceptance, shard round
#: trips (dispatch to the pool worker and back, then absorbing the
#: result), the daemon's absorb step and job finalization.  The three
#: coroutines record spans without parents.
DAEMON_TARGETS = TARGETS + [
    ("repro.service.runtime:CampaignService.submit", "service.accept", None),
    ("repro.service.runtime:CampaignService._run_shard", "service.shard", None),
    ("repro.service.runtime:CampaignService._absorb_shard", "service.absorb", None),
    ("repro.service.runtime:CampaignService._finalize", "service.finalize", None),
]

#: Benchmark-side span names: the timed phase and its sub-phases.
TIMED = "timed"
PHASES = ("campaign.cold", "campaign.warm", "campaign.delta")

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer() -> List[Tuple[str, str]]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    listed = json.loads(BENCHMARK.read_text())["per_layer"]
    return [(metric["name"], metric["unit"]) for metric in listed]


#: Inclusive-time metrics: metric → span name.
_INCLUSIVE = {
    "mutation.build_suite_s": "mutation.build_suite",
    "litmus.oracle_s": "litmus.oracle",
    "gpu.characterize_s": "gpu.characterize",
    "gpu.probability_s": "gpu.probability",
    "gpu.executor_s": "gpu.executor",
    "litmus.match_s": "litmus.match",
    "campaign.journal_s": "campaign.journal",
    "campaign.cold_s": "campaign.cold",
    "campaign.warm_s": "campaign.warm",
    "campaign.delta_s": "campaign.delta",
    "analysis.serialize_s": "analysis.serialize",
    "analysis.figure5_s": "analysis.figure5",
    "analysis.figure6_s": "analysis.figure6",
    "confidence.merge_s": "confidence.merge",
    "analysis.table4_s": "analysis.table4",
    "analysis.save_s": "analysis.save",
    "analysis.render_s": "analysis.render",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "store.digest_s": "store.digest",
    "obs.health_s": "obs.health",
    "service.absorb_s": "service.absorb",
}

#: Self-time metrics: metric → span name.
_SELF = {
    "gpu.sampling_s": "gpu.sampling",
    "backends.run_s": "backends.run",
    "campaign.unit_s": "campaign.unit",
    "campaign.scheduler_s": "campaign.scheduler",
}

#: Call-count metrics: metric → span name.
_CALLS = {
    "litmus.oracle_builds": "litmus.oracle",
    "gpu.characterize_calls": "gpu.characterize",
    "gpu.probability_calls": "gpu.probability",
    "gpu.instances": "gpu.executor",
    "backends.units": "backends.run",
    "campaign.journal_appends": "campaign.journal",
    "analysis.serialize_calls": "analysis.serialize",
    "store.gets": "store.get",
    "store.puts": "store.put",
    "obs.merges": "obs.merge",
    "obs.ledger_appends": "obs.ledger_append",
}


def span_metrics(
    threads: Iterable[Sequence[Span]], counts: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics derivable from one process's spans."""
    inclusive: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for spans in threads:
        for name, value in arith.inclusive_times(spans).items():
            inclusive[name] = inclusive.get(name, 0.0) + value
        for name, value in arith.self_totals(spans).items():
            own[name] = own.get(name, 0.0) + value
        for span in spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
    out: Dict[str, float] = {}
    for metric, name in _INCLUSIVE.items():
        out[metric] = inclusive.get(name, 0.0)
    for metric, name in _SELF.items():
        out[metric] = own.get(name, 0.0)
    for metric, name in _CALLS.items():
        out[metric] = calls.get(name, 0)
    out["obs.telemetry_s"] = inclusive.get("obs.merge", 0.0) + inclusive.get(
        "obs.record", 0.0
    )
    out["obs.ledger_s"] = inclusive.get(
        "obs.ledger_append", 0.0
    ) + inclusive.get("obs.ledger_baseline", 0.0)
    out["campaign.retries"] = counts.get("campaign.retries", 0)
    gets = out["store.gets"]
    puts = out["store.puts"]
    out["store.hit_ratio"] = counts.get("store.hits", 0) / gets if gets else 0.0
    out["store.write_ratio"] = (
        counts.get("store.writes", 0) / puts if puts else 0.0
    )
    return out


def empty_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _ in per_layer()}

