"""Mutation scores and mutant death rates (Sec. 5.2).

The two efficacy metrics of MC Mutants, aggregated from tuning runs:

* **mutation score** — the fraction of (mutant, device) pairs killed
  in at least one tested environment;
* **average mutant death rate** — the mean over mutants of each
  mutant's *maximum* death rate across environments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.env.tuning import TuningResult
from repro.errors import AnalysisError
from repro.mutation.mutators import MutatorKind
from repro.mutation.suite import MutationSuite


@dataclass(frozen=True)
class ScoreCell:
    """One aggregation cell (e.g. one bar of Fig. 5)."""

    mutation_score: float
    average_death_rate: float
    killed: int
    total: int


def _mutant_names(
    suite: MutationSuite, mutator: Optional[MutatorKind]
) -> List[str]:
    if mutator is None:
        return [mutant.name for mutant in suite.mutants]
    return [
        mutant.name
        for pair in suite.by_mutator(mutator)
        for mutant in pair.mutants
    ]


def score_cell(
    result: TuningResult,
    suite: MutationSuite,
    device_names: Optional[Sequence[str]] = None,
    mutator: Optional[MutatorKind] = None,
) -> ScoreCell:
    """Aggregate a tuning result over devices and (optionally) a mutator.

    ``device_names`` defaults to every device in the result; pass a
    single name for per-device cells.
    """
    devices = (
        list(device_names)
        if device_names is not None
        else result.device_names
    )
    if not devices:
        raise AnalysisError("no devices to aggregate over")
    mutants = _mutant_names(suite, mutator)
    if not mutants:
        raise AnalysisError("no mutants to aggregate over")
    killed_pairs, best_rates = result.pair_summary(mutants, devices)
    killed = int(killed_pairs.sum())
    # The builtin sum over the device-major list, not np.mean: from
    # Python 3.12 on, sum() is compensated and the two can differ in
    # the last digit.
    rates = best_rates.ravel().tolist()
    total = len(rates)
    return ScoreCell(
        mutation_score=killed / total,
        average_death_rate=sum(rates) / total,
        killed=killed,
        total=total,
    )


def score_matrix(
    result: TuningResult,
    suite: MutationSuite,
) -> Dict[str, Dict[str, ScoreCell]]:
    """Cells per mutator (plus ``"combined"``) × device (plus ``"all"``).

    This is the full data behind Fig. 5's panels for one environment
    kind.
    """
    groups: Dict[str, Optional[MutatorKind]] = {
        kind.value: kind for kind in MutatorKind
    }
    groups["combined"] = None
    matrix: Dict[str, Dict[str, ScoreCell]] = {}
    for group_name, mutator in groups.items():
        # A partial (e.g. synthesized) suite may not exercise every
        # mutator family; skip empty groups instead of erroring.
        if mutator is not None and not _mutant_names(suite, mutator):
            continue
        row: Dict[str, ScoreCell] = {}
        for device in result.device_names:
            row[device] = score_cell(
                result, suite, device_names=[device], mutator=mutator
            )
        row["all"] = score_cell(result, suite, mutator=mutator)
        matrix[group_name] = row
    return matrix
