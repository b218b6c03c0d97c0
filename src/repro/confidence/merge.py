"""Algorithm 1: merging test environments across devices (Sec. 4.2).

A CTS ships *one* environment per test, chosen at contribution time
without knowing the devices it will later run on.  Algorithm 1 picks,
for each mutant, the candidate environment that reaches the target
ceiling rate on the most devices; ties break toward the largest
minimum non-zero rate, which maximises residual confidence on devices
that missed the ceiling and makes the choice *stable* (rerunning with
a laxer target or larger budget keeps the same environment when the
current one already meets the rate everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.confidence.reproducibility import ceiling_rate, score_at_budget
from repro.env.environment import TestingEnvironment
from repro.env.tuning import TuningResult
from repro.errors import AnalysisError

RateFunction = Callable[[str, str, TestingEnvironment], float]


@dataclass(frozen=True)
class MergeDecision:
    """The outcome of Algorithm 1 for one test."""

    test_name: str
    environment: Optional[TestingEnvironment]
    #: Devices on which the chosen environment meets the ceiling rate.
    devices_at_ceiling: int
    #: The minimum non-zero rate across devices (the tie-break metric).
    min_nonzero_rate: float
    #: Per-device rates under the chosen environment.
    rates: Dict[str, float]

    def reproducibility(self, device: str, budget_seconds: float) -> float:
        """The per-device reproducibility at the given budget."""
        return score_at_budget(self.rates.get(device, 0.0), budget_seconds)


def _checked_ceiling(
    reproducibility_target: float, budget_seconds: float
) -> float:
    if not 0.0 < reproducibility_target < 1.0:
        raise AnalysisError("reproducibility target must be in (0, 1)")
    if budget_seconds <= 0.0:
        raise AnalysisError("time budget must be positive")
    return ceiling_rate(reproducibility_target, budget_seconds)


def merge_environments(
    test_name: str,
    environments: Sequence[TestingEnvironment],
    devices: Sequence[str],
    rate: RateFunction,
    reproducibility_target: float,
    budget_seconds: float,
) -> MergeDecision:
    """Algorithm 1 of the paper, verbatim.

    Args:
        test_name: The mutant to choose an environment for (``t``).
        environments: Candidate environments (``E``).
        devices: Device names the mutant ran on (``D``).
        rate: ``rate(t, d, e)`` — the observed death rate.
        reproducibility_target: ``r`` in (0, 1).
        budget_seconds: ``b`` > 0.

    Returns:
        The chosen environment (or ``None`` if no environment reaches
        the ceiling rate on any device) plus its statistics.
    """
    ceiling = _checked_ceiling(reproducibility_target, budget_seconds)

    chosen: Optional[TestingEnvironment] = None
    chosen_count = 0
    chosen_min_rate = math.inf
    chosen_rates: Dict[str, float] = {}
    for environment in environments:
        count = 0
        min_rate = math.inf
        rates: Dict[str, float] = {}
        for device in devices:
            observed = rate(test_name, device, environment)
            rates[device] = observed
            if observed >= ceiling:
                count += 1
            if observed > 0.0:
                min_rate = min(min_rate, observed)
        better = count > chosen_count or (
            count == chosen_count and min_rate > chosen_min_rate
        )
        if better:
            chosen = environment
            chosen_count = count
            chosen_min_rate = min_rate
            chosen_rates = rates
    return MergeDecision(
        test_name=test_name,
        environment=chosen,
        devices_at_ceiling=chosen_count,
        min_nonzero_rate=chosen_min_rate,
        rates=chosen_rates,
    )


def tuning_rate_function(result: TuningResult) -> RateFunction:
    """Adapt a tuning result to Algorithm 1's ``rate()`` oracle."""

    def rate(
        test_name: str, device_name: str, environment: TestingEnvironment
    ) -> float:
        return result.rate(test_name, device_name, environment.env_key)

    return rate


def merge_suite(
    result: TuningResult,
    test_names: Sequence[str],
    reproducibility_target: float,
    budget_seconds: float,
) -> List[MergeDecision]:
    """Run Algorithm 1 for every test of a tuning result.

    One pass over the result's dense rate grid decides every test.
    Each decision equals :func:`merge_environments` (the reference)
    over ``result.environments`` and ``result.device_names``: among
    environments reaching the ceiling on at least one device, the
    most devices at the ceiling win, then the largest minimum non-zero
    rate, then the earliest environment.
    """
    from repro import obs

    names = list(test_names)
    rec = obs.recorder()
    with rec.span("confidence.merge_suite", tests=len(names)):
        decisions = (
            _merge_grid(result, names, reproducibility_target, budget_seconds)
            if names
            else []
        )
    rec.counter_inc(
        "repro_confidence_merges_total", len(decisions)
    )
    return decisions


def _merge_grid(
    result: TuningResult,
    test_names: List[str],
    reproducibility_target: float,
    budget_seconds: float,
) -> List[MergeDecision]:
    ceiling = _checked_ceiling(reproducibility_target, budget_seconds)
    rates = result.rate_grid(test_names)  # [test, device, environment]
    # Per [test, environment]: devices at the ceiling, and the minimum
    # non-zero rate (the tie-break).
    counts = (rates >= ceiling).sum(axis=1)
    lowest = np.where(rates > 0.0, rates, np.inf).min(
        axis=1, initial=np.inf
    )
    # Per test: the best count, then the best minimum among the
    # environments that reach it; the first winner is the one the
    # strict-improvement scan keeps.
    most = counts.max(axis=1, initial=0)
    tied = counts == most[:, None]
    best_lowest = np.where(tied, lowest, -np.inf).max(
        axis=1, initial=-np.inf
    )
    winners = tied & (lowest == best_lowest[:, None])
    environments = result.environments
    devices = result.device_names
    decisions: List[MergeDecision] = []
    for row, test_name in enumerate(test_names):
        # Algorithm 1 starts from "no environment, no device at the
        # ceiling", which only an environment with some device at the
        # ceiling improves on.
        if most[row] == 0:
            decisions.append(
                MergeDecision(
                    test_name=test_name,
                    environment=None,
                    devices_at_ceiling=0,
                    min_nonzero_rate=math.inf,
                    rates={},
                )
            )
            continue
        column = int(winners[row].argmax())
        decisions.append(
            MergeDecision(
                test_name=test_name,
                environment=environments[column],
                devices_at_ceiling=int(most[row]),
                min_nonzero_rate=float(lowest[row, column]),
                rates=dict(zip(devices, rates[row, :, column].tolist())),
            )
        )
    return decisions


def reproducible_pairs(
    decisions: Sequence[MergeDecision],
    reproducibility_target: float,
    budget_seconds: float,
    device_count: int,
) -> float:
    """Fraction of (test, device) pairs meeting the ceiling rate.

    This is the "mutation score" of Fig. 6: the mutants whose single
    merged environment reproduces their behaviour within the budget,
    counted per device.
    """
    if device_count <= 0:
        raise AnalysisError("device_count must be positive")
    if not decisions:
        return 0.0
    ceiling = ceiling_rate(reproducibility_target, budget_seconds)
    reached = sum(
        sum(1 for rate in decision.rates.values() if rate >= ceiling)
        for decision in decisions
    )
    return reached / (len(decisions) * device_count)
