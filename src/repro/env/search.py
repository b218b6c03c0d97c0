"""Environment-search strategies beyond random sampling.

The paper tunes by evaluating *random* environments ("It is infeasible
to examine the full space of combinations of these parameters, so a
number of random configurations are run", Sec. 4.1) and leaves smarter
search open.  This module implements that future-work direction:

* :class:`RandomSearch` — the paper's strategy, as the baseline;
* :class:`EvolutionarySearch` — a simple (μ+λ) evolution strategy that
  keeps the best environments found so far and perturbs their
  parameters.

Both consume the same evaluation budget (number of environments run),
so they are directly comparable; ``benchmarks/bench_ablation_search.py``
does exactly that.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.env.environment import (
    EnvironmentKind,
    TestingEnvironment,
    random_environment,
)
from repro.env.parameters import EnvironmentParameters, STRESS_PATTERNS
from repro.env.runner import Runner, unit_rng
from repro.errors import EnvironmentError_
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest

Objective = Callable[[TestingEnvironment], float]


def _objective_runner(
    runner: Optional[Runner], backend: Optional[str]
) -> Runner:
    if runner is not None and backend is not None:
        raise EnvironmentError_(
            "pass either runner= or backend=, not both; a runner "
            "already carries its backend"
        )
    return runner if runner is not None else Runner(backend=backend)


def mean_rate_objective(
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    runner: Optional[Runner] = None,
    seed: int = 0,
    backend: Optional[str] = None,
) -> Objective:
    """Objective: mean death rate over (test × device) pairs.

    This is what "an effective testing environment" means in Sec. 5 —
    it kills mutants quickly across the board.  ``backend`` selects an
    execution backend by registry name (mutually exclusive with
    ``runner``).
    """
    active_runner = _objective_runner(runner, backend)

    def evaluate(environment: TestingEnvironment) -> float:
        rates = []
        for device in devices:
            for test in tests:
                rng = unit_rng(
                    seed, environment.env_key, device.name, test.name
                )
                rates.append(
                    active_runner.run(device, test, environment, rng).rate
                )
        return sum(rates) / len(rates)

    return evaluate


def min_rate_objective(
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    runner: Optional[Runner] = None,
    seed: int = 0,
    backend: Optional[str] = None,
) -> Objective:
    """Objective: the worst (test × device) death rate.

    Maximising the minimum rate matches Algorithm 1's tie-break and
    favours environments that work *everywhere* — the property a CTS
    environment needs.  ``backend`` is as in
    :func:`mean_rate_objective`.
    """
    active_runner = _objective_runner(runner, backend)

    def evaluate(environment: TestingEnvironment) -> float:
        worst = float("inf")
        for device in devices:
            for test in tests:
                rng = unit_rng(
                    seed, environment.env_key, device.name, test.name
                )
                run = active_runner.run(device, test, environment, rng)
                worst = min(worst, run.rate)
        return worst if worst != float("inf") else 0.0

    return evaluate


@dataclass(frozen=True)
class SearchRecord:
    environment: TestingEnvironment
    score: float


@dataclass(frozen=True)
class SearchResult:
    """The outcome of a tuning search."""

    best: SearchRecord
    history: Tuple[SearchRecord, ...]

    @property
    def evaluations(self) -> int:
        return len(self.history)

    def best_so_far(self) -> List[float]:
        """Running maximum of the objective — the tuning curve."""
        curve: List[float] = []
        current = float("-inf")
        for record in self.history:
            current = max(current, record.score)
            curve.append(current)
        return curve


class SearchStrategy(abc.ABC):
    """Searches the environment space under an evaluation budget."""

    def __init__(self, kind: EnvironmentKind, seed: int = 0) -> None:
        if not kind.stressed:
            raise EnvironmentError_(
                "search requires a tunable (stressed) environment kind"
            )
        self.kind = kind
        self.seed = seed

    @abc.abstractmethod
    def run(self, objective: Objective, budget: int) -> SearchResult:
        """Evaluate up to ``budget`` environments; return the best."""

    def _evaluate_all(
        self,
        environments: Sequence[TestingEnvironment],
        objective: Objective,
    ) -> List[SearchRecord]:
        return [
            SearchRecord(environment=env, score=objective(env))
            for env in environments
        ]


class RandomSearch(SearchStrategy):
    """The paper's strategy: independent random draws."""

    def run(self, objective: Objective, budget: int) -> SearchResult:
        if budget < 1:
            raise EnvironmentError_("budget must be >= 1")
        rng = np.random.default_rng(self.seed)
        environments = [
            random_environment(self.kind, rng, env_key=index)
            for index in range(budget)
        ]
        history = self._evaluate_all(environments, objective)
        best = max(history, key=lambda record: record.score)
        return SearchResult(best=best, history=tuple(history))


class EvolutionarySearch(SearchStrategy):
    """A (μ+λ) evolution strategy over the 17 parameters.

    Seeds a random population, then repeatedly perturbs the best
    survivors.  Perturbation respects each parameter's type: integer
    scales jiggle multiplicatively, percentages move in steps of 25,
    patterns resample, powers of two shift by one exponent.
    """

    def __init__(
        self,
        kind: EnvironmentKind,
        seed: int = 0,
        population: int = 8,
        survivors: int = 3,
    ) -> None:
        super().__init__(kind, seed)
        if survivors < 1 or population < survivors:
            raise EnvironmentError_(
                "need population >= survivors >= 1"
            )
        self.population = population
        self.survivors = survivors

    # -- parameter perturbation ------------------------------------------

    def _perturb(
        self,
        parameters: EnvironmentParameters,
        rng: np.random.Generator,
    ) -> EnvironmentParameters:
        updates = {}

        def maybe(probability: float) -> bool:
            return rng.random() < probability

        if self.kind.parallel and maybe(0.4):
            workgroups = int(
                np.clip(
                    round(
                        parameters.testing_workgroups
                        * rng.uniform(0.5, 2.0)
                    ),
                    16,
                    1024,
                )
            )
            updates["testing_workgroups"] = workgroups
            updates["max_workgroups"] = max(
                parameters.max_workgroups, workgroups
            )
        if maybe(0.4):
            extra = int(rng.integers(0, 513))
            base = updates.get(
                "testing_workgroups", parameters.testing_workgroups
            )
            updates["max_workgroups"] = base + extra
        for field in ("shuffle_pct", "barrier_pct", "mem_stress_pct",
                      "pre_stress_pct"):
            if maybe(0.3):
                step = int(rng.choice([-50, -25, 25, 50]))
                updates[field] = int(
                    np.clip(getattr(parameters, field) + step, 0, 100)
                )
        for field, cap in (
            ("mem_stress_iterations", 1024),
            ("pre_stress_iterations", 128),
            ("stress_target_lines", 16),
            ("mem_stride", 7),
        ):
            if maybe(0.3):
                scaled = round(
                    max(1, getattr(parameters, field))
                    * rng.uniform(0.5, 2.0)
                )
                updates[field] = int(np.clip(scaled, 0, cap))
        for field in ("mem_stress_pattern", "pre_stress_pattern"):
            if maybe(0.25):
                updates[field] = int(
                    rng.integers(0, len(STRESS_PATTERNS))
                )
        for field, low, high in (
            ("stress_line_size", 2, 8),
            ("scratch_memory_size", 9, 12),
        ):
            if maybe(0.25):
                exponent = int(getattr(parameters, field)).bit_length() - 1
                exponent = int(
                    np.clip(exponent + rng.choice([-1, 1]), low, high)
                )
                updates[field] = 2 ** exponent
        for field in ("permute_first", "permute_second"):
            if maybe(0.25):
                updates[field] = int(rng.integers(1, 4096))
        return dataclasses.replace(parameters, **updates)

    # -- the search loop -----------------------------------------------------

    def run(self, objective: Objective, budget: int) -> SearchResult:
        if budget < 1:
            raise EnvironmentError_("budget must be >= 1")
        rng = np.random.default_rng(self.seed)
        next_key = 0

        def fresh(parameters=None) -> TestingEnvironment:
            nonlocal next_key
            if parameters is None:
                environment = random_environment(
                    self.kind, rng, env_key=next_key
                )
            else:
                environment = TestingEnvironment(
                    kind=self.kind,
                    parameters=parameters,
                    env_key=next_key,
                )
            next_key += 1
            return environment

        seed_count = min(budget, self.population)
        history = self._evaluate_all(
            [fresh() for _ in range(seed_count)], objective
        )
        while len(history) < budget:
            elite = sorted(
                history, key=lambda record: record.score, reverse=True
            )[: self.survivors]
            parent = elite[
                int(rng.integers(0, len(elite)))
            ].environment.parameters
            child = fresh(self._perturb(parent, rng))
            history.extend(self._evaluate_all([child], objective))
        best = max(history, key=lambda record: record.score)
        return SearchResult(best=best, history=tuple(history))
