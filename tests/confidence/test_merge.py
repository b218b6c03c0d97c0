"""Tests for Algorithm 1 (environment merging)."""

import math

import pytest

from repro.confidence import (
    merge_environments,
    merge_suite,
    reproducible_pairs,
    tuning_rate_function,
)
from repro.env import (
    EnvironmentKind,
    random_environments,
    tuning_run,
)
from repro.errors import AnalysisError
from repro.gpu import make_device, study_devices
from repro.mutation import default_suite

SUITE = default_suite()
DEVICES = ["A", "B", "C"]
ENVS = random_environments(EnvironmentKind.PTE, 4, seed=11)


def rate_table(table):
    """rate(test, device, env) backed by {(device, env_key): rate}."""

    def rate(test_name, device, environment):
        return table.get((device, environment.env_key), 0.0)

    return rate


class TestMergeEnvironments:
    def test_picks_env_with_most_devices_at_ceiling(self):
        # ceiling for r=0.95, b=4s is 0.75/s.
        table = {
            ("A", 0): 1.0, ("B", 0): 1.0, ("C", 0): 0.1,
            ("A", 1): 1.0, ("B", 1): 0.1, ("C", 1): 0.1,
        }
        decision = merge_environments(
            "t", ENVS, DEVICES, rate_table(table), 0.95, 4.0
        )
        assert decision.environment is ENVS[0]
        assert decision.devices_at_ceiling == 2

    def test_tie_breaks_on_min_nonzero_rate(self):
        table = {
            ("A", 0): 1.0, ("B", 0): 0.01,
            ("A", 1): 1.0, ("B", 1): 0.5,
        }
        decision = merge_environments(
            "t", ENVS[:2], ["A", "B"], rate_table(table), 0.95, 4.0
        )
        # Both reach the ceiling on A only; env 1 has the higher
        # minimum non-zero rate (0.5 > 0.01).
        assert decision.environment is ENVS[1]
        assert decision.min_nonzero_rate == pytest.approx(0.5)

    def test_zero_rates_excluded_from_minimum(self):
        table = {("A", 0): 1.0, ("B", 0): 0.0}
        decision = merge_environments(
            "t", ENVS[:1], ["A", "B"], rate_table(table), 0.95, 4.0
        )
        assert decision.min_nonzero_rate == pytest.approx(1.0)

    def test_no_environment_reaches_ceiling(self):
        table = {("A", 0): 0.01, ("A", 1): 0.02}
        decision = merge_environments(
            "t", ENVS[:2], ["A"], rate_table(table), 0.95, 4.0
        )
        assert decision.environment is None
        assert decision.devices_at_ceiling == 0

    def test_stability_property(self):
        """Paper: if the chosen environment meets the ceiling on ALL
        devices, relaxing the target or growing the budget keeps it."""
        table = {
            ("A", 0): 5.0, ("B", 0): 4.0,
            ("A", 1): 9.0, ("B", 1): 0.5,
        }
        strict = merge_environments(
            "t", ENVS[:2], ["A", "B"], rate_table(table), 0.95, 4.0
        )
        assert strict.environment is ENVS[0]
        assert strict.devices_at_ceiling == 2
        relaxed = merge_environments(
            "t", ENVS[:2], ["A", "B"], rate_table(table), 0.90, 16.0
        )
        assert relaxed.environment is strict.environment

    def test_validation(self):
        rate = rate_table({})
        with pytest.raises(AnalysisError):
            merge_environments("t", ENVS, DEVICES, rate, 1.5, 4.0)
        with pytest.raises(AnalysisError):
            merge_environments("t", ENVS, DEVICES, rate, 0.95, 0.0)

    def test_reproducibility_accessor(self):
        table = {("A", 0): 1.0}
        decision = merge_environments(
            "t", ENVS[:1], ["A"], rate_table(table), 0.95, 4.0
        )
        assert decision.reproducibility("A", 3.0) == pytest.approx(
            1 - math.exp(-3.0)
        )
        assert decision.reproducibility("missing", 3.0) == 0.0


class TestMergeSuiteIntegration:
    @pytest.fixture(scope="class")
    def tuned(self):
        return tuning_run(
            EnvironmentKind.PTE,
            study_devices(),
            SUITE.mutants,
            environment_count=12,
            seed=4,
        )

    def test_merge_suite_covers_all_tests(self, tuned):
        decisions = merge_suite(tuned, tuned.test_names, 0.95, 4.0)
        assert len(decisions) == len(tuned.test_names)
        chosen = [d for d in decisions if d.environment is not None]
        assert len(chosen) > len(decisions) // 2

    def test_rate_function_adapter(self, tuned):
        rate = tuning_rate_function(tuned)
        environment = tuned.environments[0]
        name = tuned.test_names[0]
        assert rate(name, "AMD", environment) == tuned.rate(
            name, "AMD", environment.env_key
        )

    def test_reproducible_pairs_monotone_in_budget(self, tuned):
        decisions = merge_suite(tuned, tuned.test_names, 0.95, 1.0)
        smaller = reproducible_pairs(decisions, 0.95, 1.0 / 64, 4)
        larger = reproducible_pairs(decisions, 0.95, 64.0, 4)
        assert 0.0 <= smaller <= larger <= 1.0

    def test_reproducible_pairs_validation(self):
        with pytest.raises(AnalysisError):
            reproducible_pairs([], 0.95, 1.0, 0)

    def test_reproducible_pairs_empty(self):
        assert reproducible_pairs([], 0.95, 1.0, 4) == 0.0


class TestStabilityProperty:
    """The paper's stability claim, property-tested: when the chosen
    environment meets the ceiling on ALL devices, any run with a laxer
    target (r' <= r) and larger budget (t' >= t) chooses the same
    environment."""

    from hypothesis import given, strategies as st

    @given(
        rates=st.lists(
            st.tuples(
                st.floats(0.0, 50.0),  # rate on device A
                st.floats(0.0, 50.0),  # rate on device B
            ),
            min_size=2,
            max_size=4,
        ),
        target=st.floats(0.5, 0.999),
        budget=st.floats(0.5, 16.0),
        laxer=st.floats(0.1, 1.0),
        larger=st.floats(1.0, 8.0),
    )
    def test_stable_under_relaxation(
        self, rates, target, budget, laxer, larger
    ):
        from repro.confidence import ceiling_rate

        table = {}
        for env_key, (rate_a, rate_b) in enumerate(rates):
            table[("A", env_key)] = rate_a
            table[("B", env_key)] = rate_b
        environments = ENVS[: len(rates)]
        strict = merge_environments(
            "t", environments, ["A", "B"], rate_table(table),
            target, budget,
        )
        ceiling = ceiling_rate(target, budget)
        if strict.environment is None or strict.devices_at_ceiling < 2:
            return  # stability only promised at full coverage
        relaxed_target = max(0.01, target * laxer)
        relaxed = merge_environments(
            "t", environments, ["A", "B"], rate_table(table),
            relaxed_target, budget * larger,
        )
        assert relaxed.environment is strict.environment


def grid_result(rates_by_test, environments, seconds=1.0):
    """A PTE result whose run of test t on device d in environment e
    has death rate ``rates_by_test[t][e][d]`` (kills / ``seconds``)."""
    from repro.env.runner import TestRun
    from repro.env.tuning import TuningResult

    runs = [
        TestRun(
            test_name=f"t{test}",
            device_name=device,
            environment=environment,
            iterations=1,
            instances_per_iteration=1,
            kills=kills,
            seconds=seconds,
        )
        for test, grid in enumerate(rates_by_test)
        for environment, row in zip(environments, grid)
        for device, kills in zip(DEVICES, row)
    ]
    return TuningResult(kind=EnvironmentKind.PTE, runs=runs)


def kill_grids():
    """Kill counts ``[test][environment][device]`` over 1-5
    environments.  Few distinct counts make ties in both the device
    count and the minimum non-zero rate common; zero rows and all-zero
    tests are drawn too."""
    from hypothesis import strategies as st

    kills = st.sampled_from([0, 0, 0, 1, 2, 3, 4, 8])
    row = st.lists(kills, min_size=len(DEVICES), max_size=len(DEVICES))
    return st.integers(1, 5).flatmap(
        lambda env_count: st.lists(
            st.one_of(
                st.just([[0] * len(DEVICES)] * env_count),
                st.lists(row, min_size=env_count, max_size=env_count),
            ),
            min_size=1,
            max_size=4,
        )
    )


class TestMergeSuiteMatchesReference:
    """The array Algorithm 1 of ``merge_suite`` against the verbatim
    ``merge_environments``, on random grids with ties and zeros."""

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200, deadline=None)
    @given(
        grid=kill_grids(),
        seconds=st.sampled_from([0.5, 1.0, 4.0]),
        target=st.sampled_from([0.5, 0.95, 0.99999]),
        budget=st.sampled_from([0.25, 1.0, 4.0, 64.0]),
    )
    def test_decisions_and_figure6_score(self, grid, seconds, target, budget):
        from repro.confidence import ceiling_rate

        environments = random_environments(
            EnvironmentKind.PTE, len(grid[0]), seed=11
        )
        result = grid_result(grid, environments, seconds)
        names = result.test_names
        decisions = merge_suite(result, names, target, budget)
        reference = [
            merge_environments(
                name,
                result.environments,
                result.device_names,
                tuning_rate_function(result),
                target,
                budget,
            )
            for name in names
        ]
        for got, want in zip(decisions, reference):
            assert got.test_name == want.test_name
            assert got.environment == want.environment
            assert got.devices_at_ceiling == want.devices_at_ceiling
            assert got.min_nonzero_rate == want.min_nonzero_rate
            assert got.rates == want.rates
            assert list(got.rates) == list(want.rates)
        assert len(decisions) == len(reference)

        score = reproducible_pairs(decisions, target, budget, len(DEVICES))
        assert score == reproducible_pairs(
            reference, target, budget, len(DEVICES)
        )
        ceiling = ceiling_rate(target, budget)
        best_counts = sum(
            max(
                sum(kills / seconds >= ceiling for kills in row)
                for row in test_grid
            )
            for test_grid in grid
        )
        assert score == best_counts / (len(grid) * len(DEVICES))

    def test_missing_cell_raises_the_reference_error(self):
        environments = ENVS[:2]
        full = grid_result([[[1, 2, 3], [4, 5, 6]]], environments)
        partial = type(full)(
            kind=full.kind,
            runs=[
                run for run in full.runs
                if not (run.device_name == "B"
                        and run.environment.env_key == 1)
            ],
        )
        with pytest.raises(AnalysisError) as reference:
            merge_environments(
                "t0", partial.environments, partial.device_names,
                tuning_rate_function(partial), 0.95, 4.0,
            )
        with pytest.raises(AnalysisError) as dense:
            merge_suite(partial, ["t0"], 0.95, 4.0)
        assert str(dense.value) == str(reference.value)
        with pytest.raises(AnalysisError, match="test='absent'"):
            merge_suite(full, ["t0", "absent"], 0.95, 4.0)

    def test_argument_validation_matches_reference(self):
        result = grid_result([[[1, 2, 3]]], ENVS[:1])
        with pytest.raises(AnalysisError, match=r"\(0, 1\)"):
            merge_suite(result, ["t0"], 1.5, 4.0)
        with pytest.raises(AnalysisError, match="positive"):
            merge_suite(result, ["t0"], 0.95, 0.0)
        assert merge_suite(result, [], 1.5, 4.0) == []
