"""Tests for figure/table builders and reporting."""

import pytest

from repro.analysis import (
    Figure6,
    ScoreCell,
    ascii_table,
    figure5,
    figure6,
    render_figure5_rates,
    render_figure5_scores,
    render_figure6,
    render_table2,
    render_table3,
    score_cell,
    score_matrix,
)
from repro.campaign import ExecutorConfig, paper_spec, run_campaign
from repro.confidence import (
    merge_environments,
    reproducible_pairs,
    tuning_rate_function,
)
from repro.env import EnvironmentKind, TuningResult, tuning_run
from repro.errors import AnalysisError
from repro.gpu import study_devices
from repro.mutation import MutatorKind, default_suite

SUITE = default_suite()
DEVICES = study_devices()


@pytest.fixture(scope="module")
def results():
    return {
        kind: tuning_run(
            kind, DEVICES, SUITE.mutants, environment_count=10, seed=7
        )
        for kind in EnvironmentKind
    }


class TestScoreAggregation:
    def test_cell_totals(self, results):
        cell = score_cell(results[EnvironmentKind.PTE], SUITE)
        assert cell.total == 32 * 4
        assert 0 <= cell.killed <= cell.total
        assert cell.mutation_score == pytest.approx(
            cell.killed / cell.total
        )

    def test_per_device_cell(self, results):
        cell = score_cell(
            results[EnvironmentKind.PTE], SUITE, device_names=["AMD"]
        )
        assert cell.total == 32

    def test_per_mutator_cell(self, results):
        cell = score_cell(
            results[EnvironmentKind.PTE],
            SUITE,
            mutator=MutatorKind.REVERSING_PO_LOC,
        )
        assert cell.total == 8 * 4

    def test_matrix_structure(self, results):
        matrix = score_matrix(results[EnvironmentKind.PTE], SUITE)
        assert set(matrix) == {
            "reversing po-loc",
            "weakening po-loc",
            "weakening sw",
            "combined",
        }
        assert set(matrix["combined"]) == {
            "NVIDIA", "AMD", "Intel", "M1", "all",
        }


class TestFigure5:
    def test_headline_shapes(self, results):
        """The core Sec. 5.2 findings hold in the generated figure."""
        figure = figure5(results, SUITE)
        assert figure.score(EnvironmentKind.PTE) > figure.score(
            EnvironmentKind.SITE
        )
        assert figure.score(EnvironmentKind.SITE) > figure.score(
            EnvironmentKind.SITE_BASELINE
        )
        assert figure.rate(EnvironmentKind.PTE) > 500 * figure.rate(
            EnvironmentKind.SITE
        )

    def test_reversing_fastest_mutator(self, results):
        figure = figure5(results, SUITE)
        assert figure.rate(
            EnvironmentKind.PTE, "reversing po-loc"
        ) > figure.rate(EnvironmentKind.PTE, "weakening sw")

    def test_rows_shape(self, results):
        figure = figure5(results, SUITE)
        rows = figure.score_rows()
        assert len(rows) == 4
        assert len(rows[0]) == 6  # kind + 4 devices + all

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            figure5({}, SUITE)


class TestFigure6:
    def test_monotone_in_budget(self, results):
        figure = figure6(
            {EnvironmentKind.PTE: results[EnvironmentKind.PTE]},
            budgets=(0.25, 4.0, 64.0),
            targets=(0.95,),
        )
        series = figure.series(EnvironmentKind.PTE, 0.95)
        scores = [score for _, score in series]
        assert scores == sorted(scores)

    def test_stricter_target_not_better(self, results):
        figure = figure6(
            {EnvironmentKind.PTE: results[EnvironmentKind.PTE]},
            budgets=(4.0,),
            targets=(0.95, 0.99999),
        )
        assert figure.score_at(
            EnvironmentKind.PTE, 0.99999, 4.0
        ) <= figure.score_at(EnvironmentKind.PTE, 0.95, 4.0)

    def test_pte_beats_site_at_tight_budget(self, results):
        """Fig. 6's key claim: SITE collapses at small budgets."""
        figure = figure6(
            {
                EnvironmentKind.PTE: results[EnvironmentKind.PTE],
                EnvironmentKind.SITE: results[EnvironmentKind.SITE],
            },
            budgets=(1.0 / 64,),
            targets=(0.95,),
        )
        assert figure.score_at(
            EnvironmentKind.PTE, 0.95, 1.0 / 64
        ) > figure.score_at(EnvironmentKind.SITE, 0.95, 1.0 / 64)

    def test_missing_point_raises(self):
        figure = Figure6(points=())
        with pytest.raises(AnalysisError):
            figure.score_at(EnvironmentKind.PTE, 0.95, 1.0)


def scan_cell(result, mutants, devices):
    """Sec. 5.2's cell by scanning every run (the reference)."""
    killed = 0
    rates = []
    for device in devices:
        for mutant in mutants:
            runs = [
                run for run in result.runs
                if run.test_name == mutant and run.device_name == device
            ]
            killed += any(run.kills > 0 for run in runs)
            rates.append(max((run.rate for run in runs), default=0.0))
    return ScoreCell(
        mutation_score=killed / len(rates),
        average_death_rate=sum(rates) / len(rates),
        killed=killed,
        total=len(rates),
    )


def scan_figure6_score(result, target, budget):
    """One Fig. 6 point by the verbatim Algorithm 1 over scanned axes."""
    environments = {}
    devices = []
    for run in result.runs:
        environments.setdefault(run.environment.env_key, run.environment)
        if run.device_name not in devices:
            devices.append(run.device_name)
    names = sorted({run.test_name for run in result.runs})
    decisions = [
        merge_environments(
            name,
            [environments[key] for key in sorted(environments)],
            devices,
            tuning_rate_function(result),
            target,
            budget,
        )
        for name in names
    ]
    return reproducible_pairs(decisions, target, budget, len(devices))


def without(result, drop):
    return TuningResult(
        kind=result.kind,
        runs=[run for run in result.runs if not drop(run)],
        backend=result.backend,
    )


class TestAgainstScanReference:
    """Figures 5 and 6 from the dense view equal per-run scans."""

    @pytest.fixture(scope="class")
    def campaign(self):
        spec = paper_spec(
            tuple(mutant.name for mutant in SUITE.mutants),
            environment_count=4,
            seed=3,
        )
        return run_campaign(spec, config=ExecutorConfig(workers=1)).results

    def assert_figure5_matches(self, results):
        figure = figure5(results, SUITE)
        groups = {"combined": [m.name for m in SUITE.mutants]}
        for mutator in MutatorKind:
            groups[mutator.value] = [
                m.name for pair in SUITE.by_mutator(mutator)
                for m in pair.mutants
            ]
        for kind, result in results.items():
            devices = result.device_names
            for group, mutants in groups.items():
                cells = figure.cells[kind][group]
                assert cells["all"] == scan_cell(result, mutants, devices)
                for device in devices:
                    assert cells[device] == scan_cell(
                        result, mutants, [device]
                    )

    def test_figure5(self, campaign):
        self.assert_figure5_matches(campaign)

    def test_figure6(self, campaign):
        stressed = {
            kind: campaign[kind]
            for kind in (EnvironmentKind.PTE, EnvironmentKind.SITE)
        }
        figure = figure6(stressed)
        assert len(figure.points) == 2 * 2 * 17
        for point in figure.points:
            assert point.mutation_score == scan_figure6_score(
                stressed[point.kind], point.target, point.budget_seconds
            )

    def test_partial_grid(self, campaign):
        full = campaign[EnvironmentKind.PTE]
        gone = full.environments[1].env_key
        partial = without(
            full,
            lambda run: run.device_name == "AMD"
            and run.environment.env_key == gone,
        )
        # Figure 5 counts the runs that exist ...
        self.assert_figure5_matches({EnvironmentKind.PTE: partial})
        # ... while Algorithm 1 needs every cell, and says which.
        with pytest.raises(AnalysisError) as reference:
            scan_figure6_score(partial, 0.95, 4.0)
        with pytest.raises(AnalysisError) as dense:
            figure6({EnvironmentKind.PTE: partial}, (4.0,), (0.95,))
        assert str(dense.value) == str(reference.value)
        assert "device='AMD'" in str(dense.value)

    def test_absent_names(self, campaign):
        full = campaign[EnvironmentKind.PTE]
        absent = SUITE.mutants[0].name
        partial = without(full, lambda run: run.test_name == absent)
        assert absent not in partial.test_names
        assert not partial.killed(absent, "AMD")
        assert partial.best_rate(absent, "AMD") == 0.0
        assert not partial.killed(SUITE.mutants[1].name, "no-such-device")
        self.assert_figure5_matches({EnvironmentKind.PTE: partial})
        with pytest.raises(AnalysisError, match=repr(absent)):
            figure6(
                {EnvironmentKind.PTE: partial}, (4.0,), (0.95,),
                test_names=[m.name for m in SUITE.mutants],
            )


class TestRendering:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_ascii_table_validation(self):
        with pytest.raises(AnalysisError):
            ascii_table([], [])
        with pytest.raises(AnalysisError):
            ascii_table(["a"], [["1", "2"]])

    def test_table2_counts(self):
        text = render_table2(SUITE)
        assert "Combined" in text
        assert "20" in text and "32" in text

    def test_table3_roster(self):
        text = render_table3()
        assert "GeForce RTX 2080" in text
        assert "M1" in text
        assert "128" in text

    def test_figure_renderings(self, results):
        figure = figure5(results, SUITE)
        assert "mutation scores" in render_figure5_scores(figure)
        assert "death rates" in render_figure5_rates(figure)
        small = figure6(
            {EnvironmentKind.PTE: results[EnvironmentKind.PTE]},
            budgets=(4.0,),
            targets=(0.95,),
        )
        assert "Figure 6" in render_figure6(small)
