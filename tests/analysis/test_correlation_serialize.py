"""Tests for the Table 4 study and JSON persistence."""

import pytest

from repro.analysis import (
    BugCase,
    TABLE4_CASES,
    correlation_row,
    load_result,
    render_table4,
    result_from_dict,
    result_to_dict,
    save_result,
    table4,
)
from repro.env import EnvironmentKind, tuning_run
from repro.errors import AnalysisError
from repro.gpu import make_device
from repro.mutation import default_suite

SUITE = default_suite()


class TestCorrelationStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        # Reduced scale keeps the test fast; the benchmark runs the
        # paper-scale version (150 environments).
        return table4(environment_count=40, iterations=100, seed=0)

    def test_three_cases(self, rows):
        assert [row.vendor for row in rows] == ["Intel", "AMD", "NVIDIA"]

    def test_all_very_strong(self, rows):
        """Table 4's finding: every PCC is very strong (> .8)."""
        for row in rows:
            assert row.correlation.very_strong, row.vendor

    def test_significance(self, rows):
        for row in rows:
            assert row.correlation.p_value < 1e-6

    def test_best_mutant_belongs_to_pair(self, rows):
        for row in rows:
            pair = SUITE.pair_of_mutant(row.best_mutant)
            assert pair.mutator.value.lower().startswith(
                row.mutant_type.split()[0].lower()
            )

    def test_amd_failed_test_renamed(self, rows):
        assert rows[1].failed_test == "MP-relacq"

    def test_render(self, rows):
        text = render_table4(rows)
        assert "PCC" in text
        assert "Intel" in text

    def test_clean_device_rejected(self):
        # The M1 has no historical bug; correlating requires one.
        case = BugCase("Apple", "m1", "CoRR", "Reversing po-loc")
        with pytest.raises(AnalysisError, match="never observed"):
            correlation_row(case, environment_count=5, iterations=10)

    def test_environment_count_validated(self):
        with pytest.raises(AnalysisError, match="three"):
            correlation_row(TABLE4_CASES[0], environment_count=2)


class TestSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        return tuning_run(
            EnvironmentKind.PTE,
            [make_device("amd")],
            SUITE.mutants[:3],
            environment_count=3,
            seed=5,
        )

    def test_roundtrip_dict(self, result):
        payload = result_to_dict(result)
        restored = result_from_dict(payload)
        assert restored.kind is result.kind
        assert len(restored.runs) == len(result.runs)
        for original, loaded in zip(result.runs, restored.runs):
            assert original.kills == loaded.kills
            assert original.rate == pytest.approx(loaded.rate)
            assert (
                original.environment.parameters
                == loaded.environment.parameters
            )

    def test_roundtrip_file(self, result, tmp_path):
        path = tmp_path / "amd.json"
        save_result(result, path)
        restored = load_result(path)
        assert restored.test_names == result.test_names

    def test_backend_round_trips(self, result):
        assert result.backend == "analytic"
        payload = result_to_dict(result)
        assert payload["backend"] == "analytic"
        assert result_from_dict(payload).backend == "analytic"

    def test_backendless_payload_still_loads(self, result):
        # Stats archives from before backend recording have no
        # "backend" key; they must load with backend=None unchanged.
        payload = result_to_dict(result)
        del payload["backend"]
        restored = result_from_dict(payload)
        assert restored.backend is None
        assert len(restored.runs) == len(result.runs)

    def test_version_checked(self, result):
        payload = result_to_dict(result)
        payload["version"] = 99
        with pytest.raises(AnalysisError, match="version"):
            result_from_dict(payload)

    def test_malformed_run_rejected(self, result):
        payload = result_to_dict(result)
        del payload["runs"][0]["kills"]
        with pytest.raises(AnalysisError, match="malformed"):
            result_from_dict(payload)

    def test_malformed_environment_rejected(self, result):
        payload = result_to_dict(result)
        payload["runs"][0]["environment"]["parameters"]["shuffle_pct"] = 999
        with pytest.raises(AnalysisError, match="malformed"):
            result_from_dict(payload)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError, match="invalid JSON"):
            load_result(path)


def edge_runs():
    """Runs whose JSON stresses the streamed writer: names that need
    escaping and seconds of every float class."""
    from repro.env import pte_baseline, random_environments
    from repro.env.runner import TestRun

    environments = [pte_baseline()] + random_environments(
        EnvironmentKind.SITE, 2, seed=9
    )
    names = ["MP", "Ger\u00e4t \u00fc", "\u6d4b\u8bd5\u2028", 'quote"back\\slash\n\ttab']
    seconds = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1,
               1.7976931348623157e308, float("inf"), float("-inf"),
               float("nan")]
    return [
        TestRun(
            test_name=names[index % len(names)],
            device_name=names[(index + 1) % len(names)] + str(index),
            environment=environments[index % len(environments)],
            iterations=index,
            instances_per_iteration=2 ** index,
            kills=index * 3,
            seconds=value,
        )
        for index, value in enumerate(seconds)
    ]


class TestStreamedSave:
    """``save_result`` writes exactly ``json.dumps(..., indent=2)``."""

    @pytest.mark.parametrize(
        "runs, backend",
        [
            ([], None),
            ([], "analytic"),
            ("edge", None),
            ("edge", "tensor ü"),
            ("tuned", "analytic"),
        ],
    )
    def test_bytes_match_indented_dumps(self, runs, backend, tmp_path):
        import json

        from repro.env.tuning import TuningResult

        if runs == "edge":
            runs = edge_runs()
        elif runs == "tuned":
            runs = tuning_run(
                EnvironmentKind.SITE,
                [make_device("amd"), make_device("intel")],
                SUITE.mutants[:4],
                environment_count=3,
                seed=2,
            ).runs
        result = TuningResult(
            kind=EnvironmentKind.SITE, runs=runs, backend=backend
        )
        path = tmp_path / "stats.json"
        save_result(result, path)
        expected = json.dumps(result_to_dict(result), indent=2)
        assert path.read_bytes() == expected.encode("ascii")

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), parallel=st.booleans(),
           env_key=st.integers(0, 10**6))
    def test_environment_dict_matches_asdict(self, seed, parallel, env_key):
        import dataclasses

        import numpy as np

        from repro.analysis.serialize import environment_to_dict
        from repro.env import TestingEnvironment
        from repro.env.parameters import random_parameters

        parameters = random_parameters(
            np.random.default_rng(seed), parallel
        )
        kind = EnvironmentKind.PTE if parallel else EnvironmentKind.SITE
        environment = TestingEnvironment(kind, parameters, env_key)
        expected = {
            "kind": kind.value,
            "env_key": env_key,
            "parameters": dataclasses.asdict(parameters),
        }
        payload = environment_to_dict(environment)
        assert payload == expected
        assert list(payload["parameters"]) == list(expected["parameters"])
