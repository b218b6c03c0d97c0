"""Behavioural tests for the analytic and operational backends.

The load-bearing property is bit identity: the ``vectorized`` alias
must reproduce the analytic backend's kill counts *exactly* for the
same seed, buggy devices and all environment kinds included, because
journals and store objects recorded under that name resume through it.
"""

import pytest

from repro.backends import (
    AnalyticBackend,
    OperationalBackend,
    VectorizedAnalyticBackend,
)
from repro.env import (
    EnvironmentKind,
    Runner,
    environments_for,
    pte_baseline,
    site_baseline,
    unit_rng,
)
from repro.gpu import make_device
from repro.mutation import default_suite

SUITE = default_suite()


def grid_for(kind, environment_count=2, seed=3):
    return environments_for(kind, environment_count, seed)


class TestBitIdentity:
    @pytest.mark.parametrize("kind", list(EnvironmentKind))
    def test_matrix_identical_to_analytic(self, kind):
        devices = [make_device("amd"), make_device("intel", buggy=True)]
        tests = SUITE.mutants[:6]
        environments = grid_for(kind)
        reference = AnalyticBackend().run_matrix(
            devices, tests, environments, seed=9
        )
        candidate = VectorizedAnalyticBackend().run_matrix(
            devices, tests, environments, seed=9
        )
        assert candidate == reference

    def test_single_run_identical_to_analytic(self):
        device = make_device("nvidia")
        test = SUITE.mutants[0]
        environment = pte_baseline()
        reference = AnalyticBackend().run(
            device, test, environment, 50,
            unit_rng(1, environment.env_key, device.name, test.name),
        )
        candidate = VectorizedAnalyticBackend().run(
            device, test, environment, 50,
            unit_rng(1, environment.env_key, device.name, test.name),
        )
        assert candidate == reference

    def test_conformance_tests_stay_dead(self):
        # Zero-probability units must not consume RNG draws either
        # way, or every later unit in a shared stream would drift.
        device = make_device("nvidia")
        tests = [SUITE.find("rev_poloc_rr_w"), SUITE.mutants[0]]
        reference = AnalyticBackend().run_matrix(
            [device], tests, [site_baseline()], seed=4
        )
        candidate = VectorizedAnalyticBackend().run_matrix(
            [device], tests, [site_baseline()], seed=4
        )
        assert candidate == reference
        assert reference[0].kills == 0

    def test_iterations_override_respected(self):
        runs = VectorizedAnalyticBackend().run_matrix(
            [make_device("amd")], SUITE.mutants[:2], [pte_baseline()],
            seed=0, iterations_override=7,
        )
        assert all(run.iterations == 7 for run in runs)

    def test_empty_test_list(self):
        assert VectorizedAnalyticBackend().run_matrix(
            [make_device("amd")], [], [pte_baseline()], seed=0
        ) == []


class TestOperationalBackend:
    def test_counts_kills_at_site_scale(self):
        backend = OperationalBackend(max_operational_instances=8)
        device = make_device("amd")
        test = SUITE.mutants[0]
        environment = pte_baseline()
        run = backend.run(
            device, test, environment, 30,
            unit_rng(3, environment.env_key, device.name, test.name),
        )
        assert run.instances_per_iteration == 8
        assert run.kills > 0


class TestRunnerComposition:
    def test_runner_delegates_to_vectorized(self):
        devices = [make_device("amd")]
        tests = SUITE.mutants[:3]
        environments = grid_for(EnvironmentKind.SITE)
        via_runner = Runner(backend="vectorized").run_matrix(
            devices, tests, environments, seed=6
        )
        direct = AnalyticBackend().run_matrix(
            devices, tests, environments, seed=6
        )
        assert via_runner == direct

    def test_runner_accepts_backend_instance(self):
        backend = OperationalBackend(max_operational_instances=2)
        runner = Runner(backend=backend, iterations_override=3)
        assert runner.backend is backend
        assert runner.backend.name == "operational"
        assert runner.max_operational_instances == 2

    def test_instance_plus_cap_conflict(self):
        from repro.errors import EnvironmentError_

        with pytest.raises(EnvironmentError_, match="injected backend"):
            Runner(
                backend=OperationalBackend(),
                max_operational_instances=4,
            )

    def test_default_backend_is_analytic(self):
        assert Runner().backend.name == "analytic"
        assert Runner().max_operational_instances is None
