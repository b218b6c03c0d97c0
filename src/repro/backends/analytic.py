"""The analytic backend: closed-form probabilities, binomial kills.

This is the default execution strategy and the numerical ground truth
every other backend is validated against: one unit = one workload
translation, one per-instance probability from
:class:`~repro.gpu.batch.BatchModel`, and one binomial draw per
iteration from the unit's RNG stream.

``vectorized`` is a registry alias of this backend, kept so journals,
store objects and stats files recorded under that name keep resolving
to bit-identical results.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend
from repro.backends.registry import register
from repro.env.environment import TestingEnvironment
from repro.env.runner import TestRun
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest


@register
class AnalyticBackend(Backend):
    """Per-run evaluation of the closed-form batch model."""

    name = "analytic"
    option_names = frozenset()
    version = 1
    #: The reference itself: trivially bit-identical to itself.
    equivalence = "bitwise"

    def run(
        self,
        device: Device,
        test: LitmusTest,
        environment: TestingEnvironment,
        iterations: int,
        rng: np.random.Generator,
    ) -> TestRun:
        workload = environment.workload(device.profile, test)
        kills = device.sample_iteration_kills(
            test, workload, iterations, rng, env_key=environment.env_key
        )
        seconds = iterations * environment.iteration_seconds(device, test)
        return TestRun(
            test_name=test.name,
            device_name=device.name,
            environment=environment,
            iterations=iterations,
            instances_per_iteration=workload.instances_in_flight,
            kills=int(kills.sum()),
            seconds=seconds,
        )


@register
class VectorizedAnalyticBackend(AnalyticBackend):
    """The ``vectorized`` name, kept as an alias of ``analytic``.

    Only the name differs, and it is part of every recorded identity:
    store digests hash (name, version, key), grid metrics carry a
    ``backend`` label and stats files a ``backend`` field.  Version,
    options and the ``bitwise`` contract are inherited from
    :class:`AnalyticBackend`, so results recorded under this name stay
    valid.
    """

    name = "vectorized"
