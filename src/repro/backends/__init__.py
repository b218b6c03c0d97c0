"""Pluggable execution backends behind the runner.

One :class:`Backend` protocol, three strategies plus one alias, one
registry.  Every backend declares an ``equivalence`` contract
(:data:`EQUIVALENCE_CONTRACTS`) naming how its numbers relate to the
analytic reference; the registry validates the contract, the
validation harness checks it, and campaign journals enforce it across
resume:

* ``analytic`` (:class:`AnalyticBackend`, ``bitwise``) — the default:
  closed-form per-instance probabilities, binomially sampled kills.
  Scales to PTE instance counts; the numerical ground truth
  everything else is validated against.
* ``operational`` (:class:`OperationalBackend`, ``directional``) —
  every instance actually simulated by the operational executor.
  SITE-scale only; accepts ``max_operational_instances``.
* ``tensor`` (:class:`TensorAnalyticBackend`, ``statistical``) — the
  whole (environment × device × test) grid as one broadcast tensor
  program with batched binomial sampling.  Probabilities and seconds
  are bitwise equal to ``analytic``; kill counts come from the same
  distributions via independent seeded streams.  Orders of magnitude
  faster than ``analytic`` through the :class:`GridResult` path
  (see ``benchmarks/bench_tensor_speedup.py``).
* ``vectorized`` (:class:`VectorizedAnalyticBackend`, ``bitwise``) —
  a registry alias of ``analytic`` under its own name, so journals,
  store objects and stats files recorded under that name still
  resolve and resume bit-identically.

Grids can be executed as :class:`~repro.env.runner.TestRun` lists
(``run_matrix``) or as structure-of-arrays tensors
(``run_grid`` → :class:`GridResult`) — the grid-result path is what
lets array-level backends skip per-unit record construction.

Callers select a backend by name through :func:`resolve` /
:func:`make_backend` — the single validation point that
``repro.env.runner.Runner`` and ``repro.campaign.CampaignSpec`` both
delegate to — or inject a :class:`Backend` instance directly.
:mod:`repro.backends.validate` is the cross-backend drift alarm CI
runs on every build.
"""

from repro.backends.analytic import (
    AnalyticBackend,
    VectorizedAnalyticBackend,
)
from repro.backends.base import (
    EQUIVALENCE_CONTRACTS,
    Backend,
    GridResult,
)
from repro.backends.operational import OperationalBackend
from repro.backends.registry import (
    make_backend,
    register,
    registered_backends,
    resolve,
    validate_options,
)
from repro.backends.tensor import (
    TensorAnalyticBackend,
    TensorCacheStats,
    reset_tensor_caches,
    tensor_cache_stats,
)
from repro.backends.validate import (
    ValidationReport,
    validate_backends,
    validate_bit_identity,
    validate_directional_agreement,
    validate_statistical_equivalence,
)

__all__ = [
    "AnalyticBackend",
    "Backend",
    "EQUIVALENCE_CONTRACTS",
    "GridResult",
    "OperationalBackend",
    "TensorAnalyticBackend",
    "TensorCacheStats",
    "ValidationReport",
    "VectorizedAnalyticBackend",
    "make_backend",
    "register",
    "registered_backends",
    "reset_tensor_caches",
    "resolve",
    "tensor_cache_stats",
    "validate_backends",
    "validate_bit_identity",
    "validate_directional_agreement",
    "validate_options",
    "validate_statistical_equivalence",
]
