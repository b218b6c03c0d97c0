"""Executing tests in environments and recording results.

A :class:`TestRun` is the atomic measurement of the whole evaluation:
one (test, device, environment) triple, executed for some iterations,
yielding a kill count and a simulated duration.  Everything in Sec. 5
— mutation scores, death rates, environment merging, correlation — is
an aggregation over ``TestRun`` records.

Execution strategies live in :mod:`repro.backends` (``analytic``,
``operational``, ``tensor``, and ``vectorized``, an alias of
``analytic``); the :class:`Runner` here is a thin composition over
one of them, owning only what is strategy-independent —
iteration-count resolution and the deterministic per-unit RNG
derivation.  ``backend=`` (a registry name
or a :class:`~repro.backends.Backend` instance) together with
:func:`repro.backends.make_backend` is the single construction path;
the ``mode=`` alias deprecated since the backend extraction has been
removed.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.env.environment import TestingEnvironment
from repro.errors import EnvironmentError_
from repro.gpu.device import Device
from repro.litmus.oracle import TestOracle
from repro.litmus.program import LitmusTest


def structural_test_key(test: LitmusTest) -> str:
    """A stable structural hash of a test.

    Two structurally identical tests (same instructions, values,
    threads) share a key across processes and interpreter runs —
    unlike ``hash()``, which is randomised per process.
    """
    return hashlib.sha256(test.pretty().encode("utf-8")).hexdigest()


#: Version of the canonical result-key tuple layout below.  Bump it
#: whenever :func:`result_key` changes shape or a component's identity
#: semantics change; the bump flows into every :func:`result_digest`,
#: so persistent stores treat old entries as misses instead of serving
#: results keyed under different semantics.
RESULT_KEY_SCHEMA = 1


def result_key(
    test: LitmusTest,
    device: Device,
    environment: TestingEnvironment,
    seed: Optional[int] = None,
    iterations: Optional[int] = None,
) -> tuple:
    """The canonical identity of one (test, device, environment) unit.

    The persistent :mod:`repro.store` addresses unit results by this
    one tuple, with ``seed`` and ``iterations`` set, so every layer
    that names a unit result agrees on what it is.

    Components are frozen dataclasses, enums, strings, and ints, so
    the tuple is hashable and its ``repr`` is identical across
    processes — which is what lets :func:`result_digest` derive a
    process-stable content address from it.
    """
    return (
        structural_test_key(test),
        test.name,
        device.profile,
        tuple(device.bugs),
        environment,
        seed,
        iterations,
    )


def result_digest(
    backend_name: str, backend_version: int, key: tuple
) -> str:
    """A content address for one unit result under one backend.

    SHA-256 over the deterministic ``repr`` of (key schema, backend
    name, backend version, :func:`result_key` tuple).  Two processes —
    or two runs months apart — computing the digest for the same unit
    under the same backend semantics get the same address; any change
    to the backend's numeric behaviour is signalled by bumping its
    ``version`` and lands old store entries as misses.
    """
    payload = repr(
        (RESULT_KEY_SCHEMA, backend_name, backend_version, key)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class OracleCacheStats:
    """Counters for the process-wide oracle cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class OracleCache:
    """Bounded LRU cache of :class:`TestOracle` keyed structurally.

    Oracle construction enumerates candidate executions, so it is by
    far the most expensive per-test step; memoizing it is what makes
    operational campaigns affordable.  The cache is bounded so a
    campaign over an unbounded stream of generated tests cannot grow
    process memory without limit, and counts hits/misses/evictions so
    the campaign telemetry layer can report memoization wins.
    """

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise EnvironmentError_("oracle cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, TestOracle]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, test: LitmusTest) -> TestOracle:
        key = structural_test_key(test)
        oracle = self._entries.get(key)
        if oracle is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return oracle
        self.misses += 1
        oracle = TestOracle(test)
        self._entries[key] = oracle
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return oracle

    def stats(self) -> OracleCacheStats:
        return OracleCacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


_ORACLE_CACHE = OracleCache()


def oracle_for(test: LitmusTest) -> TestOracle:
    """Process-wide oracle cache (oracle construction enumerates)."""
    return _ORACLE_CACHE.get(test)


def oracle_cache_stats() -> OracleCacheStats:
    """Current hit/miss/eviction counters of the oracle cache."""
    return _ORACLE_CACHE.stats()


def reset_oracle_cache(maxsize: Optional[int] = None) -> None:
    """Empty the oracle cache (and optionally rebound it)."""
    global _ORACLE_CACHE
    if maxsize is not None:
        _ORACLE_CACHE = OracleCache(maxsize=maxsize)
    else:
        _ORACLE_CACHE.clear()


# -- deterministic per-unit seeding -------------------------------------------


def stable_name_hash(name: str) -> int:
    """A process-stable 32-bit hash of a name (CRC32, not ``hash``)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


def unit_seed_sequence(
    seed: int, env_key: int, device_name: str, test_name: str
) -> np.random.SeedSequence:
    """The RNG root for one (environment, device, test) work unit.

    Spawn-style derivation from the campaign seed and the unit's
    stable key: every unit gets an independent stream that does not
    depend on execution order, worker count, or Python's per-process
    hash randomisation, so any subset of a matrix — or a sharded
    parallel run of it — reproduces the full run's values exactly.
    """
    return np.random.SeedSequence(
        (
            seed,
            env_key,
            stable_name_hash(device_name),
            stable_name_hash(test_name),
        )
    )


def unit_rng(
    seed: int, env_key: int, device_name: str, test_name: str
) -> np.random.Generator:
    """The deterministic generator for one work unit."""
    return np.random.default_rng(
        unit_seed_sequence(seed, env_key, device_name, test_name)
    )


@dataclass(frozen=True)
class TestRun:
    """The outcome of running one test in one environment on one device."""

    # Not a pytest test class, despite the name.
    __test__ = False

    test_name: str
    device_name: str
    environment: TestingEnvironment
    iterations: int
    instances_per_iteration: int
    kills: int
    seconds: float

    @property
    def killed(self) -> bool:
        return self.kills > 0

    @property
    def rate(self) -> float:
        """Mutant death rate (or bug observation rate): kills/second."""
        if self.seconds <= 0.0:
            return 0.0
        return self.kills / self.seconds

    @property
    def instances(self) -> int:
        return self.iterations * self.instances_per_iteration

    def describe(self) -> str:
        return (
            f"{self.test_name} on {self.device_name} in "
            f"{self.environment.name}: {self.kills} kills / "
            f"{self.instances} instances / {self.seconds:.4f}s "
            f"({self.rate:.1f}/s)"
        )


class Runner:
    """Runs tests in environments through a pluggable backend.

    The runner is a thin composition: the backend (see
    :mod:`repro.backends`) decides *how* a unit executes, the runner
    resolves *how long* (``iterations_override`` vs the environment's
    default budget) and hands grids to the backend's ``run_matrix``
    so batching backends get whole grids to work with.

    Args:
        backend: A backend name (``"analytic"``, ``"operational"``,
            ``"tensor"``, ``"vectorized"``) or a
            :class:`repro.backends.Backend` instance.  Defaults to
            ``"analytic"``.
        max_operational_instances: Per-iteration instance cap; only
            the operational backend accepts it — passing it with any
            other backend raises :class:`EnvironmentError_` instead of
            being silently ignored.
        iterations_override: Fixed iteration count for every unit.
    """

    def __init__(
        self,
        backend: Union[str, "object", None] = None,
        max_operational_instances: Optional[int] = None,
        iterations_override: Optional[int] = None,
        **removed: "object",
    ) -> None:
        from repro.backends import Backend, make_backend

        if "mode" in removed:
            raise EnvironmentError_(
                "Runner(mode=...) was removed; construct with "
                "Runner(backend=<name or Backend instance>) — "
                "repro.backends.make_backend(name, **options) is the "
                "single validated construction path"
            )
        if removed:
            unknown = ", ".join(sorted(removed))
            raise EnvironmentError_(
                f"Runner() got unexpected argument(s): {unknown}"
            )
        if backend is None:
            backend = "analytic"
        if isinstance(backend, Backend):
            if max_operational_instances is not None:
                raise EnvironmentError_(
                    "max_operational_instances cannot be combined with "
                    "an injected backend instance; configure the "
                    "instance directly"
                )
            self.backend = backend
        else:
            self.backend = make_backend(
                backend,
                max_operational_instances=max_operational_instances,
            )
        self.iterations_override = iterations_override

    @property
    def max_operational_instances(self) -> Optional[int]:
        return getattr(self.backend, "max_operational_instances", None)

    # -- single runs -----------------------------------------------------

    def run(
        self,
        device: Device,
        test: LitmusTest,
        environment: TestingEnvironment,
        rng: np.random.Generator,
    ) -> TestRun:
        iterations = (
            self.iterations_override
            if self.iterations_override is not None
            else environment.iterations()
        )
        from repro import obs
        from repro.backends.base import record_grid

        rec = obs.recorder()
        if not rec.enabled:
            return self.backend.run(
                device, test, environment, iterations, rng
            )
        # A single unit is a degenerate 1x1x1 grid: charging it to the
        # same per-backend family keeps grid timing comparable between
        # batched (run_matrix) and per-unit (campaign worker) paths.
        started = time.perf_counter()
        with rec.span(
            "runner.run",
            backend=self.backend.name,
            test=test.name,
            device=device.name,
        ):
            run = self.backend.run(
                device, test, environment, iterations, rng
            )
        record_grid(
            self.backend.name, time.perf_counter() - started, 1
        )
        return run

    # -- matrices -----------------------------------------------------------

    def run_matrix(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
    ) -> List[TestRun]:
        """Run every (device, test, environment) combination.

        Each triple gets an independent, deterministic RNG stream, so
        subsets of the matrix reproduce the full run's values.
        Delegated whole to the backend, so grid backends (the tensor
        one) see the grid at once.
        """
        return self.backend.run_matrix(
            devices,
            tests,
            environments,
            seed=seed,
            iterations_override=self.iterations_override,
        )
