"""The tensor analytic backend: the whole grid as one array program.

The analytic backend walks the grid unit by unit in Python — workload
translation, ``characterize``, per-unit RNG construction, and
per-unit :class:`TestRun` records dominate its cost.  This backend
evaluates the analytic closed forms as broadcast tensor ops over the
full (environment × device × test) grid and samples every kill count
in a handful of batched NumPy operations:

* **Probabilities are bit-identical to analytic.**  Per-test
  characteristics and per-(environment, device) tuning scalars are
  computed once with the genuine scalar functions, then composed
  elementwise in exactly the scalar evaluation order — IEEE float64
  arithmetic is deterministic, so the probability tensor matches
  :meth:`repro.gpu.batch.BatchModel.instance_probability` bit for bit
  (the validation harness asserts it).  The response-jitter draw is
  cached as a *standard* normal per (env, test, device) — numpy's
  ``normal(0, sigma)`` is exactly ``sigma * standard_normal()`` for
  the same stream — so one cached value serves every sigma.

* **Sampling is statistically equivalent, not bitwise.**  The
  analytic path draws ``iterations`` binomials from one
  ``Generator`` per unit; constructing those 19k+ generators costs
  more than this backend spends on the whole grid.  Instead each
  unit's kills are one draw from Binomial(instances · iterations, p)
  — the same distribution as the summed per-iteration draws — fed by
  counter-based SplitMix64 streams keyed on the *same* unit identity
  ``(seed, env_key, crc32(device), crc32(test))`` that
  :func:`repro.env.runner.unit_seed_sequence` hashes.  Results are
  therefore still worker-count- and grid-traversal-independent, and a
  fixed seed reproduces exactly; only the analytic stream's literal
  bits are not replayed.  That is the ``"statistical"`` equivalence
  contract (:data:`repro.backends.base.EQUIVALENCE_CONTRACTS`).

Small-mean units (the vast majority: ~half the grid has probability
zero) sample by exact CDF inversion of the binomial pmf recurrence;
large-mean units use the normal approximation with continuity
correction, whose error at the cutoff is far below the jitter the
model itself injects.  Grid programs (probability tensors) and
sampled kill tensors are memoized in bounded LRU caches — memoization
at the grid level, not the instance level.

``benchmarks/bench_tensor_speedup.py`` asserts the speedup target
(≥10x over the analytic matrix on the full Figure 5 grid);
``python -m repro.backends`` asserts the statistical contract.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.backends.base import Backend, GridResult, record_grid
from repro.backends.registry import register
from repro.env.environment import TestingEnvironment
from repro.env.runner import TestRun, stable_name_hash
from repro.gpu.batch import (
    JITTER_SIGMA,
    instance_dilution,
    interleaving_probability,
    observer_factor,
    stress_focus,
    weak_reorder_probability,
)
from repro.gpu.characteristics import (
    Mechanism,
    TestCharacteristics,
    characterize,
)
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest

#: Mechanism channel order inside the stacked probability tensor.
_CHANNELS = (
    Mechanism.INTERLEAVING,
    Mechanism.WEAK_REORDER,
    Mechanism.PARTIAL_SYNC,
)

#: Units whose expected kills are at most this sample by exact CDF
#: inversion; above it the continuity-corrected normal approximation
#: is indistinguishable at the model's own jitter scale.
SMALL_MEAN_CUTOFF = 32.0
#: Hard ceiling on inversion steps; P(X > 256 | mean <= 32) < 1e-60,
#: so the cap is unreachable in practice and only bounds the loop.
_MAX_INVERSION_STEPS = 256


class _LRUCache:
    """A bounded LRU memo with hit/miss/eviction counters."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        try:
            value = self._entries[key]
        except KeyError:
            pass
        else:
            self.hits += 1
            self._entries.move_to_end(key)
            return value
        self.misses += 1
        value = compute()
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: Whole grid programs (probability/instances/seconds tensors), keyed
#: by grid identity; seed-independent, so tuning sweeps that resample
#: the same grid reuse one program.
_GRID_CACHE = _LRUCache(maxsize=32)
#: Sampled kill tensors, keyed by (grid identity, seed).
_KILLS_CACHE = _LRUCache(maxsize=64)
#: Standard-normal jitter draws per (env_key, test, device); shared
#: across sigmas, grids, and environment kinds (SITE and PTE tuning
#: candidates share env keys).
_JITTER_Z_CACHE = _LRUCache(maxsize=262_144)


@dataclass(frozen=True)
class TensorCacheStats:
    """Counters of the shared tensor-backend memo caches."""

    grid_hits: int
    grid_misses: int
    grid_size: int
    kills_hits: int
    kills_misses: int
    kills_size: int
    jitter_hits: int
    jitter_misses: int


def tensor_cache_stats() -> TensorCacheStats:
    """Current counters of the shared grid/kills/jitter caches."""
    return TensorCacheStats(
        grid_hits=_GRID_CACHE.hits,
        grid_misses=_GRID_CACHE.misses,
        grid_size=len(_GRID_CACHE),
        kills_hits=_KILLS_CACHE.hits,
        kills_misses=_KILLS_CACHE.misses,
        kills_size=len(_KILLS_CACHE),
        jitter_hits=_JITTER_Z_CACHE.hits,
        jitter_misses=_JITTER_Z_CACHE.misses,
    )


def reset_tensor_caches() -> None:
    """Empty the shared caches (benchmarks measure cold vs warm)."""
    _GRID_CACHE.clear()
    _KILLS_CACHE.clear()
    _JITTER_Z_CACHE.clear()


@dataclass(frozen=True)
class _TestInfo:
    """Everything per-test the grid program needs, computed once."""

    test: LitmusTest
    characteristics: TestCharacteristics
    sigma: float


def _test_info(test: LitmusTest) -> _TestInfo:
    characteristics = characterize(test)
    return _TestInfo(
        test=test,
        characteristics=characteristics,
        sigma=JITTER_SIGMA[characteristics.mechanism],
    )


# -- counter-based per-unit streams -------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SALT_A = np.uint64(0xA5A5A5A5A5A5A5A5)
_SALT_B = np.uint64(0xC3C3C3C3C3C3C3C3)
_U64_MASK = (1 << 64) - 1


def _mix64(value: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer: full-avalanche 64-bit mixing."""
    value = (value ^ (value >> np.uint64(30))) * _MIX_1
    value = (value ^ (value >> np.uint64(27))) * _MIX_2
    return value ^ (value >> np.uint64(31))


def _unit_words(
    seed: int,
    env_keys: np.ndarray,
    device_hashes: np.ndarray,
    test_hashes: np.ndarray,
) -> np.ndarray:
    """One mixed 64-bit word per unit, shape (E, D, T).

    Derived from the same identity tuple as
    :func:`repro.env.runner.unit_seed_sequence`: the campaign seed,
    the env key, and the CRC32 name hashes.  Purely positional inputs
    never enter, so the value is traversal- and worker-independent.
    """
    with np.errstate(over="ignore"):
        low = np.uint64(seed & _U64_MASK)
        high = np.uint64((seed >> 64) & _U64_MASK)
        base = _mix64((low + _GOLDEN) ^ _mix64(high + _GOLDEN))
        words = _mix64(base ^ (env_keys + _GOLDEN))
        words = _mix64(words[:, None] ^ (device_hashes + _GOLDEN))
        words = _mix64(words[:, :, None] ^ (test_hashes + _GOLDEN))
    return words


def _uniforms(words: np.ndarray, salt: np.uint64) -> np.ndarray:
    """A uniform draw in the open interval (0, 1) per word."""
    with np.errstate(over="ignore"):
        mixed = _mix64(words ^ salt)
    return ((mixed >> np.uint64(11)).astype(np.float64) + 0.5) * (
        2.0 ** -53
    )


def _binomial_kills(
    counts: np.ndarray,
    probabilities: np.ndarray,
    uniform_a: np.ndarray,
    uniform_b: np.ndarray,
) -> np.ndarray:
    """Batched Binomial(counts, probabilities) draws from unit uniforms.

    Hybrid sampler over flat arrays: exact CDF inversion (one uniform)
    where the mean is small, continuity-corrected normal approximation
    via Box-Muller (both uniforms) where it is large.  Zero-probability
    units produce exactly zero kills, matching the analytic no-draw
    shortcut.
    """
    kills = np.zeros(counts.shape, dtype=np.int64)
    totals = counts.astype(np.float64)
    means = totals * probabilities
    live = (probabilities > 0.0) & (counts > 0)
    certain = live & (probabilities >= 1.0)
    kills[certain] = counts[certain]
    live &= ~certain
    small = live & (means <= SMALL_MEAN_CUTOFF)
    large = live & ~small
    if large.any():
        mean = means[large]
        sd = np.sqrt(mean * (1.0 - probabilities[large]))
        z = np.sqrt(-2.0 * np.log(uniform_a[large])) * np.cos(
            2.0 * np.pi * uniform_b[large]
        )
        approx = np.floor(mean + sd * z + 0.5)
        kills[large] = np.clip(approx, 0.0, totals[large]).astype(
            np.int64
        )
    if small.any():
        n = totals[small]
        p = probabilities[small]
        u = uniform_a[small]
        # pmf(0) via log1p keeps precision for tiny probabilities.
        pmf = np.exp(n * np.log1p(-p))
        cdf = pmf.copy()
        ratio = p / (1.0 - p)
        drawn = np.zeros(n.shape, dtype=np.int64)
        active = cdf < u
        step = 0
        while active.any() and step < _MAX_INVERSION_STEPS:
            drawn[active] += 1
            step += 1
            # pmf(k) = pmf(k-1) * (n-k+1)/k * p/(1-p); zeroing retired
            # lanes keeps the recurrence finite past k > n.
            pmf *= active * ((n - (step - 1)) / step) * ratio
            cdf += pmf
            active &= cdf < u
        kills[small] = np.minimum(drawn, totals[small].astype(np.int64))
    return kills


# -- the compiled grid program -------------------------------------------------


@dataclass(frozen=True)
class _GridProgram:
    """Seed-independent tensors for one grid, compiled once."""

    environments: Tuple[TestingEnvironment, ...]
    device_names: Tuple[str, ...]
    test_names: Tuple[str, ...]
    #: Per-instance probabilities, (E, D, T); bitwise equal to the
    #: analytic model's.
    probabilities: np.ndarray
    #: Instances per iteration, (E,) — device-independent.
    instances: np.ndarray
    #: Iterations, (E,).
    iterations: np.ndarray
    #: Simulated seconds per unit, (E, D) — test-independent.
    seconds: np.ndarray
    env_keys: np.ndarray
    device_hashes: np.ndarray
    test_hashes: np.ndarray

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.probabilities.shape


def _jitter_z(env_key: int, test_name: str, device_name: str) -> float:
    """The cached standard-normal draw behind ``response_jitter``."""

    def compute() -> float:
        import hashlib

        digest = hashlib.sha256(
            f"{env_key}|{test_name}|{device_name}".encode()
        ).digest()
        seed = int.from_bytes(digest[:8], "big")
        return float(np.random.default_rng(seed).standard_normal())

    return _JITTER_Z_CACHE.get_or_compute(
        (env_key, test_name, device_name), compute
    )


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _compile_program(
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environments: Sequence[TestingEnvironment],
    iterations_override: Optional[int],
) -> _GridProgram:
    """Evaluate the closed forms once, as whole-grid tensors.

    Scalar-per-(env, device) quantities — tuning, workload, the base
    channel probabilities — are computed with the genuine scalar
    functions in an E×D Python loop (cheap: no per-*test* work), and
    everything per-unit is composed elementwise in the exact scalar
    evaluation order, preserving bit equality with the analytic model.
    """
    env_count = len(environments)
    dev_count = len(devices)
    test_count = len(tests)
    shape = (env_count, dev_count, test_count)

    infos = [_test_info(test) for test in tests]
    channel_index = {mechanism: i for i, mechanism in enumerate(_CHANNELS)}
    channel_sel = np.array(
        [
            channel_index.get(info.characteristics.mechanism, 0)
            for info in infos
        ],
        dtype=np.intp,
    )
    bug_only = np.array(
        [
            info.characteristics.mechanism is Mechanism.BUG_ONLY
            for info in infos
        ],
        dtype=bool,
    )
    difficulty = np.array(
        [info.characteristics.difficulty for info in infos]
    )
    sigma = np.array([info.sigma for info in infos])
    needs_observer = np.array(
        [info.characteristics.needs_observer_luck for info in infos],
        dtype=bool,
    )
    uses_fences = np.array(
        [info.characteristics.uses_fences for info in infos], dtype=bool
    )
    adjacent_loads = np.array(
        [
            info.characteristics.has_adjacent_same_location_loads
            for info in infos
        ],
        dtype=bool,
    )
    stale_pattern = np.array(
        [info.characteristics.has_stale_read_pattern for info in infos],
        dtype=bool,
    )

    gain = np.array([d.profile.interleave_gain for d in devices])
    leak = np.array([d.profile.partial_sync_leak for d in devices])
    requires_stress = np.array(
        [d.profile.partial_sync_requires_stress for d in devices],
        dtype=bool,
    )
    suppresses_observer = np.array(
        [d.profile.suppresses_observer_witness for d in devices],
        dtype=bool,
    )
    # (D, T) mask of mechanisms a profile never exhibits (Sec. 3.4).
    mechanisms = np.array(
        [info.characteristics.mechanism for info in infos], dtype=object
    )
    suppressed = np.array(
        [
            [
                mechanism in device.profile.suppressed_mechanisms
                for mechanism in mechanisms
            ]
            for device in devices
        ],
        dtype=bool,
    )
    drops_fences = np.array(
        [len(d.bugs) > 0 and d.bugs.drops_fences for d in devices],
        dtype=bool,
    )
    swap = np.array(
        [
            d.bugs.load_load_swap_probability() if len(d.bugs) else 0.0
            for d in devices
        ]
    )

    env_keys = np.array(
        [env.env_key for env in environments], dtype=np.uint64
    )
    iterations = np.array(
        [
            iterations_override
            if iterations_override is not None
            else env.iterations()
            for env in environments
        ],
        dtype=np.int64,
    )
    instances = np.zeros(env_count, dtype=np.int64)

    inter_p = np.zeros((env_count, dev_count))
    weak_p = np.zeros((env_count, dev_count))
    observer = np.zeros((env_count, dev_count))
    contention = np.zeros((env_count, dev_count))
    stress_gate = np.zeros((env_count, dev_count))
    flush_window = np.zeros((env_count, dev_count))
    stale = np.zeros((env_count, dev_count))
    dilution = np.zeros((env_count, dev_count))
    focus = np.zeros((env_count, dev_count))
    seconds = np.zeros((env_count, dev_count))

    reference_test = tests[0] if tests else None
    for e, environment in enumerate(environments):
        for d, device in enumerate(devices):
            # workload / iteration_seconds are test-independent:
            # instances_per_iteration ignores its test argument.
            workload = environment.workload(
                device.profile, reference_test
            )
            tuning = device.tuning(workload)
            in_flight = workload.instances_in_flight
            instances[e] = in_flight
            inter_p[e, d] = interleaving_probability(tuning)
            weak_p[e, d] = weak_reorder_probability(tuning)
            observer[e, d] = observer_factor(tuning)
            contention[e, d] = tuning.contention
            stress_gate[e, d] = min(1.0, 2.0 * tuning.stress)
            flush_window[e, d] = 0.2 + 0.8 * tuning.flush_probability
            stale[e, d] = (
                device.bugs.stale_read_probability(tuning)
                if len(device.bugs)
                else 0.0
            )
            dilution[e, d] = instance_dilution(max(1, in_flight))
            focus[e, d] = stress_focus(tuning.stress, max(1, in_flight))
            seconds[e, d] = iterations[e] * environment.iteration_seconds(
                device, reference_test
            )

    # Mechanism channels, (E, D): composed in scalar evaluation order.
    effective_gain = 1.0 + (gain[None, :] - 1.0) * contention
    channel_inter = inter_p * effective_gain
    channel_weak = weak_p
    channel_partial = np.where(
        requires_stress[None, :],
        (weak_p * leak[None, :]) * stress_gate,
        weak_p * leak[None, :],
    )
    channels = np.stack(
        [channel_inter, channel_weak, channel_partial], axis=-1
    )
    mech = channels[:, :, channel_sel] * difficulty[None, None, :]
    mech = np.where(
        needs_observer[None, None, :],
        mech * observer[:, :, None],
        mech,
    )
    mech = np.minimum(1.0, mech)
    silenced = (
        bug_only[None, :]
        | suppressed
        | (needs_observer[None, :] & suppresses_observer[:, None])
    )
    mech = np.where(silenced[None, :, :], 0.0, mech)

    # Bug channels, max-composed exactly like ``bug_probability``.
    fence_open = drops_fences[:, None] & uses_fences[None, :]
    bug = np.where(
        fence_open[None, :, :],
        weak_p[:, :, None] * difficulty[None, None, :],
        0.0,
    )
    swap_open = (swap[:, None] > 0.0) & adjacent_loads[None, :]
    bug = np.maximum(
        bug,
        np.where(
            swap_open[None, :, :],
            (swap[None, :, None] * inter_p[:, :, None])
            * difficulty[None, None, :],
            0.0,
        ),
    )
    stale_open = (stale[:, :, None] > 0.0) & stale_pattern[None, None, :]
    bug = np.maximum(
        bug,
        np.where(
            stale_open,
            (stale * flush_window)[:, :, None]
            * difficulty[None, None, :],
            0.0,
        ),
    )
    bug = np.minimum(1.0, bug)

    base = np.maximum(mech, bug)

    jitter_z = np.empty(shape)
    short_names = [device.profile.short_name for device in devices]
    for e, environment in enumerate(environments):
        key = environment.env_key
        for d, short_name in enumerate(short_names):
            for t, info in enumerate(infos):
                jitter_z[e, d, t] = _jitter_z(
                    key, info.test.name, short_name
                )
    jitter = np.where(
        sigma[None, None, :] > 0.0,
        np.exp(sigma[None, None, :] * jitter_z),
        1.0,
    )

    scaled = (base * dilution[:, :, None]) * focus[:, :, None]
    probabilities = np.where(
        base > 0.0, np.minimum(1.0, scaled * jitter), 0.0
    )

    return _GridProgram(
        environments=tuple(environments),
        device_names=tuple(device.name for device in devices),
        test_names=tuple(info.test.name for info in infos),
        probabilities=_freeze(probabilities),
        instances=_freeze(instances),
        iterations=_freeze(iterations),
        seconds=_freeze(seconds),
        env_keys=_freeze(env_keys),
        device_hashes=_freeze(
            np.array(
                [stable_name_hash(device.name) for device in devices],
                dtype=np.uint64,
            )
        ),
        test_hashes=_freeze(
            np.array(
                [stable_name_hash(info.test.name) for info in infos],
                dtype=np.uint64,
            )
        ),
    )


def _sample_program(program: _GridProgram, seed: int) -> np.ndarray:
    """Sample the (E, D, T) kill tensor for one campaign seed."""
    shape = program.shape
    words = _unit_words(
        seed,
        program.env_keys,
        program.device_hashes,
        program.test_hashes,
    )
    totals = np.broadcast_to(
        (program.instances * program.iterations)[:, None, None], shape
    ).reshape(-1)
    kills = _binomial_kills(
        totals,
        program.probabilities.reshape(-1),
        _uniforms(words, _SALT_A).reshape(-1),
        _uniforms(words, _SALT_B).reshape(-1),
    )
    return _freeze(kills.reshape(shape))


@register
class TensorAnalyticBackend(Backend):
    """Whole-grid tensor evaluation of the analytic model.

    Probabilities, instance counts, and simulated seconds are bitwise
    equal to the analytic reference; kill counts are statistically
    equivalent (same distributions, independent seeded streams) — the
    ``"statistical"`` contract, checked by
    :func:`repro.backends.validate.validate_statistical_equivalence`.
    """

    name = "tensor"
    option_names = frozenset()
    version = 1
    equivalence = "statistical"

    # -- grid paths -------------------------------------------------------

    @staticmethod
    def _grid_key(
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        iterations_override: Optional[int],
    ) -> tuple:
        from repro.env.runner import structural_test_key

        return (
            tuple(environments),
            tuple((d.profile, tuple(d.bugs)) for d in devices),
            tuple(structural_test_key(test) for test in tests),
            iterations_override,
        )

    def _grid_result(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int,
        iterations_override: Optional[int],
    ) -> GridResult:
        if not (len(environments) and len(devices) and len(tests)):
            shape = (len(environments), len(devices), len(tests))
            return GridResult(
                environments=tuple(environments),
                device_names=tuple(d.name for d in devices),
                test_names=tuple(t.name for t in tests),
                iterations=np.array(
                    [
                        iterations_override
                        if iterations_override is not None
                        else env.iterations()
                        for env in environments
                    ],
                    dtype=np.int64,
                ),
                instances=np.zeros(shape, dtype=np.int64),
                kills=np.zeros(shape, dtype=np.int64),
                seconds=np.zeros(shape, dtype=np.float64),
            )
        key = self._grid_key(
            devices, tests, environments, iterations_override
        )
        program = _GRID_CACHE.get_or_compute(
            key,
            lambda: _compile_program(
                devices, tests, environments, iterations_override
            ),
        )
        kills = _KILLS_CACHE.get_or_compute(
            (key, seed), lambda: _sample_program(program, seed)
        )
        shape = program.shape
        return GridResult(
            environments=program.environments,
            device_names=program.device_names,
            test_names=program.test_names,
            iterations=program.iterations,
            instances=np.broadcast_to(
                program.instances[:, None, None], shape
            ),
            kills=kills,
            seconds=np.broadcast_to(
                program.seconds[:, :, None], shape
            ),
        )

    def probabilities(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        iterations_override: Optional[int] = None,
    ) -> np.ndarray:
        """The (E, D, T) per-instance probability tensor.

        Exposed for the validation harness: these values are bitwise
        equal to ``Device.instance_probability`` per unit.
        """
        key = self._grid_key(
            devices, tests, environments, iterations_override
        )
        program = _GRID_CACHE.get_or_compute(
            key,
            lambda: _compile_program(
                devices, tests, environments, iterations_override
            ),
        )
        return program.probabilities

    def run_grid(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
        iterations_override: Optional[int] = None,
    ) -> GridResult:
        """The native path: tensors in, tensors out, no records."""
        started = time.perf_counter()
        with obs.recorder().span(
            "backend.run_grid",
            backend=self.name,
            environments=len(environments),
        ):
            result = self._grid_result(
                devices, tests, environments, seed, iterations_override
            )
        record_grid(
            self.name, time.perf_counter() - started, result.unit_count
        )
        return result

    def run_matrix(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
        iterations_override: Optional[int] = None,
    ) -> List[TestRun]:
        """Record materialization on top of the grid-result path."""
        started = time.perf_counter()
        with obs.recorder().span(
            "backend.run_matrix",
            backend=self.name,
            environments=len(environments),
        ):
            runs = self._grid_result(
                devices, tests, environments, seed, iterations_override
            ).to_runs()
        record_grid(
            self.name, time.perf_counter() - started, len(runs)
        )
        return runs

    # -- the per-unit path -------------------------------------------------

    @staticmethod
    def _recover_seed(
        rng: np.random.Generator,
        env_key: int,
        device_name: str,
        test_name: str,
    ) -> Optional[int]:
        """Extract the campaign seed from a canonical unit stream.

        Campaign workers hand ``run`` the generator built by
        :func:`repro.env.runner.unit_rng`; its seed sequence still
        carries the (seed, env_key, device hash, test hash) entropy
        tuple, which lets the per-unit path reproduce exactly the
        value the grid path computes for this cell.
        """
        sequence = getattr(
            getattr(rng, "bit_generator", None), "seed_seq", None
        )
        if not isinstance(sequence, np.random.SeedSequence):
            return None
        if tuple(sequence.spawn_key):
            return None
        entropy = sequence.entropy
        if not isinstance(entropy, (tuple, list)) or len(entropy) != 4:
            return None
        seed, key, device_hash, test_hash = entropy
        if (
            key == env_key
            and device_hash == stable_name_hash(device_name)
            and test_hash == stable_name_hash(test_name)
        ):
            return int(seed)
        return None

    def run(
        self,
        device: Device,
        test: LitmusTest,
        environment: TestingEnvironment,
        iterations: int,
        rng: np.random.Generator,
    ) -> TestRun:
        workload = environment.workload(device.profile, test)
        probability = device.instance_probability(
            test, workload, env_key=environment.env_key
        )
        instances = workload.instances_in_flight
        seed = self._recover_seed(
            rng, environment.env_key, device.name, test.name
        )
        if seed is not None:
            words = _unit_words(
                seed,
                np.array([environment.env_key], dtype=np.uint64),
                np.array(
                    [stable_name_hash(device.name)], dtype=np.uint64
                ),
                np.array([stable_name_hash(test.name)], dtype=np.uint64),
            )
            uniform_a = _uniforms(words, _SALT_A).reshape(-1)
            uniform_b = _uniforms(words, _SALT_B).reshape(-1)
        else:
            # Non-canonical stream: stay deterministic with respect to
            # the generator the caller supplied.
            draws = rng.random(2)
            uniform_a = np.array([draws[0]])
            uniform_b = np.array([draws[1]])
        kills = int(
            _binomial_kills(
                np.array([instances * iterations], dtype=np.int64),
                np.array([probability]),
                uniform_a,
                uniform_b,
            )[0]
        )
        seconds = iterations * environment.iteration_seconds(device, test)
        return TestRun(
            test_name=test.name,
            device_name=device.name,
            environment=environment,
            iterations=iterations,
            instances_per_iteration=instances,
            kills=kills,
            seconds=seconds,
        )
