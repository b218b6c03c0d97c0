"""The sharded campaign executor.

Partitions a spec's pending work units into shards, runs them on a
``multiprocessing`` pool (``workers`` defaults to ``os.cpu_count()``),
journals every completed unit the moment it arrives, and retries
transient per-unit failures with exponential backoff.  When the pool
cannot start — or dies mid-campaign — execution degrades gracefully to
the serial in-process path, which shares the exact per-unit code, so a
campaign always completes with identical numbers, just slower.

Determinism contract: unit results depend only on (campaign seed, unit
key) — never on shard boundaries, completion order, or worker count —
and assembly orders runs canonically, so a 1-worker and an N-worker
run of the same spec produce byte-identical results.
:func:`verify_order_independence` asserts exactly that.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.backends import resolve
from repro.env.environment import EnvironmentKind
from repro.env.runner import TestRun
from repro.env.tuning import TuningResult
from repro.campaign.journal import CampaignJournal, JournalRecord
from repro.campaign.metrics import CampaignMetrics
from repro.campaign.spec import CampaignError, CampaignSpec, WorkUnit
from repro.obs.health import HealthMonitor
from repro.store import ResultStore, unit_digests
from repro.campaign.worker import (
    FaultPlan,
    ShardResult,
    UnitOutcome,
    build_state,
    drain_unit_metrics,
    execute_shard,
    execute_unit,
    initialize_worker,
)

Log = Callable[[str], None]


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs of the sharded executor."""

    #: Worker processes; ``None`` means ``os.cpu_count()``.
    workers: Optional[int] = None
    #: Units per pool task; amortises dispatch over sub-ms units.
    shard_size: int = 64
    #: Soft per-unit deadline enforced inside the worker (seconds).
    unit_timeout: Optional[float] = 30.0
    #: Retries per unit before the failure becomes permanent.
    max_retries: int = 2
    #: Base of the exponential retry backoff (seconds).
    retry_backoff: float = 0.05
    #: Emit a progress line at most this often (seconds); None = off.
    progress_interval: Optional[float] = None
    #: Testing hook: deterministic transient-failure injection.
    fault_plan: Optional[FaultPlan] = None
    #: Skip the pool entirely (also used as the degradation target).
    force_serial: bool = False

    def effective_workers(self) -> int:
        if self.workers is not None:
            if self.workers < 1:
                raise CampaignError("workers must be >= 1")
            return self.workers
        return max(1, os.cpu_count() or 1)


@dataclass
class CampaignOutcome:
    """Everything a finished campaign produced."""

    spec: CampaignSpec
    results: Dict[EnvironmentKind, TuningResult]
    metrics: CampaignMetrics
    failed: List[Tuple[int, str]] = field(default_factory=list)
    #: Live health summary (stragglers, mid-run kill drift) from the
    #: scheduler's :class:`~repro.obs.health.HealthMonitor`.
    health: Optional[Dict[str, object]] = None

    @property
    def complete(self) -> bool:
        return not self.failed

    def report(self) -> str:
        return self.metrics.report()


@dataclass
class _Completed:
    unit: WorkUnit
    run: TestRun
    attempts: int


class CampaignScheduler:
    """Drives one campaign from spec to assembled results."""

    def __init__(
        self,
        spec: CampaignSpec,
        journal: Optional[CampaignJournal] = None,
        config: Optional[ExecutorConfig] = None,
        log: Optional[Log] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.spec = spec
        self.journal = journal
        self.config = config or ExecutorConfig()
        self.log = log or (lambda message: None)
        # Always-on live monitoring: stragglers adapt to the grid's
        # own timing distribution, and kill-drift activates when the
        # caller wires an expected rate (normally the ledger's
        # baseline window for this fingerprint).
        self.health = health or HealthMonitor()
        self.metrics = CampaignMetrics()
        self._completed: Dict[int, _Completed] = {}
        self._attempts: Dict[int, int] = {}
        self._failed: Dict[int, str] = {}
        self._last_progress = 0.0
        self._store: Optional[ResultStore] = None
        self._digests: Dict[int, str] = {}
        backend_class = resolve(spec.backend)
        self._backend_name = backend_class.name
        self._backend_version = backend_class.version

    # -- public ------------------------------------------------------------

    def run(self) -> CampaignOutcome:
        units = self.spec.units()
        self.metrics.total_units = len(units)
        rec = obs.recorder()
        if (
            self.spec.store_path is not None
            and self.spec.store_policy != "off"
        ):
            self._store = ResultStore(self.spec.store_path)
            self._digests = unit_digests(self.spec)
        with rec.span(
            "campaign.run", campaign=self.spec.name, units=len(units)
        ):
            # One writer per journal: a concurrent resume of the same
            # journal would double-execute units and interleave
            # appends, so the second scheduler is refused up front.
            if self.journal is not None:
                self.journal.acquire_lock()
            try:
                pending = self._load_checkpoint(units)
                if (
                    self._store is not None
                    and self.spec.store_policy == "reuse"
                    and pending
                ):
                    pending = self._load_store(units, pending)
                if not pending:
                    self.log(
                        f"[campaign] {self.spec.name}: nothing to do "
                        f"({len(units)} units already journaled)"
                    )
                else:
                    self.log(
                        f"[campaign] {self.spec.name}: {len(pending)} of "
                        f"{len(units)} units pending"
                    )
                    if (
                        self.config.force_serial
                        or self.config.effective_workers() == 1
                    ):
                        self.metrics.serial_fallback = (
                            self.config.force_serial
                        )
                        if self.config.force_serial:
                            rec.event(
                                "campaign.serial_fallback",
                                campaign=self.spec.name,
                                reason="forced",
                            )
                        self._run_serial(units, pending)
                    else:
                        self._run_pool(units, pending)
            finally:
                if self.journal is not None:
                    self.journal.close()
                    self.journal.release_lock()
        if self._store is not None:
            self.metrics.absorb_store_events(self._store.drain_events())
        self.metrics.finish()
        # Fold campaign telemetry into the process recorder so the
        # exported artifacts carry the repro_campaign_* families too.
        # observe_unit only ever writes metrics.registry, so this is
        # the single source — no double counting.
        if rec.enabled:
            rec.registry.merge(self.metrics.registry.snapshot())
        outcome = CampaignOutcome(
            spec=self.spec,
            results=self._assemble(),
            metrics=self.metrics,
            failed=sorted(self._failed.items()),
            health=self.health.summary(),
        )
        if outcome.failed:
            raise CampaignFailure(outcome)
        return outcome

    # -- checkpoint --------------------------------------------------------

    def _load_checkpoint(self, units: List[WorkUnit]) -> List[int]:
        done_keys = set()
        if self.journal is not None:
            by_key = {unit.key: unit for unit in units}
            for record in self.journal.load_records():
                unit = by_key.get(record.key)
                if unit is None or unit.index in self._completed:
                    continue  # stale or duplicated record: ignore
                self._completed[unit.index] = _Completed(
                    unit=unit, run=record.run, attempts=record.attempts
                )
                done_keys.add(record.key)
        self.metrics.resumed_units = len(self._completed)
        return [
            unit.index for unit in units if unit.key not in done_keys
        ]

    def _load_store(
        self, units: List[WorkUnit], pending: List[int]
    ) -> List[int]:
        """Partition pending units into store-cached vs to-execute.

        Every hit is journaled with ``attempts=0`` — the store-loaded
        marker — so kill+resume, ``campaign status``, and the service's
        journal-based recovery see a store-warmed campaign exactly like
        an executed one.  A corrupted or missing object is a counted
        miss, never an error: the unit simply executes.
        """
        assert self._store is not None
        still_pending: List[int] = []
        for index in pending:
            cached = self._store.get(self._digests[index])
            if cached is None:
                still_pending.append(index)
                continue
            _, run = cached
            unit = units[index]
            self._completed[index] = _Completed(
                unit=unit, run=run, attempts=0
            )
            if self.journal is not None:
                self.journal.append(unit, run, 0.0, 0)
        self.metrics.store_units = len(pending) - len(still_pending)
        if self.metrics.store_units:
            self.log(
                f"[campaign] {self.spec.name}: "
                f"{self.metrics.store_units} of {len(pending)} pending "
                f"units loaded from the result store"
            )
        return still_pending

    # -- execution paths ---------------------------------------------------

    def _shards(self, indices: List[int]) -> List[List[int]]:
        size = max(1, self.config.shard_size)
        return [
            indices[start:start + size]
            for start in range(0, len(indices), size)
        ]

    def _run_serial(
        self, units: List[WorkUnit], pending: List[int]
    ) -> None:
        state = build_state(self.spec, self.config.fault_plan)
        queue = deque(pending)
        try:
            while queue:
                index = queue.popleft()
                outcome = execute_unit(
                    state, index, self.config.unit_timeout
                )
                retry = self._absorb(units, outcome)
                if retry is not None:
                    self._backoff(retry)
                    queue.append(retry)
                self._progress(drain=True)
        finally:
            # Serial execution records unit telemetry in the worker
            # module's in-process registry; progress lines drain it
            # when they print, and this drains the rest.
            self.metrics.merge_worker_snapshot(drain_unit_metrics())
        obs.publish_cache_metrics()

    def _run_pool(
        self, units: List[WorkUnit], pending: List[int]
    ) -> None:
        workers = self.config.effective_workers()
        fault_payload = (
            self.config.fault_plan.to_payload()
            if self.config.fault_plan is not None
            else None
        )
        rec = obs.recorder()
        try:
            executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=initialize_worker,
                initargs=(
                    self.spec.to_dict(),
                    fault_payload,
                    rec.config_payload(),
                ),
            )
        except Exception as error:  # pool cannot start: degrade
            self.log(
                f"[campaign] worker pool unavailable ({error}); "
                f"degrading to serial execution"
            )
            rec.event(
                "campaign.pool_degraded",
                campaign=self.spec.name,
                stage="startup",
                error=str(error),
            )
            self.metrics.serial_fallback = True
            self._run_serial(units, pending)
            return
        try:
            with executor:
                queue = list(pending)
                while queue:
                    retries: List[int] = []
                    shards = self._shards(queue)
                    self.metrics.shards += len(shards)
                    futures = [
                        executor.submit(
                            execute_shard,
                            shard,
                            self.config.unit_timeout,
                        )
                        for shard in shards
                    ]
                    for future, shard in zip(futures, shards):
                        watchdog = self._watchdog_seconds(len(shard))
                        result: ShardResult = future.result(
                            timeout=watchdog
                        )
                        self.metrics.merge_worker_snapshot(
                            result.metrics
                        )
                        rec.absorb(
                            result.obs,
                            extra_attrs={"worker": result.worker_id},
                        )
                        for outcome in result.outcomes:
                            retry = self._absorb(units, outcome)
                            if retry is not None:
                                retries.append(retry)
                            self._progress()
                    if retries:
                        self._backoff(retries[0])
                    queue = retries
        except Exception as error:
            # A broken pool (killed worker, unpicklable state, watchdog
            # expiry) must not lose the campaign: finish what is left
            # serially.  Everything already journaled stays done.
            self.log(
                f"[campaign] worker pool failed mid-run ({error}); "
                f"finishing remaining units serially"
            )
            rec.event(
                "campaign.pool_degraded",
                campaign=self.spec.name,
                stage="mid-run",
                error=str(error),
            )
            self.metrics.serial_fallback = True
            remaining = [
                unit.index
                for unit in units
                if unit.index not in self._completed
                and unit.index not in self._failed
            ]
            self._run_serial(units, remaining)

    def _watchdog_seconds(self, shard_len: int) -> Optional[float]:
        """Shard-level backstop above the in-worker unit deadline."""
        if self.config.unit_timeout is None:
            return None
        return self.config.unit_timeout * shard_len + 60.0

    # -- absorption / retry ------------------------------------------------

    def _absorb(
        self, units: List[WorkUnit], outcome: UnitOutcome
    ) -> Optional[int]:
        """Record one outcome; return the index iff it should retry."""
        index = outcome.index
        attempts = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempts
        if outcome.ok:
            unit = units[index]
            run = outcome.run
            self._completed[index] = _Completed(
                unit=unit, run=run, attempts=attempts
            )
            straggler = self.health.observe_unit(
                outcome.elapsed,
                worker=outcome.worker_id,
                unit=index,
            )
            if straggler is not None:
                self.log(
                    f"[campaign] health: unit {index} straggled "
                    f"({straggler['elapsed']:.3f}s > "
                    f"{straggler['threshold']:.3f}s)"
                )
            drift = self.health.observe_kills(
                run.kills,
                run.iterations * run.instances_per_iteration,
                unit=index,
            )
            if drift is not None:
                self.log(
                    f"[campaign] health: cumulative kill rate "
                    f"{drift['observed_rate']:.4%} drifted from the "
                    f"expected {drift['expected_rate']:.4%} "
                    f"(z={drift['z']:+.1f})"
                )
            if self.journal is not None:
                self.journal.append(
                    unit, run, outcome.elapsed, attempts
                )
            if self._store is not None:
                self._store.put(
                    self._digests[index],
                    unit.kind,
                    run,
                    self._backend_name,
                    self._backend_version,
                )
            # Per-unit telemetry arrived with the shard's registry
            # snapshot (or via the serial drain); nothing to record
            # per outcome here.
            return None
        rec = obs.recorder()
        if outcome.timed_out:
            rec.event(
                "campaign.unit_timeout",
                unit=index,
                worker=outcome.worker_id,
                attempt=attempts,
            )
        if attempts <= self.config.max_retries:
            self.metrics.observe_retry(
                outcome.worker_id, timed_out=outcome.timed_out
            )
            rec.event(
                "campaign.unit_retry",
                unit=index,
                worker=outcome.worker_id,
                attempt=attempts,
                timed_out=outcome.timed_out,
            )
            self.log(
                f"[campaign] unit {index} attempt {attempts} failed "
                f"({outcome.error}); retrying"
            )
            return index
        self._failed[index] = outcome.error or "unknown error"
        self.metrics.units_failed += 1
        rec.event(
            "campaign.unit_failed",
            unit=index,
            worker=outcome.worker_id,
            attempts=attempts,
            error=outcome.error or "unknown error",
        )
        self.log(
            f"[campaign] unit {index} failed permanently after "
            f"{attempts} attempts: {outcome.error}"
        )
        return None

    def _backoff(self, index: int) -> None:
        if self.config.retry_backoff <= 0:
            return
        exponent = max(0, self._attempts.get(index, 1) - 1)
        time.sleep(self.config.retry_backoff * (2.0 ** exponent))

    def _progress(self, drain: bool = False) -> None:
        """Log a progress line when one is due; with ``drain``, fold
        the in-process unit telemetry in first, so the line sees live
        totals."""
        interval = self.config.progress_interval
        if interval is None:
            return
        now = time.monotonic()
        if now - self._last_progress >= interval:
            self._last_progress = now
            if drain:
                self.metrics.merge_worker_snapshot(drain_unit_metrics())
            self.log(self.metrics.progress_line())

    # -- assembly ----------------------------------------------------------

    def _assemble(self) -> Dict[EnvironmentKind, TuningResult]:
        return assemble_results(
            self.spec,
            [
                (index, completed.unit.kind, completed.run)
                for index, completed in self._completed.items()
            ],
        )


class CampaignFailure(CampaignError):
    """Units failed permanently; successes remain journaled."""

    def __init__(self, outcome: CampaignOutcome) -> None:
        self.outcome = outcome
        preview = ", ".join(
            f"#{index}: {error}" for index, error in outcome.failed[:3]
        )
        super().__init__(
            f"{len(outcome.failed)} unit(s) failed permanently "
            f"({preview}); completed units are journaled — fix and "
            f"resume"
        )


# -- top-level entry points ----------------------------------------------------


def assemble_results(
    spec: CampaignSpec,
    indexed_runs: List[Tuple[int, EnvironmentKind, TestRun]],
) -> Dict[EnvironmentKind, TuningResult]:
    """Group completed runs into per-kind results, in unit order.

    Canonical ordering is what makes assembly independent of
    completion order: the runs list matches what the serial
    ``tuning_run`` path produces for the same seed.  Shared by the
    scheduler (in-memory outcomes) and the service (journal records),
    which is why a service job's stats are bit-identical to a one-shot
    ``campaign run`` of the same spec.
    """
    by_kind: Dict[EnvironmentKind, List[Tuple[int, TestRun]]] = {}
    for index, kind, run in indexed_runs:
        by_kind.setdefault(kind, []).append((index, run))
    results: Dict[EnvironmentKind, TuningResult] = {}
    for kind in spec.kind_members:
        pairs = sorted(by_kind.get(kind, []))
        if not pairs:
            continue
        results[kind] = TuningResult(
            kind=kind,
            runs=[run for _, run in pairs],
            backend=spec.backend,
        )
    return results


def run_campaign(
    spec: CampaignSpec,
    journal_path: Optional[Union[str, Path]] = None,
    config: Optional[ExecutorConfig] = None,
    log: Optional[Log] = None,
    health: Optional[HealthMonitor] = None,
) -> CampaignOutcome:
    """Run (or resume) a campaign; journaling is on iff a path is given."""
    journal = (
        CampaignJournal.create(journal_path, spec)
        if journal_path is not None
        else None
    )
    return CampaignScheduler(spec, journal, config, log, health).run()


def resume_campaign(
    journal_path: Union[str, Path],
    config: Optional[ExecutorConfig] = None,
    log: Optional[Log] = None,
    store_path: Optional[str] = None,
    store_policy: Optional[str] = None,
    health: Optional[HealthMonitor] = None,
) -> CampaignOutcome:
    """Continue a journaled campaign using the spec in its header.

    ``store_path`` / ``store_policy`` override the header's store
    knobs for this resume only.  That is always safe: both are
    execution fields excluded from the grid fingerprint, so attaching
    a store to (or detaching one from) an old journal never changes
    which campaign it is.
    """
    journal = CampaignJournal(Path(journal_path))
    spec = journal.load_spec()
    overrides: Dict[str, Optional[str]] = {}
    if store_path is not None:
        overrides["store_path"] = store_path
    if store_policy is not None:
        overrides["store_policy"] = store_policy
    if overrides:
        spec = replace(spec, **overrides)
    return CampaignScheduler(spec, journal, config, log, health).run()


@dataclass(frozen=True)
class CampaignStatus:
    """A read-only view of a journal for ``campaign status``."""

    spec: CampaignSpec
    total_units: int
    done_units: int
    per_kind: Dict[str, Tuple[int, int]]  # kind -> (done, total)
    #: Journaled units that came from the result store (``attempts==0``
    #: is the store-loaded marker) rather than execution.
    store_units: int = 0

    @property
    def complete(self) -> bool:
        return self.done_units >= self.total_units

    def describe(self) -> str:
        lines = [
            f"campaign {self.spec.name!r} "
            f"(fingerprint {self.spec.fingerprint()}): "
            f"{self.done_units}/{self.total_units} units done"
            + (" — complete" if self.complete else ""),
        ]
        for kind_name, (done, total) in self.per_kind.items():
            lines.append(f"  {kind_name:>13}: {done}/{total}")
        if self.spec.store_policy != "off" or self.store_units:
            lines.append(
                f"  result store: {self.store_units} of "
                f"{self.done_units} done units loaded from store "
                f"(policy {self.spec.store_policy}, "
                f"path {self.spec.store_path or 'unset'})"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (``campaign status --json``)."""
        return {
            "name": self.spec.name,
            "fingerprint": self.spec.fingerprint(),
            "backend": self.spec.backend,
            "total_units": self.total_units,
            "done_units": self.done_units,
            "complete": self.complete,
            "per_kind": {
                kind: {"done": done, "total": total}
                for kind, (done, total) in self.per_kind.items()
            },
            "store": {
                "path": self.spec.store_path,
                "policy": self.spec.store_policy,
                "units_from_store": self.store_units,
            },
        }


def campaign_status(
    journal_path: Union[str, Path]
) -> CampaignStatus:
    journal = CampaignJournal(Path(journal_path))
    spec = journal.load_spec()
    units = spec.units()
    records: List[JournalRecord] = journal.load_records()
    done_keys = {record.key for record in records}
    store_keys = {
        record.key for record in records if record.attempts == 0
    }
    per_kind: Dict[str, Tuple[int, int]] = {}
    for kind in spec.kind_members:
        kind_units = [u for u in units if u.kind is kind]
        done = sum(1 for u in kind_units if u.key in done_keys)
        per_kind[kind.name] = (done, len(kind_units))
    return CampaignStatus(
        spec=spec,
        total_units=len(units),
        done_units=sum(done for done, _ in per_kind.values()),
        per_kind=per_kind,
        store_units=len(store_keys),
    )


def verify_order_independence(
    spec: CampaignSpec,
    workers: int = 2,
    log: Optional[Log] = None,
) -> None:
    """Assert a 1-worker and an N-worker run agree unit-for-unit.

    This is the executable form of the determinism contract; it raises
    :class:`CampaignError` on the first diverging unit.
    """
    serial = CampaignScheduler(
        spec, config=ExecutorConfig(workers=1), log=log
    ).run()
    parallel = CampaignScheduler(
        spec, config=ExecutorConfig(workers=workers), log=log
    ).run()
    for kind, serial_result in serial.results.items():
        parallel_result = parallel.results.get(kind)
        if parallel_result is None:
            raise CampaignError(
                f"parallel run is missing kind {kind.name}"
            )
        if serial_result.runs != parallel_result.runs:
            for left, right in zip(
                serial_result.runs, parallel_result.runs
            ):
                if left != right:
                    raise CampaignError(
                        f"order-independence violated for "
                        f"{left.test_name} on {left.device_name} in "
                        f"{left.environment.name}: serial "
                        f"kills={left.kills} vs parallel "
                        f"kills={right.kills}"
                    )
            raise CampaignError(
                f"order-independence violated for kind {kind.name}"
            )
    if log is not None:
        log(
            f"[campaign] determinism verified: 1-worker and "
            f"{workers}-worker runs identical "
            f"({spec.unit_count()} units)"
        )
