"""The service_mix workload: a closed-loop client against the daemon.

One client process (this one) runs two threads, each under its own
tenant and holding at most one connection at a time: submit a job,
follow its SSE stream to the terminal event, repeat.  Requests go
through the program's own ``repro.service.client.ServiceClient``, the
path ``repro service submit/watch`` takes.  Every fourth job
of a thread resubmits that thread's job from three submissions
earlier, which the tenant's result store then serves entirely.
"""

import hashlib
import json
import random
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import procs

THREADS = 2
JOBS_PER_THREAD = 150
#: Job grid: PTE × one device × MUTANTS mutants × ENVS environments.
MUTANTS = 8
ENVS = 8
DEVICES = ("NVIDIA", "AMD", "Intel", "M1")
RESUBMIT_EVERY = 4
#: Seconds to wait for a daemon to bind, and for one job.
START_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0


@dataclass
class Job:
    thread: int
    index: int
    payload: Dict[str, Any]
    resubmits: Optional[int] = None
    job_id: str = ""
    state: str = "refused"
    latency: float = 0.0
    submit_s: float = 0.0
    last_progress_utc: Optional[float] = None
    terminal_utc: Optional[float] = None
    error: str = ""


@dataclass
class Plan:
    """The warm-up job and each thread's submissions, from a seed."""

    warmup: Dict[str, Any]
    #: Per thread: (spec payload, index of the job it resubmits or None).
    threads: List[List[Tuple[Dict[str, Any], Optional[int]]]]

    def jobs(self) -> List[List[Job]]:
        return [
            [
                Job(thread, index, payload, source)
                for index, (payload, source) in enumerate(submissions)
            ]
            for thread, submissions in enumerate(self.threads)
        ]


def plan(seed: int) -> Plan:
    """Generate the workload's job specs from ``seed``."""
    from repro.campaign import paper_spec
    from repro.mutation import default_suite

    names = [mutant.name for mutant in default_suite().mutants]
    rng = random.Random(seed)
    seeds = set()

    def spec() -> Dict[str, Any]:
        job_seed = rng.randrange(1, 2**31)
        while job_seed in seeds:
            job_seed = rng.randrange(1, 2**31)
        seeds.add(job_seed)
        picked = sorted(rng.sample(range(len(names)), MUTANTS))
        return paper_spec(
            tuple(names[i] for i in picked),
            environment_count=ENVS,
            seed=job_seed,
            kinds=("PTE",),
            device_names=(rng.choice(DEVICES),),
            name="service-mix",
            store_policy="reuse",
        ).to_dict()

    warmup = spec()
    threads = []
    for _ in range(THREADS):
        submissions: List[Tuple[Dict[str, Any], Optional[int]]] = []
        for index in range(JOBS_PER_THREAD):
            if index % RESUBMIT_EVERY == RESUBMIT_EVERY - 1:
                source = index - (RESUBMIT_EVERY - 1)
                submissions.append((submissions[source][0], source))
            else:
                submissions.append((spec(), None))
        threads.append(submissions)
    return Plan(warmup, threads)


def run_job(client: Any, payload: Dict[str, Any], tenant: str, job: Job) -> None:
    """Submit one job and follow it to its terminal event.

    A stream that ends early leaves the job in a non-terminal state,
    which ``check`` reports.
    """
    from repro.service.client import ServiceClientError

    started = time.monotonic()
    try:
        reply = client.submit(payload, tenant=tenant)
        job.submit_s = time.monotonic() - started
        job.job_id = reply["job_id"]
        for event in client.watch(job.job_id):
            if event["event"] == "progress":
                job.last_progress_utc = event["utc"]
            job.state = event["event"]
            job.terminal_utc = event["utc"]
    except ServiceClientError as error:
        job.error = str(error)
        job.state = "refused" if not job.job_id else "broken"
    job.latency = time.monotonic() - started


class Daemon:
    """One daemon process and its service root."""

    def __init__(self, work: Path, traced: bool) -> None:
        self.root = work / "service"
        self.store_root = work / "stores"
        self.spans = work / "daemon_spans.jsonl"
        self.root.mkdir(parents=True)
        if traced:
            argv = procs.python(
                "daemon.py", "--root", self.root,
                "--store-root", self.store_root, "--spans", self.spans,
            )
        else:
            argv = [
                sys.executable, "-m", "repro", "service", "start",
                "--root", str(self.root), "--workers", "1",
                "--store-root", str(self.store_root),
            ]
        self.process = procs.Process(argv, work / "daemon.log")
        self.client = self._connect()

    def _connect(self) -> Any:
        from repro.service.client import ServiceClient, ServiceClientError

        deadline = time.monotonic() + START_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {self.process.code}:\n"
                    f"{self.process.tail()}"
                )
            try:
                return ServiceClient(root=self.root, timeout=JOB_TIMEOUT)
            except ServiceClientError:
                pass
            if time.monotonic() > deadline:
                self.process.kill()
                raise RuntimeError("daemon did not start")
            time.sleep(0.005)

    def stop(self) -> None:
        """Request a graceful shutdown and reap the daemon."""
        from repro.service.client import ServiceClientError

        try:
            self.client.shutdown()
        except ServiceClientError:
            pass
        self.process.wait(START_TIMEOUT)

    def job_stats(self, job_id: str) -> bytes:
        return (self.root / "jobs" / job_id / "pte.json").read_bytes()


def start(work: Path, warmup: Dict[str, Any], traced: bool) -> Tuple[Daemon, float]:
    """Start a daemon and run the warm-up job; returns set-up seconds."""
    work.mkdir(parents=True)
    daemon = Daemon(work, traced)
    try:
        job = Job(-1, 0, warmup)
        run_job(daemon.client, warmup, "warmup", job)
        setup = time.monotonic() - daemon.process.started
        if job.state != "done":
            raise RuntimeError(
                f"warm-up job ended {job.state}: {job.error}"
            )
    except BaseException:
        daemon.process.kill()
        raise
    return daemon, setup


@dataclass
class Round:
    threads: List[List[Job]]
    wall: float
    setup: float
    rss_kb: int
    described: Dict[str, Dict[str, Any]]
    stats: Dict[str, bytes]
    metrics_jsonl: str = ""
    timed: Tuple[float, float] = (0.0, 0.0)
    daemon_spans: Optional[Path] = None

    @property
    def jobs(self) -> List[Job]:
        return [job for thread in self.threads for job in thread]


def closed_loop(work: Path, jobs_plan: Plan, traced: bool) -> Round:
    """Start a daemon, then drive every thread's jobs through it."""
    threads = jobs_plan.jobs()
    daemon, setup = start(work, jobs_plan.warmup, traced)
    try:
        barrier = threading.Barrier(len(threads) + 1)

        def drive(jobs: List[Job]) -> None:
            barrier.wait()
            for job in jobs:
                run_job(daemon.client, job.payload, f"tenant{job.thread}", job)

        workers = [
            threading.Thread(target=drive, args=(jobs,), daemon=True)
            for jobs in threads
        ]
        for worker in workers:
            worker.start()
        barrier.wait()
        started = time.monotonic()
        for worker in workers:
            worker.join()
        ended = time.monotonic()
        described = {entry["job_id"]: entry for entry in daemon.client.jobs()}
        stats = {
            job.job_id: daemon.job_stats(job.job_id)
            for thread in threads
            for job in thread
            if job.state == "done"
        }
        metrics = daemon.client.metrics_jsonl_text() if traced else ""
    finally:
        daemon.stop()
    return Round(
        threads=threads,
        wall=ended - started,
        setup=setup,
        rss_kb=daemon.process.rss_kb,
        described=described,
        stats=stats,
        metrics_jsonl=metrics,
        timed=(started, ended),
        daemon_spans=daemon.spans if traced else None,
    )


def setup_probe(work: Path, warmup: Dict[str, Any]) -> float:
    daemon, setup = start(work, warmup, traced=False)
    daemon.stop()
    return setup


def check(round_: Round) -> List[str]:
    """Seed-independent checks: every job done, every resubmission
    served wholly by the store and byte-identical to its source."""
    problems = []
    for thread in round_.threads:
        for job in thread:
            if job.state != "done":
                problems.append(
                    f"job {job.thread}/{job.index} ended {job.state} "
                    f"{job.error}".strip()
                )
                continue
            if job.resubmits is None:
                continue
            entry = round_.described.get(job.job_id, {})
            if entry.get("cached") != entry.get("total"):
                problems.append(
                    f"resubmitted job {job.job_id}: cached "
                    f"{entry.get('cached')} of {entry.get('total')}"
                )
            source = thread[job.resubmits]
            if round_.stats.get(job.job_id) != round_.stats.get(
                source.job_id
            ):
                problems.append(
                    f"resubmitted job {job.job_id} stats differ from "
                    f"{source.job_id}"
                )
    return problems


def digest(round_: Round) -> str:
    """SHA-256 over every job's stats, in submission order."""
    hasher = hashlib.sha256()
    for job in round_.jobs:
        hasher.update(round_.stats.get(job.job_id, b"missing"))
    return hasher.hexdigest()


def units(round_: Round) -> int:
    """Units delivered by the timed jobs, executed or from the store."""
    return sum(
        round_.described[job.job_id]["done"]
        for job in round_.jobs
        if job.job_id in round_.described
    )


def families(metrics_jsonl: str) -> Dict[str, List[Dict[str, Any]]]:
    out: Dict[str, List[Dict[str, Any]]] = {}
    for line in metrics_jsonl.splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        if "name" in entry:
            out.setdefault(entry["name"], []).append(entry)
    return out
