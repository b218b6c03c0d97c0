"""Starting and reaping the program's processes.

Every process is reaped with ``wait4`` so its peak RSS is read from
the kernel: for a process that itself waited for children (the daemon
and its pool worker), the figure is the largest of them.  (A workload
child reports its own peak at the end of its timed phase instead, since
it may run a check afterwards.)
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


def program_env() -> Dict[str, str]:
    """The environment the program runs in: sources on the path and no
    ``REPRO_*`` knobs (fault injection, ledger) leaking in."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


class Process:
    """A started program process whose output goes to a log file."""

    def __init__(self, argv: List[str], log: Path) -> None:
        self.argv = argv
        self.log = log
        self.started = time.monotonic()
        with open(log, "wb") as handle:
            self.popen = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=program_env(),
                stdin=subprocess.DEVNULL,
                stdout=handle,
                stderr=subprocess.STDOUT,
            )
        self.code: Optional[int] = None
        self.rss_kb = 0

    @property
    def pid(self) -> int:
        return self.popen.pid

    def poll(self) -> Optional[int]:
        if self.code is None:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid == self.pid:
                self._reaped(status, usage)
        return self.code

    def _reaped(self, status: int, usage) -> None:
        self.code = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        self.popen.returncode = self.code

    def wait(self, timeout: float) -> int:
        """Reap the process, killing it if it outlives ``timeout`` or
        the wait is interrupted."""
        deadline = time.monotonic() + timeout
        try:
            while self.poll() is None:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"{' '.join(self.argv)} did not finish in "
                        f"{timeout:.0f}s; log: {self.log}"
                    )
                time.sleep(0.01)
        finally:
            self.kill()
        return self.code

    def kill(self) -> None:
        if self.code is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _, status, usage = os.wait4(self.pid, 0)
            self._reaped(status, usage)

    def tail(self, lines: int = 20) -> str:
        try:
            text = self.log.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def run(argv: List[str], log: Path, timeout: float) -> Process:
    """Run a process to completion; raise if it fails."""
    process = Process(argv, log)
    code = process.wait(timeout)
    if code != 0:
        raise RuntimeError(
            f"{' '.join(argv)} exited {code}:\n{process.tail()}"
        )
    return process


def python(script: str, *args: object) -> List[str]:
    return [sys.executable, str(HERE / script)] + [str(a) for a in args]
