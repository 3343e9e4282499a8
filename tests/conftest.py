"""Fixtures and the child-process helper shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from circorbits import oracle


class Shares:
    """Deals verify_range's graphs to a forced number of processes.

    force(k) makes os.sched_getaffinity report k usable CPUs and the
    break-even work 0, so any sweep of at least k graphs forks k - 1
    workers, on any runner. Forked workers inherit every monkeypatch.
    `forked` lists the pids forked since the last force().
    """

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.forked = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                self.forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)

    def force(self, k):
        self.monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        self.monkeypatch.setattr(oracle, "_FORK_MIN_WORK", 0)
        self.forked.clear()

    @staticmethod
    def assert_reaped():
        """This process has no child left, running or unreaped."""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def shares(monkeypatch):
    return Shares(monkeypatch)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str, env: dict | None = None, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -S *args` in a child that imports circorbits from the checkout's src.

    -S keeps site-packages .pth files from importing modules first, and hides
    every installed package. The child gets -O when this process runs under
    -O. Its environment is this one with PYTHONPATH set to src, without
    CIRCORBITS_BUDGET or COLUMNS, so what a command refuses and how wide
    argparse writes do not depend on the caller; env is added on top.
    kwargs go to subprocess.run, which captures stdout and stderr as bytes.
    """
    child_env = {k: v for k, v in os.environ.items() if k not in ("CIRCORBITS_BUDGET", "COLUMNS")}
    child_env.update(env or {}, PYTHONPATH=str(SRC))
    flags = ["-S", *["-O"] * sys.flags.optimize]
    return subprocess.run([sys.executable, *flags, *args], env=child_env, capture_output=True,
                          **kwargs)
