"""Fixtures shared by the test modules."""

import os

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
