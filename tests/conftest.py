"""Shared fixtures.

``suite_report`` builds each ``verify.run_suite(suite, n_max, seed)``
report once per test session; each of its checks carries the samples it
examined.  Tests that patch or wrap the suites call ``verify.run_suite``
themselves, so their runs never reach the memo.  ``forked`` records the
children ``os.fork`` makes while a test runs.
"""

import copy
import os

import pytest

from lpgg import verify


@pytest.fixture(scope="session")
def suite_report():
    """``suite_report(suite, n_max=DEFAULT_N_MAX, seed=DEFAULT_SEED)``: the
    report of ``verify.run_suite``, built on first use and handed out as a
    copy, so a test that changes its report leaves the memo as it was."""
    built = {}

    def report(suite, n_max=verify.DEFAULT_N_MAX, seed=verify.DEFAULT_SEED):
        key = suite, n_max, seed
        if key not in built:
            built[key] = verify.run_suite(suite, n_max=n_max, seed=seed)
        return copy.deepcopy(built[key])

    return report


@pytest.fixture
def forked(monkeypatch):
    """The pids ``os.fork`` returns to this process during the test, in
    fork order; ``os.fork`` is wrapped to record them."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids
