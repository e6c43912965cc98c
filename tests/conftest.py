"""Shared fixtures.

``suite_report`` builds each ``verify.run_suite(suite, n_max, seed)``
report once per test session, and ``suite_evidence`` hands out the
per-check samples recorded while that same build ran.  Tests that patch
or wrap the suites call ``verify.run_suite`` themselves, so their runs
never reach the memo.
"""

import copy

import pytest

from lpgg import reporting, verify


def build_with_evidence(suite, n_max, seed):
    """The report of ``verify.run_suite(suite, n_max, seed)`` and, for a
    single suite, ``{check name: (samples, claim)}`` of its checks, recorded
    through ``Check.result``.  ``"all"`` runs its suites in worker
    processes, where the counts would be lost, so it records none."""
    table = {}
    if suite == "all":
        return verify.run_suite(suite, n_max=n_max, seed=seed), table
    result = reporting.Check.result

    def recorded(check, error=None):
        assert check.name not in table, check.name
        table[check.name] = check.samples, check.claim
        return result(check, error)

    reporting.Check.result = recorded
    try:
        report = verify.run_suite(suite, n_max=n_max, seed=seed)
    finally:
        reporting.Check.result = result
    return report, table


@pytest.fixture(scope="session")
def built_suites():
    """``built(suite, n_max, seed)``: the memoized ``build_with_evidence``."""
    built = {}

    def build(suite, n_max, seed):
        key = suite, n_max, seed
        if key not in built:
            built[key] = build_with_evidence(*key)
        return built[key]

    return build


@pytest.fixture(scope="session")
def suite_report(built_suites):
    """``suite_report(suite, n_max=DEFAULT_N_MAX, seed=DEFAULT_SEED)``: the
    report of ``verify.run_suite``, built on first use and handed out as a
    copy, so a test that changes its report leaves the memo as it was."""
    def report(suite, n_max=verify.DEFAULT_N_MAX, seed=verify.DEFAULT_SEED):
        return copy.deepcopy(built_suites(suite, n_max, seed)[0])

    return report


@pytest.fixture(scope="session")
def suite_evidence(built_suites):
    """``suite_evidence(suite, n_max, seed)``: ``{check name: (samples,
    claim)}`` of the memoized build of one suite, as a copy."""
    def evidence(suite, n_max, seed):
        return dict(built_suites(suite, n_max, seed)[1])

    return evidence
