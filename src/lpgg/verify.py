"""Verification suites: every stated identity, checked mechanically.

Each suite returns a :class:`~lpgg.reporting.VerificationReport` whose
checks are exact wherever the claim is exact.  Every suite works over
the exact backend.  Each check feeds its samples to
:meth:`~lpgg.reporting.VerificationReport.check` (or ``check_group``),
which alone decides the status.  A sample reports whether the claim held
as stated or only as corrected, and each corrected sample checks the
value its details state: a claim that needs its correction somewhere is
``pass-corrected``, one that holds neither way is ``fail``.  Random
sampling is seeded and reproducible.  ``n_max`` bounds every size a check
examines, a frame's n+1 and a signature's p+q alike
(:func:`~lpgg.verify_draws._sizes`); a check left with no size reports
``skipped``.  Only the atlas suite keeps its own stated levels.

Each suite lives in its own module, ``verify_<suite>``, and the draws
and size rule they share in :mod:`~lpgg.verify_draws`, so that no import
compiles all of them as one module.  This module imports all seven at
load, so forked workers inherit them, and dispatches by name.
"""
from __future__ import annotations

import marshal
import os

from . import DEFAULT_N_MAX, DEFAULT_SEED, SUITES
from .reporting import CheckResult, VerificationReport, merge_reports
from .verify_atlas import suite_atlas
from .verify_calculus import suite_calculus
from .verify_core import suite_core
from .verify_frame import suite_frame
from .verify_simplex import suite_simplex
from .verify_spectral import suite_spectral
from .verify_star import suite_star

SUITE_FUNCTIONS = {
    "core": suite_core,
    "frame": suite_frame,
    "star": suite_star,
    "calculus": suite_calculus,
    "spectral": suite_spectral,
    "simplex": suite_simplex,
    "atlas": suite_atlas,
}

# The order in which run_suite("all") hands the suites to its workers:
# longest first, by the per-suite times measured in process
# (``suites_in_process`` in BENCH_26.json), so no long suite starts last.
SCHEDULE = ("core", "spectral", "frame", "star", "calculus", "simplex", "atlas")


class SuiteWorkerError(RuntimeError):
    """A suite of ``run_suite("all")`` raised in its worker, a worker exited
    with a nonzero status, or a suite's report never came back."""


def run_suite(name: str, n_max: int = DEFAULT_N_MAX,
              seed: int = DEFAULT_SEED) -> VerificationReport:
    """One suite's report; ``"all"`` merges the seven in ``SUITES`` order.

    ``"all"`` runs the suites in forked workers (:func:`_run_in_workers`)
    where the platform has ``os.fork``, and in order in this process where
    it has not.  Every suite seeds its own generator and no module keeps a
    cache, so either way the merged report is the one the suites give run
    in order; each check keeps its ``samples``.  A suite that raises in its
    worker, or a worker that dies, raises :class:`SuiteWorkerError` once
    every worker has been reaped; it names the suite and its
    ``Type: message``, or the exit statuses and the missing suites.
    """
    if name == "all":
        if hasattr(os, "fork"):
            checks = _run_in_workers(n_max, seed)
            reports = [VerificationReport(suite, seed, [CheckResult(*c) for c in checks[suite]])
                       for suite in SUITES]
        else:
            reports = [run_suite(suite, n_max, seed) for suite in SUITES]
        return merge_reports("all", seed, reports)
    if name not in SUITE_FUNCTIONS:
        raise KeyError(name)
    return SUITE_FUNCTIONS[name](n_max=n_max, seed=seed)


def _run_in_workers(n_max, seed):
    """``{suite: [(name, claim, status, details, samples), ...]}`` of the
    seven suites.

    The indices into ``SCHEDULE`` wait in one pipe, in order.  Each of
    ``min(usable CPUs, 7)`` forked workers reads it one byte at a time until
    EOF; a 1-byte pipe read is atomic, so each suite goes to exactly one
    worker, and a free worker takes the longest suite left.  Each worker
    returns its results through its own pipe with the built-in ``marshal``,
    so this process loads no pool module, pickles nothing and starts no
    thread; a suite that raised comes back as its ``Type: message``.  It
    reaps every worker, also when a fork or a read fails.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    schedule, queued = os.pipe()
    with open(queued, "wb") as stream:
        stream.write(bytes(range(len(SCHEDULE))))
    pids, streams = [], []
    try:
        for _ in range(min(cpus, len(SUITES))):
            read_end, write_end = os.pipe()
            streams.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(schedule, write_end, n_max, seed)
            finally:
                os.close(write_end)
            pids.append(pid)
        outputs = [stream.read() for stream in streams]
    finally:
        os.close(schedule)
        for stream in streams:
            stream.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    checks = {}
    for code, output in zip(codes, outputs):
        if code == 0:
            checks.update(marshal.loads(output))
    raised = [f"suite {suite} raised {error}" for suite, error in checks.items()
              if isinstance(error, str)]
    missing = [suite for suite in SUITES if suite not in checks]
    if raised or missing or any(codes):
        raise SuiteWorkerError("; ".join(raised) or f"worker exit statuses {codes}, "
                               f"missing suites: {', '.join(missing) or 'none'}")
    return checks


def _work(schedule, out, n_max, seed):
    """A forked worker: run suites from ``schedule`` until EOF, write their
    results, or the ``Type: message`` of a suite that raised, to ``out``,
    and exit, 0 only if all of that held.  It never returns into the
    caller's frames or flushes the caller's buffers."""
    code = 1
    try:
        results = []
        while index := os.read(schedule, 1):
            suite = SCHEDULE[index[0]]
            try:
                checks = [(c.name, c.claim, c.status, c.details, c.samples)
                          for c in run_suite(suite, n_max, seed).checks]
            except Exception as exc:
                checks = f"{type(exc).__name__}: {exc}"
            results.append((suite, checks))
        with open(out, "wb") as stream:
            marshal.dump(results, stream)
        code = 0
    finally:
        os._exit(code)
