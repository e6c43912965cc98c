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

import os

from . import DEFAULT_N_MAX, DEFAULT_SEED, SUITES
from .reporting import VerificationReport, merge_reports
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

# The order in which run_suite("all") submits the suites to its workers:
# longest first, by the per-suite times measured in process
# (``suites_in_process`` in BENCH_26.json), so no long suite starts last.
SCHEDULE = ("core", "spectral", "frame", "star", "calculus", "simplex", "atlas")


def run_suite(name: str, n_max: int = DEFAULT_N_MAX,
              seed: int = DEFAULT_SEED) -> VerificationReport:
    """One suite's report; ``"all"`` merges the seven in ``SUITES`` order.

    ``"all"`` runs each suite in a worker process, one worker per usable
    CPU and at most one per suite, submitted in ``SCHEDULE`` order and
    collected in ``SUITES`` order.  Every suite seeds its own generator
    and no module keeps a cache, so the merged report is the one the
    suites give run in order.  Workers are forked where the platform can,
    so they inherit the modules as the caller left them; the pool starts
    its threads only after its forks.  A worker that dies raises
    ``BrokenProcessPool``.  The pool modules are imported here, so that
    importing this module loads none of them.
    """
    if name == "all":
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        with ProcessPoolExecutor(min(cpus, len(SUITES)), mp_context=context) as pool:
            futures = {suite: pool.submit(run_suite, suite, n_max, seed)
                       for suite in SCHEDULE}
            reports = [futures[suite].result() for suite in SUITES]
        return merge_reports("all", seed, reports)
    if name not in SUITE_FUNCTIONS:
        raise KeyError(name)
    return SUITE_FUNCTIONS[name](n_max=n_max, seed=seed)
