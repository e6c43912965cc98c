"""Check results and verification reports shared by the suites and CLI."""

from __future__ import annotations

from contextlib import contextmanager

PASS = "pass"
PASS_CORRECTED = "pass-corrected"
FAIL = "fail"
SKIPPED = "skipped"

STATUSES = (PASS, PASS_CORRECTED, FAIL, SKIPPED)


class CheckResult:
    """One check's outcome and its sample count, which ``to_json`` leaves out."""

    def __init__(self, name: str, claim: str, status: str, details: str = "", samples: int = 0):
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.name = name
        self.claim = claim
        self.status = status
        self.details = details
        self.samples = samples

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "status": self.status,
            "details": self.details,
        }


class Check:
    """Samples of one claim; ``check(ok, witness, stated=None)`` records one.

    ``ok`` says the sample held, as stated or as corrected; ``stated``
    says it held as stated, and defaults to true only for a check declared
    without a correction.  The outcome is decided once, in :meth:`result`:
    an exception from the check's body gives ``fail`` with
    ``Type: message``; a sample that held neither way gives ``fail`` with
    the first such witness; no samples at all give ``skipped``; a sample
    that needed the correction gives ``pass-corrected``; otherwise
    ``pass``.  ``details`` starts as the correction text, which a ``pass``
    drops, and may be replaced by a computed note; a ``skipped`` check
    examined nothing, so it has no details.
    """

    def __init__(self, name, claim, corrected=None):
        self.name = name
        self.claim = claim
        self.corrected = corrected
        self.details = corrected or ""
        self.samples = 0
        self.needed_correction = False
        self.witness = None

    def __call__(self, ok, witness="", stated=None):
        self.samples += 1
        if stated is None:
            stated = self.corrected is None
        if not ok:
            if self.witness is None:
                self.witness = witness
        elif not stated:
            self.needed_correction = True

    def result(self, error=None) -> CheckResult:
        if error is not None:
            status, details = FAIL, f"{type(error).__name__}: {error}"
        elif self.witness is not None:
            status, details = FAIL, self.witness
        elif not self.samples:
            status, details = SKIPPED, ""
        elif self.needed_correction:
            status, details = PASS_CORRECTED, self.details
        else:
            status = PASS
            details = "" if self.details == self.corrected else self.details
        return CheckResult(self.name, self.claim, status, details, self.samples)


class VerificationReport:
    def __init__(self, suite: str, seed: int, checks: list[CheckResult] | None = None):
        self.suite = suite
        self.seed = seed
        self.checks = [] if checks is None else checks

    @contextmanager
    def check_group(self, *specs):
        """Run checks that share one body; each spec is (name, claim[, corrected]).

        The results are appended in spec order when the body ends.  An
        exception in the body fails every check of the group, and the
        suite goes on with its next check.
        """
        group = [Check(*spec) for spec in specs]
        error = None
        try:
            yield group
        except Exception as exc:
            error = exc
        self.checks.extend(check.result(error) for check in group)

    @contextmanager
    def check(self, name, claim, corrected=None):
        """Run one check; see :class:`Check` for how its status is decided."""
        with self.check_group((name, claim, corrected)) as (check,):
            yield check

    def counts(self) -> dict:
        out = {status: 0 for status in STATUSES}
        for check in self.checks:
            out[check.status] += 1
        return out

    @property
    def corrected(self) -> bool:
        return any(check.status == PASS_CORRECTED for check in self.checks)

    @property
    def failed(self) -> bool:
        return any(check.status == FAIL for check in self.checks)

    def exit_code(self) -> int:
        """1 when anything failed, else 0 (corrected results still pass)."""
        return 1 if self.failed else 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "checks": [check.to_json() for check in self.checks],
            "summary": {
                **self.counts(),
                "corrected": self.corrected,
                "exit_code": self.exit_code(),
            },
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite} (seed {self.seed})"]
        for check in self.checks:
            line = f"  [{check.status:>14s}] {check.name}: {check.claim}"
            if check.details:
                line += f"  -- {check.details}"
            lines.append(line)
        counts = self.counts()
        lines.append(
            "  summary: "
            + ", ".join(f"{k}={v}" for k, v in counts.items() if v)
            + f", exit={self.exit_code()}"
        )
        return "\n".join(lines)


def merge_reports(suite: str, seed: int, reports) -> VerificationReport:
    merged = VerificationReport(suite, seed)
    for report in reports:
        for check in report.checks:
            merged.checks.append(
                CheckResult(
                    f"{report.suite}/{check.name}",
                    check.claim,
                    check.status,
                    check.details,
                    check.samples,
                )
            )
    return merged
