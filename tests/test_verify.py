import ast
import bisect
import hashlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import lpgg
import pinned_reports
from lpgg import (Algebra, atlas, calculus, frames, simplex, spectral, verify, verify_core,
                  verify_draws)
from lpgg.reporting import CheckResult, VerificationReport


@pytest.mark.parametrize("suite", verify.SUITES)
def test_each_suite_is_green(suite, suite_report):
    for n_max in (2, 6):
        report = suite_report(suite, n_max, 123)
        assert not report.failed, (n_max, [
            c.name for c in report.checks if c.status == "fail"
        ])
        assert report.exit_code() == 0


def test_run_all_merges_and_prefixes(suite_report):
    report = suite_report("all", 4, 9)
    assert report.suite == "all"
    assert any(c.name.startswith("core/") for c in report.checks)
    assert any(c.name.startswith("atlas/") for c in report.checks)
    assert report.corrected
    assert report.exit_code() == 0
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pinned_reports.SEED_9_N_MAX_4


def in_order(suite_report, n_max, seed):
    """The seven suites' reports, each built in this process, merged in order."""
    return verify.merge_reports("all", seed, [
        suite_report(suite, n_max, seed) for suite in verify.SUITES])


def samples(report):
    return [(c.name, c.samples) for c in report.checks]


def suite_samples(suite_report, n_max, seed):
    """``samples`` of the merged report, read off the seven suites' own
    reports, so no step of the merge can lose them on both sides."""
    expected = [(f"{suite}/{c.name}", c.samples) for suite in verify.SUITES
                for c in suite_report(suite, n_max, seed).checks]
    assert sum(count for _, count in expected) > 0
    return expected


def test_default_seed_report_at_n_max_4_is_pinned(suite_report):
    """The seed-2024 report at n_max = 4, merged from the memoized suites
    (``run_suite("all")`` equals it, as the next test checks)."""
    text = json.dumps(in_order(suite_report, 4, 2024).to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pinned_reports.SEED_2024_N_MAX_4


@pytest.mark.parametrize("n_max, seed", [
    (4, 1), (4, 7), (4, 2024), (verify.DEFAULT_N_MAX, 2024)])
def test_all_in_workers_equals_the_suites_in_order(n_max, seed, suite_report, forked):
    """Forked, the merged report is the suites' in order, and each check
    keeps the samples it examined.  At the default n_max only the default
    seed runs: its seven suites are built for other tests anyway."""
    report = verify.run_suite("all", n_max=n_max, seed=seed)
    assert len(forked) == min(len(os.sched_getaffinity(0)), len(verify.SUITES))
    for pid in forked:  # every worker has been reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert report.to_json() == in_order(suite_report, n_max, seed).to_json()
    assert samples(report) == suite_samples(suite_report, n_max, seed)
    assert report.checks == in_order(suite_report, n_max, seed).checks


def test_one_usable_cpu_runs_every_suite_in_one_worker(monkeypatch, suite_report, forked):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    report = verify.run_suite("all", n_max=4, seed=7)
    assert len(forked) == 1
    assert report.to_json() == in_order(suite_report, 4, 7).to_json()
    assert report.checks == in_order(suite_report, 4, 7).checks


def test_without_fork_the_suites_run_in_process(monkeypatch, suite_report):
    monkeypatch.delattr(os, "fork")
    report = verify.run_suite("all", n_max=4, seed=7)
    assert report.to_json() == in_order(suite_report, 4, 7).to_json()
    assert report.checks == in_order(suite_report, 4, 7).checks


@pytest.mark.parametrize("n_max", [4, verify.DEFAULT_N_MAX])
def test_all_carries_the_sample_counts_of_the_suites_in_order(n_max, monkeypatch,
                                                               suite_report):
    """Forked, on one usable CPU and without fork, each check of the merged
    report keeps the samples it examined."""
    expected = suite_samples(suite_report, n_max, 2024)
    assert samples(verify.run_suite("all", n_max=n_max, seed=2024)) == expected
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert samples(verify.run_suite("all", n_max=n_max, seed=2024)) == expected
    monkeypatch.delattr(os, "fork")
    assert samples(verify.run_suite("all", n_max=n_max, seed=2024)) == expected


def test_schedule_is_a_permutation_of_the_suites():
    assert sorted(verify.SCHEDULE) == sorted(verify.SUITES)


def statuses(report):
    return {c.name: c.status for c in report.checks}


def test_empty_size_range_is_skipped(suite_report):
    frame = statuses(suite_report("frame", 1))
    assert frame["frame-axioms"] == "skipped"
    assert frame["multiplication-tables"] == "skipped"
    assert frame["transition-3"] == "skipped"
    calculus = statuses(suite_report("calculus", 1))
    assert calculus["gradient-of-x"] == "skipped"


@pytest.mark.parametrize("suite, n_max, name", [
    ("frame", 4, "transition-8"),
    ("spectral", 2, "spectral-idempotents"),
])
def test_skipped_check_states_no_finding(suite, n_max, name, suite_report):
    check = {c.name: c for c in suite_report(suite, n_max).checks}[name]
    assert (check.status, check.details) == ("skipped", "")


def test_spectral_suite_decides_degeneracy_once_per_operator(monkeypatch, suite_report):
    """``spectral-idempotents`` leaves the double-root test to
    ``spectral_decompose``: one discriminant pass per operator it draws."""
    drawn, passes = [], []
    discriminants = spectral.discriminants

    class CountedOperator(spectral.BivectorOperator):
        def __init__(self, *args):
            super().__init__(*args)
            drawn.append(self)

    def counted(op):
        passes.append(op)
        return discriminants(op)

    expected = suite_report("spectral").to_json()
    monkeypatch.setattr(spectral, "BivectorOperator", CountedOperator)
    monkeypatch.setattr(spectral, "discriminants", counted)
    assert verify.run_suite("spectral").to_json() == expected
    assert len(passes) == len(drawn) >= 100
    assert all(p is op for p, op in zip(passes, drawn))


def test_nudged_negative_discriminant_fails_the_idempotents(monkeypatch):
    """A 10^-15 error in a negative D moves the complex-float idempotents
    by less than any float tolerance; the exact idempotents over i, built
    from that D, are no longer idempotent."""
    discriminants = spectral.discriminants

    def nudged(op):
        claimed, derived = discriminants(op)
        if derived.as_fraction() < 0:
            derived = derived + Fraction(1, 10 ** 15)
        return claimed, derived

    monkeypatch.setattr(spectral, "discriminants", nudged)
    assert statuses(verify.run_suite("spectral"))["spectral-idempotents"] == "fail"


def test_pseudoscalar_claim_names_only_checked_cases(suite_report):
    def claim(n_max):
        report = suite_report("frame", n_max)
        return next(c.claim for c in report.checks
                    if c.name == "pseudoscalar-relation")

    assert claim(2).endswith("n = 1..1")
    assert claim(3).endswith("n = 1..2; the n = 2 case is -2 a1^a2^a3")


@pytest.mark.parametrize("suite", [s for s in verify.SUITES if s != "atlas"])
def test_no_size_above_n_max_is_built(suite, monkeypatch):
    # The core suite builds its G(p,q) by the name Algebra of its module,
    # and every other suite builds frames; each run from n_max = 2 up must
    # record one, so a wrapper that the suites no longer call fails here.
    built = []
    real_frame, real_algebra = frames.build_null_frame, verify_core.Algebra

    def frame(size, sign=1):
        built.append(("frame", size))
        return real_frame(size, sign)

    def algebra(p, q):
        built.append((f"G({p},{q})", p + q))
        return real_algebra(p, q)

    monkeypatch.setattr(frames, "build_null_frame", frame)
    monkeypatch.setattr(verify_core, "Algebra", algebra)
    for n_max in range(6):
        built.clear()
        verify.run_suite(suite, n_max=n_max)
        assert all(size <= n_max for _, size in built), (n_max, built)
        if n_max >= 2:
            assert any(kind.startswith("G(") if suite == "core" else kind == "frame"
                       for kind, _ in built), (n_max, built)


def test_periodicity_checked_through_ten_for_any_n_max(suite_report):
    assert statuses(suite_report("atlas", 0))[
        "eightfold-periodicity"] == "pass"


def test_raising_check_fails_and_suite_goes_on(monkeypatch):
    def broken(max_total=10):
        raise ArithmeticError("sign pattern broken")

    monkeypatch.setattr(atlas, "periodicity_classes", broken)
    report = verify.run_suite("atlas")
    by_name = {c.name: c for c in report.checks}
    assert by_name["eightfold-periodicity"].status == "fail"
    assert by_name["eightfold-periodicity"].details == (
        "ArithmeticError: sign pattern broken"
    )
    assert by_name["pair-sign-products"].status == "pass"
    assert report.exit_code() == 1


def test_check_status_rule():
    report = VerificationReport("demo", 1)
    with report.check("plain", "claim") as check:
        check(True, "w0")
    with report.check("fixed", "claim", "corrected text") as check:
        check(True)
    with report.check("false", "claim", "corrected text") as check:
        check(True, "w0")
        check(False, "w1")
        check(False, "w2")
    with report.check("empty", "claim"):
        pass
    with report.check_group(("first", "claim"), ("second", "claim")) as (a, b):
        a(True)
        b(True)
        raise ValueError("boom")
    with report.check("noted", "claim") as check:
        check(True)
        check.details = "computed note"
    with report.check("as-stated", "claim", "corrected text") as check:
        check(True, "w0", stated=True)
        check(True, "w1", stated=True)
    with report.check("once-corrected", "claim", "corrected text") as check:
        check(True, "w0", stated=True)
        check(True, "w1", stated=False)
        check(True, "w2", stated=True)
    assert [(c.name, c.status, c.details) for c in report.checks] == [
        ("plain", "pass", ""),
        ("fixed", "pass-corrected", "corrected text"),
        ("false", "fail", "w1"),
        ("empty", "skipped", ""),
        ("first", "fail", "ValueError: boom"),
        ("second", "fail", "ValueError: boom"),
        ("noted", "pass", "computed note"),
        ("as-stated", "pass", ""),
        ("once-corrected", "pass-corrected", "corrected text"),
    ]


def test_identity_failing_at_one_size_fails(monkeypatch):
    real = calculus.make_null_nabla

    def broken(frame):
        op = real(frame)
        return op.scale(2) if frame.size == 4 else op

    monkeypatch.setattr(calculus, "make_null_nabla", broken)
    report = verify.run_suite("calculus", n_max=4)
    by_name = {c.name: c for c in report.checks}
    assert by_name["null-laplacian"].status == "fail"
    assert by_name["null-laplacian"].details == "n+1 = 4"
    assert report.exit_code() == 1


def test_wrong_content_fails_content_forms(monkeypatch):
    real = simplex.content_null
    monkeypatch.setattr(simplex, "content_null", lambda frame: real(frame) * 2)
    report = verify.run_suite("simplex", n_max=4)
    by_name = {c.name: c for c in report.checks}
    assert by_name["content-forms"].status == "fail"
    assert by_name["content-forms"].details == "size 2"


def test_two_signs_in_one_class_fail_periodicity(monkeypatch):
    real = atlas.periodicity_classes

    def mixed(max_total):
        classes = real(max_total)
        classes[0] = {1, -1}
        return classes

    monkeypatch.setattr(atlas, "periodicity_classes", mixed)
    by_name = {c.name: c for c in verify.run_suite("atlas").checks}
    assert by_name["eightfold-periodicity"].status == "fail"
    assert by_name["eightfold-periodicity"].details == "8 classes"


def test_wrong_dual_sum_oracle_fails_its_corrections(monkeypatch):
    def wrong(frame):
        return 7, -5

    monkeypatch.setattr(calculus, "dual_sum_dot_oracle", wrong)
    monkeypatch.setattr(simplex, "dual_sum_dot_oracle", wrong, raising=False)
    calc = statuses(verify.run_suite("calculus", n_max=2))
    assert calc["dual-dot-dual"] == "fail"
    assert calc["dual-laplacian"] == "fail"
    simp = statuses(verify.run_suite("simplex", n_max=4))
    for name in ("laplacian-dual-laplacian-expansion-n2",
                 "laplacian-dual-laplacian-expansion-n3",
                 "laplacian-three-simplex-display-n3"):
        assert simp[name] == "fail", name


def test_simplex_laplacian_lines_follow_n_max(suite_report):
    # n_max bounds the frame size n+1, so the n = 3 lines need n_max >= 4.
    names = {n_max: [c.name for c in suite_report("simplex", n_max).checks]
             for n_max in (2, 3)}
    assert not any(name.endswith("-n3") for name in names[2])
    assert any(name.endswith("-n2") for name in names[3])
    assert not any(name.endswith("-n3") for name in names[3])


def test_range_claims_follow_n_max(suite_report):
    calc = {c.name: c.claim for c in suite_report("calculus", 3).checks}
    assert calc["gradient-of-x"] == "nabla x = n+1 exactly, n = 1..2"
    frame = {c.name: c.claim for c in suite_report("frame", 3).checks}
    assert "a_1^..^a_{n+1}, n = 1..2;" in frame["pseudoscalar-relation"]
    assert frame["k-sum-squares"].endswith("k = 2..3")
    core = {c.name: c.claim for c in suite_report("core", 2).checks}
    assert core["associativity"].endswith("p+q <= 2")
    for suite in verify.SUITE_FUNCTIONS.values():
        default = inspect.signature(suite).parameters["n_max"].default
        assert default == verify.DEFAULT_N_MAX, suite.__name__


def fresh_interpreter(code):
    """Standard output of ``code`` run by a new interpreter that imports this lpgg."""
    src = os.path.dirname(os.path.dirname(lpgg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_spectral_suite_does_not_import_numpy():
    assert fresh_interpreter(
        "import sys\n"
        "from lpgg import verify\n"
        "report = verify.run_suite('spectral')\n"
        "assert not report.failed\n"
        "print('numpy' in sys.modules)\n"
    ) == "False"


def test_importing_verify_loads_no_pool_module():
    # run_suite("all") forks its workers with os and reads their results with marshal.
    assert fresh_interpreter(
        "import sys\n"
        "from lpgg import verify\n"
        "verify.run_suite('all', n_max=2)\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'pickle')"
        " if m in sys.modules])\n"
    ) == "[]"


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        verify.run_suite("nope")


def test_exit_code_mapping():
    report = VerificationReport("demo", 1)
    with report.check("a", "claim") as check:
        check(True)
    assert report.exit_code() == 0 and not report.corrected
    with report.check("b", "claim", "corrected text") as check:
        check(True)
    assert report.exit_code() == 0 and report.corrected
    with report.check("c", "claim") as check:
        check(False)
    assert report.exit_code() == 1
    with pytest.raises(ValueError):
        CheckResult("d", "claim", "bogus")


def test_report_json_shape(suite_report):
    report = suite_report("atlas", seed=5)
    payload = report.to_json()
    assert payload["suite"] == "atlas"
    assert payload["seed"] == 5
    assert {"pass", "pass-corrected", "fail", "skipped", "corrected",
            "exit_code"} <= set(payload["summary"])
    for check in payload["checks"]:
        assert {"name", "claim", "status", "details"} == set(check)


def fraction_multivector(algebra, rng, terms):
    """The sampler's reference: the same draws as ``Fraction`` values,
    built by ``Algebra.multivector``."""
    coeffs = {}
    for _ in range(terms):
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        coeffs[rng.randrange(algebra.dim)] = value
    return algebra.multivector(coeffs)


@pytest.mark.parametrize("algebra", [
    Algebra(1, 2), Algebra(2, 2), Algebra(1, 3), frames.build_null_frame(8, 1).algebra,
], ids=repr)
def test_random_multivector_matches_the_fraction_path(algebra):
    for terms in (4, 5, 6):
        for seed in range(200):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            mv = verify_draws.random_multivector(algebra, rng, terms)
            ref = fraction_multivector(algebra, ref_rng, terms)
            assert (mv._den, mv._coeffs, list(mv._coeffs)) == (
                ref._den, ref._coeffs, list(ref._coeffs)), (terms, seed)
            assert rng.getstate() == ref_rng.getstate()


def check_names(node):
    """The names that a ``with report.check(...)`` or ``check_group(...)``
    statement declares, or None for any other node."""
    if not isinstance(node, ast.With):
        return None
    for item in node.items:
        call = item.context_expr
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            if call.func.attr == "check":
                return [ast.unparse(call.args[0])]
            if call.func.attr == "check_group":
                return [ast.unparse(group.elts[0] if isinstance(group, ast.Tuple)
                                    else group) for group in call.args]
    return None


def test_float_tolerances_only_in_the_float_checks():
    # Each exponent-form float literal of a verify module belongs to the
    # first check statement of that module that ends at or after its line,
    # so a tolerance set up just before a check counts as inside it.
    owners = []
    for path in sorted(Path(verify.__file__).parent.glob("verify*.py")):
        text = path.read_bytes()
        checks = sorted((node.end_lineno, names) for node in ast.walk(ast.parse(text))
                        if (names := check_names(node)))
        ends = [end for end, _ in checks]
        owners += [(path.name, tok.string,
                    checks[bisect.bisect_left(ends, tok.start[0])][1])
                   for tok in tokenize.tokenize(io.BytesIO(text).readline)
                   if tok.type == tokenize.NUMBER
                   and re.fullmatch(r"[0-9.]+[eE][-+]?[0-9]+", tok.string)]
    assert owners and all(names in (["'radical-arithmetic'"], ["'finite-differences'"])
                          for *_, names in owners), owners


def test_no_verify_module_calls_isclose():
    """An exact claim is decided by ``==``: no check compares within a
    tolerance through ``isclose``."""
    calls = [(path.name, node.lineno)
             for path in sorted(Path(verify.__file__).parent.glob("verify*.py"))
             for node in ast.walk(ast.parse(path.read_bytes()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "isclose"]
    assert not calls, calls
