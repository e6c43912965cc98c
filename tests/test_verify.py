import hashlib
import inspect
import json
import multiprocessing
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lpgg
from lpgg import Algebra, atlas, calculus, frames, simplex, verify
from lpgg.reporting import CheckResult, VerificationReport


@pytest.mark.parametrize("suite", verify.SUITES)
def test_each_suite_is_green(suite):
    for n_max in (2, 6):
        report = verify.run_suite(suite, n_max=n_max, seed=123)
        assert not report.failed, (n_max, [
            c.name for c in report.checks if c.status == "fail"
        ])
        assert report.exit_code() == 0


def test_run_all_merges_and_prefixes():
    report = verify.run_suite("all", n_max=4, seed=9)
    assert report.suite == "all"
    assert any(c.name.startswith("core/") for c in report.checks)
    assert any(c.name.startswith("atlas/") for c in report.checks)
    assert report.corrected
    assert report.exit_code() == 0
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f9886965ba1a8712911c97d0098b93cf5cd442730564ae6b4caf38aa3003e900"
    )


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("n_max", [4, verify.DEFAULT_N_MAX])
def test_all_in_workers_equals_the_suites_in_order(n_max, seed):
    report = verify.run_suite("all", n_max=n_max, seed=seed)
    assert multiprocessing.active_children() == []
    in_order = verify.merge_reports("all", seed, [
        verify.run_suite(suite, n_max=n_max, seed=seed) for suite in verify.SUITES])
    assert report.to_json() == in_order.to_json()


def statuses(report):
    return {c.name: c.status for c in report.checks}


def test_empty_size_range_is_skipped():
    frame = statuses(verify.run_suite("frame", n_max=1))
    assert frame["frame-axioms"] == "skipped"
    assert frame["multiplication-tables"] == "skipped"
    assert frame["transition-3"] == "skipped"
    calculus = statuses(verify.run_suite("calculus", n_max=1))
    assert calculus["gradient-of-x"] == "skipped"


@pytest.mark.parametrize("suite, n_max, name", [
    ("frame", 4, "transition-8"),
    ("spectral", 2, "spectral-idempotents"),
])
def test_skipped_check_states_no_finding(suite, n_max, name):
    check = {c.name: c for c in verify.run_suite(suite, n_max=n_max).checks}[name]
    assert (check.status, check.details) == ("skipped", "")


def test_pseudoscalar_claim_names_only_checked_cases():
    def claim(n_max):
        report = verify.run_suite("frame", n_max=n_max)
        return next(c.claim for c in report.checks
                    if c.name == "pseudoscalar-relation")

    assert claim(2).endswith("n = 1..1")
    assert claim(3).endswith("n = 1..2; the n = 2 case is -2 a1^a2^a3")


@pytest.mark.parametrize("suite", [s for s in verify.SUITES if s != "atlas"])
def test_no_size_above_n_max_is_built(suite, monkeypatch):
    built = []
    real_frame, real_algebra = frames.build_null_frame, verify.Algebra

    def frame(size, sign=1):
        built.append(("frame", size))
        return real_frame(size, sign)

    def algebra(p, q):
        built.append((f"G({p},{q})", p + q))
        return real_algebra(p, q)

    monkeypatch.setattr(frames, "build_null_frame", frame)
    monkeypatch.setattr(verify, "Algebra", algebra)
    for n_max in range(6):
        built.clear()
        verify.run_suite(suite, n_max=n_max)
        assert all(size <= n_max for _, size in built), (n_max, built)


def test_periodicity_checked_through_ten_for_any_n_max():
    assert statuses(verify.run_suite("atlas", n_max=0))[
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


def test_simplex_laplacian_lines_follow_n_max():
    # n_max bounds the frame size n+1, so the n = 3 lines need n_max >= 4.
    names = {n_max: [c.name for c in verify.run_suite("simplex", n_max=n_max).checks]
             for n_max in (2, 3)}
    assert not any(name.endswith("-n3") for name in names[2])
    assert any(name.endswith("-n2") for name in names[3])
    assert not any(name.endswith("-n3") for name in names[3])


def test_range_claims_follow_n_max():
    calc = {c.name: c.claim for c in verify.run_suite("calculus", n_max=3).checks}
    assert calc["gradient-of-x"] == "nabla x = n+1 exactly, n = 1..2"
    frame = {c.name: c.claim for c in verify.run_suite("frame", n_max=3).checks}
    assert "a_1^..^a_{n+1}, n = 1..2;" in frame["pseudoscalar-relation"]
    assert frame["k-sum-squares"].endswith("k = 2..3")
    core = {c.name: c.claim for c in verify.run_suite("core", n_max=2).checks}
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
    # The worker pool of run_suite("all") is imported when first used.
    assert fresh_interpreter(
        "import sys\n"
        "import lpgg.verify\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
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


def test_report_json_shape():
    report = verify.run_suite("atlas", seed=5)
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
            mv = verify.random_multivector(algebra, rng, terms)
            ref = fraction_multivector(algebra, ref_rng, terms)
            assert (mv._den, mv._coeffs, list(mv._coeffs)) == (
                ref._den, ref._coeffs, list(ref._coeffs)), (terms, seed)
            assert rng.getstate() == ref_rng.getstate()
