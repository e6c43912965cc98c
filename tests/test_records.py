"""The record classes: their checks, immutability and pickling."""
import pickle
from fractions import Fraction

import pytest

from lpgg import atlas, frames, simplex, spectral, star
from lpgg.reporting import CheckResult, VerificationReport


@pytest.fixture(scope="module")
def frame3():
    return frames.build_null_frame(3, 1)


def test_constructors_check_their_arguments(frame3):
    with pytest.raises(ValueError, match="^unknown status 'bogus'$"):
        CheckResult("d", "claim", "bogus")
    with pytest.raises(ValueError, match="^unknown basis tag 'mixed'$"):
        frames.CoordinateRow((Fraction(1),) * 3, "mixed")
    with pytest.raises(ValueError, match="^expected 3 coordinates$"):
        simplex.SimplexPoint(frame3, (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="^barycentric rows must be nonnegative and sum to 1$"):
        simplex.SimplicialMatrix(frame3, [[Fraction(1), Fraction(1), Fraction(0)]])
    with pytest.raises(ValueError, match=r"^bad coefficient index \(1, 1\)$"):
        spectral.BivectorOperator(frame3, {(1, 1): 1})


def test_keyword_constructors_and_defaults(frame3):
    result = CheckResult(name="n", claim="c", status="pass")
    assert (result.name, result.claim, result.status, result.details) == ("n", "c", "pass", "")
    assert frames.TableReport(checked=3).violations == ()
    matrix = simplex.SimplicialMatrix(frame3, rows=[[1, 2, 3]], barycentric=False)
    assert (matrix.frame, matrix.rows, matrix.barycentric) == (frame3, [[1, 2, 3]], False)


def test_frozen_records_reject_assignment(frame3):
    records = [
        (atlas.atlas(2)["rows"][0], "p"),
        (frames.CoordinateRow((Fraction(1),) * 3, "null"), "basis"),
        (frames.TableReport(checked=1), "checked"),
        (simplex.centroid(frame3), "coordinates"),
        (CheckResult("n", "claim", "pass"), "status"),
        (spectral.spectral_decompose(spectral.BivectorOperator(frame3, {(1, 2): 1})),
         "discriminant"),
        (star.a_matrix(frame3, frame3.vectors[0]), "entries"),
        (simplex.SimplicialMatrix(frame3, [[1, 2, 3]], barycentric=False), "rows"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_reports_do_not_share_checks():
    first, second = VerificationReport("a", 1), VerificationReport("b", 1)
    with first.check("x", "claim") as check:
        check(True)
    assert len(first.checks) == 1 and second.checks == []


def test_report_round_trips_through_pickle(suite_report):
    report = suite_report("atlas", seed=3)
    copy = pickle.loads(pickle.dumps(report))
    assert type(copy) is VerificationReport
    assert copy.to_json() == report.to_json()
    assert copy.render_text() == report.render_text()
