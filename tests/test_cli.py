import hashlib
import json
import os
from pathlib import Path

import pytest

from lpgg import verify
from lpgg.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mult_table_text(capsys):
    code, out, _ = run_cli(capsys, "mult-table", "--n", "3", "--sign", "+")
    assert code == 0
    assert "all match" in out
    assert "a1*a2" in out


def test_mult_table_negative(capsys):
    code, out, _ = run_cli(capsys, "mult-table", "--n", "3", "--sign", "-")
    assert code == 0
    assert "all match" in out


def test_mult_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "mult-table", "--n", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["pairs_checked"] == 16 * 6
    # (a1 a2) a1 = a1: row 3 (a1*a2) by column 1 (a1)
    a1 = payload["grid"][0][3]
    assert payload["grid"][2][0] == a1


def test_mult_table_out_of_range(capsys):
    code, _, err = run_cli(capsys, "mult-table", "--n", "20")
    assert code == 2
    assert "2..8" in err


def test_frame_json_t3(capsys):
    code, out, _ = run_cli(capsys, "frame", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    t = payload["T"]
    assert t[0][0] == [{"rational": "1/2", "sqrt": 1}]
    assert t[2][0] == [{"rational": "1", "sqrt": 1}]
    assert payload["null_vectors"][2] == "e1 + f2"
    assert payload["exact"] is True


def test_frame_csv_t8(capsys):
    code, out, _ = run_cli(capsys, "frame", "--n", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T"
    row4 = lines[4].split(",")
    assert row4 == ["1", "0", "1/2", "1/2*sqrt(3)", "0", "0", "0", "0"]


def test_frame_out_of_range(capsys):
    code, _, err = run_cli(capsys, "frame", "--n", "13")
    assert code == 2


def test_verify_frame_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "frame", "--n-max", "6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["corrected"] is True
    names = {check["name"] for check in payload["checks"]}
    assert "frame-axioms" in names


def test_verify_calculus_reports_corrections(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "calculus", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["dual-laplacian"]["status"] == "pass-corrected"
    assert by_name["dual-dot-dual"]["status"] == "pass-corrected"


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nosuch")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("n_max", ["13", "1", "0"])
def test_verify_n_max_out_of_range_is_usage_error(capsys, n_max):
    code, out, err = run_cli(capsys, "verify", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert "--n-max must be in 2..12" in err


def declared_bounds():
    """``(subparser, command, option, lo, hi)`` for each bound declared."""
    commands = build_parser()._subparsers._group_actions[0].choices
    return [(parser, command, name, lo, hi)
            for command, parser in commands.items()
            for name, (lo, hi) in (parser.get_default("bounds") or {}).items()]


BOUNDS = declared_bounds()


def test_every_integer_size_option_declares_its_bound():
    assert [(command, name) for _, command, name, *_ in BOUNDS] == [
        ("mult-table", "n"), ("frame", "n"), ("verify", "n_max"),
        ("simplex", "n"), ("express", "n"), ("classify", "max")]


@pytest.mark.parametrize("parser, command, name, lo, hi", BOUNDS,
                         ids=[bound[1] for bound in BOUNDS])
def test_declared_bound_rejects_both_neighbours(capsys, parser, command, name, lo, hi):
    required = [arg for action in parser._actions
                if action.required and action.dest != name
                for arg in (action.option_strings[0], "1")]
    flag = "--" + name.replace("_", "-")
    for value in (lo - 1, hi + 1):
        code, out, err = run_cli(capsys, command, *required, flag, str(value))
        assert (code, out) == (2, "")
        assert err == f"{flag} must be in {lo}..{hi}, got {value}\n"


@pytest.mark.parametrize("argv", [
    ["simplex", "--n", "7", "--vertices", "1,0,0,0,0,0,0,0"],
    ["spectral", "--g", '{"g12": "1/0"}'],
    ["spectral", "--g", "[1]"],
    ["spectral", "--g", '{"g12": [1]}'],
    ["spectral", "--g", '{"g12": true}'],
    ["simplex", "--n", "2", "--vertices", "0.5,0.5,0;0,0.5,0.5"],
    *(["express", "--n", "2", "--mv", mv]
      for mv in ("*", "-", "+", "2*", "1/0*e1", "0/0", "()", "( )")),
    ["express", "--n", "2", "--mv=--"],
    ["express", "--n", "3", "--mv", "sqrt(99999999999999999999999)"],
    ["spectral", "--g=--"],
    ["express", "--n", "3", "--mv", "1" * 5000 + "*e1"],
    ["express", "--n", "3", "--mv", f"sqrt({'7' * 5000})"],
    ["spectral", "--g", '{"g12": ' + "1" * 5000 + "}"],
    ["simplex", "--n", "1", "--vertices", "1/0"],
    ["simplex", "--n", "1", "--point", "1e400,-1e400"],
    ["simplex", "--n", "1", "--point", "0.5,1e999"],
])
def test_bad_input_exits_with_a_message(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.strip() and "Traceback" not in err


def test_verify_deterministic(capsys):
    _, out1, _ = run_cli(
        capsys, "verify", "--suite", "star", "--seed", "7",
        "--format", "json",
    )
    _, out2, _ = run_cli(
        capsys, "verify", "--suite", "star", "--seed", "7",
        "--format", "json",
    )
    assert out1 == out2


def test_verify_all_report_is_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--seed", "2024", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9821fa2e97220a4a641ad7e141373cd6f38fceda070881255c99e86f392c6c5b"
    )
    statuses = [c["status"] for c in json.loads(out)["checks"]]
    assert (statuses.count("pass"), statuses.count("pass-corrected")) == (53, 23)


def test_verify_all_exits_1_when_a_suite_worker_dies(capsys, monkeypatch, forked):
    # Forked workers inherit the patch, so the core suite's worker exits.
    monkeypatch.setitem(verify.SUITE_FUNCTIONS, "core", lambda **_: os._exit(3))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n-max", "2")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert "missing suites: core" in err, err
    for pid in forked:  # every worker has been reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_verify_all_exits_1_when_a_suite_raises_in_a_worker(capsys, monkeypatch, forked):
    # The worker sends back the suite's exception, and the line names both.
    monkeypatch.setitem(verify.SUITE_FUNCTIONS, "core", lambda **_: 1 / 0)
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n-max", "2")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert "core" in err and "ZeroDivisionError" in err, err
    for pid in forked:  # every worker has been reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"
POOL_REFERENCES = json.loads(REFERENCES.read_text())["cli_pool"]


def reference_id(entry):
    """``express`` entries by frame size, the rest by command and position."""
    argv = entry["argv"]
    if argv[0] == "express":
        return "n" + argv[2] + ("-a-matrix" if "--a-matrix" in argv else "")
    same = [e for e in POOL_REFERENCES if e["argv"][0] == argv[0]]
    return f"{argv[0]}-{same.index(entry)}"


@pytest.mark.parametrize("entry", POOL_REFERENCES, ids=reference_id)
def test_express_matches_benchmark_reference(capsys, entry):
    """Every benchmark pool command, not only ``express``, in process."""
    code, out, _ = run_cli(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]


def test_benchmark_pool_has_twenty_four_references():
    assert len(POOL_REFERENCES) == 24


def test_spectral_command(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--g", '{"g12": 1}')
    assert code == 0
    payload = json.loads(out)
    assert payload["roots"] == ["0", "1"]
    assert payload["checks"]["discriminant_corrected"] is False


def test_spectral_fraction_strings(capsys):
    code, out, _ = run_cli(
        capsys, "spectral", "--g", '{"g12": "1/2", "g23": "1/3"}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["discriminant_corrected"] is True


@pytest.mark.parametrize("g, roots", [
    # D = 6.25 > 0: real float roots
    ('{"g12": 0.5, "g21": 1.0, "g23": 2.0}', ["0.5", "3.0"]),
    # D = -0.9375 < 0: the float input decomposes over the complex backend
    ('{"g12": 1.5, "g13": -0.25, "g23": 1.0}',
     ["(1.125-0.4841229182759271j)", "(1.125+0.4841229182759271j)"]),
])
def test_spectral_float_coefficients(capsys, g, roots):
    code, out, err = run_cli(capsys, "spectral", "--g", g)
    assert code == 0 and err == ""
    assert json.loads(out)["roots"] == roots
    assert run_cli(capsys, "spectral", "--g", g) == (code, out, err)


def test_spectral_degenerate(capsys):
    code, _, err = run_cli(capsys, "spectral", "--g", '{"g12": 1, "g21": 1}')
    assert code == 1
    assert "spectral error" in err


def test_spectral_radicand_too_large_to_reduce(capsys):
    code, out, err = run_cli(
        capsys, "spectral", "--g", '{"g12": "99999999999999999999999999999/7"}')
    assert code == 1 and out == ""
    assert err.startswith("spectral error: ") and err.count("\n") == 1


def test_spectral_bad_json(capsys):
    code, _, err = run_cli(capsys, "spectral", "--g", "{nope")
    assert code == 2


@pytest.mark.parametrize("g", ['{"g12": 1e400}', '{"g12": NaN}', '{"g13": -Infinity}'])
def test_spectral_non_finite_coefficient_is_usage_error(capsys, g):
    code, out, err = run_cli(capsys, "spectral", "--g", g)
    assert (code, out) == (2, "")
    assert err.startswith("bad --g: g1") and "must be finite" in err


@pytest.mark.parametrize("argv", [
    ["express", "--n", "3", "--mv", "\u0663*e1"],
    ["express", "--n", "3", "--mv", "e\u0663"],
    ["express", "--n", "3", "--mv", "sqrt(\u0663)*e1"],
    ["spectral", "--g", '{"g1\u0663": 1}'],
    ["spectral", "--g", '{"g12": "\u0663"}'],
    ["simplex", "--n", "2", "--point", "\u0661/3,1/3,1/3"],
    ["simplex", "--n", "2", "--point", "\u0661.0,0,0"],
    ["simplex", "--n", "2", "--vertices", "\u0661,0,0"],
])
def test_non_ascii_digits_are_usage_errors(capsys, argv):
    """The formatter writes ASCII digits only, so U+0663 (ARABIC-INDIC
    DIGIT THREE) is not read as 3."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["frame", "--n", "\u0663"],
    ["mult-table", "--n", "\uff13"],
    ["verify", "--n-max", "\u0663"],
    ["verify", "--seed", "-\u0663"],
    ["classify", "--max", "\u0663"],
    ["simplex", "--n", "\u0662", "--point", "1/3,1/3,1/3"],
])
def test_non_ascii_integer_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_simplex_centroid(capsys):
    code, out, _ = run_cli(
        capsys, "simplex", "--n", "2", "--point",
        "0.3333333,0.3333333,0.3333334",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["norm_squared_float"] - 1 / 3) < 1e-6
    assert payload["barycentric"] is True


def test_simplex_exact_point(capsys):
    code, out, _ = run_cli(
        capsys, "simplex", "--n", "2", "--point", "1/3,1/3,1/3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["norm_squared"] == "1/3"
    assert "unit" in payload


def test_simplex_vertex_on_cone(capsys):
    code, out, _ = run_cli(capsys, "simplex", "--n", "2", "--point", "1,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["on_cone"] is True
    assert "unit" not in payload


def test_negative_seed_parses(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "frame", "--n-max",
                           "2", "--seed", "-7", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == -7


def test_simplex_bad_point(capsys):
    code, _, err = run_cli(capsys, "simplex", "--n", "2", "--point", "1,0")
    assert code == 2


def test_classify_levels(capsys):
    code, out, _ = run_cli(capsys, "classify", "--max", "6")
    assert code == 0
    assert "level 6: -+-+-+-" in out
    assert "product sequence: --++--" in out


def test_classify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--max", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,sign,product_of_signs"
    assert "2,0,-,+" in lines


def test_classify_json(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--max", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"]["3"] == "-+-+"


def test_classify_limit(capsys):
    code, _, err = run_cli(capsys, "classify", "--max", "11")
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-1"])
def test_classify_rejects_nonpositive_max(capsys, value):
    code, out, err = run_cli(capsys, "classify", "--max", value)
    assert code == 2
    assert out == ""
    assert "--max must be in 1..10" in err


def test_express_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "express", "--n", "3", "--mv", "e1^f2")
    assert code == 0
    payload = json.loads(out)
    assert payload["null_products"] == {"1": "-1", "a1*a3": "1", "a2*a3": "1"}


def test_express_with_a_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "express", "--n", "2", "--mv", "1/2*e1 + 1/2*f1",
        "--a-matrix",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["null_products"] == {"a1": "1"}
    entries = payload["a_matrix"]["entries"]
    assert entries[0][0] == "0"  # a1 a1 a1 = 0


def test_express_bad_input(capsys):
    code, _, err = run_cli(capsys, "express", "--n", "3", "--mv", "e7")
    assert code == 2


def test_simplex_vertices_inline(capsys):
    code, out, _ = run_cli(
        capsys, "simplex", "--n", "2", "--vertices", "1,0,0;0,1,0;0,0,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"]["order"] == 3
    assert payload["vertices"]["closed"] is False
    assert payload["vertices"]["degenerate"] is False


def test_simplex_command_computes_no_matrix_rank(capsys, monkeypatch):
    from lpgg import linalg

    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda rows: calls.append(rows) or real(rows))
    code, out, _ = run_cli(
        capsys, "simplex", "--n", "4", "--vertices",
        "1,0,0,0,0;0,1,0,0,0;1/2,1/2,0,0,0;0,0,0,0,1",
    )
    assert code == 0
    assert json.loads(out)["vertices"]["order"] == 3
    assert calls == []


def test_simplex_vertices_file(capsys, tmp_path):
    path = tmp_path / "vertices.csv"
    path.write_text("1,-1,0\n0,1,-1\n-1,0,1\n")
    code, out, _ = run_cli(
        capsys, "simplex", "--n", "2", "--vertices-file", str(path),
        "--free-vertices",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"]["closed"] is True
    assert payload["vertices"]["order"] == 2


def test_simplex_needs_input(capsys):
    code, _, err = run_cli(capsys, "simplex", "--n", "2")
    assert code == 2
