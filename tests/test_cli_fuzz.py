"""The CLI's exit-code contract under fuzzing, in process through ``cli.main``.

Every subcommand exits 0 (success), 1 (failed check or domain error) or
2 (usage error), never prints a traceback, prints strict JSON (no
``Infinity`` or ``NaN``) when its output is JSON, rejects non-ASCII text
in a numeric option as a usage error, and prints the same bytes for the
same arguments.
Sizes run from one below each command's range to one above it, so the
usage branches run as well; ``verify`` stays at n_max <= 3 to keep the
test fast (the pinned full report covers the large sizes).
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings, strategies as st

from lpgg import FRAME_LIMIT, cli
from lpgg.atlas import ATLAS_LIMIT
from lpgg.frames import CANONICAL_BASIS_LIMIT

JSON_COMMANDS = ("spectral", "simplex", "express")
HUGE = "1" * 5000  # more digits than int() converts by default
NUMERIC_OPTIONS = ("--n=", "--seed=", "--n-max=", "--max=", "--point=", "--vertices=")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def command(name, *flags, **options):
    """``name`` with each ``--option=value`` drawn or left out, each flag on or off."""
    parts = [
        st.one_of(st.none(), values.map(
            lambda v, opt=opt: f"--{opt.replace('_', '-')}={v}"))
        for opt, values in options.items()
    ]
    parts += [st.sampled_from([None, f"--{flag}"]) for flag in flags]
    return st.tuples(*parts).map(
        lambda drawn: [name, *(p for p in drawn if p is not None)])


def sizes(lo, hi):
    return st.one_of(st.integers(lo - 1, hi + 1), st.sampled_from(["\u0663", "\uff13"]))


def fragments(pieces, max_size):
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


MV_TEXT = st.one_of(
    fragments(["1", "-2", "1/3", "0", "sqrt(2)", "sqrt(6)", "e1", "f1", "f2",
               "e1^f1", "f2^f1", "f9", "*", "+", "-", "(", ")", " ", "/0", "^"], 8),
    st.text(max_size=8),
)
G_VALUES = st.one_of(
    st.integers(-4, 4), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["1/2", "-1/3", "1/0", "x", "0.5"]), st.lists(st.integers(), max_size=1),
)
G_TEXT = st.one_of(
    st.dictionaries(st.sampled_from(["g12", "g13", "g23", "g21", "g11", "g1", "h12"]),
                    G_VALUES, max_size=3).map(json.dumps),
    st.text(max_size=8),
)
COORDINATES = fragments(["0", "1", "-1", "1/3", "0.25", "1/0", "x", ",", ",", ";",
                         "1e400", "1e200", "\u0661"], 8)

ARGV = st.one_of(
    command("mult-table", n=sizes(2, 8), sign=st.sampled_from("+-x"),
            format=st.sampled_from(["text", "json", "csv"])),
    command("frame", n=sizes(2, FRAME_LIMIT), sign=st.sampled_from("+-"),
            format=st.sampled_from(["json", "csv", "text"])),
    st.tuples(
        st.sampled_from(["frame", "simplex", "calculus", "atlas", "bogus"]),
        st.sampled_from([0, 1, 2, 3, FRAME_LIMIT + 1]),
        st.integers(-10 ** 6, 10 ** 6),
        st.sampled_from(["text", "json"]),
    ).map(lambda d: ["verify", f"--suite={d[0]}", f"--n-max={d[1]}",
                     f"--seed={d[2]}", f"--format={d[3]}"]),
    command("spectral", g=G_TEXT),
    command("simplex", "free-vertices", n=sizes(1, FRAME_LIMIT - 1),
            point=COORDINATES, vertices=COORDINATES),
    command("express", "a-matrix", n=sizes(2, CANONICAL_BASIS_LIMIT), mv=MV_TEXT),
    command("classify", max=sizes(1, ATLAS_LIMIT),
            format=st.sampled_from(["text", "json", "csv", "xml"])),
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
@example(["express", "--n=2", "--mv=--"])
@example(["express", "--n=3", "--mv=()"])
@example(["express", "--n=3", "--mv=sqrt(99999999999999999999999)"])
@example(["express", "--n=3", f"--mv={HUGE}*e1"])
@example(["spectral", '--g={"g12": true}'])
@example(["spectral", f'--g={{"g12": {HUGE}}}'])
@example(["spectral", '--g={"g12": 1e400}'])
@example(["spectral", '--g={"g12": NaN}'])
@example(["classify", "--max=0"])
@example(["simplex", "--n=1", "--vertices=1/0"])
@example(["frame", "--n=\u0663"])
@example(["simplex", "--n=1", "--point=1e400,-1e400"])
@example(["simplex", "--n=2", "--point=\u0661/3,1/3,1/3"])
@example(["simplex", "--n=1", "--point=1e200,1e200"])
@example(["simplex", "--n=1", "--point=1e200,-1e200"])
@example(["simplex", "--n=1", f"--point={10 ** 400},1"])
@example(["simplex", "--n=1", "--point=1000036000099,1/1000037"])
def test_cli_keeps_its_exit_code_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Traceback" not in out
    if out and (argv[0] in JSON_COMMANDS or "--format=json" in argv):
        json.loads(out, parse_constant=refuse_constant)
    if any(arg.startswith(NUMERIC_OPTIONS) and not arg.isascii() for arg in argv):
        assert code == 2, (argv, code, out)
    assert run(argv) == (code, out, err)
