"""The exit-code contract holds whatever state stdout and stderr are in.

Every subcommand, ``--help`` and ``--version`` run as a CLI process with
stdout open, closed at start, on a pipe whose reader closed before the
start, and on ``/dev/full``.  Open, the process prints what an in-process
``cli.main`` prints and exits with its code.  A stdout that cannot be
written exits 1 with no traceback and at most one line on stderr; a
closed pipe gets no line at all.

A failing argv of every subcommand runs with stderr closed at start, on
a closed pipe and on ``/dev/full``: the process exits with the code of an
in-process ``cli.main`` and leaves stdout empty (``test_cli_exit``
compares open stderr with ``cli.main``).  The processes run
``sys.executable``, not a launcher script such as a pyenv shim, which
keeps fd 2 open.

The processes run with ``PYTHONUNBUFFERED=1``, so a write fails where it
is made: in a command's ``print`` or in argparse's ``--help`` and
``--version``.  ``test_a_buffered_write_fails_at_the_final_flush`` covers
a full device with buffered stdout, where the failure waits for the flush
in ``run``; ``test_cli_exit`` covers that flush on a closed pipe.
"""
import ast
import os
import subprocess
import sys

import pytest

import test_cli_exit
from lpgg import cli
from test_cli_exit import ROOT, in_process

# A fixed width, so that --help wraps alike in process and in the child.
ENV = dict(test_cli_exit.ENV, COLUMNS="80", PYTHONUNBUFFERED="1")

# One cheap argv per subcommand, plus the two options argparse answers itself.
ARGVS = {
    "mult-table": ["mult-table", "--n", "3"],
    "frame": ["frame", "--n", "3", "--format", "csv"],
    "verify": ["verify", "--suite", "atlas", "--n-max", "2"],
    "spectral": ["spectral", "--g", '{"g12": 1, "g21": "1/2"}'],
    "simplex": ["simplex", "--n", "2", "--point", "1/3,1/3,1/3"],
    "express": ["express", "--n", "3", "--mv", "e1^f2"],
    "classify": ["classify", "--max", "3", "--format", "csv"],
    "help": ["--help"],
    "version": ["--version"],
}


def test_every_subcommand_is_covered():
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(choices) == set(ARGVS) - {"help", "version"}


def lpgg(argv, env=ENV, **streams):
    """Run ``python -m lpgg.cli argv`` with stdout and stderr piped, unless
    ``streams`` holds other ``subprocess`` arguments for them."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-m", "lpgg.cli", *argv], env=env,
                          check=False, **streams)


# Each state runs ``argv`` with ``stream`` ("stdout" or "stderr") in it.
def closed_pipe(argv, stream="stdout", env=ENV):
    read, write = os.pipe()
    os.close(read)
    try:
        return lpgg(argv, env, **{stream: write})
    finally:
        os.close(write)


def full_device(argv, stream="stdout", env=ENV):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    with open("/dev/full", "wb") as device:
        return lpgg(argv, env, **{stream: device})


def closed_at_start(argv, stream="stdout"):
    fd = 1 if stream == "stdout" else 2
    return lpgg(argv, preexec_fn=lambda: os.close(fd))


@pytest.mark.parametrize("name", ARGVS)
def test_open_stdout_matches_main(name, capsysbinary, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, expected, _ = in_process(capsysbinary, ARGVS[name])
    done = lpgg(ARGVS[name])
    assert b"Traceback" not in done.stderr
    assert (done.returncode, done.stdout) == (code, expected)
    assert expected


@pytest.mark.parametrize("state", [closed_at_start, closed_pipe, full_device],
                         ids=["closed-at-start", "reader-closed", "dev-full"])
@pytest.mark.parametrize("name", ARGVS)
def test_unwritable_stdout_exits_1(name, state):
    done = state(ARGVS[name])
    assert b"Traceback" not in done.stderr
    assert done.returncode == cli.DOMAIN_ERROR, done.stderr
    if state is closed_pipe:
        assert done.stderr == b""
    else:
        assert len(done.stderr.splitlines()) == 1, done.stderr


def test_a_buffered_write_fails_at_the_final_flush():
    env = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}
    done = full_device(ARGVS["classify"], env=env)
    assert done.returncode == cli.DOMAIN_ERROR
    assert done.stderr.startswith(b"lpgg: ") and done.stderr.count(b"\n") == 1


# One usage error per subcommand, a domain error (a G whose traceless part
# squares to zero) and a usage error that argparse reports itself.
FAILURES = {
    "mult-table": ["mult-table", "--n", "20"],
    "frame": ["frame", "--n", "13"],
    "verify": ["verify", "--suite", "nope"],
    "spectral": ["spectral", "--g", "nope"],
    "simplex": ["simplex", "--n", "2"],
    "express": ["express", "--n", "3", "--mv", "*"],
    "classify": ["classify", "--max", "11"],
    "domain": ["spectral", "--g", '{"g12": 1, "g21": 1}'],
    "argparse": ["frame", "--n", "3", "--sign"],
}


def test_every_subcommand_fails_in_the_stderr_table():
    assert {argv[0] for argv in FAILURES.values()} == set(ARGVS) - {"help", "version"}


@pytest.mark.parametrize("state", [closed_at_start, closed_pipe, full_device],
                         ids=["closed-at-start", "reader-closed", "dev-full"])
@pytest.mark.parametrize("name", FAILURES)
def test_unwritable_stderr_keeps_the_exit_code(name, state, capsysbinary):
    code, out, err = in_process(capsysbinary, FAILURES[name])
    assert code in (cli.DOMAIN_ERROR, cli.USAGE_ERROR) and out == b"" and err
    done = state(FAILURES[name], stream="stderr")
    # A traceback would end the process through the interpreter with code
    # 1, so the usage rows (code 2) show there was none.
    assert (done.returncode, done.stdout) == (code, b"")


def stderr_writes(tree):
    """The line of every ``file=sys.stderr`` and ``sys.stderr.write`` in ``tree``."""
    def is_stderr(node):
        return (isinstance(node, ast.Attribute) and node.attr == "stderr"
                and isinstance(node.value, ast.Name) and node.value.id == "sys")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "file"
            and is_stderr(node.value)
            or isinstance(node, ast.Attribute) and node.attr == "write"
            and is_stderr(node.value)]


def test_fail_holds_the_only_stderr_write():
    # Each write belongs to the innermost function whose lines hold it.
    owners = []
    for path in sorted((ROOT / "src" / "lpgg").glob("*.py")):
        tree = ast.parse(path.read_bytes())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for line in stderr_writes(tree):
            owner = max((f for f in functions if f.lineno <= line <= f.end_lineno),
                        key=lambda f: f.lineno, default=None)
            owners.append((path.name, owner and owner.name))
    assert owners == [("cli.py", "_fail")]
