"""The exit-code contract holds whatever state stdout is in.

Every subcommand, ``--help`` and ``--version`` run as a CLI process with
stdout open, closed at start, on a pipe whose reader closed before the
start, and on ``/dev/full``.  Open, the process prints what an in-process
``cli.main`` prints and exits with its code.  A stdout that cannot be
written exits 1 with no traceback and at most one line on stderr; a
closed pipe gets no line at all.

The processes run with ``PYTHONUNBUFFERED=1``, so a write fails where it
is made: in a command's ``print`` or in argparse's ``--help`` and
``--version``.  ``test_a_buffered_write_fails_at_the_final_flush`` covers
a full device with buffered stdout, where the failure waits for the flush
in ``run``; ``test_cli_exit`` covers that flush on a closed pipe.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lpgg import cli

ROOT = Path(__file__).resolve().parents[1]
# A fixed width, so that --help wraps alike in process and in the child.
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80",
           PYTHONUNBUFFERED="1")

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


def lpgg(argv, env=ENV, **stdout):
    """Run ``python -m lpgg.cli argv``; ``stdout`` holds the ``subprocess``
    arguments that set its stdout."""
    return subprocess.run([sys.executable, "-m", "lpgg.cli", *argv], env=env,
                          stderr=subprocess.PIPE, check=False, **stdout)


def closed_pipe(argv, env=ENV):
    read, write = os.pipe()
    os.close(read)
    try:
        return lpgg(argv, env, stdout=write)
    finally:
        os.close(write)


def full_device(argv, env=ENV):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    with open("/dev/full", "wb") as device:
        return lpgg(argv, env, stdout=device)


def closed_at_start(argv):
    return lpgg(argv, preexec_fn=lambda: os.close(1))


@pytest.mark.parametrize("name", ARGVS)
def test_open_stdout_matches_main(name, capsysbinary, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(ARGVS[name])
    except SystemExit as exc:  # --help and --version
        code = exc.code
    expected = capsysbinary.readouterr().out
    done = lpgg(ARGVS[name], stdout=subprocess.PIPE)
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
    done = full_device(ARGVS["classify"], env)
    assert done.returncode == cli.DOMAIN_ERROR
    assert done.stderr.startswith(b"lpgg: ") and done.stderr.count(b"\n") == 1
