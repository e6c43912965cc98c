"""A CLI process exits through ``cli.run``: ``main()``, a flush, ``os._exit``.

The process must print exactly what an in-process ``cli.main`` call
prints and exit with the same code, and the script that packaging
installs must enter through the same function as ``python -m lpgg.cli``.
"""
import ast
import io
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from lpgg import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def in_process(capsysbinary, argv):
    """``(code, stdout, stderr)`` of ``cli.main(argv)``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors, --help and --version
        code = exc.code
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["classify", "--max", "3"],                       # success
    ["frame"],                                        # usage error (argparse)
    ["mult-table", "--n", "20"],                      # usage error (the command)
    ["--version"],
    ["spectral", "--g", '{"g12": 1, "g21": 1}'],      # domain error
], ids=["success", "argparse-usage", "command-usage", "version", "domain"])
def test_process_matches_main(capsysbinary, argv):
    expected = in_process(capsysbinary, argv)
    done = subprocess.run([sys.executable, "-m", "lpgg.cli", *argv], env=ENV,
                          capture_output=True, check=False)
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_process_skips_interpreter_teardown():
    """An ``atexit`` handler registered before the CLI runs never runs."""
    probe = ("import atexit, runpy, sys\n"
             "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
             "runpy.run_module('lpgg.cli', run_name='__main__')\n")
    done = subprocess.run([sys.executable, "-c", probe, "classify", "--max", "3"],
                          env=ENV, capture_output=True, text=True, check=False)
    assert done.returncode == 0
    assert done.stdout.startswith("level 1: +-\n")
    assert "atexit ran" not in done.stderr


def test_a_broken_final_flush_exits_1(monkeypatch):
    """A reader that closes the pipe after ``main`` returns breaks the flush
    in ``run``; the process still ends quietly, with the stdout-closed code."""
    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    exits = []
    monkeypatch.setattr(sys, "argv", ["lpgg", "--version"])
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(os, "_exit", exits.append)
    cli.run()
    assert exits == [cli.DOMAIN_ERROR]


def test_verify_all_leaves_no_thread_behind(capsys):
    """``os._exit`` ends the process at once, so no thread may outlive
    ``main``; ``run_suite("all")`` forks its workers and starts none."""
    before = set(threading.enumerate())
    assert cli.main(["verify", "--suite", "all", "--n-max", "2"]) == 0
    capsys.readouterr()
    assert set(threading.enumerate()) == before


def script_target():
    """``[project.scripts] lpgg`` of ``pyproject.toml``, read without ``tomllib``
    (Python 3.10 has none)."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return re.search(r'^lpgg\s*=\s*"([^"]+)"', section.group(1), re.M).group(1)


def main_block_call():
    """The function that the ``if __name__ == "__main__":`` block of cli.py calls."""
    tree = ast.parse(Path(cli.__file__).read_text())
    block, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    statement, = block.body
    return statement.value.func.id


def test_installed_script_enters_like_python_m():
    assert script_target() == f"lpgg.cli:{main_block_call()}" == "lpgg.cli:run"
