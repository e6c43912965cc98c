"""Each CLI command loads only the modules it runs.

A process compiles every module it imports (no bytecode is cached where
``PYTHONDONTWRITEBYTECODE`` is set), so ``import lpgg.cli`` and the
parser stay on ``lpgg``, ``algebra`` and ``scalars``.  The pytest process
has imported everything already, so these checks run in a fresh
interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lpgg import cli, verify

SRC = Path(__file__).resolve().parents[1] / "src"

# Build the parser and run ``cli.main(argv)``, if given, with its output
# swallowed; then print the exit code and the lpgg modules that are loaded.
PROBE = """
import contextlib, io, json, sys
from lpgg import cli
argv = sys.argv[1:]
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("lpgg"))]))
"""


def loaded_modules(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                            capture_output=True, text=True, check=True)
    code, modules = json.loads(result.stdout)
    assert code == 0, result.stderr
    return {m.removeprefix("lpgg.") for m in modules}


BASE = {"lpgg", "algebra", "scalars", "cli"}


def test_import_and_parser_load_no_command_module():
    assert loaded_modules() == BASE


@pytest.mark.parametrize("argv, modules", [
    (["express", "--n", "4", "--mv", "e1"], {"frames", "linalg", "textform"}),
    (["classify", "--max", "3"], {"atlas"}),
])
def test_command_loads_only_its_own_modules(argv, modules):
    assert loaded_modules(*argv) == BASE | modules


def test_parser_defaults_match_verify(capsys):
    args = cli.build_parser().parse_args(["verify"])
    assert (args.suite, args.n_max, args.seed) == (
        "all", verify.DEFAULT_N_MAX, verify.DEFAULT_SEED)
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "all, " + ", ".join(verify.SUITES) in help_text
