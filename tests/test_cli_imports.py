"""Each CLI command loads only the modules it runs.

A process compiles every module it imports (no bytecode is cached where
``PYTHONDONTWRITEBYTECODE`` is set), so ``import lpgg.cli`` and the
parser stay on ``lpgg``, ``algebra`` and ``scalars``.  The pytest process
has imported everything already, so these checks run in a fresh
interpreter.  The probe imports nothing beyond what a bare interpreter
has loaded, and each command is compared with that bare interpreter,
started the same way, so a ``.pth`` file that preloads a module at
start-up counts as the baseline.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lpgg import cli, verify

SRC = Path(__file__).resolve().parents[1] / "src"

# Build the parser and run ``cli.main(argv)``, if given, with its output
# swallowed; then print the exit code and every loaded module.
PROBE = """
import os, sys
from lpgg import cli
argv = sys.argv[1:]
cli.build_parser()
sys.stdout = open(os.devnull, "w")
code = cli.main(argv) if argv else 0
sys.stdout = sys.__stdout__
print(repr([code, sorted(sys.modules)]))
"""
BARE = "import sys; print(repr([0, sorted(sys.modules)]))"


def modules_after(source, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                            capture_output=True, text=True, check=True)
    code, modules = ast.literal_eval(result.stdout)
    assert code == 0, result.stderr
    return set(modules)


def loaded_modules(*argv):
    return {m.removeprefix("lpgg.") for m in modules_after(PROBE, *argv)
            if m.startswith("lpgg")}


BASE = {"lpgg", "algebra", "scalars", "cli"}


def test_import_and_parser_load_no_command_module():
    assert loaded_modules() == BASE


@pytest.mark.parametrize("argv, modules", [
    (["express", "--n", "4", "--mv", "e1"], {"frames", "linalg", "textform"}),
    (["classify", "--max", "3"], {"atlas"}),
])
def test_command_loads_only_its_own_modules(argv, modules):
    assert loaded_modules(*argv) == BASE | modules


# One argv per subcommand, each with the output format it names.
COMMANDS = {
    "mult-table": (["mult-table", "--n", "4", "--sign", "-"], "text"),
    "frame": (["frame", "--n", "4", "--format", "csv"], "csv"),
    "verify": (["verify", "--suite", "atlas"], "text"),
    "spectral": (["spectral", "--g", '{"g12": 1, "g21": "1/2"}'], "json"),
    "simplex": (["simplex", "--n", "3", "--point", "1/4,1/4,1/4,1/4"], "json"),
    "express": (["express", "--n", "4", "--mv", "e1", "--a-matrix"], "json"),
    "classify": (["classify", "--max", "3", "--format", "csv"], "csv"),
}


def test_every_subcommand_is_covered():
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(COMMANDS) == set(choices)


@pytest.fixture(scope="module")
def bare_modules():
    return modules_after(BARE)


@pytest.mark.parametrize("name", COMMANDS)
def test_command_loads_no_unused_stdlib_module(name, bare_modules):
    argv, output = COMMANDS[name]
    extra = modules_after(PROBE, *argv) - bare_modules
    assert not extra & {"dataclasses", "inspect", "typing"}, sorted(extra)
    if output != "json":
        assert "json" not in extra, sorted(extra)


def test_simplex_point_loads_no_calculus():
    assert "calculus" not in loaded_modules(*COMMANDS["simplex"][0])


def test_spectral_loads_no_star():
    assert "star" not in loaded_modules(*COMMANDS["spectral"][0])


def test_parser_defaults_match_verify(capsys):
    args = cli.build_parser().parse_args(["verify"])
    assert (args.suite, args.n_max, args.seed) == (
        "all", verify.DEFAULT_N_MAX, verify.DEFAULT_SEED)
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "all, " + ", ".join(verify.SUITES) in help_text
