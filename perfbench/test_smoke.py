"""Smoke test of the benchmark: a tiny run of every workload, both modes.

    python3 -m pytest -q perfbench

It checks that the printed metric names are exactly those of
``BENCHMARK.json`` and that no operation failed (error rate 0).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *_, notes_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert json.loads(notes_line)["notes"]["error_rate"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_oracle_sign_matches_the_kernel():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import oracle
    from lpgg.algebra import Algebra

    algebra = Algebra(2, 3)
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            assert oracle.blade_sign(a, b, algebra.p) == algebra.product_sign(a, b)
