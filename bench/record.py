"""Append one benchmark record to a JSON trajectory file.

    python bench/record.py --label LABEL --out BENCH_LABEL.json [--smoke]

For each workload of ``BENCHMARK.json`` it runs

    python perfbench/run.py --workload W --seed 1 --trace 1 [--smoke]

from this checkout and keeps the result line (the last line, with the
per-layer metrics).  The row it appends to ``--out`` (a JSON list, created
when missing) holds the label, the host record that ``run.py`` prints on
the line before (commit, ``src/lpgg`` line count and digest, runtime
dependencies, ``nproc`` and Python version), whether ``src/`` differs
from that commit, the result line of every workload, and under
``suites_in_process`` the per-layer metrics of the seven suites traced in
this process (see :func:`trace_suites`).  ``--smoke`` makes each
``run.py`` run tiny, to check that the recorder still works.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SEED = 1


def run_workload(name: str, smoke: bool) -> tuple[dict, dict]:
    """The host record and the result line of one traced run."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(SEED), "--trace", "1"]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{name} failed with exit code {done.returncode}:\n{done.stderr}")
    *_, host_line, result_line = done.stdout.splitlines()
    host = json.loads(host_line)["host"]
    del host["calibration_s"]  # host speed during one run, not a fact of the checkout
    return host, json.loads(result_line)


def trace_suites(per_layer: list[dict]) -> dict:
    """Per-layer metrics of one seed-``SEED`` report, its suites run in process.

    ``run_suite("all")`` runs the suites in worker processes, and the
    counts of a tracer installed in the parent die with them, so
    ``run.py``'s verify-all trace sees only the parent.  Here the seven
    suites run one after another under the same tracer, loaded by path
    from ``perfbench/tracer.py`` and left unchanged, and the merged report
    is serialized as the CLI does.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from lpgg import SUITES, verify

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        reports = [verify.run_suite(suite, seed=SEED) for suite in SUITES]
        json.dumps(verify.merge_reports("all", SEED, reports).to_json(),
                   indent=2, sort_keys=True)
    metrics = tracing.derive(tracer.raw)
    return {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in per_layer}


def src_modified() -> bool | None:
    """Whether ``src/`` differs from the recorded commit (None outside git)."""
    done = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    host, results = None, {}
    for name in (w["name"] for w in benchmark["workloads"]):
        host, results[name] = run_workload(name, args.smoke)
    row = {"label": args.label, "seed": SEED, "smoke": args.smoke, "host": host,
           "src_modified": src_modified(), "workloads": results,
           "suites_in_process": trace_suites(benchmark["per_layer"])}
    rows = json.loads(args.out.read_text()) if args.out.exists() else []
    rows.append(row)
    args.out.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
