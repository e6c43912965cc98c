"""Layered benchmark of lpgg: one command prints every metric by name.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``verify-all``    the full seven-suite verify report, in process;
* ``cli-commands``  single CLI commands as fresh processes;
* ``dense-float``   dense approx/complex products in fresh algebras.

With ``--trace 0`` it measures the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it installs the tracer and reports
the per-layer metrics instead.  ``--smoke`` makes a tiny run of the same
code paths.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the host record and notes (sample counts, error rate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tomllib
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7


def import_lpgg():
    """Import lpgg and its CLI from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    import lpgg
    import lpgg.cli  # noqa: F401

    if not Path(lpgg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"lpgg was imported from {lpgg.__file__}, not from {SRC}")


def calibrate() -> float:
    """Seconds for a fixed pure-Python ``Fraction`` loop (host-speed drift)."""
    start = time.perf_counter()
    total = 0
    for k in range(1, 20001):
        total += (Fraction(k, 7) * Fraction(3, k + 1)).numerator
    return time.perf_counter() - start


def host_record() -> dict:
    files = sorted((SRC / "lpgg").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "runtime_dependencies": project.get("dependencies", []),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With fewer than eleven samples (verify-all, smoke runs) it is the
    maximum.
    """
    ordered = sorted(samples)
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of the same code paths (used by the test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up the workload and exit")
    return parser.parse_args(argv)


def setup_seconds(args) -> list[float]:
    """Spawn fresh interpreters that only set up; time each to its exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_SPAWNS):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, check=False)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr.decode()}")
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lpgg()
    import workloads

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"pick from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workload_cls(args.seed, args.seconds, args.smoke)
        return 0

    calibration_start = calibrate()
    out = workloads.Outcome()
    notes = {}
    if args.trace:
        metrics = workload_cls(args.seed, args.seconds, args.smoke).trace(out)
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        result = {m["name"]: (metrics.get(m["name"], 0), m["unit"]) for m in per_layer}
    else:
        probes = setup_seconds(args)
        latencies, peak_rss = workload_cls(args.seed, args.seconds, args.smoke).run(out)
        if not latencies:
            raise SystemExit(f"every operation failed: {out.errors}")
        value, percentile = tail(latencies)
        result = {
            "op_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
            "op_tail_ms": (value * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
            "setup_s": (statistics.median(probes), "s"),
        }
        notes["op_tail_ms"] = {"percentile": round(percentile, 1), "samples": len(latencies)}
        notes["op_ms_samples"] = [round(t * 1000.0, 3) for t in latencies]
        notes["setup_s_samples"] = [round(t, 4) for t in probes]
    notes["error_rate"] = out.failed / out.attempted if out.attempted else 1.0
    if out.errors:
        notes["first_errors"] = out.errors

    host = host_record()
    host["calibration_s"] = {"start": calibration_start, "end": calibrate()}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host": host, "notes": notes}, sort_keys=True))
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
