"""Append one benchmark record to a JSON trajectory file.

    python bench/record.py --label LABEL --out BENCH_LABEL.json [--smoke]

For each workload of ``BENCHMARK.json`` it runs

    python perfbench/run.py --workload W --seed 1 --trace 1 [--smoke]

from this checkout and keeps the result line (the last line, with the
per-layer metrics).  The row it appends to ``--out`` (a JSON list, created
when missing) holds the label, the host record that ``run.py`` prints on
the line before (commit, ``src/lpgg`` line count and digest, runtime
dependencies, ``nproc`` and Python version), whether ``src/`` differs
from that commit, the result line of every workload, and:

- ``suites_in_process``: the per-layer metrics of the seven suites traced
  in this process (see :func:`trace_suites`);
- ``kernel_in_process``: untraced single-product times (see
  :func:`time_kernel`);
- ``kernel_peak_kb``: per product of ``kernel_in_process``, the
  tracemalloc peak in KB of one more call, outside the timed ones: the
  transient of the product and its result, not of its operands;
- ``operand_kb``: per signature and float backend of
  ``kernel_in_process``, the tracemalloc size in KB that one dense
  operand holds, built from a prebuilt ``{blade: value}`` dict;
- ``samples_total``: the samples that the checks of the seed-2024 report
  examine, summed over the checks of ``run_suite("all")``;
- ``constructions_in_process``: per suite of the seed-2024 report, run in
  this process, the null frames constructed, the reciprocal frames built
  and the ``Radical.sqrt`` calls (see :func:`count_constructions`);
- ``cli_closure``: per subcommand, the modules one CLI process loads
  beyond a bare interpreter and the ``src/lpgg`` lines it compiles,
  probed as ``tests/test_cli_imports.py`` does (see :func:`cli_closure`);
- ``compile_peak_kb``: per ``src/lpgg`` module, the tracemalloc peak in KB
  of compiling it, by ``compile_peaks`` of ``tests/test_cli_imports.py``;
  where no bytecode is cached, the largest a process imports sets its
  peak memory;
- ``tier1_wall_s``: the wall time of one Tier-1 pytest run.

``--smoke`` makes each ``run.py`` run tiny, times the kernel and takes its
peaks and operand sizes at p+q = 7 only, and skips the Tier-1 run
(``tier1_wall_s`` is null), to check that the recorder still works.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
CLI_IMPORTS = ROOT / "tests" / "test_cli_imports.py"
REFERENCES = ROOT / "perfbench" / "references.json"
SRC = ROOT / "src"
SEED = 1
KERNEL_SIGNATURES = ((3, 4), (4, 4), (4, 5))
KERNEL_REPEATS = 5


def load(path: Path, name: str):
    """A module loaded by path, left unchanged."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_kernel(smoke: bool) -> tuple[dict, dict, dict]:
    """Min-of-``KERNEL_REPEATS`` ms of one dense wedge, dot and geometric
    product per signature and float backend, seeded, with no tracer, the
    tracemalloc peak in KB of one more call of each, and the tracemalloc
    size in KB of the left operand per signature and backend.

    The perfbench tracer wraps ``keep``, so every traced wedge and dot
    takes the kernel's grade filter; these rows time the routes that
    untraced calls take.
    """
    from lpgg import Algebra

    rng = random.Random(SEED)
    out, peaks, operands = {}, {}, {}
    for p, q in KERNEL_SIGNATURES[:1] if smoke else KERNEL_SIGNATURES:
        algebra = Algebra(p, q)
        for backend in ("approx", "complex"):
            cx, cy = ({b: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       if backend == "complex" else rng.uniform(-1, 1)
                       for b in range(algebra.dim)} for _ in range(2))
            tracemalloc.start()
            x = algebra.multivector(cx, backend)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            operands[f"G({p},{q}) {backend}"] = round(held / 1024, 1)
            y = algebra.multivector(cy, backend)
            for name in ("wedge", "dot", "geometric"):
                times = []
                for _ in range(KERNEL_REPEATS):
                    start = time.perf_counter()
                    getattr(x, name)(y)
                    times.append(time.perf_counter() - start)
                key = f"G({p},{q}) {backend} {name}"
                out[key] = round(min(times) * 1e3, 3)
                tracemalloc.start()
                getattr(x, name)(y)
                peaks[key] = round(tracemalloc.get_traced_memory()[1] / 1024, 1)
                tracemalloc.stop()
    return out, peaks, operands


def samples_total() -> int:
    """The samples of the seed-2024 report's checks at the default n_max,
    each check counted once."""
    from lpgg import verify

    checks = verify.run_suite("all", seed=2024).checks
    names = [check.name for check in checks]
    assert len(set(names)) == len(names), "duplicate check names"
    return sum(check.samples for check in checks)


def count_constructions(suites=None) -> dict:
    """Per suite of the seed-2024 report (all seven unless ``suites`` names
    some), each run in this process: ``null_frames``, the ``NullFrame``
    constructions; ``reciprocal_frames``, the reciprocal frames built, one
    ``NullFrame.metric_dual_basis`` call each; ``radical_sqrt_calls``.

    The counters wrap the two classes from here and are removed after.
    perfbench's ``frames.build_calls`` counts calls of ``build_null_frame``,
    not frames, and reads 0 on verify-all, whose suites run in workers.
    """
    from lpgg import SUITES, verify
    from lpgg.frames import NullFrame
    from lpgg.scalars import Radical

    counts = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    saved = NullFrame.__init__, NullFrame.metric_dual_basis, Radical.__dict__["sqrt"]
    NullFrame.__init__ = counted("null_frames", NullFrame.__init__)
    NullFrame.metric_dual_basis = counted("reciprocal_frames", NullFrame.metric_dual_basis)
    Radical.sqrt = staticmethod(counted("radical_sqrt_calls", Radical.sqrt))
    out = {}
    try:
        for suite in suites or SUITES:
            counts.clear()
            verify.run_suite(suite, seed=2024)
            out[suite] = {name: counts[name] for name in
                          ("null_frames", "reciprocal_frames", "radical_sqrt_calls")}
    finally:
        NullFrame.__init__, NullFrame.metric_dual_basis, Radical.sqrt = saved
    return out


def cli_closure(probe) -> dict:
    """For the first ``cli_pool`` argv of each subcommand in
    ``perfbench/references.json`` (read only), the modules its process
    loads beyond a bare interpreter started the same way, and the lines of
    the ``src/lpgg`` modules among them, with the probe of
    ``tests/test_cli_imports.py``.  Where ``PYTHONDONTWRITEBYTECODE`` is
    set, a process compiles all of them.  ``probe`` is that test module."""
    bare = probe.modules_after(probe.BARE)
    out = {}
    for entry in json.loads(REFERENCES.read_text())["cli_pool"]:
        argv = entry["argv"]
        if argv[0] in out:
            continue
        extra = probe.modules_after(probe.PROBE, *argv) - bare
        paths = [SRC / "lpgg" / ("__init__.py" if name == "lpgg" else name[5:] + ".py")
                 for name in extra if name.split(".")[0] == "lpgg"]
        out[argv[0]] = {"argv": argv, "modules": len(extra),
                        "src_lines": sum(len(p.read_text().splitlines()) for p in paths)}
    return out


def tier1_wall_s() -> float:
    """Seconds of one Tier-1 run, the command of ROADMAP.md."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"Tier-1 failed with exit code {done.returncode}:\n{done.stdout[-2000:]}")
    return round(elapsed, 2)


def run_perfbench(tree: Path, workload: str, *options: str,
                  smoke: bool = False) -> tuple[dict, dict]:
    """The host record and the result line of one ``perfbench/run.py
    --workload WORKLOAD OPTIONS... [--smoke]`` run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, *options]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} in {tree} failed with exit code "
                         f"{done.returncode}:\n{done.stderr}")
    *_, host_line, result_line = done.stdout.splitlines()
    host = json.loads(host_line)["host"]
    del host["calibration_s"]  # host speed during one run, not a fact of the tree
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
    from lpgg import SUITES, verify

    tracing = load(TRACER, "perfbench_tracer")
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
        host, results[name] = run_perfbench(ROOT, name, "--seed", str(SEED), "--trace", "1",
                                            smoke=args.smoke)
    sys.path.insert(0, str(SRC))  # this checkout's lpgg, in process
    cli_imports = load(CLI_IMPORTS, "lpgg_cli_imports_test")
    kernel_ms, kernel_peak_kb, operand_kb = time_kernel(args.smoke)
    row = {"label": args.label, "seed": SEED, "smoke": args.smoke, "host": host,
           "src_modified": src_modified(), "workloads": results,
           "kernel_in_process": kernel_ms, "kernel_peak_kb": kernel_peak_kb,
           "operand_kb": operand_kb,
           "suites_in_process": trace_suites(benchmark["per_layer"]),
           "samples_total": samples_total(),
           "constructions_in_process": count_constructions(),
           "cli_closure": cli_closure(cli_imports),
           "compile_peak_kb": cli_imports.compile_peaks(),
           "tier1_wall_s": None if args.smoke else tier1_wall_s()}
    rows = json.loads(args.out.read_text()) if args.out.exists() else []
    rows.append(row)
    args.out.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
