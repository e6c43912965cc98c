"""The three benchmark workloads: verify-all, cli-commands and dense-float.

Each workload is a closed loop with one caller.  Its constructor makes
the inputs from the seed and loads the references (this is the set-up
that ``setup_s`` times); ``run`` times each operation with tracing off
and returns the latencies and the peak RSS; ``trace`` runs one untraced
and one traced unit of work and returns the per-layer metrics.

The operation is one serialized report (verify-all), one command from
spawn to exit (cli-commands) or one product (dense-float).

The amount of work in a run is fixed by ``--seconds`` through a nominal
cost per unit measured on the reference host (2 cores, Python 3.11), so
every run of a workload takes the same number of samples and the tail
percentile always sits at the same rank.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Nominal seconds per unit of work on the reference host.
REPORT_S = 12.0       # one seven-suite report
CLI_ROUND_S = 12.0    # one pass over the command pool
DENSE_ROUND_S = 4.4   # eight fresh algebras, five products each

SMOKE_SUITES = ("atlas", "simplex")
SMOKE_COMMANDS = 3
DENSE_SIZES = (6, 7, 8, 9)
DENSE_BACKENDS = ("approx", "complex")
# Per fresh algebra: x*y fills the sign cache (cold); the rest are warm.
# Two wedges per algebra put the median of a run inside the p+q=8 wedge
# latencies instead of at the edge between two kinds of product.
DENSE_PRODUCTS = (("geometric", "xy"), ("wedge", "xy"), ("dot", "xy"),
                  ("geometric", "yx"), ("wedge", "yx"))
ORACLE_BLADES = 8
INTERPRETER_SPAWNS = 5


def load_references() -> dict:
    return json.loads((BENCH / "references.json").read_text())


def units(seconds: float, nominal: float, minimum: int = 1) -> int:
    return max(minimum, round(seconds / nominal))


def rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0  # Linux reports kilobytes


def own_rss_mb() -> float:
    return rss_mb(resource.getrusage(resource.RUSAGE_SELF))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Outcome:
    """Operations attempted and failed in one run, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


# -- verify-all ------------------------------------------------------------------


class VerifyAll:
    """The product: one full serialized seven-suite report, in process."""

    name = "verify-all"

    def __init__(self, seed: int, seconds: float, smoke: bool):
        from lpgg import verify

        self.verify = verify
        self.seed = seed
        self.smoke = smoke
        self.reports = 1 if smoke else units(seconds, REPORT_S, minimum=2)
        refs = load_references()["verify_all"]
        self.statuses = refs["statuses"]
        if smoke:
            self.statuses = {k: v for k, v in self.statuses.items()
                             if k.split("/", 1)[0] in SMOKE_SUITES}
        self.digest = refs["stdout_sha256"] if seed == refs["digest_seed"] and not smoke else None

    def timed_report(self) -> tuple[float, str]:
        """One report serialized exactly as ``lpgg verify --format json``."""
        start = time.perf_counter()
        if self.smoke:
            report = self.verify.merge_reports(
                "all", self.seed, [self.verify.run_suite(s, seed=self.seed) for s in SMOKE_SUITES])
        else:
            report = self.verify.run_suite("all", seed=self.seed)
        text = json.dumps(report.to_json(), indent=2, sort_keys=True)
        return time.perf_counter() - start, text

    def check(self, text: str, first: str | None, out: Outcome):
        """Status table, seed-2024 digest, and byte identity within the run."""
        table = {c["name"]: c["status"] for c in json.loads(text)["checks"]}
        ok = table == self.statuses
        if ok and self.digest is not None:
            ok = sha256(text.encode() + b"\n") == self.digest
        if ok and first is not None:
            ok = text == first
        out.record(ok, "report differs from its reference")

    def run(self, out: Outcome) -> tuple[list[float], float]:
        times, first = [], None
        for _ in range(self.reports):
            try:
                seconds, text = self.timed_report()
            except Exception as exc:  # a failed operation; the run goes on
                out.record(False, f"report raised {exc!r}")
                continue
            times.append(seconds)
            self.check(text, first, out)
            first = first or text
        return times, own_rss_mb()

    def trace(self, out: Outcome) -> dict:
        untraced, first = self.timed_report()
        self.check(first, None, out)
        with tracing.Tracer() as tracer:
            traced, text = self.timed_report()
        self.check(text, first, out)
        metrics = tracing.derive(tracer.raw)
        metrics["trace.overhead_s"] = traced - untraced
        return metrics


# -- cli-commands -------------------------------------------------------------------


def spawn(argv: list[str]) -> tuple[float, int, bytes, bytes, float]:
    """Run one child to exit: (seconds, exit code, stdout, stderr, peak RSS MB).

    Standard output is read to its end before standard error, which holds
    at most a short message or one trace record, so neither pipe can fill.
    """
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with child:
        stdout = child.stdout.read()
        stderr = child.stderr.read()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    return seconds, child.returncode, stdout, stderr, rss_mb(usage)


class CliCommands:
    """Single commands as fresh ``python -m lpgg.cli`` processes."""

    name = "cli-commands"

    def __init__(self, seed: int, seconds: float, smoke: bool):
        import lpgg.cli  # noqa: F401  (set-up covers the CLI import)

        pool = load_references()["cli_pool"]
        if smoke:
            pool = pool[:SMOKE_COMMANDS]
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(1 if smoke else units(seconds, CLI_ROUND_S)):
            order = list(pool)
            rng.shuffle(order)
            self.rounds.append(order)

    def command(self, entry: dict, prefix: list[str], out: Outcome):
        seconds, code, stdout, stderr, peak = spawn([*prefix, *entry["argv"]])
        same = sha256(stdout) == entry["stdout_sha256"]
        out.record(code == entry["exit"] and same,
                   f"{' '.join(entry['argv'])}: exit {code}, stdout {'same' if same else 'differs'}")
        return seconds, stderr, peak

    def run(self, out: Outcome) -> tuple[list[float], float]:
        latencies, peak = [], 0.0
        for order in self.rounds:
            for entry in order:
                seconds, _, rss = self.command(entry, [sys.executable, "-m", "lpgg.cli"], out)
                latencies.append(seconds)
                peak = max(peak, rss)
        return latencies, peak

    def trace(self, out: Outcome) -> dict:
        order = self.rounds[0]
        bare = [spawn([sys.executable, "-c", "pass"])[0] for _ in range(INTERPRETER_SPAWNS)]
        start = time.perf_counter()
        for entry in order:
            self.command(entry, [sys.executable, "-m", "lpgg.cli"], out)
        untraced = time.perf_counter() - start
        raw, imports, mains = {}, [], []
        start = time.perf_counter()
        for entry in order:
            _, stderr, _ = self.command(entry, [sys.executable, str(BENCH / "cli_child.py")], out)
            record = json.loads(stderr.decode().strip().splitlines()[-1])
            imports.append(record["import_s"])
            mains.append(record["main_s"])
            for key, value in record["raw"].items():
                raw[key] = raw.get(key, 0) + value
        traced = time.perf_counter() - start
        metrics = tracing.derive(raw)
        metrics["cli.interpreter_s"] = statistics.median(bare)
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["cli.main_s"] = statistics.median(mains)
        metrics["trace.overhead_s"] = traced - untraced
        return metrics


# -- dense-float ----------------------------------------------------------------------


def dense_coefficients(rng: random.Random, dim: int, backend: str) -> dict:
    if backend == "complex":
        return {b: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for b in range(dim)}
    return {b: rng.uniform(-1, 1) for b in range(dim)}


class DenseFloat:
    """Dense float and complex products in freshly built algebras."""

    name = "dense-float"

    def __init__(self, seed: int, seconds: float, smoke: bool):
        from lpgg import scalars
        from lpgg.algebra import Algebra

        self.Algebra = Algebra
        self.approx_equal = scalars.approx_equal  # REL_TOL / ABS_TOL defaults
        rng = random.Random(seed)
        sizes = DENSE_SIZES[:1] if smoke else DENSE_SIZES
        self.rounds = []
        for _ in range(1 if smoke else units(seconds, DENSE_ROUND_S)):
            specs = []
            for n in sizes:
                for backend in DENSE_BACKENDS:
                    p = rng.randint(0, n)
                    specs.append({
                        "p": p, "q": n - p, "backend": backend,
                        "x": dense_coefficients(rng, 1 << n, backend),
                        "y": dense_coefficients(rng, 1 << n, backend),
                        "check": [rng.sample(range(1 << n), ORACLE_BLADES)
                                  for _ in DENSE_PRODUCTS],
                    })
            rng.shuffle(specs)
            self.rounds.append(specs)

    def products(self, spec: dict, out: Outcome) -> list[float]:
        """Time each product in one fresh algebra; check sampled blades after.

        The algebra and its sign cache are released on return, so the peak
        RSS holds one algebra whatever order the seed drew.
        """
        latencies = []
        clock = time.perf_counter
        algebra = self.Algebra(spec["p"], spec["q"])
        x = algebra.multivector(spec["x"], spec["backend"])
        y = algebra.multivector(spec["y"], spec["backend"])
        for (kind, order), blades in zip(DENSE_PRODUCTS, spec["check"]):
            what = f"{kind} {order} in G({spec['p']},{spec['q']}) {spec['backend']}"
            left, right = (x, y) if order == "xy" else (y, x)
            try:
                start = clock()
                result = getattr(left, kind)(right)
                latencies.append(clock() - start)
            except Exception as exc:  # a failed operation; the run goes on
                out.record(False, f"{what} raised {exc!r}")
                continue
            left, right = (spec["x"], spec["y"]) if order == "xy" else (spec["y"], spec["x"])
            ok = all(
                self.approx_equal(result.coefficient(c),
                                  oracle.coefficient(kind, spec["p"], left, right, c))
                for c in blades
            )
            out.record(ok, what)
        return latencies

    def run(self, out: Outcome) -> tuple[list[float], float]:
        latencies = []
        for specs in self.rounds:
            for spec in specs:
                latencies.extend(self.products(spec, out))
        return latencies, own_rss_mb()

    def trace(self, out: Outcome) -> dict:
        specs = self.rounds[0]
        untraced = sum(t for spec in specs for t in self.products(spec, out))
        with tracing.Tracer() as tracer:
            traced = sum(t for spec in specs for t in self.products(spec, out))
        metrics = tracing.derive(tracer.raw)
        metrics["trace.overhead_s"] = traced - untraced
        return metrics


WORKLOADS = {w.name: w for w in (VerifyAll, CliCommands, DenseFloat)}
