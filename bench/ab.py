"""Run alternating A/B pairs of a parent commit and this checkout on one workload.

    python bench/ab.py --parent REV --workload W --pairs N --seconds S --out BENCH_LABEL.json [--smoke]

REV is extracted into a temporary directory with ``git archive REV | tar -x``,
so ``.git`` and the working tree are left alone.  Each pair runs

    python perfbench/run.py --workload W --seed SEED --seconds S --trace 0 [--smoke]

once in each tree, the parent's copy of ``perfbench/`` in the parent and
this checkout's in the change, with the same seed on both sides.  Pair i
takes seed ``--seed`` + i, and the side that runs first alternates (see
:func:`schedule`).  ``perfbench/`` is only read.

The round goes to ``--out`` (a JSON list of rows, created when missing):
it is appended to the ``ab`` list of the last row whose label starts with
``change``, and such a row is added when there is none.  Per end-to-end
metric of ``BENCHMARK.json`` the round stores:

- ``parent`` and ``change``: the raw values, one per pair, in pair order;
- ``parent_quartiles`` and ``change_quartiles``: [Q1, median, Q3];
- ``better_in``, ``ties`` and ``pairs``: the pairs in which the change
  reads better in the metric's direction, those equal, and all of them;
- ``sign_test_p``: the exact two-sided sign-test p of ``better_in``
  against the untied pairs;
- ``median_ratio``: the change's median over the parent's;
- ``gain_shown``: whether the round has at least ``CLAIM_PAIRS`` pairs,
  the change is better in at least nine tenths of them, and its median is
  better than the parent's by more than the parent's quartile spread
  (Q3 - Q1).

Each pair also keeps, per side, ``correct``, ``attempted`` and ``failed``
of its run, and the round keeps both host records and whether ``src/``
differs from the commit it names.  Store every round run, not the best.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from record import run_perfbench, src_modified

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 101
CLAIM_PAIRS = 10  # the fewest pairs a claimed gain may rest on


def schedule(pairs: int, first_seed: int) -> list[tuple[int, tuple[str, str]]]:
    """Per pair, its seed and the order of the two runs: the parent runs first
    in even pairs, the change in odd ones."""
    return [(first_seed + i, ("parent", "change") if i % 2 == 0 else ("change", "parent"))
            for i in range(pairs)]


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p for ``wins`` against ``losses`` (ties left out)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The per-metric block of one round; ``better`` is ``lower`` or ``higher``."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_quartiles = statistics.quantiles(change, n=4)
    return {
        "parent": parent, "change": change,
        "parent_quartiles": [p_q1, p_med, p_q3], "change_quartiles": c_quartiles,
        "better_in": wins, "ties": ties, "pairs": len(parent),
        "sign_test_p": sign_test_p(wins, len(parent) - wins - ties),
        "median_ratio": c_quartiles[1] / p_med,
        "gain_shown": len(parent) >= CLAIM_PAIRS and wins >= 0.9 * len(parent)
        and sign * (p_med - c_quartiles[1]) > p_q3 - p_q1,
    }


def extract(rev: str, into: Path) -> str:
    """Write the files of commit ``rev`` under ``into``; return its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return commit


def ab_round(parent_tree: Path, args, metrics: list[dict]) -> dict:
    trees = {"parent": parent_tree, "change": ROOT}
    hosts, pairs = {}, []
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    for seed, order in schedule(args.pairs, args.seed):
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            hosts[side], result = run_perfbench(
                trees[side], args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", "0", smoke=args.smoke)
            pair[side] = {key: result[key] for key in ("correct", "attempted", "failed")}
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
        pairs.append(pair)
        print(f"pair {len(pairs)}/{args.pairs} seed {seed}: " + ", ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> "
            f"{values['change'][m['name']][-1]:.4g}" for m in metrics), flush=True)
    return {
        "workload": args.workload, "seconds": args.seconds, "smoke": args.smoke,
        "hosts": hosts, "src_modified": src_modified(), "pairs": pairs,
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                **compare(values["parent"][m["name"]],
                                          values["change"][m["name"]], m["better"])}
                    for m in metrics},
    }


def append_round(out: Path, block: dict) -> None:
    """Add ``block`` to the ``ab`` list of the last ``change`` row of ``out``."""
    rows = json.loads(out.read_text()) if out.exists() else []
    changes = [row for row in rows if row["label"].startswith("change")]
    if not changes:
        rows.append({"label": "change"})
        changes = rows[-1:]
    changes[-1].setdefault("ab", []).append(block)
    out.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=FIRST_SEED, help="the first pair's seed")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true", help="tiny runs (run.py --smoke)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two values")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    with tempfile.TemporaryDirectory(prefix="lpgg-ab-") as tmp:
        commit = extract(args.parent, Path(tmp))
        block = ab_round(Path(tmp), args, benchmark["end_to_end"])
    block["parent_commit"] = commit
    append_round(args.out, block)
    for name, m in block["metrics"].items():
        quartiles = {side: "/".join(f"{v:.4g}" for v in m[f"{side}_quartiles"])
                     for side in ("parent", "change")}
        print(f"{name} Q1/median/Q3: parent {quartiles['parent']}, change {quartiles['change']}, "
              f"better in {m['better_in']} of {m['pairs']} (p = {m['sign_test_p']:.3g})"
              + (", gain shown" if m["gain_shown"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
