"""Record the known answers the benchmark checks outputs against.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/make_references.py

It writes ``perfbench/references.json`` with

* the name -> status table of ``lpgg verify --suite all`` (the same at
  every seed tried: 1, 7, 99 and 2024),
* the SHA-256 of that command's JSON output at seed 2024,
* the command pool of the cli-commands workload, each command with its
  exit code and the SHA-256 of its standard output.

Every pool command must exit 0.  ``simplex --n 7 --vertices
1,0,0,0,0,0,0,0`` is left out: it ends in a ``ValueError`` traceback with
exit code 1 instead of a usage error.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
DIGEST_SEED = 2024
STATUS_SEEDS = (2024, 7, 1, 99)

# One entry per command; a cli-commands round runs each once, in an order
# drawn from the workload seed.  Costs on the reference host range from
# about 0.24 s (interpreter start plus import) to 1.3 s (express --n 8).
POOL = [
    ["frame", "--n", "3"],
    ["frame", "--n", "6", "--sign", "-", "--format", "csv"],
    ["frame", "--n", "9", "--format", "json"],
    ["frame", "--n", "12", "--sign", "-", "--format", "json"],
    ["frame", "--n", "12", "--format", "csv"],
    ["express", "--n", "4", "--mv", "1/2*e1 + 1/2*f1"],
    ["express", "--n", "6", "--mv", "e1^f2 + sqrt(2)*f1 - 3/4", "--a-matrix"],
    ["express", "--n", "8", "--mv", "e1^f2"],
    ["express", "--n", "8", "--mv", "1/3*e1 + sqrt(3)*e1^f2 - f2^f3", "--a-matrix"],
    ["mult-table", "--n", "4", "--format", "json"],
    ["mult-table", "--n", "6", "--sign", "-"],
    ["mult-table", "--n", "8"],
    ["spectral", "--g", '{"g12": 1, "g21": "1/2"}'],
    ["spectral", "--g", '{"g12": 2, "g13": "-1/3", "g23": 1}'],
    ["simplex", "--n", "3", "--point", "1/4,1/4,1/4,1/4"],
    ["simplex", "--n", "2", "--vertices", "1,0,0;0,1,0;0,0,1"],
    ["simplex", "--n", "4", "--point", "1,2,0,0,-1/2", "--vertices",
     "1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,1,0;0,0,0,0,1"],
    ["classify", "--max", "6"],
    ["classify", "--max", "10", "--format", "json"],
    ["classify", "--max", "8", "--format", "csv"],
    ["verify", "--suite", "atlas", "--format", "json"],
    ["verify", "--suite", "simplex", "--format", "json"],
    ["verify", "--suite", "calculus"],
    ["verify", "--suite", "spectral", "--format", "json"],
]


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "lpgg.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, check=False)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    statuses = None
    digest = None
    for seed in STATUS_SEEDS:
        done = run_cli(["verify", "--suite", "all", "--seed", str(seed), "--format", "json"])
        if done.returncode != 0:
            raise SystemExit(f"verify at seed {seed} exited {done.returncode}")
        table = {c["name"]: c["status"] for c in json.loads(done.stdout)["checks"]}
        if statuses is not None and table != statuses:
            raise SystemExit(f"status table differs at seed {seed}")
        statuses = table
        if seed == DIGEST_SEED:
            digest = sha256(done.stdout)
    pool = []
    for argv in POOL:
        done = run_cli(argv)
        if done.returncode != 0:
            raise SystemExit(f"pool command {argv} exited {done.returncode}")
        pool.append({"argv": argv, "exit": done.returncode, "stdout_sha256": sha256(done.stdout)})
    REFERENCES.write_text(json.dumps({
        "verify_all": {"statuses": statuses, "digest_seed": DIGEST_SEED,
                       "stdout_sha256": digest},
        "cli_pool": pool,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
