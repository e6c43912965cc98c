"""Traced child of the cli-commands workload.

    PYTHONPATH=src python3 perfbench/cli_child.py <lpgg arguments>

It behaves like ``python -m lpgg.cli <arguments>``, with the tracer
installed after the import.  The last line of its standard error is one
JSON record: the import time, the time in ``cli.main`` and the raw
tracer counters.
"""

import time

start = time.perf_counter()
import lpgg.cli  # noqa: E402

imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    with tracing.Tracer() as tracer:
        begin = time.perf_counter()
        code = lpgg.cli.main(sys.argv[1:])
        elapsed = time.perf_counter() - begin
    sys.stdout.flush()
    print(json.dumps({"import_s": imported - start, "main_s": elapsed,
                      "raw": tracer.raw}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
