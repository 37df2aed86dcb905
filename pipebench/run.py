"""Run one workload of the pipeline benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 pipebench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Prints every metric by name with its unit, one line per correctness
mismatch, an ``info`` line (host, seed, op counts), and as the last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics).  Spans and a result record go to ``.pipebench/``.
Exits non-zero without a result when the program's sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".pipebench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Pool workers start from a fresh interpreter and import repro too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    from pipebench import bench, metrics
    if args.workload not in bench.WORKLOADS:
        print(f"pipebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    run = bench.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        str(OUT_DIR),
    )
    values = run.metrics()
    units = dict(metrics.PER_LAYER if args.trace else metrics.END_TO_END)
    for name, value in values.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    if not args.trace:
        share = run.failed / run.attempted
        print(f"{'failed_share':28s} {share:14.6g} ratio")
    for mismatch in run.check.mismatches:
        print(f"MISMATCH {mismatch}")
    print("info " + json.dumps(run.info(), sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
