#!/usr/bin/env python3
"""Seeded closed-loop benchmark of gatedepth.

    python3 perfbench/run.py --workload {train,infer,trapezoid} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``src/`` of
the checkout this file sits in, never from an installed copy. The last
line of standard output is the JSON result; a summary, the environment and
the path of the full record (``.bench_work/<workload>/result.json``) come
before it. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "infer", "trapezoid")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="input generation seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: the same steps at smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gatedepth" / "__init__.py").is_file():
        print(f"error: no gatedepth sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread keeps timings steady on a small shared machine; the
    # record notes the setting. Must happen before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import gatedepth

    if Path(gatedepth.__file__).resolve().parent != SRC / "gatedepth":
        print(f"error: gatedepth imported from {gatedepth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    record = harness.run(args.workload, args.seed, args.seconds, args.trace, args.scale, ROOT)
    harness.report(record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
