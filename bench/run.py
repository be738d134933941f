"""Run one vlaps benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {trend_suite,uniform_deep,expand_heavy} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory; nothing needs to
be installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("trend_suite", "uniform_deep", "expand_heavy")
# each run is one process with one thread: keep BLAS from starting a pool
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "vlaps" / "__init__.py").is_file():
        print(f"error: no vlaps sources at {SRC / 'vlaps'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("VLAPS_OUTPUT_ROOT", None)
    sys.path.insert(0, str(SRC))

    import workloads  # imports numpy and vlaps, so only after the lines above

    return workloads.run(args, ROOT, BLAS_VARS)


if __name__ == "__main__":
    sys.exit(main())
