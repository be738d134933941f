"""Command-line entry points: build-library, run-suite, report.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 run failed (any other
package error, such as a failed prior query or a broken contract).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, VlapsError
from .harness import (
    SuiteConfig,
    aggregate,
    load_records,
    render_report,
    run_and_report,
)
from .macrolib import build_library, load_trajectories, segment_trajectories

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUN = 4


def _cmd_build_library(args) -> int:
    trajs = load_trajectories(args.input)
    macros = segment_trajectories(trajs, args.horizon)
    lib = build_library(macros, args.size, args.seed)
    lib.save(args.out)
    print(f"wrote library with m={lib.m}, H={lib.horizon}, n={lib.action_dim} "
          f"to {args.out}")
    return EXIT_OK


def _cmd_run_suite(args) -> int:
    try:
        data = json.loads(Path(args.config).read_text())
    except ValueError as exc:
        raise ConfigurationError(f"{args.config}: suite config is not JSON ({exc})") from exc
    cfg = SuiteConfig.from_json(data)
    records, summary = run_and_report(cfg)
    print(f"wrote {len(records)} records and report files to {cfg.out_dir}")
    for row in summary:
        runtime = row["mean_runtime_s"]
        runtime_str = f"{runtime:.3f}s" if runtime is not None else "N/A"
        print(f"  noise={row['noise']:g} {row['method']:>10}: "
              f"success={row['success_rate']:.2f} runtime={runtime_str} n={row['n']}")
    return EXIT_OK


def _cmd_report(args) -> int:
    records_path = Path(args.records) / "records.jsonl"
    if not records_path.exists():
        raise ConfigurationError(f"no records file at {records_path}")
    summary = aggregate(load_records(records_path))
    paths = render_report(summary, args.records)
    print("wrote " + ", ".join(str(p) for p in paths))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlaps",
        description="Macro-action tree search benchmarks and tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lib = sub.add_parser("build-library",
                           help="cluster logged trajectories into a macro library")
    p_lib.add_argument("--input", required=True, help="trajectory JSONL file")
    p_lib.add_argument("--size", type=int, required=True, help="library size m")
    p_lib.add_argument("--seed", type=int, default=0)
    p_lib.add_argument("--horizon", type=int, default=4, help="macro length H")
    p_lib.add_argument("--out", required=True, help="output library JSON path")
    p_lib.set_defaults(func=_cmd_build_library)

    p_run = sub.add_parser("run-suite", help="run a paired-seed benchmark sweep")
    p_run.add_argument("--config", required=True, help="suite config JSON file")
    p_run.set_defaults(func=_cmd_run_suite)

    p_rep = sub.add_parser("report", help="re-aggregate a records directory")
    p_rep.add_argument("--records", required=True,
                       help="directory containing records.jsonl")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VlapsError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
