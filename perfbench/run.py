"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch_book --seed 1 --seconds 20
    python3 perfbench/run.py --workload quote_http --seed 1 --seconds 20 \\
        --trace 1

``--trace 0`` times the workload untraced and ends with the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` runs the
traced variant and ends with the ``per_layer`` metrics.  The last line
of standard output is one JSON object; the lines before it are a
readable table of every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import importlib
import sys

import common

WORKLOADS = ("batch_book", "quote_http", "risk_stream")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    try:
        common.bootstrap(args.workload)
    except common.BenchSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = importlib.import_module(f"w_{args.workload}")
    report = common.Report(args.workload)
    report.info["seed"] = args.seed
    workload.run(report, args.seed, args.seconds, bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    names = common.declared_metrics(kind)
    report.print_table()
    sys.stdout.flush()
    print(report.json_line(names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
