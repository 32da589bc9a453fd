"""Run every workload in turn, from this one process.

    python3 perfbench/all.py [--seed 1] [--seconds N] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Each workload runs exactly as ``run.py --workload NAME`` would, one child at
a time, and prints its metrics with their units, its error rate and its
result line. Exits 1 if any report failed a check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark every gridgaps workload in turn.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    all_correct = True
    for workload in WORKLOADS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main([
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ])
        if code != 0:
            return code
        print(buf.getvalue(), end="", flush=True)
        all_correct &= json.loads(buf.getvalue().splitlines()[-1])["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
