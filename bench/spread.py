#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's quartiles.

    python3 bench/spread.py --workload mono-complex --seeds 1-10 --seconds 30

The spread is the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``).  Each run
is a separate ``bench/run.py`` process, as when the runs are made one by
one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs not correct", file=sys.stderr)
            return 1
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {med:.6g}, quartiles "
              f"{q1:.6g} .. {q3:.6g}, spread {(q3 - q1) / med:.3f} "
              f"({len(vals)} runs)")
    print(f"failed share of attempted: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
