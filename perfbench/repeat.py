"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--seconds 15]
        [--trace 0|1] [--workload W ...]

Runs perfbench/run.py once per (workload, seed), one after another, and
prints per metric the median, the quartiles (statistics.quantiles, n=4)
and their distance as a share of the median. Every run's JSON line is
appended to perfbench/out/repeat.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append",
                    default=None, choices=[w["name"] for w in BENCH["workloads"]])
    args = ap.parse_args()
    log = HERE / "out" / "repeat.jsonl"
    log.parent.mkdir(exist_ok=True)
    for name in args.workload or [w["name"] for w in BENCH["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace,
                                     **result}) + "\n")
            runs.append(result)
        ok = all(r["correct"] for r in runs)
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, correct={ok}, failed share {failed}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
        for key, first in runs[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            share = (q3 - q1) / abs(med) if med else float("nan")
            print(f"  {key:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f} {first['unit']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
