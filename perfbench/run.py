"""pipenet benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout (src/pipenet next to perfbench/). Starts
SETUPS fresh workload processes (perfbench/worker.py): the first SETUPS-1
only set up, the last also runs the timed jobs for --seconds. Then checks
the outputs of the warm-up job and of the last timed job against
computations made apart from the program (workloads.py), and prints one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
of perfbench/README.md. Inputs, outputs and traces go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3  # set-up samples per run; setup_s is their median
CHILD_TIMEOUT_S = 150
# Every process here runs on one BLAS thread, so a job occupies one of the
# machine's 2 cores; a fixed hash seed fixes set and dict orders across processes.
CHILD_ENV = {"PYTHONHASHSEED": "0",
             **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
os.environ.update(CHILD_ENV)

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spawn(args, probe: bool) -> dict:
    """Start one workload process, wait for it and return its JSON report."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # set-up time as a user sees it: bytecode cached after the first import
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    if probe:
        cmd.append("--probe")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload process ran over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"workload process exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[dict], rep: dict) -> dict:
    jobs = rep["jobs"]
    done = len(jobs) - rep["failed"]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "model_p50_s": (statistics.median(rep["model"]), "s"),
        "job_p50_s": (statistics.median(jobs), "s"),
        "jobs_per_s": (done / sum(jobs), "1/s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
    }


def per_layer(setups: list[dict], rep: dict) -> dict:
    layers, traced, plain = rep["layers"], rep["traced_jobs"], rep["jobs"]
    out = {"setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
           "cli.bytes_out": (statistics.median(rep["bytes_out"]), "B")}
    for key in sorted(layers[0]):
        if key != "trace.self_sum_s":
            out[key] = (statistics.median(m[key] for m in layers),
                        "s" if key.endswith("_s") else "count")
    traced_p50, plain_p50 = statistics.median(traced), statistics.median(plain)
    out["trace.job_p50_s"] = (traced_p50, "s")
    out["trace.untraced_job_p50_s"] = (plain_p50, "s")
    out["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    out["trace.accounted_share"] = (
        statistics.median(m["trace.self_sum_s"] / t for m, t in zip(layers, traced)), "ratio")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pipenet" / "cli.py").is_file():
        fail(f"no pipenet sources under {ROOT / 'src'}; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)

    setups = [spawn(args, probe=True) for _ in range(SETUPS - 1)]
    rep = spawn(args, probe=False)
    setups.append(rep)

    wl = workloads.WORKLOADS[args.workload]
    inp = wl.write_inputs(OUT, args.seed)
    problems = list(rep["problems"])
    if not problems:
        text = (OUT / f"{args.workload}.csv").read_text(encoding="utf-8")
        problems = wl.full_check(inp, text, rep["stderr"])
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    metrics = per_layer(setups, rep) if args.trace else end_to_end(setups, rep)
    print(json.dumps({
        "correct": not problems,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
