"""One workload process: set up, run timed CLI jobs, report raw figures as JSON.

Started by run.py from the checkout root with PYTHONPATH=src. Set-up is
`import pipenet`, writing the generated inputs and one warm-up job; it ends
when the first timed job starts. With --probe the process stops there and
reports its set-up time only.

Each round is one job, `pipenet.cli.main(argv)` called in-process with
its CSV written to a file, then (untimed) the quick check of that file
and one timing of netspec.load + netspec.build_closed on the workload's
network. Rounds repeat until --seconds have passed since the first one.
With --trace 1 every other job runs with the tracer's wrappers installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def job(cli, argv):
    """Run one CLI job; return (exit code, stderr text, wall seconds)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
        dt = time.perf_counter() - t0
    return rc, err.getvalue(), dt


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="time.monotonic_ns() when the parent started this process")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import pipenet  # noqa: F401  the import a user pays on every CLI call
    import_s = time.perf_counter() - t0
    from pipenet import cli, netspec

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    inp = wl.write_inputs(out, args.seed)
    csv = out / f"{args.workload}.csv"
    argv = wl.argv(inp, csv)
    rc, stderr, _ = job(cli, argv)
    setup_s = (time.monotonic_ns() - args.spawned_ns) * 1e-9
    report = {"setup_s": setup_s, "import_s": import_s}
    if args.probe:
        print(json.dumps(report))
        return
    problems = ([f"warm-up job exited {rc}"] if rc != 0
                else wl.quick_check(inp, csv.read_text(encoding="utf-8"), stderr))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    jobs, traced_jobs, model, bytes_out = [], [], [], []
    failed = 0
    start = time.perf_counter()
    least = 2 if tracer else 1  # the traced run needs an untraced job to compare
    while len(jobs) + len(traced_jobs) < least or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(traced_jobs) <= len(jobs)
        if traced:
            tracer.begin_job()
        rc, stderr, dt = job(cli, argv)
        if traced:
            tracer.end_job()
        (traced_jobs if traced else jobs).append(dt)
        if rc != 0:
            failed += 1
            problems.append(f"job exited {rc}: {stderr.strip()[-300:]}")
            continue
        text = csv.read_text(encoding="utf-8")
        bytes_out.append(len(text.encode()))
        problems += wl.quick_check(inp, text, stderr)
        t = time.perf_counter()
        netspec.build_closed(netspec.load(inp.network))
        model.append(time.perf_counter() - t)
    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=len(jobs) + len(traced_jobs), failed=failed, problems=problems[:20],
        jobs=jobs, traced_jobs=traced_jobs, model=model, bytes_out=bytes_out,
        stderr=stderr)
    if tracer is not None:
        tracer.write(out / f"trace-{args.workload}.npz")
        report["layers"] = tracer.job_metrics()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
