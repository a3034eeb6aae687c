"""Benchmark command: one workload, timed against the reference kernel.

    python3 bench/run.py --workload cycles-exact --seed 1 --seconds 15 --trace 0

Run from the root of a ridgekit checkout; the program is imported from its
``src``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` a separate traced
run gives the per-layer metrics.  Lines before it give the raw wall-clock
figures.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cycles-exact", "sigmoid-fit", "sigmoid-eval", "approx-float")
# The untraced run is split over this many fresh processes, one after the
# other: each sets up (so set-up is measured that many times) and then
# runs its share of the seconds.  Per-job medians pool the passes of all
# of them, so no one process's memory layout or moment decides a figure.
PROCESSES = 3
TIMEOUT_S = 170     # every run ends within the 180 s a run is allowed


def environment(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "RIDGEKIT_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # glibc adapts its mmap threshold to the process's history, so the same
    # numpy array can cost page faults in one pass and none in the next; a
    # fixed threshold, and no trimming, takes that history out of the times
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    return env


def spawn(args, seconds, env, deadline):
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    t0 = time.perf_counter()
    cmd = [sys.executable, worker, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--spawned-at", repr(t0)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # a worker that was killed leaves its input files behind
        shutil.rmtree(os.path.join(".bench_run", f"{args.workload}-{proc.pid}"),
                      ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(err[-3000:])
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ridgekit", "cli.py")):
        sys.exit("run from the root of a ridgekit checkout (src/ridgekit missing)")
    env = environment(root)
    deadline = time.monotonic() + TIMEOUT_S

    if args.trace:
        runs = [spawn(args, args.seconds, env, deadline)]
        norm_pass = sum(statistics.median(v) for v in runs[0]["norm_ms"]) / 1e3
        print(f"# traced: {runs[0]['passes']} passes, job time per pass "
              f"{statistics.median(runs[0]['pass_job_s']):.3f} s (median), "
              f"normalised {norm_pass:.3f} s")
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in runs[0]["layers"].items()}
    else:
        runs = [spawn(args, args.seconds / PROCESSES, env, deadline)
                for _ in range(PROCESSES)]
        kinds = runs[0]["kinds"]
        norm = [statistics.median(v for r in runs for v in r["norm_ms"][j])
                for j in range(len(kinds))]
        raw = [statistics.median(v for r in runs for v in r["raw_ms"][j])
               for j in range(len(kinds))]
        setups = [r["setup_norm_s"] for r in runs]
        pass_job = [s for r in runs for s in r["pass_job_s"]]
        print(f"# {len(norm)} jobs, {sum(r['passes'] for r in runs)} passes in "
              f"{PROCESSES} processes, job time per pass "
              f"{statistics.median(pass_job):.3f} s (median), normalised "
              f"{sum(norm) / 1e3:.3f} s, reference kernel "
              f"{statistics.median(r['ref_ms'] for r in runs):.3f} ms (median)")
        print(f"# raw: jobs_per_s {len(raw) / sum(raw) * 1e3:.3f}, "
              f"job_p50_ms {statistics.median(raw):.3f}, "
              f"job_p90_ms {p90(raw):.3f}, setup_s "
              f"{statistics.median(r['setup_raw_s'] for r in runs):.3f}")
        print("# setup_s of the processes: " + ", ".join(f"{s:.3f}" for s in setups))
        print("# jobs_per_s of the processes: " + ", ".join(
            f"{len(kinds) / sum(statistics.median(v) for v in r['norm_ms']) * 1e3:.3f}"
            for r in runs))
        shares = {}
        for kind, t in zip(kinds, norm):
            c, total = shares.get(kind, (0, 0.0))
            shares[kind] = (c + 1, total + t)
        for kind, (c, t) in sorted(shares.items(), key=lambda kv: -kv[1][1]):
            print(f"# kind {kind}: {c} jobs, {100 * t / sum(norm):.1f}% of a pass")
        metrics = {
            "jobs_per_s": {"value": len(norm) / sum(norm) * 1e3, "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(norm), "unit": "ms"},
            "job_p90_ms": {"value": p90(norm), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
        }
    problems = [m for r in runs for m in r["problems"]]
    for msg in problems[:10]:
        print(f"# problem: {msg}")
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))


def p90(values):
    """90th percentile; with 100 or more values at least 10 lie above it."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def unit_of(name):
    if name.endswith("ms"):
        return "ms"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    main()
