"""One workload in one process: set-up, then a closed loop over the job list.

Started by run.py, never by hand.  Set-up runs from interpreter start to
the first timed job: imports, input generation and one warm-up pass.
Every job, in the warm-up pass and in the timed passes, is preceded by one
run of the reference kernel.  A job's reference time is the median of the
kernel times just before it and its five neighbours on either side, which
follows the machine's drift while one slow kernel run does not count; the
job's time is reported as the median, over the passes, of job time /
reference time, times the kernel's nominal time.  The last line of
standard output is a JSON summary for run.py.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from refkernel import NOMINAL_MS, reference_kernel

MIN_PASSES = 2
WINDOW = 5          # kernel runs on either side that a job's reference spans


def time_reference():
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1e3


class SetupClock:
    """Set-up time as a sum of segments, each normalised by the reference
    kernel timed next to it."""

    def __init__(self, started):
        self.mark = started
        self.norm_s = 0.0
        self.ref_ms = None

    def lap(self):
        """Close the segment that ends now and time a fresh reference."""
        seg = time.perf_counter() - self.mark
        ref = time_reference()
        self.norm_s += seg * NOMINAL_MS / (self.ref_ms or ref)
        self.ref_ms = ref
        self.mark = time.perf_counter()

    def add_pass(self, ratios):
        self.norm_s += sum(ratios) * NOMINAL_MS / 1e3


def ratios(times, refs):
    """job time / the median of the kernel times around it."""
    out = []
    for j, t in enumerate(times):
        near = refs[max(0, j - WINDOW):j + WINDOW + 1]
        out.append(t / statistics.median(near))
    return out


def fresh_state():
    """Start the next job as a fresh CLI process would, whatever jobs ran
    before it: sympy's expression cache (the fit path imports sympy
    lazily) is emptied, and the garbage collector's young generations are
    empty with everything older frozen, so that the collections a job
    triggers depend on its own allocations only."""
    cache = sys.modules.get("sympy.core.cache")
    if cache is not None:
        cache.clear_cache()
    gc.collect()
    gc.freeze()


def run_job(job):
    try:
        return job.call()
    except Exception:
        return -1, traceback.format_exc()


class Verdicts:
    """Failed-job accounting and cached output checks."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.passed = [set() for _ in jobs]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def record(self, j, code, out):
        job = self.jobs[j]
        self.attempted += 1
        if code != 0:
            self.failed += 1
            if not job.expect_fail:
                self.correct = False
                self._note(j, [f"exit code {code}: {str(out)[-400:]}"])
            return
        key = job.key(out)
        if key in self.passed[j]:
            return
        try:
            probs = job.check(code, out)
        except Exception:
            probs = ["check raised: " + traceback.format_exc(limit=3)]
        if probs:
            self.failed += 1
            self.correct = False
            self._note(j, probs)
        else:
            self.passed[j].add(key)

    def _note(self, j, probs):
        if len(self.problems) < 10 and not any(
                m.startswith(f"job {j} ") for m in self.problems):
            self.problems.append(f"job {j} ({self.jobs[j].kind}): {probs[0]}")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args()

    clock = SetupClock(args.spawned_at)
    clock.lap()                      # interpreter start, benchmark imports
    import ridgekit.cli  # noqa: F401
    clock.lap()                      # program imports
    import jobs as joblib
    workdir = os.path.join(os.getcwd(), ".bench_run",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs = joblib.build(args.workload, args.seed, workdir)
        clock.lap()                  # input generation
        result = measure(args, jobs, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, jobs, clock):
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()
    verdicts = Verdicts(jobs)
    # warm-up pass: part of set-up
    times, refs = [], []
    for j, job in enumerate(jobs):
        fresh_state()
        refs.append(time_reference())
        t0 = time.perf_counter()
        code, out = run_job(job)
        times.append((time.perf_counter() - t0) * 1e3)
        verdicts.record(j, code, out)
    clock.add_pass(ratios(times, refs))
    setup_raw = time.perf_counter() - args.spawned_at
    summary = {"setup_norm_s": clock.norm_s, "setup_raw_s": setup_raw}
    verdicts.attempted = verdicts.failed = 0
    if recorder:
        recorder.fold()
    norm = [[] for _ in jobs]
    raws = [[] for _ in jobs]
    all_refs = []
    pass_wall, layers = [], []
    start = time.perf_counter()
    while True:
        gc.unfreeze()       # let garbage frozen during the last pass go
        gc.collect()
        t_pass = time.perf_counter()
        times, refs = [], []
        for j, job in enumerate(jobs):
            fresh_state()
            r0 = time.perf_counter()
            reference_kernel()
            r1 = time.perf_counter()
            code, out = run_job(job)
            times.append(time.perf_counter() - r1)
            refs.append(r1 - r0)
            if recorder and job.cli:
                recorder.add("cli.output_bytes", len(out.encode()))
            verdicts.record(j, code, out)
        for j, (t, r) in enumerate(zip(times, ratios(times, refs))):
            norm[j].append(r)
            raws[j].append(t)
        all_refs += refs
        pass_wall.append((time.perf_counter() - t_pass, sum(times)))
        if recorder:
            import spans
            layers.append(spans.layer_metrics(*recorder.fold()))
        if time.perf_counter() - start >= args.seconds and len(pass_wall) >= MIN_PASSES:
            break
    summary.update({
        "kinds": [job.kind for job in jobs],
        "norm_ms": [[r * NOMINAL_MS for r in rs] for rs in norm],
        "raw_ms": [[t * 1e3 for t in ts] for ts in raws],
        "passes": len(pass_wall),
        "pass_wall_s": [w for w, _ in pass_wall],
        "pass_job_s": [s for _, s in pass_wall],
        "ref_ms": statistics.median(all_refs) * 1e3,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "correct": verdicts.correct,
        "problems": verdicts.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if layers:
        summary["layers"] = {k: statistics.median(d[k] for d in layers)
                             for k in layers[0]}
    return summary


if __name__ == "__main__":
    main()
