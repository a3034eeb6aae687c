"""Self-tests of the benchmark's output checks.

For one job of every kind, the real output must pass its check and a
deliberately wrong copy of it (a certificate with one weight changed, a
network shifted by 2*eps, ...) must fail it.  Run from the repository root:

    python3 bench/selftest.py

Exits 1 if any check accepts a wrong output or rejects a right one.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import jobs as joblib  # noqa: E402


def _json_mutant(edit):
    """Wrong output from an edit of the results; None when the edit does
    not apply to this output (it then waits for another job)."""
    def mutate(out):
        rep = json.loads(out)
        if edit(rep["results"]) is False:
            return None
        return json.dumps(rep)
    return mutate


def _shift_table(res):
    t = res["representation"]["tables"][0]
    k = next(iter(t))
    t[k] = checks.frac_str(checks.Fraction(t[k]) + 1)


def _bump_weight(res):
    if not res["certificates"]:
        return False
    res["certificates"][0]["weights"][0] += 1


def _flip(res):
    res["has_cycle"] = not res["has_cycle"]


def _lonely_tau(res):
    if "tau_fixed_point" not in res:
        return False
    res["tau_fixed_point"] = [0]
    res["tau_trace"][-1] = [0]


def _break_path(res):
    p = res.get("closed_path")
    if not p or len(p) < 4:
        return False
    p[1], p[2] = p[2], p[1]


def _scale(key, factor, shift=0.0):
    def edit(res):
        res[key] = res[key] * factor + shift
    return edit


def _fit_shift(out):
    """The network moved up by 2 eps: c2 multiplies the constant tail."""
    rep = json.loads(out)
    words = rep["command"].split()
    eps = float(words[words.index("--eps") + 1])
    i = words.index("--interval")
    d = float(words[i + 2]) - float(words[i + 1])
    tail = (1.0 + checks.strip_m(1, d, 0.25)) / 2.0
    rep["results"]["c2"] += 2.0 * eps / tail
    return json.dumps(rep)


def _theta_off(res):
    res["theta1"]["exact"] = str(int(res["theta1"]["exact"]) - 1)


def _table_bump(key):
    """One table value moved by twice the error: the pair then misses f by
    more than the error there (best pairs are not unique, so a smaller move
    can leave a valid pair)."""
    def edit(res):
        res[key]["values"][len(res[key]["values"]) // 2] += 2.0 * res["error"]
    return edit


def _bolt_bump(res):
    res["bolts"][0]["value"] += 0.01


def _smooth_bump(res):
    tab = res["g_tables"][0]
    tab["values"] = [v + 0.01 * k / len(tab["values"])
                     for k, v in enumerate(tab["values"])]


def _sigma_bump(res):
    vals = res["sigma"]
    vals[-1] = 0.999999


def _table_text(out):
    lines = out.strip().splitlines()
    x, v = lines[-1].split(",")
    lines[-1] = f"{x},{float(v) - 0.05:.5f}"
    return "\n".join(lines) + "\n"


def _lp_low(res):
    res["error"] = res["error"] * 0.9


# kind prefix -> [(label, mutate(output) -> wrong output)]
CLI_MUTANTS = {
    "product grid, nullity 2-4": [
        ("certificate with one weight changed", _json_mutant(_bump_weight)),
        ("verdict flipped", _json_mutant(_flip)),
        ("closed path out of order", _json_mutant(_break_path))],
    "lattice subset, nullity 0": [("verdict flipped", _json_mutant(_flip))],
    "cycle-free tree --solve": [
        ("interpolation table entry off by one", _json_mutant(_shift_table)),
        ("tau fixed point with a lone point", _json_mutant(_lonely_tau))],
    "cycle-free staircase --solve": [
        ("interpolation table entry off by one", _json_mutant(_shift_table))],
    "fit CLI, polynomial": [
        ("network shifted by 2 eps", _fit_shift),
        ("theta1 off by one", _json_mutant(_theta_off))],
    "fit CLI, n < 14,300 bits": [
        ("network shifted by 2 eps", _fit_shift)],
    "sigmoid eval": [("value outside its strip", _json_mutant(_sigma_bump))],
    "sigmoid table": [("value moved by 0.05", _table_text)],
    "approx uniform, closed form": [
        ("error 1% high", _json_mutant(_scale("error", 1.01))),
        ("g1 table value moved by twice the error",
         _json_mutant(_table_bump("g1_table")))],
    "approx uniform, LP fallback": [
        ("value below the rectangle bound", _json_mutant(_lp_low))],
    "approx l2, 2-D": [("error 5% high", _json_mutant(_scale("error", 1.05)))],
    "approx l2, 3-D": [("error 5% low", _json_mutant(_scale("error", 0.95)))],
    "approx l2, 4-D closed form": [
        ("error off by 1e-6", _json_mutant(_scale("error", 1.0, 1e-6)))],
    "approx l2, weighted": [
        ("error raised by 0.01", _json_mutant(_scale("error", 1.0, 0.01)))],
    "bolts hexagon": [("bolt value changed", _json_mutant(_bolt_bump)),
                      ("error below a bolt", _json_mutant(_scale("error", 0.9)))],
    "bolts octagonA": [("bolt value changed", _json_mutant(_bolt_bump))],
    "bolts stairs": [("error below a bolt", _json_mutant(_scale("error", 0.9)))],
    "bolts rect": [("error 1% high", _json_mutant(_scale("error", 1.01)))],
    "bolts hexagon --golomb": [
        ("golomb bound above the grid LP",
         _json_mutant(_scale("golomb_lower_bound", 1.5, 0.1)))],
    "smooth decompose": [("generator table tilted", _json_mutant(_smooth_bump))],
}


def _lib_mutants(kind, out):
    if kind.startswith("fit_two_neuron"):
        # the first library fit is BIG_FITS[0], on [-1, 1]
        net, ach = out
        eps = joblib.BIG_FITS[0][1]
        wrong = copy.copy(net)
        wrong.c2 = net.c2 + 2.0 * eps / ((1.0 + checks.strip_m(1, 2.0, 0.25)) / 2.0)
        return [("network shifted by 2 eps", (wrong, ach))]
    if kind.startswith("monic_index"):
        return [("one index off by one", [out[0] + 1] + out[1:])]
    if kind.startswith("monic_enum"):
        first = list(out[0])
        first[0] = first[0] + 1
        return [("one coefficient changed", [tuple(first)] + out[1:])]
    if kind.startswith("eval_network"):
        return [("values shifted by 2 eps", [v + 2.0 for v in out])]
    return []


def main():
    tmp = tempfile.mkdtemp(prefix="bench-selftest-", dir=os.getcwd())
    pending = {(prefix, label): mutate for prefix, ms in CLI_MUTANTS.items()
               for label, mutate in ms}
    seen = set()
    failures = tested = 0
    try:
        for workload in ("cycles-exact", "sigmoid-fit", "sigmoid-eval",
                         "approx-float"):
            for job in joblib.build(workload, 0, tmp):
                if job.expect_fail:
                    continue
                if job.cli:
                    prefix = next((p for p in sorted(CLI_MUTANTS, key=len, reverse=True)
                                   if job.kind.startswith(p)), None)
                    todo = [(label, m) for (p, label), m in pending.items()
                            if p == prefix]
                    if prefix is None or (prefix in seen and not todo):
                        continue
                else:
                    prefix = job.kind.split(" (")[0]
                    if prefix in seen:
                        continue
                code, out = job.call()
                if prefix not in seen:
                    seen.add(prefix)
                    good = job.check(code, out)
                    print(f"{'ok  ' if not good else 'FAIL'} {job.kind}: real output "
                          + (f"rejected ({good[0]})" if good else "accepted"))
                    failures += bool(good)
                if job.cli:
                    mutants = []
                    for label, m in todo:
                        wrong = m(out)
                        if wrong is not None:
                            mutants.append((label, wrong))
                            del pending[(prefix, label)]
                else:
                    mutants = _lib_mutants(job.kind, out)
                for label, wrong in mutants:
                    tested += 1
                    probs = job.check(code, wrong)
                    print(f"{'ok  ' if probs else 'FAIL'} {job.kind}: {label} "
                          + (f"rejected ({probs[0][:80]})" if probs else "accepted"))
                    failures += not probs
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for prefix, label in sorted(pending):
        print(f"FAIL no {prefix!r} job to test {label!r} on")
    failures += len(pending)
    print(f"{tested} wrong outputs, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
