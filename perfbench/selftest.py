"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload, runs jobs of seed 1 through ``gaborkit.cli.main``, shows
that checks.py accepts the clean output, then corrupts a copy of it (one CSV
digit, A_est, B_est, a zero's coordinate, a verdict, a defect) and shows
that the check rejects every corrupted copy.  Exits 1 if a clean output is
rejected or a corrupted one accepted.
"""

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "selftest")


def run_job(job):
    from gaborkit.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(job["argv"])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def corrupted(job, suffix, edit):
    """A copy of the job whose output file went through ``edit(text) -> text``."""
    bad = dict(job, out=job["out"] + suffix)
    with open(job["out"], encoding="utf-8") as fh:
        text = fh.read()
    with open(bad["out"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(edit(text))
    if "meta" in job:
        shutil.copyfile(job["meta"], bad["out"] + ".meta.json")
        bad["meta"] = bad["out"] + ".meta.json"
    return bad


def edit_report(change):
    def edit(text):
        report = json.loads(text)
        change(report)
        return json.dumps(report)
    return edit


def csv_digit(text):
    """Change one digit of the re column in the middle row whose |re| > 0.1."""
    lines = text.split("\n")
    for k in range(len(lines) // 2, len(lines)):
        fields = lines[k].split(",")
        if len(fields) == 5 and abs(float(fields[2])) > 0.1:
            re = fields[2]
            at = re.index(".") + 1
            fields[2] = re[:at] + str((int(re[at]) + 1) % 10) + re[at + 1:]
            lines[k] = ",".join(fields)
            return "\n".join(lines)
    raise RuntimeError("no row to corrupt")


def first_job(workload, want=lambda job, result: True):
    from workloads import rounds
    out = os.path.join(OUT, workload)
    os.makedirs(out, exist_ok=True)
    for jobs in rounds(workload, 1, out):
        for job in jobs:
            result = run_job(job)
            if result["rc"] == 0 and want(job, result):
                return job, result
    raise RuntimeError("unreachable")


def has_certified_zero(job, result):
    with open(job["out"], encoding="utf-8") as fh:
        return any(z["residual"] <= 1e-10 for z in json.load(fh)["zeros"])


def cases():
    """(workload, description, job, result, expected-to-pass) for every case."""
    def shift_zero(r):
        r["zeros"][0]["x"] += 1e-3

    job, res = first_job("frame-verdicts", has_certified_zero)
    yield "frame-verdicts", "clean", job, res, True
    yield "frame-verdicts", "A_est above m", corrupted(
        job, ".a", edit_report(lambda r: r.update(A_est=r["B_est"]))), res, False
    yield "frame-verdicts", "zero coordinate +1e-3", corrupted(
        job, ".z", edit_report(shift_zero)), res, False
    crit, cres = first_job("frame-verdicts", lambda j, r: j["set"] == "D-sqrt2")
    yield "frame-verdicts", "clean D-sqrt2", crit, cres, True
    yield "frame-verdicts", "LikelyFrame at critical density", corrupted(
        crit, ".v", edit_report(lambda r: r.update(verdict="LikelyFrame", zeros=[]))), \
        dict(cres, stdout="LikelyFrame\n"), False

    job, res = first_job("frame-interp", has_certified_zero)
    yield "frame-interp", "clean", job, res, True
    yield "frame-interp", "B_est x (1 + 1e-7)", corrupted(
        job, ".b", edit_report(lambda r: r.update(B_est=r["B_est"] * (1 + 1e-7)))), \
        res, False
    yield "frame-interp", "zero coordinate +1e-3", corrupted(
        job, ".z", edit_report(shift_zero)), res, False

    job, res = first_job("surface-csv")
    yield "surface-csv", "clean", job, res, True
    yield "surface-csv", "one CSV digit", corrupted(job, ".d", csv_digit), res, False

    def defect(value):
        def change(r):
            r["defects"]["frft.semigroup"] = value
        return edit_report(change)

    job, res = first_job("identity-suites")
    yield "identity-suites", "clean", job, res, True
    yield "identity-suites", "defect 10x its tolerance", corrupted(
        job, ".t", defect(1e-5)), res, False
    yield "identity-suites", "defect NaN", corrupted(
        job, ".n", defect(float("nan"))), res, False


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checks import check_job
    bad = 0
    for workload, what, job, result, should_pass in cases():
        fails = check_job(job, result)
        ok = (not fails) == should_pass
        bad += not ok
        verdict = ("accepted" if not fails else "rejected")
        print(f"{'ok ' if ok else 'BAD'} {workload:16s} {what:34s} {verdict}"
              + (f": {fails[0]}" if fails else ""))
    print("self-test", "passed" if not bad else f"FAILED in {bad} cases")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
