"""gaborkit benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload frame-verdicts --seed 1 --seconds 24 --trace 0

Run from the root of a gaborkit checkout (the package is imported from
``src/``; nothing needs installing).  Jobs go through
``gaborkit.cli.main(argv)`` in one fresh worker process with one BLAS
thread, in whole rounds (see workloads.py), until the jobs have taken
``--seconds`` seconds.  The worker waits while this process checks each
job's output apart from the program (checks.py); a job that exits non-zero
or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
list of rounds three times, each in a fresh worker: untraced, with every
public gaborkit function wrapped (spans.py), and untraced again.  It prints
the per-layer metrics per job of the traced pass and the tracing overhead,
the drop of jobs_per_s from the untraced passes to the traced one.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import itertools
import json
import os
import select
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# one BLAS/OpenMP thread everywhere, set before numpy is imported
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
os.environ.update(THREAD_ENV)

SETUP_REPEATS = 9
SETUP_CODE = ("import sys, time\n"
              "t0 = time.perf_counter()\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import gaborkit.cli\n"
              "gaborkit.cli.build_parser()\n"
              "print(repr(time.perf_counter() - t0))\n")
# a job that runs longer than this is a hang, not a measurement
JOB_TIMEOUT_S = 120.0
# rounds in the fixed job list of a traced run
TRACE_ROUNDS = {"frame-verdicts": 1, "frame-interp": 3, "surface-csv": 2,
                "identity-suites": 2}


class SetupTimer:
    """Times a fresh interpreter importing gaborkit and building the CLI parser.

    Samples are taken between rounds, while the worker is idle, so that they
    spread over the run instead of landing in one stretch of machine speed.
    """

    def __init__(self, env):
        self.env = env
        self.samples = []
        self._sample()  # the first start may compile the bytecode cache
        self.samples.clear()

    def _sample(self):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT,
                              env=self.env, capture_output=True, text=True,
                              timeout=60, check=True)
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))

    def take(self, count):
        for _ in range(min(count, SETUP_REPEATS - len(self.samples))):
            self._sample()

    def median(self):
        self.take(SETUP_REPEATS)
        return statistics.median(self.samples)


class Worker:
    """A fresh interpreter running worker.py, one job at a time."""

    def __init__(self, env, trace_path=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def _ask(self, msg, timeout):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"worker gave no answer to {msg!r} "
                               f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def run(self, job):
        return self._ask({"argv": job["argv"], "out": job["out"]}, JOB_TIMEOUT_S)

    def finish(self):
        reply = self._ask({"finish": True}, 600.0)
        self.close()
        return reply

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Tally:
    """Jobs attempted and failed, and the job walls of whole rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.walls = []
        self.rounds = 0

    def run_round(self, worker, jobs):
        from checks import check_job
        busy = 0.0
        for job in jobs:
            result = worker.run(job)
            self.attempted += 1
            busy += result["wall"]
            self.walls.append(result["wall"])
            fails = check_job(job, result)
            if fails:
                self.failed += 1
                self.wrong += result["rc"] == 0
                print(f"FAILED {' '.join(job['argv'])}: {'; '.join(fails)}",
                      file=sys.stderr)
        self.rounds += 1
        return busy


def run_pass(job_rounds, env, seconds=None, trace_path=None, setup=None):
    """Run rounds in one fresh worker: all of them, or until ``seconds`` of jobs."""
    tally = Tally()
    worker = Worker(env, trace_path)
    try:
        busy = 0.0
        if setup is not None:
            setup.take(3)
        for jobs in job_rounds:
            busy += tally.run_round(worker, jobs)
            if setup is not None:
                setup.take(1)
            if seconds is not None and busy >= seconds:
                break
        reply = worker.finish()
    finally:
        worker.close()
    return tally, busy, reply


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gaborkit", "cli.py")):
        print(f"no gaborkit sources under {SRC}; run from a gaborkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, rounds
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = os.path.join(OUT, args.workload)
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)

    if args.trace:
        fixed = list(itertools.islice(rounds(args.workload, args.seed, out),
                                      TRACE_ROUNDS[args.workload]))
        # untraced passes before and after the traced one, so that a drift
        # in machine speed does not read as tracing overhead
        before, before_busy, _ = run_pass(fixed, env)
        spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
        traced, traced_busy, reply = run_pass(fixed, env, trace_path=spans_path)
        after, after_busy, _ = run_pass(fixed, env)
        rate_plain = (before.attempted + after.attempted) / (before_busy + after_busy)
        rate_traced = traced.attempted / traced_busy
        units = {"calls": "count", "self_s": "s", "mb_per_s": "MB/s",
                 "objective_evals": "count", "spans": "count"}
        metrics = {name: metric(value, units[name.rsplit(".", 1)[1]])
                   for name, value in reply["layers"].items()}
        metrics["trace.jobs_per_s_untraced"] = metric(rate_plain, "1/s")
        metrics["trace.jobs_per_s_traced"] = metric(rate_traced, "1/s")
        metrics["trace.overhead_pct"] = metric(
            100.0 * (rate_plain - rate_traced) / rate_plain, "%")
        tallies = (before, traced, after)
        print(f"traced {traced.attempted} jobs, spans in {spans_path}")
    else:
        setup = SetupTimer(env)
        tally, busy, reply = run_pass(rounds(args.workload, args.seed, out), env,
                                      seconds=args.seconds, setup=setup)
        metrics = {
            "jobs_per_s": metric(tally.attempted / busy, "1/s"),
            "job_p50_s": metric(statistics.median(tally.walls), "s"),
            "setup_s": metric(setup.median(), "s"),
            "peak_rss_mb": metric(reply["peak_rss_mb"], "MB"),
        }
        tallies = (tally,)
        print(f"{tally.attempted} jobs in {tally.rounds} rounds, "
              f"{busy:.2f} s of job time")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": sum(t.wrong for t in tallies) == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
