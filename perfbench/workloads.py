"""The four workloads: seeded rounds of gaborkit CLI jobs.

A workload is an endless sequence of rounds; a run measures whole rounds.
Every round of a workload runs the same menu of job kinds, each kind once,
so the cost of a round varies little with the seed.  The seed picks the
order of the jobs in a round and the free parameters of each job inside
ranges whose per-job cost was measured (see README.md).

A job is a dict holding the CLI argv (``argv``) and everything the output
checks need to recompute the answer apart from the program.
"""

import json
import math
import os
import random

# Point sets of frame-verdicts.  The double over-sampling sets Z^2 u (Z^2 + z)
# take z from a class of mirror images, which have the same |Z|-objective up
# to a reflection of the torus and so cost the same; shifts with denominator
# 8, such as (1/8, 3/8), send h_4 into polishing runs of 2 s and more and are
# kept out.
FRAME_SETS = ("Z2-union-half", "sqrt2-square", "D-sqrt2", "Z2+quarter", "Z2+third")
MIRROR_SHIFTS = {
    "Z2+quarter": ((0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)),
    "Z2+third": ((1 / 3, 1 / 3), (2 / 3, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 2 / 3)),
}
# grid sizes, paired with (order, set) as a Latin square so that every order
# and every set meets every size once a round
FRAME_N = (256, 448, 640, 832, 1024)

# frame-interp menu: (Hermite order, set, FrFT angle range, chirp range).
# Each range was swept on a 6 x 6 grid at N = 32 (0.09 to 0.81 s a job);
# neighbouring values such as r = 0.4 with Z2 and n = 1, or n = 2 anywhere,
# reach the polishing sweep limit and cost 20 to 35 s a job.  The cost of a
# job varies by 20 to 40% under changes of r and q as small as 0.003, except
# for h_0 over Z2-union-half (0.15 to 0.28 s), which fills two of the five
# slots so that the median job of a run falls among its jobs.
INTERP_MENU = (
    (0, "Z2", (0.45, 0.55), (0.65, 0.75)),
    (0, "Z2-union-half", (0.45, 0.55), (0.65, 0.75)),
    (0, "Z2-union-half", (0.45, 0.55), (0.65, 0.75)),
    (1, "Z2", (0.75, 0.85), (0.65, 0.75)),
    (1, "Z2-union-half", (0.55, 0.65), (0.65, 0.75)),
)
INTERP_N = 32

SURFACE_N = (256, 320, 384)
IDENTITY_ORDERS = (0, 1, 2, 3, 4, 5)


def _frame_verdicts(rng, out):
    path = os.path.join(out, "report.json")
    jobs = []
    for n in range(5):
        for k, name in enumerate(FRAME_SETS):
            N = FRAME_N[(n + k) % len(FRAME_N)]
            if name in MIRROR_SHIFTS:
                x, w = rng.choice(MIRROR_SHIFTS[name])
                name = f"Z2+{x!r},{w!r}"
                flags = ["--set", "Z2", "--extra-shift", f"{x!r},{w!r}"]
            else:
                flags = ["--set", name]
            argv = ["frame-bounds", "--hermite", str(n), *flags, "--n", str(N),
                    "--out", path]
            jobs.append({"workload": "frame-verdicts", "argv": argv, "out": path,
                         "n": n, "set": name, "N": N, "chain": []})
    rng.shuffle(jobs)
    return jobs


def _frame_interp(rng, out):
    path = os.path.join(out, "report.json")
    jobs = []
    for n, s, (r0, r1), (q0, q1) in INTERP_MENU:
        r, q = rng.uniform(r0, r1), rng.uniform(q0, q1)
        chain = [{"op": "frft", "r": r}, {"op": "chirp", "q": q}]
        argv = ["frame-bounds", "--hermite", str(n), "--chain", json.dumps(chain),
                "--set", s, "--n", str(INTERP_N), "--out", path]
        jobs.append({"workload": "frame-interp", "argv": argv, "out": path,
                     "n": n, "set": s, "N": INTERP_N, "chain": chain})
    rng.shuffle(jobs)
    return jobs


def _surface_csv(rng, out):
    path = os.path.join(out, "surface.csv")
    jobs = []
    for N in SURFACE_N:
        n = rng.choice(IDENTITY_ORDERS)
        a = math.exp(rng.uniform(math.log(0.75), math.log(1.35)))
        q = rng.uniform(-1.0, 1.0)
        x, w = rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75)
        # "--flag=value" keeps argparse from reading a leading minus as a flag
        argv = ["zak-surface", "--hermite", str(n), f"--dilate={a!r}",
                f"--chirp={q!r}", f"--shift={x!r},{w!r}", "--n", str(N),
                "--out", path]
        jobs.append({"workload": "surface-csv", "argv": argv, "out": path,
                     "meta": path + ".meta.json", "n": n, "N": N,
                     "dilate": a, "chirp": q, "shift": (x, w)})
    rng.shuffle(jobs)
    return jobs


def _identity_suites(rng, out):
    path = os.path.join(out, "verify.json")
    jobs = []
    for n in IDENTITY_ORDERS:
        r = rng.uniform(0.3, 2.8)
        argv = ["verify", "--suite", "all", "--hermite", str(n),
                "--angle", repr(r), "--out", path]
        jobs.append({"workload": "identity-suites", "argv": argv, "out": path,
                     "n": n, "angle": r})
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "frame-verdicts": _frame_verdicts,
    "frame-interp": _frame_interp,
    "surface-csv": _surface_csv,
    "identity-suites": _identity_suites,
}


def rounds(workload, seed, out):
    """Yield the rounds of a workload forever; the same seed gives the same rounds."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng, out)
