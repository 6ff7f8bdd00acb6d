"""Output checks made apart from gaborkit.

Hermite functions come from ``scipy.special.eval_hermite``; Zak values are
direct sums of the defining series; frame systems are reduced by hand from
the documented conventions (Dilation(a) projects to diag(a, 1/a), Chirp(q)
to [[1, 0], [q, 1]], FrFT(r) to [[cos r, sin r], [-sin r, cos r]], a chain
to the ordered product).  Each check takes a job from ``workloads`` and the
output the job wrote, and returns a list of failures (empty when the output
passes).  Only the identity-suite check calls into gaborkit, to run
``apply_frft`` on Hermite samples made here.
"""

import json
import math

import numpy as np
from scipy.special import eval_hermite

CERTIFIED_RESIDUAL = 1e-10
ZERO_OBJECTIVE = 1e-20
VERDICTS = ("NotFrame", "LikelyFrame", "Inconclusive")
# point sets of density 1, where Balian-Low rules out a frame for these windows
CRITICAL_SETS = ("Z2", "D-sqrt2")

_K = 40  # Zak series terms on each side; the windows here decay like exp(-pi t^2 / 2)


def hermite(n, t):
    """h_n(t) = 2^(1/4) (2^n n!)^(-1/2) H_n(sqrt(2 pi) t) exp(-pi t^2)."""
    t = np.asarray(t, dtype=float)
    scale = 2.0 ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
    return scale * eval_hermite(n, math.sqrt(2.0 * math.pi) * t) * np.exp(-math.pi * t * t)


def zak(g, x, omega, center=0.0):
    """Z g(x, omega) = sum_k g(k - x) exp(2 pi i omega k), summed around the window."""
    x = np.asarray(x, dtype=float)[..., None]
    omega = np.asarray(omega, dtype=float)[..., None]
    k = np.floor(x + center) + np.arange(-_K, _K + 1)
    return np.sum(g(k - x) * np.exp(2j * np.pi * omega * k), axis=-1)


def _set_shifts(name):
    """Coset shifts of the multi-window system over Z^2 that a set reduces to,
    and the dilation b of the reduced window D_b h (b = 1 for none)."""
    if name.startswith("Z2+"):
        x, w = (float(v) for v in name[3:].split(","))
        return [(0.0, 0.0), (x % 1.0, w % 1.0)], 1.0
    return {
        "Z2": ([(0.0, 0.0)], 1.0),
        "Z2-union-half": ([(0.0, 0.0), (0.5, 0.5)], 1.0),
        # (1/sqrt2) Z^2 = U (Z^2 u (Z^2 + (1/2, 0))) with U = diag(sqrt2, 1/sqrt2)
        "sqrt2-square": ([(0.0, 0.0), (0.5, 0.0)], 1.0 / math.sqrt(2.0)),
        "D-sqrt2": ([(0.0, 0.0)], 1.0 / math.sqrt(2.0)),
    }[name]


def _chain_matrix(chain):
    out = np.eye(2)
    for op in chain:
        if op["op"] == "frft":
            c, s = math.cos(op["r"]), math.sin(op["r"])
            m = np.array([[c, s], [-s, c]])
        elif op["op"] == "chirp":
            m = np.array([[1.0, 0.0], [op["q"], 1.0]])
        else:
            raise ValueError(f"no projection for {op!r}")
        out = out @ m
    return out


def reduced_window(n, chain, b):
    """The window g with |Z g| equal to |Z (C h_n)| for C = D_b . chain.

    (C h_n, Z^2) is equivalent to (h_n, M Z^2) with M = U_C^-1.  Writing
    M = R_t V_p diag(a, 1/a) (rotation, shear, dilation) the metaplectic
    operator of M undoes on h_n as D_{1/a} Chirp(-p) FrFT(-t) h_n, and the
    FrFT acts on h_n by a phase, so g(t) = sqrt(a) exp(-i pi p a^2 t^2) h_n(a t).
    """
    if not chain:
        return lambda t: hermite(n, np.asarray(t) / b) / math.sqrt(b)
    if b != 1.0:
        raise ValueError("operator chains are checked over Z2 cosets only")
    M = np.linalg.inv(_chain_matrix(chain))
    rho = math.hypot(M[0, 1], M[1, 1])
    c, s = M[1, 1] / rho, M[0, 1] / rho
    a = (c * M[0, 0] - s * M[1, 0])
    p = (s * M[0, 0] + c * M[1, 0]) / a
    return lambda t: math.sqrt(a) * np.exp(-1j * math.pi * p * a * a * np.square(t)) \
        * hermite(n, a * np.asarray(t))


def frame_objective(job):
    """F(x, omega) = sum over cosets s of |Z g (x + s)|^2 for the job's system."""
    shifts, b = _set_shifts(job["set"])
    g = reduced_window(job["n"], job["chain"], b)

    def F(x, omega):
        return sum(np.abs(zak(g, np.asarray(x) + sx, np.asarray(omega) + sw)) ** 2
                   for sx, sw in shifts)

    return F, len(shifts)


def check_frame(job, report, stdout):
    fails = []
    if report.get("verdict") not in VERDICTS:
        return [f"unknown verdict {report.get('verdict')!r}"]
    if stdout.strip() != report["verdict"]:
        fails.append(f"printed verdict {stdout.strip()!r} differs from the report")
    if report.get("resolution") != job["N"]:
        fails.append(f"resolution {report.get('resolution')} != {job['N']}")
    A, B = report["A_est"], report["B_est"]
    if not (math.isfinite(A) and math.isfinite(B)):
        return fails + [f"non-finite bounds A={A} B={B}"]
    F, m = frame_objective(job)
    # Parseval over the fundamental domain: the mean of F is the number m of
    # unit-norm windows, so the extrema bracket it
    if not (A <= m * (1 + 1e-12) and B >= m * (1 - 1e-12)):
        fails.append(f"Zak Parseval bracket A={A} <= {m} <= B={B} fails")
    if report["verdict"] == "LikelyFrame" and job["set"] in CRITICAL_SETS:
        fails.append(f"LikelyFrame at critical density on {job['set']}")
    certified = [z for z in report["zeros"] if z["residual"] <= CERTIFIED_RESIDUAL]
    for z in certified:
        val = float(F(z["x"], z["omega"]))
        if not val <= ZERO_OBJECTIVE:
            fails.append(f"certified zero ({z['x']}, {z['omega']}) has objective {val:.3e}")
    if report["verdict"] == "NotFrame" and not certified:
        fails.append("NotFrame without a certified zero")
    N = job["N"]
    if N <= 64:
        # the whole grid: B_est is its maximum, A_est at most its minimum
        i = np.arange(N) / N
        grid = F(i[:, None], i[None, :])
        gmax, gmin = float(grid.max()), float(grid.min())
        if abs(B - gmax) > 1e-9 * gmax:
            fails.append(f"B_est {B!r} differs from the closed-form grid maximum {gmax!r}")
        if A > gmin * (1 + 1e-9) + ZERO_OBJECTIVE:
            fails.append(f"A_est {A!r} above the closed-form grid minimum {gmin!r}")
    else:
        rng = np.random.default_rng(N * 131 + job["n"])
        ij = rng.integers(0, N, size=(64, 2)) / N
        vals = F(ij[:, 0], ij[:, 1])
        if vals.max() > B * (1 + 1e-9) or vals.min() < A * (1 - 1e-9) - 1e-15:
            fails.append(f"grid values [{vals.min()!r}, {vals.max()!r}] "
                         f"outside [A_est, B_est] = [{A!r}, {B!r}]")
    return fails


def surface_window(job):
    """g = pi(x, w) Chirp(q) D_a h_n as a closed form, and its centre."""
    n, a, q = job["n"], job["dilate"], job["chirp"]
    x, w = job["shift"]

    def g(t):
        u = np.asarray(t) - x
        return np.exp(2j * np.pi * w * np.asarray(t)) * np.exp(1j * np.pi * q * u * u) \
            * hermite(n, u / a) / math.sqrt(a)

    return g, x


def check_surface(job, text, meta, stdout):
    N = job["N"]
    fails = []
    head, _, body = text.partition("\n")
    if head != "x,omega,re,im,abs":
        return [f"header {head!r}"]
    rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if rows.shape != (N * N, 5):
        return [f"{rows.shape} rows, expected {(N * N, 5)}"]
    grid = np.arange(N) / N
    if not (np.array_equal(rows[:, 0], np.repeat(grid, N))
            and np.array_equal(rows[:, 1], np.tile(grid, N))):
        fails.append("x / omega columns are not exactly i/N, j/N in row-major order")
    re, im, ab = rows[:, 2], rows[:, 3], rows[:, 4]
    hyp = np.hypot(re, im)
    bad = np.abs(ab - hyp) > 4e-16 * np.maximum(hyp, 1e-300)
    if bad.any():
        fails.append(f"abs != hypot(re, im) on {int(bad.sum())} rows")
    mean = float(np.mean(ab * ab))
    if abs(mean - 1.0) > 1e-9:
        fails.append(f"mean |Z|^2 over the grid is {mean!r}, not 1")
    g, center = surface_window(job)
    rng = np.random.default_rng(N)
    pick = rng.choice(N * N, size=64, replace=False)
    ref = zak(g, rows[pick, 0], rows[pick, 1], center)
    err = float(np.max(np.abs(re[pick] + 1j * im[pick] - ref)))
    if err > 1e-11:
        fails.append(f"sampled rows differ from the Zak sum by {err:.3e}")
    if meta.get("resolution") != N or meta.get("window", {}).get("hermite") != job["n"]:
        fails.append(f"sidecar {meta!r} does not describe the job")
    elif not meta.get("tail_bound", 1.0) <= 1e-10:
        fails.append(f"sidecar tail bound {meta.get('tail_bound')!r}")
    if stdout.strip() != f"wrote {N * N} rows to {job['out']}":
        fails.append(f"unexpected output line {stdout.strip()!r}")
    return fails


# tolerances pinned by the CLI's identity suites
SUITE_TOLERANCES = {
    "zak.quasi_periodicity_x": 1e-10, "zak.quasi_periodicity_omega": 1e-10,
    "zak.shift_covariance": 1e-10, "zak.poisson": 1e-10,
    "zak.parity_zeros": 1e-10, "zak.conjugate_symmetry": 1e-10,
    "theta.theta_combination": 1e-13, "theta.zak_theta_agreement": 1e-13,
    "theta.zak_origin": 1e-12, "theta.zak_half_half": 1e-12,
    "theta.jacobi_identity": 1e-12, "theta.logarithmic_derivative": 1e-12,
    "frft.eigenvalue_quadrature": 1e-7, "frft.eigenvalue_hermite": 1e-7,
    "frft.semigroup": 1e-6,
    "intertwine.dilation": 1e-6, "intertwine.chirp": 1e-6,
    "intertwine.frft": 1e-6, "intertwine.fourier": 1e-6,
}


def frft_eigen_defect(n, r):
    """Relative L2 defect of gaborkit's apply_frft on scipy Hermite samples."""
    from gaborkit.operators import SampledFunction, apply_frft, grid_points
    t = grid_points()
    f = SampledFunction(hermite(n, t).astype(complex))
    g = apply_frft(r, f)
    expected = np.exp(-1j * n * r) * f.values
    return float(np.linalg.norm(g.values - expected) / np.linalg.norm(f.values))


def check_identities(job, report, stdout):
    fails = []
    if report.get("passed") is not True:
        fails.append("report does not pass")
    if report.get("suites") != ["zak", "theta", "frft", "intertwine"]:
        fails.append(f"suites {report.get('suites')!r}")
    defects, tols = report.get("defects", {}), report.get("tolerances", {})
    if set(defects) != set(SUITE_TOLERANCES) or set(tols) != set(SUITE_TOLERANCES):
        fails.append(f"defect names {sorted(defects)!r}")
    for name, pinned in SUITE_TOLERANCES.items():
        d, t = defects.get(name), tols.get(name)
        if not (isinstance(d, float) and math.isfinite(d) and 0.0 <= d):
            fails.append(f"defect {name} = {d!r}")
        elif t != pinned:
            fails.append(f"tolerance {name} = {t!r}, pinned {pinned!r}")
        elif d > pinned:
            fails.append(f"defect {name} = {d!r} above {pinned!r}")
    if stdout.strip() != f"all {len(SUITE_TOLERANCES)} identity defects within tolerance":
        fails.append(f"unexpected output line {stdout.strip()!r}")
    eig = frft_eigen_defect(job["n"], job["angle"])
    if not eig <= 1e-7:
        fails.append(f"apply_frft on scipy h_{job['n']} misses exp(-inr) h_n by {eig:.3e}")
    return fails


def check_job(job, result):
    """Failures of one job: its exit code, then the checks of its output."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()}"]
    kind = job["workload"]
    with open(job["out"], encoding="utf-8") as fh:
        text = fh.read()
    if kind == "surface-csv":
        with open(job["meta"], encoding="utf-8") as fh:
            meta = json.load(fh)
        return check_surface(job, text, meta, result["stdout"])
    report = json.loads(text)
    if kind == "identity-suites":
        return check_identities(job, report, result["stdout"])
    return check_frame(job, report, result["stdout"])
